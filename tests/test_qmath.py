import numpy as np
import pytest

from qbattery import qmath
from qbattery.qmath import I2, I4, SIGMA_X, SIGMA_Z


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw + raw.conj().T


def joint_hamiltonian(h, j):
    return h * np.kron(SIGMA_Z, I2) + h * np.kron(I2, SIGMA_Z) + j * np.kron(SIGMA_X, SIGMA_X)


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(qmath.kron(I2, I2), I4)

    def test_sigma_z_with_identity(self):
        assert np.array_equal(qmath.kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_sigma_x_pair_is_antidiagonal(self):
        assert np.array_equal(qmath.kron(SIGMA_X, SIGMA_X), np.fliplr(I4.real).astype(complex))

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = qmath.kron(a, b)
        for i in range(2):
            for j in range(2):
                assert np.allclose(out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], a[i, j] * b)

    def test_trace_factorizes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            got = np.trace(qmath.kron(a, b))
            assert abs(got - np.trace(a) * np.trace(b)) < 1e-12

    def test_equals_numpy_kron(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            assert np.array_equal(qmath.kron(a, b), np.kron(a, b))


class TestHermitianEig:
    def test_sigma_z_spectrum(self):
        values, vectors = qmath.hermitian_eig(SIGMA_Z)
        assert np.allclose(values, [-1.0, 1.0])
        # lowest level is |1>, highest is |0>, up to phase
        assert abs(vectors[1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(vectors[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_joint_hamiltonian_spectrum(self):
        # blocks {|00>,|11>} and {|01>,|10>} diagonalize to +/-sqrt(4h^2+J^2)
        # and +/-J; at h=1, J=2 that is (-sqrt(8), -2, 2, sqrt(8))
        values, _ = qmath.hermitian_eig(joint_hamiltonian(1.0, 2.0))
        assert np.allclose(values, [-np.sqrt(8.0), -2.0, 2.0, np.sqrt(8.0)], atol=1e-12)

    def test_identity_is_fully_degenerate(self):
        values, vectors = qmath.hermitian_eig(I4)
        assert np.allclose(values, np.ones(4))
        assert np.allclose(vectors.conj().T @ vectors, I4, atol=1e-12)

    def test_degenerate_order_is_deterministic(self):
        m = np.diag([2.0, 2.0, -1.0, -1.0]).astype(complex)
        first = qmath.hermitian_eig(m)
        second = qmath.hermitian_eig(m.copy())
        assert np.array_equal(first.vectors, second.vectors)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_values_ascend(self, dim):
        rng = np.random.default_rng(12)
        stack = np.array([random_hermitian(rng, dim) for _ in range(6)])
        assert np.all(np.diff(qmath.hermitian_eig(stack).values, axis=-1) >= 0)


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        assert np.allclose(qmath.evolve(random_hermitian(rng, 4), 0.0), I4, atol=1e-12)

    def test_diagonal_generator(self):
        # exp(-i sigma_z pi) = diag(e^{-i pi}, e^{i pi}) = -I
        assert np.allclose(qmath.evolve(SIGMA_Z, np.pi), -I2, atol=1e-12)


class TestPartialTraceSecond:
    def test_product_state_recovers_first_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            a = a @ a.conj().T
            a /= np.trace(a)
            b = random_hermitian(rng, 2)
            b = b @ b.conj().T
            b /= np.trace(b)
            assert np.allclose(qmath.partial_trace_second(qmath.kron(a, b)), a, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(qmath.partial_trace_second(rho), I2 / 2.0, atol=1e-12)

    @pytest.mark.parametrize("k", [-1.0, -0.4, 0.0, 0.8, 1.0])
    def test_schmidt_state_marginal(self, k):
        # sqrt((1+k)/2)|0>|x> + sqrt((1-k)/2)|1>|x_perp> traces to
        # diag((1+k)/2, (1-k)/2) for any orthonormal auxiliary pair
        chi = np.array([np.cos(0.7), np.exp(-0.3j) * np.sin(0.7)])
        chi_perp = np.array([-np.exp(0.3j) * np.sin(0.7), np.cos(0.7)])
        ket = np.concatenate(
            [np.sqrt((1.0 + k) / 2.0) * chi, np.sqrt((1.0 - k) / 2.0) * chi_perp]
        )
        marginal = qmath.partial_trace_second(np.outer(ket, ket.conj()))
        assert np.allclose(marginal, np.diag([(1 + k) / 2.0, (1 - k) / 2.0]), atol=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 4)
        assert abs(np.trace(qmath.partial_trace_second(m)) - np.trace(m)) < 1e-12
