import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.battery import (
    BlochVector,
    HamiltonianSpec,
    battery_state,
    bloch_state,
    energy,
    ergotropy,
    hamiltonian_battery,
    hamiltonian_joint,
    passive_state,
)
from qbattery.errors import DimensionError, DomainError, HermiticityError
from qbattery.qmath import I2, SIGMA_X, SIGMA_Y, SIGMA_Z

SPEC = HamiltonianSpec()

angles = st.floats(0.0, np.pi, allow_nan=False)
radii = st.floats(0.0, 1.0, allow_nan=False)
biases = st.floats(-1.0, 1.0, allow_nan=False)


class TestHamiltonianSpec:
    def test_coupling_defaults_to_twice_h(self):
        assert HamiltonianSpec(h=0.5).J == 1.0

    def test_explicit_coupling_kept(self):
        assert HamiltonianSpec(h=1.0, J=0.0).J == 0.0

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_field(self, h):
        with pytest.raises(DomainError):
            HamiltonianSpec(h=h)

    @pytest.mark.parametrize("h, j", [(1.0, np.inf), (1e-300, 1e308)])
    def test_rejects_non_finite_coupling(self, h, j):
        # J/h overflows at (1e-300, 1e308), though J and h are finite
        with pytest.raises(DomainError, match="J/h = inf is not finite"):
            HamiltonianSpec(h, j)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200, 1e308])
    def test_g_and_w_do_not_depend_on_the_scale(self, scale):
        # sqrt(4h^2 + J^2) would over- or underflow at 1e+-200, and 2h overflows at 1e308
        spec = HamiltonianSpec(scale, -1.5 * scale)
        assert spec.g == pytest.approx(-1.5, rel=1e-15)
        assert spec.w == pytest.approx(2.5, rel=1e-15)


class TestBatteryState:
    def test_fully_excited(self):
        assert np.allclose(battery_state(1.0), np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        assert np.allclose(battery_state(0.0), I2 / 2.0)

    def test_ground(self):
        assert np.allclose(battery_state(-1.0), np.diag([0.0, 1.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            battery_state(1.2)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            battery_state(np.nan)
        with pytest.raises(DomainError):
            battery_state(np.array([0.0, np.nan]))

    @given(biases)
    def test_valid_density_matrix(self, k):
        rho = battery_state(k)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


    def test_array_of_biases_is_a_stack(self):
        ks = np.linspace(-1.0, 1.0, 9)
        stacked = battery_state(ks)
        assert stacked.shape == (9, 2, 2)
        for k, rho in zip(ks, stacked):
            assert np.array_equal(rho, battery_state(k))
        with pytest.raises(DomainError):
            battery_state(np.array([0.0, 1.0 + 1e-12]))


class TestBlochState:
    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_state(BlochVector(0.0, 1.1, 2.2)), I2 / 2.0)

    def test_north_pole_is_excited(self):
        assert np.allclose(bloch_state(BlochVector(1.0, 0.0, 0.0)), np.diag([1.0, 0.0]))

    def test_plus_x_axis(self):
        got = bloch_state(BlochVector(1.0, np.pi / 2.0, 0.0))
        assert np.allclose(got, 0.5 * (I2 + SIGMA_X), atol=1e-12)

    def test_rejects_radius_above_one(self):
        with pytest.raises(DomainError):
            BlochVector(1.01, 0.0, 0.0)

    @given(radii, angles, st.floats(0.0, 2.0 * np.pi, exclude_max=True, allow_nan=False))
    @settings(max_examples=60)
    def test_eigenvalues_follow_radius(self, r, theta, phi):
        eig = np.linalg.eigvalsh(bloch_state(BlochVector(r, theta, phi)))
        assert np.allclose(sorted(eig), [(1.0 - r) / 2.0, (1.0 + r) / 2.0], atol=1e-10)


class TestHamiltonians:
    def test_battery_hamiltonian(self):
        assert np.allclose(hamiltonian_battery(SPEC), np.diag([1.0, -1.0]))

    def test_joint_without_coupling_is_diagonal(self):
        got = hamiltonian_joint(HamiltonianSpec(h=1.0, J=0.0))
        assert np.allclose(got, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_joint_coupling_slots(self):
        got = hamiltonian_joint(SPEC)
        expected = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            expected[i, j] = 2.0
        assert np.allclose(got, expected)

    def test_joint_spectrum(self):
        eig = np.linalg.eigvalsh(hamiltonian_joint(SPEC))
        assert np.allclose(eig, [-2.0 * np.sqrt(2.0), -2.0, 2.0, 2.0 * np.sqrt(2.0)])


class TestEnergy:
    def test_stack_gives_an_array_and_one_state_a_float(self):
        rhos = bloch_state(BlochVector(np.array([0.2, 0.9]), np.array([0.3, 2.5]), 1.0))
        energies = energy(rhos, HamiltonianSpec(h=2.0))
        assert isinstance(energy(rhos[0], SPEC), float)
        assert energies.shape == (2,)
        expected = [2.0 * 0.2 * np.cos(0.3), 2.0 * 0.9 * np.cos(2.5)]
        assert energies == pytest.approx(expected, abs=1e-15)
        with pytest.raises(DimensionError):
            energy(np.eye(4), SPEC)

    @pytest.mark.parametrize("k", [-1.0, -0.3, 0.0, 0.6, 1.0])
    def test_diagonal_state(self, k):
        assert energy(battery_state(k), SPEC) == pytest.approx(k, abs=1e-12)

    def test_ground_energy(self):
        assert energy(np.diag([0.0, 1.0]).astype(complex), SPEC) == pytest.approx(-1.0)

    def test_maximally_mixed_energy_vanishes(self):
        assert energy(I2 / 2.0, SPEC) == pytest.approx(0.0, abs=1e-12)


class TestPassiveState:
    def test_inverted_populations_get_reordered(self):
        sigma = passive_state(battery_state(0.5))
        assert np.allclose(sigma, np.diag([0.25, 0.75]), atol=1e-12)

    def test_already_passive_untouched(self):
        rho = battery_state(-0.5)
        assert np.allclose(passive_state(rho), rho, atol=1e-12)

    def test_degenerate_populations(self):
        sigma = passive_state(I2 / 2.0)
        assert np.allclose(sigma, I2 / 2.0, atol=1e-12)

    @given(radii, angles, st.floats(0.0, 2.0 * np.pi, exclude_max=True, allow_nan=False))
    @settings(max_examples=60)
    def test_idempotent_and_commuting(self, r, theta, phi):
        h_b = hamiltonian_battery(SPEC)
        sigma = passive_state(bloch_state(BlochVector(r, theta, phi)))
        assert np.linalg.norm(passive_state(sigma) - sigma) < 1e-10
        assert np.linalg.norm(sigma @ h_b - h_b @ sigma) < 1e-10


class TestErgotropy:
    @pytest.mark.parametrize("k", np.linspace(-1.0, 1.0, 21))
    def test_piecewise_linear_law(self, k):
        expected = 2.0 * SPEC.h * k if k >= 0 else 0.0
        assert abs(ergotropy(battery_state(k), SPEC) - expected) < 1e-12

    def test_equatorial_pure_state(self):
        # energy 0, passive energy -h, so one full unit of h comes out
        rho = bloch_state(BlochVector(1.0, np.pi / 2.0, 0.0))
        assert ergotropy(rho, SPEC) == pytest.approx(1.0, abs=1e-12)

    def test_passive_state_yields_nothing(self):
        for k in (-0.8, 0.2, 0.9):
            sigma = passive_state(battery_state(k))
            assert ergotropy(sigma, SPEC) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_haar_ensemble(self):
        # pure states Haar on the sphere plus mixed states uniform in the ball
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            r = 1.0 if rng.random() < 0.5 else rng.random() ** (1.0 / 3.0)
            theta = np.arccos(1.0 - 2.0 * rng.random())
            rho = bloch_state(BlochVector(r, theta, 2.0 * np.pi * rng.random()))
            assert ergotropy(rho, SPEC) >= 0.0

    @given(radii, angles)
    @settings(max_examples=60)
    def test_pure_state_closed_form(self, r, theta):
        # Tr(rho H) = h r cos(theta); the passive partner sits at -h r
        rho = bloch_state(BlochVector(r, theta, 0.0))
        expected = SPEC.h * r * (np.cos(theta) + 1.0)
        assert ergotropy(rho, SPEC) == pytest.approx(expected, abs=1e-10)


def spectral_passive(rhos, h_op):
    """Generic oracle: populations sorted descending on the ascending levels of h_op."""
    pops = np.linalg.eigvalsh(rhos)[:, ::-1]
    levels = np.linalg.eigh(h_op)[1]
    return (levels * pops[:, None, :]) @ levels.conj().T


def stacked_energy(rhos, spec):
    return np.einsum("nij,ji->n", rhos, hamiltonian_battery(spec)).real


class TestClosedFormsAgainstSpectralOracle:
    @staticmethod
    def states():
        rng = np.random.default_rng(11)
        bloch = rng.normal(size=(500, 3))
        bloch *= (rng.random(500) ** (1.0 / 3.0) / np.linalg.norm(bloch, axis=1))[:, None]
        random = 0.5 * (I2 + np.tensordot(bloch, np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), 1))
        special = [I2 / 2.0, battery_state(1.0), battery_state(-1.0)]
        return np.concatenate([random, special])

    @pytest.mark.parametrize("spec", [SPEC, HamiltonianSpec(h=2.0, J=0.5)])
    def test_passive_state_and_ergotropy(self, spec):
        rhos = self.states()
        oracle = spectral_passive(rhos, hamiltonian_battery(spec))
        sigma = passive_state(rhos)
        assert np.max(np.linalg.norm(sigma - oracle, axis=(1, 2))) < 1e-14
        work = ergotropy(rhos, spec)
        drop = stacked_energy(rhos, spec) - stacked_energy(oracle, spec)
        assert np.max(np.abs(work - drop)) < 1e-14 * spec.h
        assert np.min(work) >= 0.0

    def test_stack_matches_one_state_at_a_time(self):
        rhos = self.states()[:50]
        assert np.array_equal(ergotropy(rhos, SPEC), [ergotropy(r, SPEC) for r in rhos])
        assert np.array_equal(passive_state(rhos), [passive_state(r) for r in rhos])

    def test_maximally_mixed_state(self):
        assert ergotropy(I2 / 2.0, SPEC) == 0.0
        assert np.array_equal(passive_state(I2 / 2.0), I2 / 2.0)

    @pytest.mark.parametrize("k, expected", [(1.0, 2.0), (-1.0, 0.0)])
    def test_pure_states_at_the_poles(self, k, expected):
        assert ergotropy(battery_state(k), SPEC) == expected
        assert np.array_equal(passive_state(battery_state(k)), battery_state(-1.0))

    @pytest.mark.parametrize("h", [1.0, 2.0])
    def test_diagonal_law_is_exact_on_the_cli_grid(self, h):
        spec = HamiltonianSpec(h=h)
        for k in np.linspace(-1.0, 1.0, 81):
            assert ergotropy(battery_state(k), spec) == 2.0 * h * max(k, 0.0)

    def test_rejects_non_qubit_and_non_hermitian_input(self):
        with pytest.raises(DimensionError):
            ergotropy(np.eye(4) / 4.0, SPEC)
        with pytest.raises(HermiticityError):
            passive_state(np.array([[0.5, 0.1], [0.0, 0.5]]))
