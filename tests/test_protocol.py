import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.battery import BlochVector, HamiltonianSpec, battery_state, hamiltonian_joint
from qbattery.protocol import (
    Z_BASIS,
    EntangledInitParams,
    MeasurementBasis,
    best_outcome,
    entangled_initial,
    entangled_ket,
    joint_unitary,
    outcome_matrix,
    run_protocol,
    separable_initial,
)
from qbattery.qmath import I4, evolve, partial_trace_second

SPEC = HamiltonianSpec()
DECOUPLED = HamiltonianSpec(h=1.0, J=0.0)

angles = st.floats(0.0, np.pi, allow_nan=False)
azimuths = st.floats(0.0, 2.0 * np.pi, exclude_max=True, allow_nan=False)
biases = st.floats(-1.0, 1.0, allow_nan=False)
times = st.floats(0.0, 10.0, allow_nan=False)


def random_basis(rng):
    return MeasurementBasis(np.pi * rng.random(), 2.0 * np.pi * rng.random())


def random_product(rng, k=None):
    if k is None:
        k = 2.0 * rng.random() - 1.0
    aux = BlochVector(rng.random(), np.arccos(1.0 - 2.0 * rng.random()), 2.0 * np.pi * rng.random())
    return separable_initial(k, aux)


class TestMeasurementBasis:
    @given(angles, azimuths)
    def test_outcome_kets_orthonormal(self, theta, phi):
        basis = MeasurementBasis(theta, phi)
        k0, k1 = basis.outcome_ket(0), basis.outcome_ket(1)
        assert abs(np.vdot(k0, k0) - 1.0) < 1e-12
        assert abs(np.vdot(k1, k1) - 1.0) < 1e-12
        assert abs(np.vdot(k0, k1)) < 1e-12

    def test_z_basis_kets(self):
        assert np.allclose(Z_BASIS.outcome_ket(0), [1.0, 0.0])
        assert np.allclose(Z_BASIS.outcome_ket(1), [0.0, -1.0])  # projector ignores the sign


class TestSeparableInitial:
    def test_pure_product(self):
        rho = separable_initial(1.0, BlochVector(1.0, 0.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_maximally_mixed(self):
        rho = separable_initial(0.0, BlochVector(0.0, 0.0, 0.0))
        assert np.allclose(rho, I4 / 4.0)

    def test_battery_marginal(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = 2.0 * rng.random() - 1.0
            assert np.allclose(
                partial_trace_second(random_product(rng, k)), battery_state(k), atol=1e-12
            )


class TestEntangledInitial:
    def test_fully_biased_is_product(self):
        p = EntangledInitParams(1.0, 0.8, 1.3)
        rho = entangled_initial(p)
        chi = MeasurementBasis(0.8, 1.3).outcome_ket(0)
        expected = np.kron(np.diag([1.0, 0.0]), np.outer(chi, chi.conj()))
        assert np.allclose(rho, expected, atol=1e-12)

    def test_balanced_zero_angles_is_bell_like(self):
        ket = entangled_ket(EntangledInitParams(0.0, 0.0, 0.0))
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0 / np.sqrt(2.0)
        expected[3] = -1.0 / np.sqrt(2.0)  # second Schmidt ket carries a minus sign
        assert np.allclose(ket, expected, atol=1e-12)

    @given(biases, angles, azimuths)
    @settings(max_examples=60)
    def test_normalized_with_fixed_marginal(self, k, theta, phi):
        ket = entangled_ket(EntangledInitParams(k, theta, phi))
        assert abs(np.vdot(ket, ket) - 1.0) < 1e-12
        marginal = partial_trace_second(np.outer(ket, ket.conj()))
        assert np.allclose(marginal, battery_state(k), atol=1e-10)


class TestRunProtocol:
    def test_ground_battery_cannot_supply_energy(self):
        rng = np.random.default_rng(22)
        rho0 = separable_initial(-1.0, BlochVector(1.0, 0.4, 0.9))
        for _ in range(40):
            for outcome in (0, 1):
                result = run_protocol(rho0, SPEC, 10.0 * rng.random(), random_basis(rng), outcome)
                assert result.w_p <= 1e-12

    def test_excited_pair_rabi_branch(self):
        # |00><00| stays in the {|00>,|11>} block, so the ground outcome has
        # probability (J^2/(4h^2+J^2)) sin^2(sqrt(4h^2+J^2) t) and drop 2h
        rho0 = separable_initial(1.0, BlochVector(1.0, 0.0, 0.0))
        omega = np.sqrt(4.0 * SPEC.h**2 + SPEC.J**2)
        for t in np.linspace(0.05, 3.0, 24):
            result = run_protocol(rho0, SPEC, t, Z_BASIS, 1)
            expected_p = (SPEC.J**2 / omega**2) * np.sin(omega * t) ** 2
            assert result.probability == pytest.approx(expected_p, abs=1e-12)
            assert result.delta_e == pytest.approx(2.0 * SPEC.h, abs=1e-10)

    @given(biases, times, angles, azimuths)
    @settings(max_examples=40, deadline=None)
    def test_full_turn_of_phi_is_identity(self, k, t, theta, phi):
        rho0 = separable_initial(k, BlochVector(0.6, 1.0, 2.0))
        a = run_protocol(rho0, SPEC, t, MeasurementBasis(theta, phi), 0).w_p
        b = run_protocol(rho0, SPEC, t, MeasurementBasis(theta, phi + 2.0 * np.pi), 0).w_p
        assert a == pytest.approx(b, abs=1e-12)

    def test_impossible_outcome_is_flagged(self):
        # at t=0 the |00> state never triggers the ground-outcome projector
        rho0 = separable_initial(1.0, BlochVector(1.0, 0.0, 0.0))
        result = run_protocol(rho0, SPEC, 0.0, Z_BASIS, 1)
        assert result.probability <= 1e-12
        assert result.post_state is None
        assert result.w_p == 0.0
        assert result.delta_e == 0.0

    def test_post_state_is_density_matrix(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            rho0 = random_product(rng)
            result = run_protocol(rho0, SPEC, 10.0 * rng.random(), random_basis(rng), 0)
            if result.post_state is None:
                continue
            assert abs(np.trace(result.post_state) - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh(result.post_state)) > -1e-10
            assert np.allclose(result.post_state, result.post_state.conj().T, atol=1e-12)

    def test_w_p_consistency(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            result = run_protocol(
                random_product(rng), SPEC, 10.0 * rng.random(), random_basis(rng), 1
            )
            assert result.w_p == pytest.approx(result.probability * result.delta_e, abs=1e-12)


class TestBestOutcome:
    def test_quarter_period_drain_picks_ground_outcome(self):
        rho0 = separable_initial(1.0, BlochVector(1.0, 0.0, 0.0))
        t = np.pi / (2.0 * np.sqrt(4.0 * SPEC.h**2 + SPEC.J**2))
        result = best_outcome(rho0, SPEC, t, Z_BASIS)
        assert result.outcome_index == 1
        assert result.w_p == pytest.approx(1.0, abs=1e-10)

    def test_tie_goes_to_outcome_zero(self):
        rho0 = separable_initial(0.4, BlochVector(0.5, 0.7, 0.1))
        result = best_outcome(rho0, DECOUPLED, 2.0, MeasurementBasis(1.1, 0.3))
        assert result.outcome_index == 0

    def test_never_below_either_branch(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            rho0 = random_product(rng)
            t = 10.0 * rng.random()
            basis = random_basis(rng)
            w = best_outcome(rho0, SPEC, t, basis).w_p
            for outcome in (0, 1):
                assert w >= run_protocol(rho0, SPEC, t, basis, outcome).w_p - 1e-15


class TestOutcomeMatrix:
    @pytest.mark.parametrize("spec", [SPEC, HamiltonianSpec(0.5, -3.0), DECOUPLED])
    def test_quadratic_form_is_the_oracle_w_p(self, spec):
        # w_p = <chi|A|chi> for both outcome kets of a stack of states, times and bases
        rng = np.random.default_rng(41)
        n = 200
        k = 2.0 * rng.random(n) - 1.0
        polar, azimuth = np.pi * rng.random(n), 2.0 * np.pi * rng.random(n)
        rho0 = np.concatenate([
            separable_initial(k[:100], BlochVector(rng.random(100), polar[:100], azimuth[:100])),
            entangled_initial(EntangledInitParams(k[100:], polar[100:], azimuth[100:])),
        ])
        t = 10.0 * rng.random(n)
        basis = MeasurementBasis(np.pi * rng.random(n), 2.0 * np.pi * rng.random(n))
        a = outcome_matrix(rho0, spec, t)
        assert a.shape == (n, 2, 2)
        for outcome in (0, 1):
            chi = basis.outcome_ket(outcome)
            form = np.einsum("na,nab,nb->n", chi.conj(), a, chi)
            result = run_protocol(rho0, spec, t, basis, outcome)
            possible = result.probability >= 1e-12
            assert np.max(np.abs(form.imag)) < 1e-15
            assert np.max(np.abs(form.real - result.w_p)[possible]) < 1e-14


class TestJointUnitary:
    """The closed-form parity-block unitary against the spectral oracle
    qmath.evolve, which builds exp(-iHt) from an eigendecomposition of H."""

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.0), (2.0, 4.0), (0.5, -3.0)])
    def test_matches_the_spectral_oracle(self, h, j):
        spec = HamiltonianSpec(h, j)
        for t in np.linspace(0.0, 10.0 / h, 101):
            oracle = evolve(hamiltonian_joint(spec), t)
            assert np.max(np.abs(joint_unitary(spec, t) - oracle)) < 1e-13

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (0.5, -3.0)])
    def test_unitary_and_composes(self, h, j):
        spec = HamiltonianSpec(h, j)
        rng = np.random.default_rng(29)
        for _ in range(20):
            t1, t2 = 10.0 / h * rng.random(2)
            u1, u2 = joint_unitary(spec, t1), joint_unitary(spec, t2)
            assert np.max(np.abs(u1 @ u1.conj().T - I4)) < 1e-13
            assert np.max(np.abs(u1 @ u2 - joint_unitary(spec, t1 + t2))) < 1e-13

    def test_starts_at_identity(self):
        assert np.array_equal(joint_unitary(SPEC, 0.0), I4)


class TestStackedOracle:
    """run_protocol on stacks; tests/test_library_contract.py holds each element of a stack
    to one single call."""

    def test_fields_have_the_broadcast_shape(self):
        # six states, times (3, 1), one basis and one outcome per state broadcast to (3, 6)
        rho0 = separable_initial(np.linspace(-1.0, 1.0, 6), BlochVector(0.5, 1.0, 2.0))
        result = run_protocol(rho0, SPEC, np.ones((3, 1)), Z_BASIS, np.arange(6) % 2)
        fields = [result.probability, result.delta_e, result.w_p, result.outcome_index]
        assert [np.shape(f) for f in fields] == [(3, 6)] * 4
        assert result.post_state.shape == (3, 6, 2, 2)

    def test_impossible_elements_follow_the_per_element_rule(self):
        # |00> never triggers the ground-outcome projector at t = 0 or at a full period
        rho0 = separable_initial(1.0, BlochVector(1.0, 0.0, 0.0))
        period = np.pi / np.sqrt(4.0 * SPEC.h**2 + SPEC.J**2)
        times = np.array([0.0, 0.3, period, 1.1])
        result = run_protocol(rho0, SPEC, times, Z_BASIS, 1)
        impossible = result.probability < 1e-12
        assert impossible.tolist() == [True, False, True, False]
        assert np.all(result.probability[impossible] >= 0.0)
        assert np.all(result.delta_e[impossible] == 0.0)
        assert np.all(result.w_p[impossible] == 0.0)
        assert np.all(result.post_state[impossible] == 0.0)
