"""The library's array contract, in one place. Every array function takes stacks
and returns one result per element, the same as one call per element: STACKS.
Bad input raises the package error that names it: REFUSALS. Each row is written
as Python: its id is the call, evaluated in this module's names."""

import re

import numpy as np
import pytest
from numpy import inf, nan

from qbattery.analytic import (
    entanglement_entropy,
    mps_scan,
    separable_initial_bloch,
    wp_closed_form,
    wp_excited_closed_form,
    wp_excited_oracle,
    wp_small_t,
)
from qbattery.battery import (
    BlochVector,
    HamiltonianSpec,
    battery_state,
    bloch_state,
    energy,
    ergotropy,
    passive_state,
)
from qbattery.errors import ConfigError, DimensionError, DomainError, HermiticityError
from qbattery.optimizer import SearchSpace, WpEvaluator, optimize
from qbattery.protocol import (
    Z_BASIS,
    EntangledInitParams,
    MeasurementBasis,
    ProtocolResult,
    best_outcome,
    entangled_initial,
    entangled_ket,
    joint_unitary,
    outcome_matrix,
    run_protocol,
    separable_initial,
)
from qbattery.qmath import (
    I2, I4, SIGMA_Y, SIGMA_Z, dagger, evolve, hermitian_eig, kron, partial_trace_second
)

SPEC = HamiltonianSpec()
HALF = HamiltonianSpec(0.5, -3.0)
NOT_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)
EXCITED = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # |00><00|

# seven elements of each parameter, with times up to 10/h at h = 0.5
RNG = np.random.default_rng(50)
K, R, POLAR = 2.0 * RNG.random(7) - 1.0, RNG.random(7), np.pi * RNG.random(7)
AZIMUTH, T, OUTCOME = 2.0 * np.pi * RNG.random(7), 20.0 * RNG.random(7), RNG.integers(0, 2, 7)
QUBITS = bloch_state(BlochVector(R, POLAR, AZIMUTH))
STATES = entangled_initial(EntangledInitParams(K, POLAR, AZIMUTH))
# six initial states, each product or entangled at random
MIXED = np.where((RNG.random(6) < 0.5)[:, None, None],
                 separable_initial(K[:6], BlochVector(R[:6], POLAR[:6], AZIMUTH[:6])), STATES[:6])
KINDS = {"scalar": (), "per-state": (6,), "broadcast": (3, 1)}
# a (2, 3) stack of complex 4x4 matrices, and (2, 3) stacks of Hermitian 2x2 and 4x4 ones
SQUARE = RNG.normal(size=(2, 3, 4, 4)) + 1j * RNG.normal(size=(2, 3, 4, 4))
HERMITIAN2, HERMITIAN4 = SQUARE[..., 2:, 2:] + dagger(SQUARE[..., 2:, 2:]), SQUARE + dagger(SQUARE)
# |00> never triggers the ground outcome at t = 0 or at a full period pi/W
TIMES = np.array([0.0, 0.3, np.pi / SPEC.w, 1.1])


def refusal(call, error, message):
    """A row of REFUSALS: the call, the class of its error and a regex of the whole message."""
    return pytest.param(call, error, message, id=call)


# the class and message regex of the refusals that many rows share, given what they got
def population(got):
    return DomainError, rf"population bias k must lie in \[-1, 1\], got {got}"


def radius(got):
    return DomainError, rf"Bloch radius must lie in \[0, 1\], got {got}"


def bad_time(got):
    return DomainError, f"evolution time must be non-negative and finite, got {got}"


REFUSALS = [
    *[refusal(f"HamiltonianSpec(h={h})", DomainError,
              f"field strength h must be positive and finite, got {h}")
      for h in ["0.0", "-1.0", "inf", "nan"]],
    # J/h overflows at (1e-300, 1e308), though J and h are finite
    refusal("HamiltonianSpec(1.0, inf)", DomainError, r"J/h = inf is not finite for h=1.0, J=inf"),
    refusal("HamiltonianSpec(1e-300, 1e308)", DomainError,
            r"J/h = inf is not finite for h=1e-300, J=1e\+308"),
    refusal("battery_state(1.2)", *population("1.2")),
    refusal("battery_state(nan)", *population("nan")),
    refusal("battery_state(np.array([0.0, nan]))", *population(r"\[ 0\. nan\]")),
    refusal("battery_state(np.array([0.0, 1.0 + 1e-12]))", *population(r"\[0\. 1\.\]")),
    refusal("BlochVector(1.01, 0.0, 0.0)", *radius("1.01")),
    refusal("energy(np.eye(4), SPEC)", DimensionError,
            r"expected 2x2 battery states, got shape \(4, 4\)"),
    refusal("ergotropy(np.eye(4) / 4.0, SPEC)", DimensionError,
            r"expected 2x2 operators, got shape \(4, 4\)"),
    refusal("passive_state(np.array([[0.5, 0.1], [0.0, 0.5]]))", HermiticityError,
            r"input is not Hermitian within 1e-12"),
    refusal("kron(I4, I2)", DimensionError, "kron expects two 2x2 operands or stacks of them"),
    refusal("hermitian_eig(NOT_HERMITIAN)", HermiticityError,
            "input is not Hermitian within 1e-12"),
    refusal("hermitian_eig(np.zeros((5, 3, 3)))", DimensionError,
            r"expected 2x2 or 4x4 matrices, got shape \(5, 3, 3\)"),
    refusal("evolve(NOT_HERMITIAN, 1.0)", HermiticityError, "input is not Hermitian within 1e-12"),
    refusal("partial_trace_second(I2)", DimensionError,
            r"partial_trace_second expects 4x4 operators, got shape \(2, 2\)"),
    refusal("Z_BASIS.outcome_ket(2)", DomainError, "outcome_index must be 0 or 1, got 2"),
    refusal("MeasurementBasis(np.zeros(3)).outcome_ket(np.array([0, 1, 2]))", DomainError,
            r"outcome_index must be 0 or 1, got \[0 1 2\]"),
    refusal("EntangledInitParams(-1.5, 0.0, 0.0)", *population("-1.5")),
    refusal("EntangledInitParams(nan, 0.0, 0.0)", *population("nan")),
    refusal("EntangledInitParams(np.array([0.5, nan]), 0.0, 0.0)", *population(r"\[0\.5 nan\]")),
    refusal("EntangledInitParams(np.array([0.0, -1.2]), 1.0)", *population(r"\[ 0\.  -1\.2\]")),
    refusal("separable_initial(np.array([0.5, 1.5]), BlochVector(0.5, 1.0))",
            *population(r"\[0\.5 1\.5\]")),
    refusal("separable_initial(0.5, BlochVector(np.array([0.5, 1.01]), 1.0))",
            *radius(r"\[0\.5  1\.01\]")),
    *[refusal(f"run_protocol(np.zeros({shape}), SPEC, 1.0, Z_BASIS, 0)", DimensionError,
              rf"expected 4x4 joint states, got shape \({shape[1:-1]}\)")
      for shape in ["(3, 3)", "(5, 3, 3)", "(2, 2)", "(4,)"]],
    # a time that is negative, infinite or NaN, alone or in an array, at every function that
    # evolves: a NaN or infinite time would give NaN results and a RuntimeWarning
    *[refusal(call.format(t), *bad_time(got))
      for call in ["joint_unitary(SPEC, {})", "evolve(SIGMA_Z, {})",
                   "run_protocol(EXCITED, SPEC, {}, Z_BASIS, 0)",
                   "best_outcome(EXCITED, SPEC, {}, Z_BASIS)", "outcome_matrix(EXCITED, SPEC, {})"]
      for t, got in [("-1e-9", "-1e-09"), ("nan", "nan"), ("inf", "inf"),
                     ("np.array([0.5, -0.1, 2.0])", "-0.1"), ("np.array([0.5, nan])", "nan")]],
    refusal("separable_initial_bloch(np.array([0.5, 1.5]), 1.0)", *radius(r"\[0\.5 1\.5\]")),
    refusal("entanglement_entropy(1.0001)", *population("1.0001")),
    refusal("entanglement_entropy(np.array([0.5, -1.0001]))",
            *population(r"\[ 0\.5    -1\.0001\]")),
    refusal("entanglement_entropy(nan)", *population("nan")),
    refusal("mps_scan(1, SPEC)", ConfigError, "grid_n must be at least 2, got 1"),
    # the bracket cancels at large J/h and underflows at tiny J/h; at J/h = 3e-159 only points
    # near the poles underflow, not s = 0. That error names J/h, which decides it. Below h of
    # about 5.6e-310 the probe time 0.1/h overflows, even at J = 0, and that error names h and J
    *[refusal(f"mps_scan(101, HamiltonianSpec({h}, {j}))", DomainError,
              f"rounding hides the sign of w_p at the probe for J/h={g}: "
              "the scan cannot tell passive points")
      for h, j, g in [("1.0", "1e8", "100000000.0"), ("1.0", "-1e9", "-1000000000.0"),
                      ("1.0", "3e-159", "3e-159"), ("3.0", "3e-160", "1e-160")]],
    *[refusal(f"mps_scan(101, HamiltonianSpec(1e-310, {j}))", DomainError,
              rf"the probe time inf is not positive and finite at h=1e-310, J={j}: "
              "h is too near the limits of float64")
      for j in ["0.0", "2e-310"]],
    refusal("SearchSpace('tripartite', 0.0)", ConfigError, "unknown family 'tripartite'"),
    refusal("SearchSpace('separable', 0.0, t_max=0.0)", ConfigError,
            "t_max must be positive and finite, got 0.0"),
    refusal("SearchSpace('separable', 1.5)", *population("1.5")),
    # accepted, the search would fail later with a misleading float-range error
    refusal("SearchSpace('entangled', nan)", *population("nan")),
    refusal("WpEvaluator(SearchSpace('entangled', 0.0), SPEC)(np.zeros((3, 6)))", ConfigError,
            "expected 3 parameters, got 6"),
    refusal("optimize(SearchSpace('separable', 0.0), SPEC, budget=0, seed=1)", ConfigError,
            "budget must be at least 1, got 0"),
    # w_p reaches h(1 + k), which is 1.9e308 here
    refusal("optimize(SearchSpace('separable', 0.9, t_max=1e-307), "
            "HamiltonianSpec(1e308, 1.5e308), 2000, 1)", DomainError,
            r"w_p reaches h\(1\+k\), which overflows at h=1e\+308, k=0\.9"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal_raises_its_error_naming_the_input(call, error, message):
    with pytest.raises(ValueError) as raised:
        eval(call)
    assert type(raised.value) is error and re.fullmatch(message, str(raised.value)), raised.value


def stack(call, shape, element, tol=0.0, id=None, **names):
    """A row of STACKS: the stacked call, the shape its result broadcasts to, and the single
    call of element i of that shape, which equals the element within tol. The calls may
    also read the given names."""
    return pytest.param(call, shape, element, tol, names, id=id or call)


def protocol_row(function, h, j, t_kind, basis_kind, outcome_kind=None):
    """A row of run_protocol, or of best_outcome without an outcome, on the six MIXED states,
    within 1e-15 h. Each parameter is a scalar, one value per state (6,), or an array (3, 1)
    that broadcasts against the states into (3, 6); its upper-case name holds it broadcast
    to that shape."""
    names = {"t": 10.0 / h * RNG.random(KINDS[t_kind]),
             "theta": np.pi * RNG.random(KINDS[basis_kind]),
             "phi": 2.0 * np.pi * RNG.random(KINDS[basis_kind])}
    call = f"{function}(MIXED, spec, t, MeasurementBasis(theta, phi))"
    element = f"{function}(RHO[i], spec, T[i], MeasurementBasis(THETA[i], PHI[i]))"
    if outcome_kind is not None:
        names["outcome"] = RNG.integers(0, 2, KINDS[outcome_kind])
        call, element = call[:-1] + ", outcome)", element[:-1] + ", OUTCOME[i])"
    shape = np.broadcast_shapes((6,), *map(np.shape, names.values()))
    names |= {name.upper(): np.broadcast_to(value, shape) for name, value in names.items()}
    names |= {"spec": HamiltonianSpec(h, j), "RHO": np.broadcast_to(MIXED, shape + (4, 4))}
    kinds = f"t {t_kind}, basis {basis_kind}, outcome {outcome_kind or 'best'}"
    return stack(call, shape, element, 1e-15 * h, f"{call} [h={h}, J={j}, {kinds}]", **names)


STACKS = [
    stack("kron(HERMITIAN2, SIGMA_Y)", (2, 3), "kron(HERMITIAN2[i], SIGMA_Y)"),
    stack("kron(HERMITIAN2[:, :1], HERMITIAN2[0])", (2, 3),
          "kron(HERMITIAN2[i[0], 0], HERMITIAN2[0, i[1]])"),
    stack("dagger(SQUARE)", (2, 3), "dagger(SQUARE[i])"),
    stack("hermitian_eig(HERMITIAN2)", (2, 3), "hermitian_eig(HERMITIAN2[i])"),
    stack("hermitian_eig(HERMITIAN4)", (2, 3), "hermitian_eig(HERMITIAN4[i])"),
    stack("evolve(HERMITIAN4[..., None, :, :], T[:2])", (2, 3, 2),
          "evolve(HERMITIAN4[i[:2]], T[i[2]])"),
    stack("partial_trace_second(HERMITIAN4)", (2, 3), "partial_trace_second(HERMITIAN4[i])"),
    stack("battery_state(np.linspace(-1.0, 1.0, 9))", (9,),
          "battery_state(np.linspace(-1.0, 1.0, 9)[i])"),
    stack("bloch_state(BlochVector(R, POLAR, AZIMUTH))", (7,),
          "bloch_state(BlochVector(R[i], POLAR[i], AZIMUTH[i]))"),
    stack("energy(QUBITS, HALF)", (7,), "energy(QUBITS[i], HALF)"),
    stack("passive_state(QUBITS)", (7,), "passive_state(QUBITS[i])"),
    stack("ergotropy(QUBITS, HALF)", (7,), "ergotropy(QUBITS[i], HALF)"),
    stack("MeasurementBasis(POLAR, AZIMUTH).outcome_ket(OUTCOME)", (7,),
          "MeasurementBasis(POLAR[i], AZIMUTH[i]).outcome_ket(OUTCOME[i])"),
    stack("separable_initial(K, BlochVector(R, POLAR, AZIMUTH))", (7,),
          "separable_initial(K[i], BlochVector(R[i], POLAR[i], AZIMUTH[i]))"),
    stack("entangled_ket(EntangledInitParams(K, POLAR, AZIMUTH))", (7,),
          "entangled_ket(EntangledInitParams(K[i], POLAR[i], AZIMUTH[i]))"),
    stack("entangled_initial(EntangledInitParams(K, POLAR, AZIMUTH))", (7,),
          "entangled_initial(EntangledInitParams(K[i], POLAR[i], AZIMUTH[i]))"),
    stack("joint_unitary(HALF, T[:, None])", (7, 1), "joint_unitary(HALF, T[i[0]])"),
    stack("outcome_matrix(STATES, HALF, T)", (7,), "outcome_matrix(STATES[i], HALF, T[i])"),
    *[protocol_row("run_protocol", h, j, t_kind, basis_kind, outcome_kind)
      for h, j in [(1.0, 2.0), (0.5, -3.0)] for t_kind in KINDS for basis_kind in KINDS
      for outcome_kind in KINDS],
    *[protocol_row("best_outcome", 1.0, 2.0, t_kind, basis_kind)
      for t_kind in KINDS for basis_kind in KINDS],
    # impossible branches among possible ones
    stack("run_protocol(EXCITED, SPEC, TIMES, Z_BASIS, 1)", (4,),
          "run_protocol(EXCITED, SPEC, TIMES[i], Z_BASIS, 1)", 1e-15),
    stack("wp_closed_form(R, POLAR, HALF, T)", (7,),
          "wp_closed_form(R[i], POLAR[i], HALF, T[i])"),
    stack("wp_small_t(R, POLAR, HALF)", (7,), "wp_small_t(R[i], POLAR[i], HALF)"),
    stack("wp_excited_oracle(HALF, T)", (7,), "wp_excited_oracle(HALF, T[i])"),
    stack("wp_excited_closed_form(HALF, T)", (7,), "wp_excited_closed_form(HALF, T[i])"),
    stack("entanglement_entropy(np.linspace(-1.0, 1.0, 9))", (9,),
          "entanglement_entropy(np.linspace(-1.0, 1.0, 9)[i])"),
    stack("separable_initial_bloch(R, POLAR)", (7,), "separable_initial_bloch(R[i], POLAR[i])"),
]


def parts(result):
    """The arrays a result is made of; an impossible branch's post state is the zero matrix."""
    if isinstance(result, ProtocolResult):
        post = np.zeros((2, 2)) if result.post_state is None else result.post_state
        return [result.probability, post, result.delta_e, result.w_p, result.outcome_index]
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("call, shape, element, tol, names", STACKS)
def test_stack_equals_one_call_per_element(call, shape, element, tol, names):
    stacked = parts(eval(call, globals(), names))
    for i in np.ndindex(shape):
        single = parts(eval(element, globals(), {**names, "i": i}))
        for whole, one in zip(stacked, single, strict=True):
            assert np.shape(whole) == shape + np.shape(one), (np.shape(whole), np.shape(one))
            assert np.all(np.abs(whole[i] - one) <= tol), (i, whole[i], one)
