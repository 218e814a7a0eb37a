"""Self-check suites behind the ``verify`` subcommand.

Each suite exercises one invariant group (operator algebra, passive-state
construction, measurement bookkeeping, closed forms against the brute-force
protocol, the zero-coupling null, the passivity scan, the known optimum
h(1+k) of a searched protocol) and reports its worst residual against a
pinned tolerance.

The suites take the model in units of h, (1, J/h), which run_suites forms
once, as every other command does: their times are in units of 1/h and
their energies in units of h, so a run depends on J/h alone. run_suites
alone decides where they run, the coupling band of J/h.

The suites that exercise the protocol draw their samples as arrays and
score them with a few calls of the stacked oracle run_protocol (one call
per check, not one per sample). Residuals are reduced with np.max, which
propagates NaN, so a non-finite residual fails its suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, qmath
from .battery import (
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
from .errors import DomainError
from .optimizer import FAMILIES, SearchSpace, derive_seed, make_rng, optimize
from .protocol import (
    Z_BASIS,
    EntangledInitParams,
    MeasurementBasis,
    entangled_initial,
    joint_unitary,
    run_protocol,
    separable_initial,
)

# every suite draws its times in [0, WINDOW], in units of 1/h
WINDOW = 10.0
CLOSED_FORM_TOL = 1e-9
# known-optimum band of a searched w_p, in units of h
OPTIMUM_FLOOR_TOL = 1e-12
OPTIMUM_CEILING_TOL = 1e-9
# outcome indices (0, 1) along a leading axis: one run_protocol call scores both branches
BOTH_OUTCOMES = np.array([[0], [1]])
# the band of |J/h| (J/h = 0 aside) in which every suite resolves what it checks, with
# margin over 40 seeds: small-t-quartic's t^4 signal sinks into rounding below it, and
# operator-algebra's phases lose precision above it
COUPLING_BAND = (3e-4, 1e4)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""


def _result(name, residual, tolerance, note=""):
    # a NaN residual compares False, so it fails
    return SuiteResult(name, bool(residual <= tolerance), float(residual), tolerance, note)


def _worst(*residuals) -> float:
    """The largest of all residuals (numbers or arrays); NaN if any is NaN,
    where Python's max(0.0, nan) would return 0.0."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def _polar(rng, n) -> np.ndarray:
    """Polar angles of n directions drawn uniformly on the sphere."""
    return np.arccos(1.0 - 2.0 * rng.random(n))


def _uniform_ball(rng, n) -> BlochVector:
    # radius ~ u^(1/3) makes the draws uniform over the Bloch ball
    return BlochVector(rng.random(n) ** (1.0 / 3.0), _polar(rng, n), 2.0 * math.pi * rng.random(n))


def _random_aux(rng, n) -> BlochVector:
    # radius uniform in [0, 1], direction uniform on the sphere
    return BlochVector(rng.random(n), _polar(rng, n), 2.0 * math.pi * rng.random(n))


def _random_basis(rng, n) -> MeasurementBasis:
    return MeasurementBasis(math.pi * rng.random(n), 2.0 * math.pi * rng.random(n))


def suite_operator_algebra(spec: HamiltonianSpec, rng) -> SuiteResult:
    residuals = []
    for dim in (2, 4):
        raw = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
        m = raw + qmath.dagger(raw)
        values, vectors = qmath.hermitian_eig(m)
        residuals.append(_norms((vectors * values[:, None, :]) @ qmath.dagger(vectors) - m))
        residuals.append(_norms(qmath.dagger(vectors) @ vectors - np.eye(dim)))
    t1, t2 = WINDOW * rng.random((2, 25))
    times = np.stack([t1, t2, t1 + t2])
    u1, u2, u12 = evolved = qmath.evolve(hamiltonian_joint(spec), times)
    residuals.append(_norms(u1 @ u2 - u12))
    residuals.append(_norms(joint_unitary(spec, times) - evolved))  # the oracle's evolution
    residuals.append(_norms(u1 @ qmath.dagger(u1) - np.eye(4)))
    a, b = bloch_state(_uniform_ball(rng, 25)), bloch_state(_uniform_ball(rng, 25))
    prod = qmath.kron(a, b)
    residuals.append(_norms(qmath.partial_trace_second(prod) - a))
    residuals.append(np.abs(_trace(prod) - _trace(a) * _trace(b)))
    return _result("operator-algebra", _worst(*residuals), 1e-10)


def suite_passive_ergotropy(spec: HamiltonianSpec, rng) -> SuiteResult:
    """The closed forms against a spectral oracle: populations of rho from one
    stacked eigvalsh, sorted descending, placed on the ascending levels of h_b."""
    h_b = hamiltonian_battery(spec)
    ks = np.linspace(-1.0, 1.0, 81)
    rhos = np.concatenate([bloch_state(_uniform_ball(rng, 2000)), battery_state(ks)])

    pops = np.linalg.eigvalsh(rhos)[:, ::-1]  # the states are Hermitian by construction
    levels = qmath.hermitian_eig(h_b).vectors
    oracle = (levels * pops[:, None, :]) @ qmath.dagger(levels)
    work = ergotropy(rhos, spec)
    sigma = passive_state(rhos)
    worst = _worst(
        np.abs(work - (energy(rhos, spec) - energy(oracle, spec))),
        _norms(sigma - oracle),
        -np.minimum(0.0, work),
        np.abs(ergotropy(sigma, spec)),
        _norms(passive_state(sigma) - sigma),
        _norms(sigma @ h_b - h_b @ sigma),
        np.abs(work[-ks.size :] - 2.0 * np.maximum(ks, 0.0)),
    )
    return _result("passive-ergotropy", worst, 1e-10, "closed forms vs stacked eigvalsh")


def suite_measurement_protocol(spec: HamiltonianSpec, rng) -> SuiteResult:
    n = 150
    # each initial state is product or entangled at random; both share k and the angles
    k, polar, azimuth = 2.0 * rng.random(n) - 1.0, _polar(rng, n), 2.0 * math.pi * rng.random(n)
    product = separable_initial(k, BlochVector(rng.random(n), polar, azimuth))
    entangled = entangled_initial(EntangledInitParams(k, polar, azimuth))
    rho0 = np.where((rng.random(n) < 0.5)[:, None, None], product, entangled)
    t = WINDOW * rng.random(n)
    basis = _random_basis(rng, n)
    both = run_protocol(rho0, spec, t, basis, BOTH_OUTCOMES)
    u = joint_unitary(spec, t)
    evolved = qmath.partial_trace_second(u @ rho0 @ qmath.dagger(u))
    drained = energy(qmath.partial_trace_second(rho0), spec) - energy(evolved, spec)
    mean_drop = np.sum(both.probability * both.delta_e, axis=0)
    shifted = MeasurementBasis(basis.theta, basis.phi + 2.0 * math.pi)
    residuals = [
        np.abs(np.sum(both.probability, axis=0) - 1.0),
        np.abs(mean_drop - drained),
        np.abs(run_protocol(rho0, spec, t, shifted, 0).w_p - both.w_p[0]),
    ]
    # measuring the untouched auxiliary in its own eigenbasis leaves the battery alone
    theta_a, phi_a = _polar(rng, 50), 2.0 * math.pi * rng.random(50)
    rho0 = separable_initial(2.0 * rng.random(50) - 1.0, BlochVector(0.7, theta_a, phi_a))
    aligned = MeasurementBasis(theta_a, (2.0 * math.pi - phi_a) % (2.0 * math.pi))
    residuals.append(np.abs(run_protocol(rho0, spec, 0.0, aligned, BOTH_OUTCOMES).delta_e))
    # a battery starting in the ground state can only gain energy
    ground = separable_initial(-1.0, BlochVector(1.0, 0.3, 0.4))
    t = WINDOW * rng.random(50)
    residuals.append(run_protocol(ground, spec, t, _random_basis(rng, 50), BOTH_OUTCOMES).w_p)
    return _result("measurement-protocol", _worst(*residuals), 1e-10, "energies in units of h")


def suite_closed_form(spec: HamiltonianSpec, rng) -> SuiteResult:
    n = 1000
    s, theta, t = rng.random(n), math.pi * rng.random(n), WINDOW * rng.random(n)
    oracle = run_protocol(analytic.separable_initial_bloch(s, theta), spec, t, Z_BASIS, 1).w_p
    residual = np.abs(oracle - analytic.wp_closed_form(s, theta, spec, t))
    note = "w_p compared in units of h"
    return _result("closed-form-vs-oracle", _worst(residual), CLOSED_FORM_TOL, note)


def suite_small_t_quartic(spec: HamiltonianSpec, rng) -> SuiteResult:
    """Fits w_p = c t^4 + d t^6 by least squares and compares c with the
    t^4 coefficient at g = J/h, -(2/3) g^2 (-1 + s^2 cos^2 theta).

    The times sit at fixed phases x = w tau = 0.05, 0.1, 0.2, 0.4 (tau = t,
    as h = 1 here), so the fit sees the same shape at every g: the t^6 term
    absorbs the next order, and the t^8 term left out moves c by about 1e-4
    of itself at g = 2. The fit runs in x, whose powers are of order 1, and
    c = a w^4 from the x^4 coefficient a. The smallest w_p is about
    4e-6 g^2 / (4 + g^2)^2, which sinks into the oracle's rounding (about
    1e-16) below |g| of about 3e-4 and beyond about 1e4: there the suite
    fails, and run_suites refuses such a g (COUPLING_BAND)."""
    n = 100
    phases = np.array([0.05, 0.1, 0.2, 0.4])
    s, theta = rng.random(n), math.pi * rng.random(n)
    rho0 = analytic.separable_initial_bloch(s, theta)[:, None]
    wps = run_protocol(rho0, spec, phases / spec.w, Z_BASIS, 1).w_p
    powers = np.stack([phases**4, phases**6], axis=-1)
    fit = np.linalg.lstsq(powers, wps.T, rcond=None)[0][0] * spec.w**4
    coeff = analytic.wp_small_t(s, theta, spec)
    # relative error, or the absolute one where the coefficient vanishes
    residual = np.abs(fit - coeff) / np.where(coeff == 0.0, 1.0, np.abs(coeff))
    note = "relative error of c in the c tau^4 + d tau^6 fit, tau = h t"
    return _result("small-t-quartic", _worst(residual), 1e-2, note)


def suite_excited_drain(spec: HamiltonianSpec) -> SuiteResult:
    t = np.linspace(0.0, 2.0 * math.pi / spec.w, 50)  # two periods of w tau, tau = t at h = 1
    oracle = analytic.wp_excited_oracle(spec, t)
    peak = analytic.wp_excited_oracle(spec, analytic.excited_quarter_period(spec))
    worst = _worst(
        np.abs(oracle - analytic.wp_excited_closed_form(spec, t)),
        abs(peak - 2.0 * (spec.g / spec.w) ** 2),
    )
    variant_gap = np.max(np.abs(oracle - analytic.wp_excited_sine_variant(spec, t)))
    note = (
        "sin^2(sqrt(4h^2+J^2) t) form matches; sine variant with argument "
        f"(4h^2+J^2)t is dimensionally inconsistent (max gap {variant_gap:.3g} h)"
    )
    return _result("excited-drain", worst, 1e-9, note)


def suite_entropy() -> SuiteResult:
    grid = np.linspace(-1.0, 1.0, 201)
    values = analytic.entanglement_entropy(grid)
    odd = np.arange(0.1, 1.0, 0.1)
    worst = _worst(
        np.maximum(values - 1.0, -values),
        abs(analytic.entanglement_entropy(0.0) - 1.0),
        abs(analytic.entanglement_entropy(1.0)),
        abs(analytic.entanglement_entropy(-1.0)),
        np.abs(analytic.entanglement_entropy(odd) - analytic.entanglement_entropy(-odd)),
        # discrete midpoint concavity
        0.5 * (values[:-2] + values[2:]) - values[1:-1],
    )
    return _result("entanglement-entropy", worst, 1e-10)


def suite_zero_coupling_pointwise(rng) -> SuiteResult:
    decoupled, n = HamiltonianSpec(1.0, 0.0), 200
    rho0 = separable_initial(2.0 * rng.random(n) - 1.0, _random_aux(rng, n))
    basis = _random_basis(rng, n)
    t = WINDOW * rng.random(n)
    w_p = run_protocol(rho0, decoupled, t, basis, BOTH_OUTCOMES).w_p
    note = "product initial states, J=0"
    return _result("zero-coupling-pointwise", _worst(np.abs(w_p)), 1e-12, note)


def suite_zero_coupling_optimized(seed: int) -> SuiteResult:
    space = SearchSpace(family="separable", k=0.0, t_max=WINDOW)
    report = optimize(space, HamiltonianSpec(1.0, 0.0), budget=2000, seed=seed)
    return _result("zero-coupling-optimized", abs(report.best_value), 1e-2, "w_p in units of h")


def suite_mps_uniqueness(spec: HamiltonianSpec) -> SuiteResult:
    report = analytic.mps_scan(21, spec)
    points = report.passive_points()
    if spec.J == 0.0:
        # without coupling no state yields anything: the whole grid is passive
        extractable = report.passive.size - len(points)
        return _result("mps-scan", float(extractable), 0.0, "J=0: all states passive")
    ground_only = points == [(1.0, math.pi)]
    return _result(
        "mps-scan",
        0.0 if ground_only else float(max(1, len(points))),
        0.0,
        f"passive points: {len(points)}",
    )


def suite_optimum_bound(spec: HamiltonianSpec, seed: int) -> SuiteResult:
    """A short search of either family must land in [0, h(1+k)]: t = 0
    scores 0, and every protocol obeys w_p <= P (E0 + h) <= h(1+k)."""
    excess = []
    cases = itertools.product(FAMILIES, (-0.5, 0.5))
    for i, (family, k) in enumerate(cases):
        space = SearchSpace(family, k, t_max=WINDOW)
        value = optimize(space, spec, budget=2000, seed=derive_seed(seed, i)).best_value
        excess += [-OPTIMUM_FLOOR_TOL - value, value - (1.0 + k + OPTIMUM_CEILING_TOL)]
    return _result(
        "optimum-bound",
        _worst(0.0, excess),
        0.0,
        "excess beyond [-1e-12 h, h(1+k) + 1e-9 h], in units of h",
    )


def run_suites(spec: HamiltonianSpec, seed: int) -> list[SuiteResult]:
    """Run every suite on the model in units of h, (1, J/h); the results
    depend only on (J/h, seed). Raise DomainError, naming J/h, unless J/h is
    0 or |J/h| lies in COUPLING_BAND, where every suite resolves what it
    checks."""
    low, high = COUPLING_BAND
    if spec.g != 0.0 and not low <= abs(spec.g) <= high:
        raise DomainError(f"the self-check suites resolve J/h = 0 or {low:g} <= |J/h| <= {high:g}, "
                          f"not J/h={spec.g}")
    spec = HamiltonianSpec(1.0, spec.g)
    streams = [make_rng(derive_seed(seed, i)) for i in range(6)]
    return [
        suite_operator_algebra(spec, streams[0]),
        suite_passive_ergotropy(spec, streams[1]),
        suite_measurement_protocol(spec, streams[2]),
        suite_closed_form(spec, streams[3]),
        suite_small_t_quartic(spec, streams[4]),
        suite_excited_drain(spec),
        suite_entropy(),
        suite_zero_coupling_pointwise(streams[5]),
        suite_zero_coupling_optimized(derive_seed(seed, 6)),
        suite_mps_uniqueness(spec),
        suite_optimum_bound(spec, derive_seed(seed, 7)),
    ]


def _norms(stack) -> np.ndarray:
    """Frobenius norm of one matrix, or of each matrix of a stack."""
    return np.linalg.norm(stack, axis=(-2, -1))


def _trace(stack) -> np.ndarray:
    return np.trace(stack, axis1=-2, axis2=-1)
