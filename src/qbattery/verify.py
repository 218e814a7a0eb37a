"""Self-check suites behind the ``verify`` subcommand.

Each suite exercises one invariant group (operator algebra, passive-state
construction, measurement bookkeeping, closed forms against the brute-force
protocol, the zero-coupling null, the passivity scan, the known optimum
h(1+k) of a searched protocol) and reports its worst residual against a
pinned tolerance.
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
from .optimizer import SearchSpace, derive_seed, make_rng, optimize
from .protocol import (
    Z_BASIS,
    EntangledInitParams,
    MeasurementBasis,
    entangled_initial,
    joint_unitary,
    run_protocol,
    separable_initial,
)

CLOSED_FORM_TOL = 1e-9
# known-optimum band of a searched w_p, in units of h
OPTIMUM_FLOOR_TOL = 1e-12
OPTIMUM_CEILING_TOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""


def _result(name, residual, tolerance, note=""):
    return SuiteResult(name, residual <= tolerance, float(residual), tolerance, note)


def _random_qubit_state(rng) -> np.ndarray:
    # radius ~ u^(1/3) makes the draw uniform over the Bloch ball
    direction = math.acos(1.0 - 2.0 * rng.random())
    return bloch_state(
        BlochVector(rng.random() ** (1.0 / 3.0), direction, 2.0 * math.pi * rng.random())
    )


def suite_operator_algebra(spec: HamiltonianSpec, rng) -> SuiteResult:
    worst = 0.0
    for dim in (2, 4):
        for _ in range(40):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = raw + raw.conj().T
            values, vectors = qmath.hermitian_eig(m)
            worst = max(worst, _fro(vectors @ np.diag(values) @ vectors.conj().T - m))
            worst = max(worst, _fro(vectors.conj().T @ vectors - np.eye(dim)))
    h_joint = hamiltonian_joint(spec)
    for _ in range(25):
        t1, t2 = 10.0 * rng.random(2)
        u1, u2 = qmath.evolve(h_joint, t1), qmath.evolve(h_joint, t2)
        worst = max(worst, _fro(u1 @ u2 - qmath.evolve(h_joint, t1 + t2)))
        worst = max(worst, _fro(u1 @ u1.conj().T - np.eye(4)))
    for _ in range(25):
        a, b = _random_qubit_state(rng), _random_qubit_state(rng)
        prod = qmath.kron(a, b)
        worst = max(worst, _fro(qmath.partial_trace_second(prod) - a))
        worst = max(worst, abs(np.trace(prod) - np.trace(a) * np.trace(b)))
    return _result("operator-algebra", worst, 1e-10)


def suite_passive_ergotropy(spec: HamiltonianSpec, rng) -> SuiteResult:
    """The closed forms against a spectral oracle: populations of rho from one
    stacked eigh, sorted descending, placed on the ascending levels of h_b."""
    h_b = hamiltonian_battery(spec)
    # radius ~ u^(1/3) and polar angle arccos(1 - 2u) make the draws uniform over the Bloch ball
    u = rng.random((3, 2000))
    radius, cos_polar, azimuth = u[0] ** (1.0 / 3.0), 1.0 - 2.0 * u[1], 2.0 * math.pi * u[2]
    sin_polar = np.sqrt(1.0 - cos_polar**2)
    bloch = radius[:, None] * np.stack(
        [sin_polar * np.cos(azimuth), sin_polar * np.sin(azimuth), cos_polar], axis=-1
    )
    ks = np.linspace(-1.0, 1.0, 81)
    diagonal = np.array([battery_state(k) for k in ks])
    paulis = np.array([qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z])
    rhos = np.concatenate([0.5 * (qmath.I2 + np.tensordot(bloch, paulis, 1)), diagonal])

    pops = np.linalg.eigvalsh(rhos)[:, ::-1]
    levels = np.linalg.eigh(h_b)[1]
    oracle = (levels * pops[:, None, :]) @ levels.conj().T
    work = ergotropy(rhos, spec)
    sigma = passive_state(rhos, h_b)
    worst = max(
        float(np.max(np.abs(work - (_energies(rhos, h_b) - _energies(oracle, h_b))))),
        _fro_max(sigma - oracle),
        -min(0.0, float(np.min(work))),
        float(np.max(np.abs(ergotropy(sigma, spec)))),
        _fro_max(passive_state(sigma, h_b) - sigma),
        _fro_max(sigma @ h_b - h_b @ sigma),
    )
    law = 2.0 * spec.h * np.maximum(ks, 0.0)
    worst = max(worst, float(np.max(np.abs(work[-ks.size :] - law))))
    return _result("passive-ergotropy", worst, 1e-10, "closed forms vs stacked eigh")


def suite_measurement_protocol(spec: HamiltonianSpec, rng) -> SuiteResult:
    worst = 0.0
    for _ in range(150):
        k = 2.0 * rng.random() - 1.0
        if rng.random() < 0.5:
            aux = BlochVector(
                rng.random(), math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()
            )
            rho0 = separable_initial(k, aux)
        else:
            rho0 = entangled_initial(
                EntangledInitParams(
                    k, math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()
                )
            )
        t = 10.0 * rng.random()
        basis = MeasurementBasis(math.pi * rng.random(), 2.0 * math.pi * rng.random())
        first = run_protocol(rho0, spec, t, basis, 0)
        second = run_protocol(rho0, spec, t, basis, 1)
        worst = max(worst, abs(first.probability + second.probability - 1.0))
        u = joint_unitary(spec, t)
        evolved = qmath.partial_trace_second(u @ rho0 @ u.conj().T)
        drained = energy(qmath.partial_trace_second(rho0), spec) - energy(evolved, spec)
        mean_drop = first.probability * first.delta_e + second.probability * second.delta_e
        worst = max(worst, abs(mean_drop - drained))
        shifted = MeasurementBasis(basis.theta, basis.phi + 2.0 * math.pi)
        worst = max(worst, abs(run_protocol(rho0, spec, t, shifted, 0).w_p - first.w_p))
    # measuring the untouched auxiliary in its own eigenbasis leaves the battery alone
    for _ in range(50):
        theta_a = math.acos(1.0 - 2.0 * rng.random())
        phi_a = 2.0 * math.pi * rng.random()
        rho0 = separable_initial(2.0 * rng.random() - 1.0, BlochVector(0.7, theta_a, phi_a))
        aligned = MeasurementBasis(theta_a, (2.0 * math.pi - phi_a) % (2.0 * math.pi))
        for outcome in (0, 1):
            worst = max(worst, abs(run_protocol(rho0, spec, 0.0, aligned, outcome).delta_e))
    # a battery starting in the ground state can only gain energy
    ground = separable_initial(-1.0, BlochVector(1.0, 0.3, 0.4))
    for _ in range(50):
        t = 10.0 * rng.random()
        basis = MeasurementBasis(math.pi * rng.random(), 2.0 * math.pi * rng.random())
        for outcome in (0, 1):
            worst = max(worst, run_protocol(ground, spec, t, basis, outcome).w_p)
    return _result("measurement-protocol", worst, 1e-10)


def suite_closed_form(spec: HamiltonianSpec, rng, tolerance: float) -> SuiteResult:
    worst = 0.0
    for _ in range(1000):
        s = rng.random()
        theta = math.pi * rng.random()
        t = 10.0 * rng.random()
        rho0 = analytic.separable_initial_bloch(s, theta)
        oracle = run_protocol(rho0, spec, t, Z_BASIS, 1).w_p
        worst = max(worst, abs(oracle / spec.h - analytic.wp_closed_form(s, theta, spec, t)))
    return _result("closed-form-vs-oracle", worst, tolerance, "w_p compared in units of h")


def suite_small_t_quartic(spec: HamiltonianSpec, rng) -> SuiteResult:
    worst = 0.0
    times = np.array([1e-3, 2e-3, 4e-3]) / spec.h
    for _ in range(100):
        s = rng.random()
        theta = math.pi * rng.random()
        rho0 = analytic.separable_initial_bloch(s, theta)
        wps = np.array([run_protocol(rho0, spec, t, Z_BASIS, 1).w_p for t in times])
        fit = float(np.sum(wps * times**4) / np.sum(times**8)) / spec.h
        coeff = analytic.wp_small_t(s, theta, spec)
        if coeff == 0.0:
            worst = max(worst, abs(fit))
        else:
            worst = max(worst, abs(fit - coeff) / abs(coeff))
    return _result("small-t-quartic", worst, 1e-2, "relative error of the t^4 fit")


def suite_excited_drain(spec: HamiltonianSpec) -> SuiteResult:
    omega = math.hypot(2.0 * spec.h, spec.J)
    worst = 0.0
    variant_gap = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi / omega, 50):
        oracle = analytic.wp_excited_oracle(spec, t)
        worst = max(worst, abs(oracle - analytic.wp_excited_closed_form(spec, t)))
        variant_gap = max(variant_gap, abs(oracle - analytic.wp_excited_sine_variant(spec, t)))
    peak = analytic.wp_excited_oracle(spec, analytic.excited_quarter_period(spec))
    worst = max(worst, abs(peak - 2.0 * spec.h * (spec.J / omega) ** 2))
    note = (
        "sin^2(sqrt(4h^2+J^2) t) form matches; sine variant with argument "
        f"(4h^2+J^2)t is dimensionally inconsistent (max gap {variant_gap:.3g})"
    )
    return _result("excited-drain", worst, 1e-9, note)


def suite_entropy() -> SuiteResult:
    worst = 0.0
    grid = np.linspace(-1.0, 1.0, 201)
    values = np.array([analytic.entanglement_entropy(k) for k in grid])
    worst = max(worst, float(np.max(np.maximum(values - 1.0, -values))))
    worst = max(worst, abs(analytic.entanglement_entropy(0.0) - 1.0))
    worst = max(worst, abs(analytic.entanglement_entropy(1.0)))
    worst = max(worst, abs(analytic.entanglement_entropy(-1.0)))
    for k in np.arange(0.1, 1.0, 0.1):
        worst = max(
            worst,
            abs(analytic.entanglement_entropy(k) - analytic.entanglement_entropy(-k)),
        )
    # discrete midpoint concavity
    worst = max(worst, float(np.max(0.5 * (values[:-2] + values[2:]) - values[1:-1])))
    return _result("entanglement-entropy", worst, 1e-10)


def suite_zero_coupling_pointwise(spec: HamiltonianSpec, rng) -> SuiteResult:
    decoupled = HamiltonianSpec(spec.h, 0.0)
    worst = 0.0
    for _ in range(200):
        aux = BlochVector(
            rng.random(), math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()
        )
        rho0 = separable_initial(2.0 * rng.random() - 1.0, aux)
        basis = MeasurementBasis(math.pi * rng.random(), 2.0 * math.pi * rng.random())
        t = 10.0 * rng.random()
        for outcome in (0, 1):
            worst = max(worst, abs(run_protocol(rho0, decoupled, t, basis, outcome).w_p))
    return _result("zero-coupling-pointwise", worst, 1e-12, "product initial states, J=0")


def suite_zero_coupling_optimized(spec: HamiltonianSpec, seed: int) -> SuiteResult:
    decoupled = HamiltonianSpec(spec.h, 0.0)
    report = optimize(SearchSpace(family="separable", k=0.0), decoupled, budget=2000, seed=seed)
    return _result("zero-coupling-optimized", abs(report.best_value), 1e-2)


def suite_mps_uniqueness(spec: HamiltonianSpec) -> SuiteResult:
    report = analytic.mps_scan(21, spec)
    if spec.J == 0.0:
        # without coupling no state yields anything: the whole grid is passive
        extractable = report.passive.size - report.passive_count
        return _result("mps-scan", float(extractable), 0.0, "J=0: all states passive")
    points = report.passive_points()
    ground_only = points == [(1.0, math.pi)]
    return _result(
        "mps-scan",
        0.0 if ground_only else float(max(1, len(points))),
        0.0,
        f"passive points: {report.passive_count}",
    )


def suite_optimum_bound(spec: HamiltonianSpec, seed: int) -> SuiteResult:
    """A short search of either family must land in [0, h(1+k)]: t = 0
    scores 0, and every protocol obeys w_p <= P (E0 + h) <= h(1+k)."""
    h = spec.h
    worst = 0.0
    cases = itertools.product(("separable", "entangled"), (-0.5, 0.5))
    for i, (family, k) in enumerate(cases):
        space = SearchSpace(family, k, t_max=10.0 / h)
        value = optimize(space, spec, budget=2000, seed=derive_seed(seed, i)).best_value
        ceiling = h * (1.0 + k) + OPTIMUM_CEILING_TOL * h
        worst = max(worst, -OPTIMUM_FLOOR_TOL * h - value, value - ceiling)
    return _result(
        "optimum-bound",
        worst / h,
        0.0,
        "excess beyond [-1e-12 h, h(1+k) + 1e-9 h], in units of h",
    )


def run_suites(
    spec: HamiltonianSpec, seed: int, closed_form_tol: float = CLOSED_FORM_TOL
) -> list[SuiteResult]:
    """Run every suite; deterministic for a fixed (spec, seed)."""
    streams = [make_rng(derive_seed(seed, i)) for i in range(8)]
    return [
        suite_operator_algebra(spec, streams[0]),
        suite_passive_ergotropy(spec, streams[1]),
        suite_measurement_protocol(spec, streams[2]),
        suite_closed_form(spec, streams[3], closed_form_tol),
        suite_small_t_quartic(spec, streams[4]),
        suite_excited_drain(spec),
        suite_entropy(),
        suite_zero_coupling_pointwise(spec, streams[5]),
        suite_zero_coupling_optimized(spec, derive_seed(seed, 6)),
        suite_mps_uniqueness(spec),
        suite_optimum_bound(spec, derive_seed(seed, 7)),
    ]


def _fro(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _fro_max(stack) -> float:
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1))))


def _energies(stack, h_op) -> np.ndarray:
    return np.einsum("nij,ji->n", stack, h_op).real
