"""Closed-form results for a reference extraction protocol, plus the
measurement-passive-state scan.

The reference protocol fixes the auxiliary in the ground state |1><1|,
measures it in the sigma_z eigenbasis after a time t, and keeps the ground
outcome |1><1|. For a battery at Bloch radius s and zenith angle theta the
extracted w_p then has an exact closed form (quadratic in the Bloch vector,
azimuth drops out), with a quartic small-t law. Every closed form here is
shadowed by the brute-force protocol simulation, which is authoritative
whenever the two disagree.

The passivity scan is the reference closed form evaluated on the whole
Bloch grid at the probe time, plus the excited-battery drain closed form
on the fully excited state: a few grid-sized array operations. The verify
suites hold both closed forms to run_protocol, the stacked brute-force
oracle. Every function here that takes s, theta or t also takes arrays of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import BlochVector, HamiltonianSpec, bloch_state, check_population_bias
from .errors import ConfigError
from .protocol import Z_BASIS, run_protocol
from . import qmath

# Scan defaults. The probe time must sit where the closed-form w_p is
# positive but small; 0.1/h keeps the weakest on-grid signal of a 101x101
# scan about 25x above the extractability threshold.
DEFAULT_T_PROBE = 0.1
EXTRACTABLE_THRESHOLD = 1e-8

AUX_GROUND = np.array([[0, 0], [0, 1]], dtype=complex)


def wp_closed_form(s, theta, spec: HamiltonianSpec, t):
    """Exact w_p of the reference protocol, in units of h.

    (1 / (4 (4h^2+J^2))) * [-4h^2 + (4h^2+J^2) cos(2Jt)
        - J^2 cos(2 sqrt(4h^2+J^2) t)] * (-1 + s^2 cos^2 theta),

    evaluated as [(J/W)^2 sin^2(W t) - sin^2(J t)] (-1 + s^2 cos^2 theta) / 2
    with W = spec.omega, the same value by (2h/W)^2 + (J/W)^2 = 1 and
    cos 2x = 1 - 2 sin^2 x. The sin^2 form is better conditioned: at small t
    the printed bracket cancels terms of order 1 down to one of order (ht)^4,
    the sin^2 form only terms of order (Jt)^2. No squared energy appears, so
    nothing over- or underflows. The result is exactly 0 at J = 0, and the
    + 0.0 turns -0.0 into 0.0. s, theta and t may be arrays that broadcast.
    """
    bracket = (spec.J / spec.omega) ** 2 * np.sin(spec.omega * t) ** 2 - np.sin(spec.J * t) ** 2
    return bracket * (-1.0 + s * s * np.cos(theta) ** 2) / 2.0 + 0.0


def wp_small_t(s, theta, spec: HamiltonianSpec):
    """Coefficient of t^4 in the small-t expansion of wp_closed_form.

    -8 (4 h^4 J^2 + h^2 J^4) (-1 + s^2 cos^2 theta) / (12 (4h^2 + J^2)),
    which is -(2/3) h^2 J^2 (-1 + s^2 cos^2 theta): the factor 4h^2 + J^2
    cancels. s and theta may be arrays that broadcast. (hJ)^2 is a product,
    not a power, so it overflows to inf instead of raising OverflowError.
    """
    hj = spec.h * spec.J
    return -2.0 / 3.0 * (hj * hj) * (-1.0 + s * s * np.cos(theta) ** 2)


def wp_excited_oracle(spec: HamiltonianSpec, t):
    """Brute-force w_p for draining the fully excited battery.

    Battery |0><0|, auxiliary |0><0|, sigma_z measurement, ground outcome.
    The simulated value follows 2hJ^2 sin^2(sqrt(4h^2+J^2) t) / (4h^2+J^2);
    see wp_excited_sine_variant for the alternative printed form. ``t`` may
    be an array: one stacked run_protocol call evaluates every time.
    """
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    return run_protocol(rho0, spec, t, Z_BASIS, 1).w_p


def wp_excited_closed_form(spec: HamiltonianSpec, t):
    """2hJ^2 sin^2(sqrt(4h^2+J^2) t) / (4h^2+J^2), matching the oracle."""
    return 2.0 * spec.h * (spec.J / spec.omega) ** 2 * np.sin(spec.omega * t) ** 2


def wp_excited_sine_variant(spec: HamiltonianSpec, t):
    """Alternative closed form 2hJ^2 sin((4h^2+J^2) t) / (4h^2+J^2).

    Kept only for comparison reporting: the phase argument (4h^2+J^2)*t
    carries units of energy^2 * time (hbar = 1), so the expression is
    dimensionally inconsistent and does not match the simulation. The
    sin^2(sqrt(4h^2+J^2) t) form does. Where (4h^2+J^2)*t is not finite
    (it overflows at large h or J) the variant is NaN.
    """
    omega = spec.omega
    with np.errstate(invalid="ignore"):
        return 2.0 * spec.h * (spec.J / omega) ** 2 * np.sin(omega * omega * t)


def excited_quarter_period(spec: HamiltonianSpec) -> float:
    """Time of the first extraction maximum for the excited-battery drain."""
    return math.pi / (2.0 * spec.omega)


def entanglement_entropy(k: float) -> float:
    """Entanglement entropy, in ebits, of the Schmidt-form joint pure state.

    Binary entropy of (1+k)/2 in base 2, with 0*log(0) = 0.
    """
    check_population_bias(k)
    total = 0.0
    for p in ((1.0 + k) / 2.0, (1.0 - k) / 2.0):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


@dataclass(frozen=True)
class MpsScanReport:
    """Per-point extraction maxima and passivity verdicts on a Bloch grid."""

    s_grid: np.ndarray
    theta_grid: np.ndarray
    max_wp: np.ndarray  # shape (len(s_grid), len(theta_grid))
    passive: np.ndarray  # boolean, same shape
    threshold: float
    t_probe: float

    @property
    def passive_count(self) -> int:
        return int(np.count_nonzero(self.passive))

    def passive_points(self) -> list[tuple[float, float]]:
        return [
            (float(self.s_grid[i]), float(self.theta_grid[j]))
            for i, j in zip(*np.nonzero(self.passive))
        ]


def mps_scan(grid_n: int, spec: HamiltonianSpec, t_probe: float | None = None) -> MpsScanReport:
    """Scan battery states (s, theta) for measurement passivity.

    Each grid point scores the reference protocol at the probe time, as
    wp_closed_form evaluated on the whole grid at once; points where the
    battery is the fully excited state also score the excited-battery
    drain at its quarter period, as wp_excited_closed_form. A point is
    passive when every probe stays at or below the threshold; on the
    default regime only the ground state (s=1, theta=pi) qualifies.
    Memory grows as a few grid_n^2 floats.
    """
    if grid_n < 2:
        raise ConfigError(f"grid_n must be at least 2, got {grid_n}")
    if t_probe is None:
        t_probe = DEFAULT_T_PROBE / spec.h
    # omega >= 2h, |J|, so omega t < 1 bounds every phase of the probe
    if not 0.0 < t_probe < 1.0 / spec.omega:
        raise ConfigError(f"t_probe {t_probe} outside the small-time probe window")
    threshold = EXTRACTABLE_THRESHOLD * spec.h

    s_grid = np.linspace(0.0, 1.0, grid_n)
    theta_grid = np.linspace(0.0, math.pi, grid_n)
    max_wp = spec.h * wp_closed_form(s_grid[:, None], theta_grid, spec, t_probe)
    excited = np.outer(s_grid, np.cos(theta_grid)) >= 1.0 - 1e-12
    drain_peak = wp_excited_closed_form(spec, excited_quarter_period(spec))
    max_wp[excited] = np.maximum(max_wp[excited], drain_peak)
    return MpsScanReport(s_grid, theta_grid, max_wp, max_wp <= threshold, threshold, t_probe)


def separable_initial_bloch(s, theta) -> np.ndarray:
    """Product state of a Bloch-parameterized battery with the ground auxiliary;
    a stack (..., 4, 4) when s or theta are arrays."""
    return qmath.kron(bloch_state(BlochVector(s, theta)), AUX_GROUND)
