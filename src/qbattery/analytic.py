"""Closed-form results for a reference extraction protocol, plus the
measurement-passive-state scan.

The reference protocol fixes the auxiliary in the ground state |1><1|,
measures it in the sigma_z eigenbasis after a time t, and keeps the ground
outcome |1><1|. For a battery at Bloch radius s and zenith angle theta the
extracted w_p then has an exact closed form (quadratic in the Bloch vector,
azimuth drops out), with a quartic small-t law. Every closed form here is
shadowed by the brute-force protocol simulation, which is authoritative
whenever the two disagree.

The passivity scan evaluates the reference protocol on the whole Bloch
grid at once from one probe unitary: the kept branch is affine in
z = s cos theta, so w_p is quadratic in it, and the scan costs a few
grid-sized array operations. run_protocol, the stacked brute-force
oracle, stays what the scan is tested against; every function here that
takes s, theta or t also takes arrays of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import BlochVector, HamiltonianSpec, bloch_state
from .errors import ConfigError, DomainError
from .protocol import Z_BASIS, ZERO_PROBABILITY, joint_unitary, run_protocol
from . import qmath

# Scan defaults. The probe time must sit where the closed-form bracket is
# positive but small; 0.1/h keeps the weakest on-grid signal of a 101x101
# scan about 25x above the extractability threshold.
DEFAULT_T_PROBE = 0.1
EXTRACTABLE_THRESHOLD = 1e-8

AUX_GROUND = np.array([[0, 0], [0, 1]], dtype=complex)


def wp_closed_form(s, theta, spec: HamiltonianSpec, t):
    """Exact w_p of the reference protocol, in units of h.

    (1 / (4 (4h^2+J^2))) * [-4h^2 + (4h^2+J^2) cos(2Jt)
        - J^2 cos(2 sqrt(4h^2+J^2) t)] * (-1 + s^2 cos^2 theta),

    evaluated with W = sqrt(4h^2+J^2) formed as hypot(2h, J) and the bracket
    divided through by W^2, so that no squared energy over- or underflows.
    s, theta and t may be arrays that broadcast.
    """
    h, j = spec.h, spec.J
    omega = math.hypot(2.0 * h, j)
    bracket = (
        -((2.0 * h / omega) ** 2)
        + np.cos(2.0 * j * t)
        - (j / omega) ** 2 * np.cos(2.0 * omega * t)
    )
    return bracket * (-1.0 + s * s * np.cos(theta) ** 2) / 4.0


def wp_small_t(s, theta, spec: HamiltonianSpec):
    """Coefficient of t^4 in the small-t expansion of wp_closed_form.

    -8 (4 h^4 J^2 + h^2 J^4) (-1 + s^2 cos^2 theta) / (12 (4h^2 + J^2)),
    which is -(2/3) h^2 J^2 (-1 + s^2 cos^2 theta): the factor 4h^2 + J^2
    cancels. s and theta may be arrays that broadcast.
    """
    return -2.0 / 3.0 * (spec.h * spec.J) ** 2 * (-1.0 + s * s * np.cos(theta) ** 2)


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
    omega = math.hypot(2.0 * spec.h, spec.J)
    return 2.0 * spec.h * (spec.J / omega) ** 2 * np.sin(omega * t) ** 2


def wp_excited_sine_variant(spec: HamiltonianSpec, t):
    """Alternative closed form 2hJ^2 sin((4h^2+J^2) t) / (4h^2+J^2).

    Kept only for comparison reporting: the phase argument (4h^2+J^2)*t
    carries units of energy^2 * time (hbar = 1), so the expression is
    dimensionally inconsistent and does not match the simulation. The
    sin^2(sqrt(4h^2+J^2) t) form does. Where (4h^2+J^2)*t is not finite
    (it overflows at large h or J) the variant is NaN.
    """
    omega = math.hypot(2.0 * spec.h, spec.J)
    with np.errstate(invalid="ignore"):
        return 2.0 * spec.h * (spec.J / omega) ** 2 * np.sin(omega * omega * t)


def excited_quarter_period(spec: HamiltonianSpec) -> float:
    """Time of the first extraction maximum for the excited-battery drain."""
    return math.pi / (2.0 * math.hypot(2.0 * spec.h, spec.J))


def entanglement_entropy(k: float) -> float:
    """Entanglement entropy, in ebits, of the Schmidt-form joint pure state.

    Binary entropy of (1+k)/2 in base 2, with 0*log(0) = 0.
    """
    if abs(k) > 1.0:
        raise DomainError(f"population bias k must lie in [-1, 1], got {k}")
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

    Each grid point runs the reference protocol at the probe time; points
    where the battery is the fully excited state are additionally probed
    with the excited-battery drain at its quarter period. A point is
    passive when every probe stays at or below the threshold; on the
    default regime only the ground state (s=1, theta=pi) qualifies.

    The whole grid is evaluated at once from the one probe unitary U. The
    auxiliary starts and is kept in its ground state |1>, and U conserves
    the parity Z x Z, so the kept branch M is diagonal in the battery
    levels: <i|M|i> = |U[2i+1, 2i+1]|^2 <i|b|i> for the initial battery
    b = (I + x sx + z sz)/2. The coherence x drops out, P = Tr M and
    Tr(M sz) are affine in z = s cos theta, and w_p = P h z - h Tr(M sz),
    as run_protocol computes it point by point (the oracle).
    Memory grows as a few grid_n^2 floats.
    """
    if grid_n < 2:
        raise ConfigError(f"grid_n must be at least 2, got {grid_n}")
    if t_probe is None:
        t_probe = DEFAULT_T_PROBE / spec.h
    omega = math.hypot(2.0 * spec.h, spec.J)
    if not 0.0 < t_probe < 1.0 / max(spec.h, abs(spec.J), omega):
        raise ConfigError(f"t_probe {t_probe} outside the small-time probe window")
    threshold = EXTRACTABLE_THRESHOLD * spec.h

    s_grid = np.linspace(0.0, 1.0, grid_n)
    theta_grid = np.linspace(0.0, math.pi, grid_n)
    # H conserves the parity Z x Z, so U maps |i,1> to U[2i+1, 2i+1] |i,1> plus
    # a state with the auxiliary excited: <i|M|i> = |U[2i+1, 2i+1]|^2 <i|b|i>
    kept = np.abs(np.diag(joint_unitary(spec, t_probe))[1::2]) ** 2
    z = np.outer(s_grid, np.cos(theta_grid))
    excited_pop, ground_pop = kept[0] * (1.0 + z) / 2.0, kept[1] * (1.0 - z) / 2.0
    probability = excited_pop + ground_pop
    max_wp = spec.h * (probability * z - (excited_pop - ground_pop))
    max_wp[probability < ZERO_PROBABILITY] = 0.0
    excited = z >= 1.0 - 1e-12
    drain_peak = wp_excited_oracle(spec, excited_quarter_period(spec))
    max_wp[excited] = np.maximum(max_wp[excited], drain_peak)
    return MpsScanReport(s_grid, theta_grid, max_wp, max_wp <= threshold, threshold, t_probe)


def separable_initial_bloch(s, theta) -> np.ndarray:
    """Product state of a Bloch-parameterized battery with the ground auxiliary;
    a stack (..., 4, 4) when s or theta are arrays."""
    return qmath.kron(bloch_state(BlochVector(s, theta)), AUX_GROUND)
