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
on the fully excited state: a few grid-sized array operations. A point is
passive exactly when its value is not positive; mps_scan proves that only
the ground state qualifies for J != 0. The verify
suites hold both closed forms to run_protocol, the stacked brute-force
oracle. Every function here that takes s, theta or t also takes arrays of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import BlochVector, HamiltonianSpec, bloch_state, check_population_bias
from .errors import ConfigError, DomainError
from .protocol import Z_BASIS, run_protocol
from . import qmath

# the most float64 elements one numpy array can describe; beyond it numpy
# raises ValueError or IndexError, not MemoryError
MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

AUX_GROUND = np.array([[0, 0], [0, 1]], dtype=complex)


def wp_closed_form(s, theta, spec: HamiltonianSpec, t):
    """Exact w_p of the reference protocol, in units of h.

    (1 / (4 (4h^2+J^2))) * [-4h^2 + (4h^2+J^2) cos(2Jt)
        - J^2 cos(2 sqrt(4h^2+J^2) t)] * (-1 + s^2 cos^2 theta),

    evaluated as [(g/w)^2 sin^2(w tau) - sin^2(g tau)] (-1 + s^2 cos^2 theta) / 2
    with g = J/h, w = sqrt(4h^2+J^2)/h and tau = h t (HamiltonianSpec), the
    same value by (2/w)^2 + (g/w)^2 = 1 and cos 2x = 1 - 2 sin^2 x. The sin^2
    form is better conditioned: at small t the printed bracket cancels terms
    of order 1 down to one of order (ht)^4, the sin^2 form only terms of order
    (Jt)^2. No energy appears outside tau, so nothing over- or underflows.
    The result is exactly 0 at J = 0, and the + 0.0 turns -0.0 into 0.0. s,
    theta and t may be arrays that broadcast.
    """
    g, w, tau = spec.g, spec.w, spec.h * t
    bracket = (g / w) ** 2 * np.sin(w * tau) ** 2 - np.sin(g * tau) ** 2
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
    """2hJ^2 sin^2(sqrt(4h^2+J^2) t) / (4h^2+J^2), matching the oracle,
    evaluated as h [2 (g/w)^2 sin^2(w tau)] with tau = h t, so that 2h is never
    formed."""
    return spec.h * (2.0 * (spec.g / spec.w) ** 2 * np.sin(spec.w * (spec.h * t)) ** 2)


def wp_excited_sine_variant(spec: HamiltonianSpec, t):
    """Alternative closed form 2hJ^2 sin((4h^2+J^2) t) / (4h^2+J^2).

    Kept only for comparison reporting: the phase argument (4h^2+J^2)*t
    carries units of energy^2 * time (hbar = 1), so the expression is
    dimensionally inconsistent and does not match the simulation. The
    sin^2(sqrt(4h^2+J^2) t) form does. Where (4h^2+J^2)*t is not finite
    (it overflows at large h or J) the variant is NaN. Its absolute phase is
    the one place the model forms sqrt(4h^2+J^2) from h and J.
    """
    omega = math.hypot(2.0 * spec.h, spec.J)
    with np.errstate(invalid="ignore"):
        return 2.0 * spec.h * (spec.J / omega) ** 2 * np.sin(omega * omega * t)


def excited_quarter_period(spec: HamiltonianSpec) -> float:
    """Time of the first extraction maximum for the excited-battery drain,
    t = tau/h at tau = (pi/2)/w. It overflows where h is below about
    (pi/2)/(w * 1.8e308); the drain's maximum itself, 2h (g/w)^2, forms no time."""
    return 0.5 * math.pi / spec.w / spec.h


def entanglement_entropy(k):
    """Entanglement entropy, in ebits, of the Schmidt-form joint pure state.

    Binary entropy of (1+k)/2 in base 2, with 0*log(0) = 0. k may be an
    array; a number gives a numpy float.
    """
    check_population_bias(k)
    k = np.asarray(k, dtype=float)
    p = np.stack([(1.0 + k) / 2.0, (1.0 - k) / 2.0])
    # log2(1) = 0 stands in for log2(0), so an empty level adds exactly 0
    terms = p * np.log2(np.where(p > 0.0, p, 1.0))
    return 0.0 - terms[0] - terms[1]


@dataclass(frozen=True)
class MpsScanReport:
    """Per-point extraction maxima on a Bloch grid, and the passivity
    verdicts they decide."""

    s_grid: np.ndarray
    theta_grid: np.ndarray
    max_wp: np.ndarray  # shape (len(s_grid), len(theta_grid))
    passive: np.ndarray  # True where no probe extracts anything, max_wp <= 0
    t_probe: float

    def passive_points(self) -> list[tuple[float, float]]:
        return [
            (float(self.s_grid[i]), float(self.theta_grid[j]))
            for i, j in zip(*np.nonzero(self.passive))
        ]


def mps_scan(grid_n: int, spec: HamiltonianSpec) -> MpsScanReport:
    """Scan battery states (s, theta) for measurement passivity.

    Each grid point scores the reference protocol at the probe time
    tau = h t = min(0.1, 0.5/w), as wp_closed_form evaluated on the whole
    grid at once; the fully excited corner (s=1, theta=0) also scores the
    excited-battery drain at its maximum, 2h (g/w)^2, which is
    wp_excited_closed_form at excited_quarter_period written with no time.
    A point is passive exactly when its score is <= 0. That sign is exact,
    with no threshold, and the same at every probe time in the window, so
    the scan fixes one:

    - For J != 0 and 0 < w tau <= pi, the bracket of wp_closed_form,
      (g/w)^2 sin^2(w tau) - sin^2(g tau) = g^2 tau^2 [sinc^2(w tau) -
      sinc^2(g tau)], is < 0: sinc is positive and strictly decreasing on
      (0, pi), and |g| < w. The probe window tau < 1/w lies inside.
    - The factor (-1 + s^2 cos^2 theta) is < 0 everywhere except at the two
      poles s=1, theta in {0, pi}, where it is 0; so w_p > 0 off the poles.
    - The excited pole drains 2h (g/w)^2 > 0.

    So for J != 0 only the ground state (s=1, theta=pi) is passive. At J = 0
    every w_p is exactly 0 and every point is passive. Where J != 0 and
    rounding leaves a point off the poles at or below 0 (the bracket cancels
    from |g| of about 3e7 on; products underflow below |g| of about
    1e-157), the probe cannot resolve the sign and DomainError is raised,
    naming the J/h that decides it.

    The scan runs in (g, w, tau), so only the probe time t = tau/h itself
    depends on the scale: where h is so near the ends of the float range
    that it overflows (h below about 5.6e-310) or rounds to 0, DomainError
    is raised too. Memory grows as a few grid_n^2 floats.
    """
    if grid_n < 2:
        raise ConfigError(f"grid_n must be at least 2, got {grid_n}")
    if grid_n > math.isqrt(MAX_GRID_POINTS):
        raise ConfigError(f"grid_n {grid_n} is too large: numpy cannot describe a "
                          f"grid_n x grid_n float64 scan")
    # perfbench and the pinned `mps` digest read the scan at tau = 0.1; past g = sqrt(21)
    # the probe shortens to 0.5/w. w >= 2, |g|, so w tau < 1 bounds every phase
    t_probe = min(0.1, 0.5 / spec.w) / spec.h
    if not 0.0 < t_probe < math.inf:
        raise DomainError(f"the probe time {t_probe} is not positive and finite at h={spec.h}, "
                          f"J={spec.J}: h is too near the limits of float64")

    s_grid = np.linspace(0.0, 1.0, grid_n)
    theta_grid = np.linspace(0.0, math.pi, grid_n)
    max_wp = spec.h * wp_closed_form(s_grid[:, None], theta_grid, spec, t_probe)
    # both poles score exactly 0; by the proof above any further point at or below 0 is rounding
    if spec.J != 0.0 and np.count_nonzero(max_wp <= 0.0) > 2:
        raise DomainError(f"rounding hides the sign of w_p at the probe for "
                          f"J/h={spec.g}: the scan cannot tell passive points")
    # the probe scores exactly 0 at the excited corner; the drain peaks there at
    # 2h (g/w)^2, formed without excited_quarter_period, which overflows for tiny h
    max_wp[-1, 0] = spec.h * (2.0 * (spec.g / spec.w) ** 2)
    return MpsScanReport(s_grid, theta_grid, max_wp, max_wp <= 0.0, t_probe)


def separable_initial_bloch(s, theta) -> np.ndarray:
    """Product state of a Bloch-parameterized battery with the ground auxiliary;
    a stack (..., 4, 4) when s or theta are arrays."""
    return qmath.kron(bloch_state(BlochVector(s, theta)), AUX_GROUND)
