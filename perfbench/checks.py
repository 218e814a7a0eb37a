"""Output checks computed apart from the program.

Nothing here imports qbattery: every reference value is derived from the
closed forms written out below, so a fault in the program cannot hide in
its own yardstick. Each check returns a list of problem strings; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

H = 1.0
J = 2.0
T_MAX = 10.0

BOUND_TOL = 1e-9  # h; gap allowed above, and below, the entangled optimum h(1+k)
SEPARABLE_TOL = 1e-6  # h; optimizer shortfall allowed against the reference-protocol peak
SIGN_TOL = 1e-12  # h; floating-point dust allowed below zero
MPS_TOL = 1e-9  # h
QUARTIC_TOL = 1e-2  # the small-t-quartic fit is a t^4 fit, good to about 1e-4


def reference_wp(s, theta, h, j, t):
    """w_p of the reference protocol (ground auxiliary, sigma_z measurement,
    ground outcome) for a battery at Bloch radius s and zenith angle theta.

    h [-4h^2 + w^2 cos(2Jt) - J^2 cos(2wt)] (-1 + s^2 cos^2 theta) / (4 w^2),
    with w^2 = 4h^2 + J^2. Broadcasts over numpy arguments.
    """
    omega_sq = 4.0 * h * h + j * j
    bracket = -4.0 * h * h + omega_sq * np.cos(2.0 * j * t) - j * j * np.cos(
        2.0 * math.sqrt(omega_sq) * t
    )
    return h * bracket * (-1.0 + (s * np.cos(theta)) ** 2) / (4.0 * omega_sq)


def drain_peak(h, j):
    """Peak w_p of draining the fully excited battery: 2hJ^2 / (4h^2 + J^2)."""
    return 2.0 * h * j * j / (4.0 * h * h + j * j)


def reference_peak(k, h=H, j=J, t_max=T_MAX):
    """max over t in [0, t_max] of reference_wp for the diagonal battery at bias k.

    A dense grid finds the basins; golden-section search polishes the best
    few of them to 1e-13 in t.
    """
    if abs(k) >= 1.0:
        return 0.0
    ts = np.linspace(0.0, t_max, 200_001)
    values = reference_wp(abs(k), 0.0, h, j, ts)
    step = ts[1] - ts[0]
    best = float(values.max())
    for i in np.argsort(values)[::-1][:8]:
        lo, hi = max(0.0, ts[i] - step), min(t_max, ts[i] + step)
        best = max(best, _golden_max(lambda t: float(reference_wp(abs(k), 0.0, h, j, t)), lo, hi))
    return best


def _golden_max(fn, lo, hi, tol=1e-13):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
    return max(f1, f2, fn(lo), fn(hi))


def check_row(family, k, value, peak, h=H):
    """Checks one sweep row. Returns (problems, short).

    ``short`` marks a row that falls short of a value the search space is
    known to reach: an entangled row more than BOUND_TOL below its optimum
    h(1+k), or a separable row more than SEPARABLE_TOL below the
    reference-protocol peak ``peak``. The search stalls on such rows, so they
    count as failed operations; ``problems`` lists outputs that are wrong.
    """
    problems = []
    bound = h * (1.0 + k)
    tag = f"{family} k={k:.6g} value={value!r}"
    if not -SIGN_TOL * h <= value <= bound + BOUND_TOL * h:
        problems.append(f"{tag}: outside [0, h(1+k)]")
    if family == "separable":
        short = value < peak - SEPARABLE_TOL * h
        if -1.0 < k < 1.0 and not value > 2.0 * h * max(k, 0.0):
            problems.append(f"{tag}: not above the ergotropy {2.0 * h * max(k, 0.0)!r}")
    else:
        short = value < bound - BOUND_TOL * h
    return problems, short


def check_mps(j, s_grid, theta_grid, max_wp, passive, t_probe, h=H):
    """Checks one passivity scan against the closed form at t_probe."""
    n = len(s_grid)
    tag = f"mps J={j:g}"
    problems = []
    if not (np.array_equal(s_grid, np.linspace(0.0, 1.0, n))
            and np.array_equal(theta_grid, np.linspace(0.0, math.pi, n))):
        return [f"{tag}: grid differs from linspace"]
    if t_probe != 0.1 / h:
        problems.append(f"{tag}: t_probe {t_probe!r} is not 0.1/h")
    s, theta = np.meshgrid(s_grid, theta_grid, indexing="ij")
    expected = reference_wp(s, theta, h, j, t_probe)
    excited = s * np.cos(theta) >= 1.0 - 1e-12
    expected[excited] = np.maximum(expected[excited], drain_peak(h, j))
    worst = float(np.max(np.abs(np.asarray(max_wp) - expected)))
    if not worst <= MPS_TOL * h:
        problems.append(f"{tag}: max_wp off the closed form by {worst:.3g}")
    if j != 0.0:
        want = np.zeros((n, n), dtype=bool)
        want[n - 1, n - 1] = True  # s = 1, theta = pi: the ground state
        if not np.array_equal(np.asarray(passive), want):
            problems.append(f"{tag}: passive set is not exactly the ground state")
    return problems


def check_quartic_residual(h, residual):
    """At h != 1 the small-t-quartic suite compares an energy-unit fit with an
    h-unit coefficient, so its residual is |h - 1|. Anything else is a new fault."""
    if not abs(residual - abs(h - 1.0)) <= QUARTIC_TOL:
        return [f"small-t-quartic at h={h:g}: residual {residual:.6g}, expected |h-1|"]
    return []


def check_suites(h, j, results):
    """Checks one ``run_suites`` result list (items with ``name``, ``passed``
    and ``residual``). Returns (problems, failed).

    Every failing suite is a failed operation. The only failure expected is
    small-t-quartic at h != 1, with residual |h - 1|; any other failing suite
    is a problem.
    """
    problems, failed = [], 0
    for r in results:
        if r.passed:
            continue
        failed += 1
        if r.name == "small-t-quartic" and h != 1.0:
            problems += check_quartic_residual(h, r.residual)
        else:
            problems.append(f"suite {r.name} failed at (h={h:g}, J={j:g}), "
                            f"residual {r.residual:.6g}")
    return problems, failed
