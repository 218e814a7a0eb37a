"""Self-test of the benchmark's output checks; runs in a few seconds.

    python3 perfbench/selftest.py        # from the root of the checkout

Confirms that the closed forms in checks.py agree with the program's scalar
``run_protocol`` at random points, and that every check accepts a correct
output and rejects a perturbed one. Exits 1 on the first set of failures.
"""

from __future__ import annotations

import math
import os
import random
import sys
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workload import same_outputs  # noqa: E402
from qbattery.battery import BlochVector, HamiltonianSpec, bloch_state  # noqa: E402
from qbattery.protocol import Z_BASIS, run_protocol  # noqa: E402

AUX_GROUND = np.diag([0.0, 1.0]).astype(complex)
Suite = namedtuple("Suite", "name passed residual")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def closed_forms_match_the_protocol(rng: random.Random) -> None:
    worst = 0.0
    for _ in range(500):
        h = rng.choice((0.5, 1.0, 2.0))
        j = h * rng.uniform(0.0, 4.0)
        s, theta, t = rng.random(), math.pi * rng.random(), 10.0 * rng.random() / h
        rho0 = np.kron(bloch_state(BlochVector(s, theta)), AUX_GROUND)
        oracle = run_protocol(rho0, HamiltonianSpec(h, j), t, Z_BASIS, 1).w_p
        worst = max(worst, abs(oracle - float(checks.reference_wp(s, theta, h, j, t))) / h)
    expect(worst <= 1e-10, f"reference_wp differs from run_protocol by {worst:.3g} h")
    for h, j in ((1.0, 2.0), (2.0, 4.0), (1.0, 1.0)):
        quarter = math.pi / (2.0 * math.sqrt(4.0 * h * h + j * j))
        excited = np.zeros((4, 4), dtype=complex)
        excited[0, 0] = 1.0
        oracle = run_protocol(excited, HamiltonianSpec(h, j), quarter, Z_BASIS, 1).w_p
        expect(abs(oracle - checks.drain_peak(h, j)) <= 1e-12 * h,
               f"drain_peak({h}, {j}) differs from run_protocol")


def reference_peak_is_the_maximum() -> None:
    ts = np.linspace(0.0, checks.T_MAX, 2_000_001)
    for k in (-0.975, -0.45, 0.0, 0.1, 0.9):
        fine = float(np.max(checks.reference_wp(abs(k), 0.0, 1.0, 2.0, ts)))
        peak = checks.reference_peak(k)
        expect(fine <= peak <= fine + 1e-10, f"reference_peak({k}) = {peak!r}, grid {fine!r}")
    expect(checks.reference_peak(1.0) == 0.0 and checks.reference_peak(-1.0) == 0.0,
           "reference_peak is not 0 at k = +-1")


def row_checks_reject_perturbations() -> None:
    k, peak = 0.1, checks.reference_peak(0.1)
    good = peak + 0.1
    expect(checks.check_row("separable", k, good, peak) == ([], False), "good separable row rejected")
    expect(checks.check_row("separable", k, peak - 2e-6, peak)[1], "separable shortfall not flagged")
    expect(checks.check_row("separable", k, 1.1 + 1e-8, peak)[0], "value above h(1+k) accepted")
    expect(checks.check_row("separable", -0.5, -1e-9, 0.0)[0], "negative value accepted")
    expect(checks.check_row("separable", 0.5, 1.0, 0.0)[0], "value at the ergotropy accepted")
    expect(checks.check_row("entangled", k, 1.1, 0.0) == ([], False), "good entangled row rejected")
    expect(checks.check_row("entangled", k, 1.1 - 2e-9, 0.0)[1], "entangled shortfall not flagged")
    expect(checks.check_row("entangled", k, 1.1 + 2e-9, 0.0)[0], "entangled overshoot accepted")


def mps_check_rejects_perturbations() -> None:
    n, h, j, t = 21, 1.0, 2.0, 0.1
    s_grid, theta_grid = np.linspace(0.0, 1.0, n), np.linspace(0.0, math.pi, n)
    s, theta = np.meshgrid(s_grid, theta_grid, indexing="ij")
    max_wp = checks.reference_wp(s, theta, h, j, t)
    max_wp[n - 1, 0] = checks.drain_peak(h, j)
    passive = max_wp <= 1e-8
    expect(checks.check_mps(j, s_grid, theta_grid, max_wp, passive, t) == [], "good scan rejected")
    off = max_wp.copy()
    off[3, 4] += 2e-9
    expect(checks.check_mps(j, s_grid, theta_grid, off, passive, t), "max_wp error accepted")
    extra = passive.copy()
    extra[0, 0] = True
    expect(checks.check_mps(j, s_grid, theta_grid, max_wp, extra, t), "extra passive point accepted")
    missing = passive.copy()
    missing[n - 1, n - 1] = False
    expect(checks.check_mps(j, s_grid, theta_grid, max_wp, missing, t), "missing ground state accepted")
    expect(checks.check_mps(j, s_grid, theta_grid, max_wp, passive, 0.2), "wrong t_probe accepted")
    expect(checks.check_mps(j, s_grid + 1e-3, theta_grid, max_wp, passive, t), "wrong grid accepted")


def other_checks_reject_perturbations() -> None:
    expect(checks.check_quartic_residual(2.0, 0.99995) == [], "known quartic residual rejected")
    expect(checks.check_quartic_residual(2.0, 0.9), "other quartic residual accepted")
    ok = Suite("closed-form-vs-oracle", True, 1e-12)
    quartic = Suite("small-t-quartic", False, 0.99995)
    expect(checks.check_suites(2.0, 4.0, [ok, quartic]) == ([], 1), "expected quartic failure rejected")
    expect(checks.check_suites(1.0, 2.0, [ok, quartic])[0], "quartic failure at h = 1 accepted")
    expect(checks.check_suites(2.0, 4.0, [Suite("mps-scan", False, 1.0), ok])[0],
           "unexpected failing suite accepted")
    rows = {f: [(0.0, 0.5, True, 10, 0, None)] for f in ("separable", "entangled")}
    moved = {**rows, "entangled": [(0.0, 0.5 + 1e-15, True, 10, 0, None)]}
    expect(same_outputs(rows, rows), "identical rounds reported as different")
    expect(not same_outputs(rows, moved), "rounds that differ reported as identical")


def main() -> int:
    closed_forms_match_the_protocol(random.Random(20230731))
    reference_peak_is_the_maximum()
    row_checks_reject_perturbations()
    mps_check_rejects_perturbations()
    other_checks_reject_perturbations()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
