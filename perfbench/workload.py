"""One benchmark workload, run by run.py in a fresh interpreter.

Prints ``READY`` once qbattery is imported and the inputs are built, then
runs whole rounds of the workload, checks every output, and prints one
JSON line with the per-round timings, the operation counts and the problems
found. With ``--setup-only`` it stops after ``READY``; run.py uses that to
time set-up several times per run.

Why a fresh interpreter, and a fixed order of families inside it: every
batched ``WpEvaluator`` call allocates and frees multi-megabyte temporaries,
and how much those page faults cost depends on what already ran in the
process. Entangled calls made after separable ones fault far less than in
a fresh process, so each workload starts clean and always runs separable
before entangled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

FAMILIES = ("separable", "entangled")
SEED = 123456789  # the CLI's default run seed; row i uses derive_seed(SEED, i)
BUDGET = 200_000  # the CLI's default budget
DEEP_BUDGET = 5 * BUDGET
GRID_POINTS = 81  # the CLI's default k grid on [-1, 1]
# k = -1, -0.975, -0.95, -0.825, -0.45, -0.075, 0, 0.1, 1: the ends, the
# middle, and the six rows whose entangled optimum falls short of h(1+k)
SWEEP_ROWS = (0, 1, 2, 7, 22, 37, 40, 44, 80)
DEEP_ROWS = (22, 40, 44)  # k = -0.45, 0 and 0.1
POOL_POINTS = 9  # coarse grid for the process pool: k = -1, -0.75, ..., 1
MPS_GRID = 101
MPS_J = (2.0, 1.0, 4.0)  # at h = 1
# (2, 4) and (0.5, 1) share g = J/h = 2 with the default (1, 2)
VERIFY_SPECS = ((1.0, 2.0), (1.0, 0.0), (1.0, 4.0), (2.0, 4.0), (0.5, 1.0))

# Median seconds of one round, measured with figures.py (README). A run makes
# round(--seconds / this) whole rounds, at least one, so that every run with
# the same --seconds does the same work: at 25 s, 1, 1, 2 and 3 rounds.
ROUND_SECONDS = {"sweep": 26.8, "sweep-deep": 18.0, "sweep-pool": 15.4, "scan": 8.6}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Sweep:
    """Serial rows of the default grid, computed exactly as ``qbattery sweep``
    computes them: same k, same per-row seed, same budget."""

    def __init__(self, rows, budget):
        import numpy as np
        from qbattery import optimizer
        from qbattery.battery import HamiltonianSpec

        self.np, self.optimizer = np, optimizer
        self.grid = np.linspace(-1.0, 1.0, GRID_POINTS)
        self.spec = HamiltonianSpec(1.0, 2.0)
        self.rows, self.budget = rows, budget

    def optimize_row(self, family, i):
        opt = self.optimizer
        space = opt.SearchSpace(family, float(self.grid[i]), t_max=10.0)
        return opt.optimize(space, self.spec, self.budget, opt.derive_seed(SEED, i))

    def round(self):
        rows, parts = {}, {}
        for family in FAMILIES:
            spent, out = 0.0, []
            for i in self.rows:
                t0 = time.perf_counter()
                report = self.optimize_row(family, i)
                spent += time.perf_counter() - t0
                out.append((float(self.grid[i]), report.best_value, report.converged,
                            report.samples_used, i, report.best_params))
            rows[family], parts[f"{family}_s"] = out, spent
        return rows, parts

    def rerun(self, first, rng):
        problems = []
        for family in FAMILIES:
            k, value, _, _, i, params = rng.choice(first[family])
            again = self.optimize_row(family, i)
            if again.best_value != value or not self.np.array_equal(again.best_params, params):
                problems.append(f"{family} row {i}: rerun from its seed differs")
        return problems


class Pool:
    """``cli.sweep_values`` with threads = nproc on a coarse grid."""

    def __init__(self):
        from qbattery import cli, optimizer
        from qbattery.battery import HamiltonianSpec

        self.cli, self.optimizer = cli, optimizer
        self.spec = HamiltonianSpec(1.0, 2.0)
        self.cfg = cli.RunConfig(h=1.0, J=2.0, k_points=POOL_POINTS, budget=BUDGET,
                                 seed=SEED, t_max=10.0, threads=nproc())

    def round(self):
        rows, parts = {}, {}
        for family in FAMILIES:
            t0 = time.perf_counter()
            values = self.cli.sweep_values(family, self.cfg)
            parts[f"{family}_s"] = time.perf_counter() - t0
            rows[family] = [(k, value, converged, samples, seed, None)
                            for k, value, converged, samples, seed in values]
        return rows, parts

    def rerun(self, first, rng):
        # a serial recomputation from the printed seed: results must not
        # depend on threads
        problems = []
        opt = self.optimizer
        for family in FAMILIES:
            k, value, _, _, seed, _ = rng.choice(first[family])
            again = opt.optimize(opt.SearchSpace(family, k, t_max=10.0), self.spec, BUDGET, seed)
            if again.best_value != value:
                problems.append(f"{family} k={k:g}: serial rerun differs from the pool")
        return problems


class Scan:
    """Passivity scans and self-check suites: scalar ``run_protocol`` and
    ``qmath`` work, with almost no optimizer."""

    def __init__(self):
        from qbattery import analytic, verify
        from qbattery.battery import HamiltonianSpec

        self.analytic, self.verify, self.Spec = analytic, verify, HamiltonianSpec

    def scan(self, j):
        return self.analytic.mps_scan(MPS_GRID, self.Spec(1.0, j))

    def suites(self, h, j):
        return self.verify.run_suites(self.Spec(h, j), SEED)

    def round(self):
        t0 = time.perf_counter()
        scans = [self.scan(j) for j in MPS_J]
        t1 = time.perf_counter()
        suites = [self.suites(h, j) for h, j in VERIFY_SPECS]
        t2 = time.perf_counter()
        return (scans, suites), {"mps_s": t1 - t0, "verify_s": t2 - t1}

    def rerun(self, first, rng):
        import numpy as np

        scans, suites = first
        which = rng.randrange(len(MPS_J) + len(VERIFY_SPECS))
        if which < len(MPS_J):
            again, before = self.scan(MPS_J[which]), scans[which]
            if not (np.array_equal(again.max_wp, before.max_wp)
                    and np.array_equal(again.passive, before.passive)):
                return [f"mps J={MPS_J[which]:g}: rerun differs"]
            return []
        h, j = VERIFY_SPECS[which - len(MPS_J)]
        if self.suites(h, j) != suites[which - len(MPS_J)]:
            return [f"verify (h={h:g}, J={j:g}): rerun differs"]
        return []


def make(name):
    if name == "sweep":
        return Sweep(SWEEP_ROWS, BUDGET)
    if name == "sweep-deep":
        return Sweep(DEEP_ROWS, DEEP_BUDGET)
    if name == "sweep-pool":
        return Pool()
    return Scan()


def check_rows(first):
    """Sweep checks; returns (problems, failed rows, value means, rows)."""
    import checks

    problems, failed, means, plain = [], 0, {}, {}
    for family, rows in first.items():
        values = []
        for k, value, converged, samples, *_ in rows:
            peak = checks.reference_peak(k) if family == "separable" else 0.0
            found, short = checks.check_row(family, k, value, peak)
            problems += found
            failed += short
            values.append(value)
        means[f"{family}_value_mean"] = math.fsum(values) / len(values)
        plain[family] = [(k, v, c, s) for k, v, c, s, *_ in rows]
    return problems, failed, means, plain


def check_scan(first):
    import checks

    scans, suites = first
    problems, failed = [], 0
    for j, report in zip(MPS_J, scans):
        problems += checks.check_mps(j, report.s_grid, report.theta_grid, report.max_wp,
                                     report.passive, report.t_probe)
    for (h, j), results in zip(VERIFY_SPECS, suites):
        found, short = checks.check_suites(h, j, results)
        problems += found
        failed += short
    return problems, failed


def same_outputs(a, b) -> bool:
    """Rounds repeat exactly: same values in the same order."""
    import numpy as np

    if isinstance(a, tuple):
        scans_a, suites_a = a
        scans_b, suites_b = b
        return suites_a == suites_b and all(
            np.array_equal(x.max_wp, y.max_wp) for x, y in zip(scans_a, scans_b))
    return all([r[:4] for r in a[f]] == [r[:4] for r in b[f]] for f in FAMILIES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qbattery

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qbattery.__file__).startswith(src + os.sep):
        print(f"qbattery was imported from {qbattery.__file__}, not from ./src", file=sys.stderr)
        return 2
    work = make(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rounds = 1 if args.trace else max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    outputs, round_s, parts = [], [], {}
    for _ in range(rounds):
        t0 = time.perf_counter()
        out, part = work.round()
        round_s.append(time.perf_counter() - t0)
        outputs.append(out)
        for key, value in part.items():
            parts.setdefault(key, []).append(value)
    if tracer is not None:
        tracer.uninstall()

    first = outputs[0]
    problems = [f"round {r + 1} differs from round 1"
                for r in range(1, rounds) if not same_outputs(first, outputs[r])]
    if args.workload == "scan":
        found, failed = check_scan(first)
        attempted = len(MPS_J) + sum(len(s) for s in first[1])
        means, plain = {}, {}
        suites_failed = failed
    else:
        found, failed, means, plain = check_rows(first)
        attempted = sum(len(rows) for rows in first.values())
        suites_failed = 0
    problems += found
    problems += work.rerun(first, random.Random(args.seed))

    result = {
        "rounds": rounds,
        "round_s": round_s,
        "parts": parts,
        "values": means,
        "attempted": attempted * rounds,
        "failed": failed * rounds,
        "problems": problems,
    }
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(plain, suites_failed, rounds)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
