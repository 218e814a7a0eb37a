"""Command-line driver: k-sweeps, figure insets, self-verification, and the
measurement-passivity scan, all emitting deterministic CSV.

Energies in the output are in units of h and times (``--t-max``,
``--t-probe``) in units of 1/h: the CLI converts both once, at this edge, so
the package below works in absolute units. Every stochastic row carries the
derived per-point seed that reproduces it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import analytic, verify
from .battery import HamiltonianSpec, battery_state, ergotropy
from .errors import ConfigError, DomainError
from .optimizer import FAMILIES, SearchSpace, derive_seed, optimize

DEFAULT_SEED = 123456789
DEFAULT_BUDGET = 200_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2

# a search needs phases that resolve: one ulp of Omega t_max must stay below this
MAX_PHASE_ULP = 1e-6  # rad


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (the flags given over the defaults).

    argparse types every flag, so the fields arrive typed; this class checks
    only their ranges, which reject values the user typed."""

    h: float = 1.0
    J: float | None = None
    k_min: float = -1.0
    k_max: float = 1.0
    k_points: int = 81
    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED
    t_max: float = 10.0  # units of 1/h
    threads: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.k_points < 1:
            raise ConfigError(f"k_points must be at least 1, got {self.k_points}")
        if self.k_points > analytic.MAX_GRID_POINTS:
            raise ConfigError(f"k_points {self.k_points} is too large: numpy cannot describe "
                              f"a float64 grid of that many points")
        if not -1.0 <= self.k_min <= self.k_max <= 1.0:
            raise ConfigError(f"need -1 <= k_min <= k_max <= 1, got [{self.k_min}, {self.k_max}]")
        if self.budget < 1:
            raise ConfigError(f"budget must be at least 1, got {self.budget}")
        if not self.t_max > 0:
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")

    def spec(self) -> HamiltonianSpec:
        return HamiltonianSpec(self.h, self.J)

    def k_grid(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.k_points)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _resolved_window(spec: HamiltonianSpec, t_max: float) -> float:
    """The time window t_max (in 1/h) in absolute units, once the phase
    Omega*t_max is known to resolve: one ulp of it must stay below MAX_PHASE_ULP."""
    window = t_max / spec.h
    phase = spec.omega * window
    if math.ulp(phase) > MAX_PHASE_ULP:
        raise DomainError(f"the phase Omega*t_max = {phase:.3g} rad moves by more than "
                          f"{MAX_PHASE_ULP:g} rad per ulp of t for h={spec.h}, J={spec.J}, "
                          f"t_max={t_max} (in 1/h): shorten t_max or reduce J/h")
    return window


def _optimize_task(task) -> tuple[float, bool, int]:
    report = optimize(*task)  # through the module global, so it can be swapped for a wrapper
    return report.best_value, report.converged, report.samples_used


def sweep_values(family: str, cfg: RunConfig) -> list[tuple[float, float, bool, int, int]]:
    """(k, value, converged, samples, seed) per grid point, in k order; values
    in units of h. The rows run in a pool of at most ``threads`` processes
    (default and cap: the CPUs this process may run on)."""
    ks = cfg.k_grid()
    spec = cfg.spec()
    if family == "unitary":
        values = ergotropy(battery_state(ks), spec) / spec.h
        return [(float(k), float(v), True, 0, cfg.seed) for k, v in zip(ks, values)]
    t_max = _resolved_window(spec, cfg.t_max)
    tasks = [
        (SearchSpace(family, float(k), t_max), spec, cfg.budget, derive_seed(cfg.seed, i))
        for i, k in enumerate(ks)
    ]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on macOS and Windows
        cpus = os.cpu_count() or 1
    workers = min(cfg.threads or cpus, cpus, len(tasks))
    if workers <= 1:
        results = [_optimize_task(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_optimize_task, tasks))
    return [
        (space.k, value / spec.h, converged, samples, seed)
        for (space, _, _, seed), (value, converged, samples) in zip(tasks, results)
    ]


def _sweep_rows(values):
    for k, value, converged, samples, seed in values:
        yield (_fmt(k), _fmt(value), "true" if converged else "false", str(samples), str(seed))


def cmd_sweep(family: str, cfg: RunConfig, plot_script: str | None = None) -> int:
    out = cfg.out or f"sweep_{family}.csv"
    values = sweep_values(family, cfg)
    _write_csv(out, "k,value,converged,samples,seed", _sweep_rows(values))
    print(f"wrote {len(values)} rows to {out} (energy in h, time in 1/h)")
    if plot_script:
        _emit_plot_script(plot_script, out, x="k", y="value", title=f"{family} sweep")
    return EXIT_OK


def cmd_inset(which: str, cfg: RunConfig, plot_script: str | None = None) -> int:
    if which == "fig2":
        out = cfg.out or "inset_fig2.csv"
        unitary = sweep_values("unitary", cfg)
        stochastic = sweep_values("separable", cfg)
        rows = [
            (_fmt(ku), _fmt(vs - vu))
            for (ku, vu, *_), (_, vs, *_) in zip(unitary, stochastic)
        ]
        _write_csv(out, "k,diff", rows)
    else:
        out = cfg.out or "inset_fig3.csv"
        separable = sweep_values("separable", cfg)
        entangled = sweep_values("entangled", cfg)
        entropy = analytic.entanglement_entropy(cfg.k_grid())
        rows = [
            (_fmt(e), _fmt(ve - vs), _fmt(float(np.sign(k))))
            for e, (k, vs, *_), (_, ve, *_) in zip(entropy, separable, entangled)
        ]
        _write_csv(out, "entropy_ebits,diff,k_sign", rows)
    print(f"wrote {len(rows)} rows to {out} (energy in h)")
    if plot_script:
        _emit_plot_script(plot_script, out, x="entropy_ebits" if which == "fig3" else "k", y="diff", title=f"inset {which}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    spec = cfg.spec()
    _resolved_window(spec, verify.WINDOW)
    results = verify.run_suites(spec, cfg.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name:<26} max_residual={r.residual:.3e} tol={r.tolerance:.0e}"
        if r.note:
            line += f"  ({r.note})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_mps(
    cfg: RunConfig,
    grid_n: int,
    t_probe: float | None = None,
    plot_script: str | None = None,
) -> int:
    out = cfg.out or "mps.csv"
    h = cfg.spec().h
    report = analytic.mps_scan(grid_n, cfg.spec(), None if t_probe is None else t_probe / h)
    rows = []
    for i, s in enumerate(report.s_grid):
        for j, theta in enumerate(report.theta_grid):
            verdict = "passive" if report.passive[i, j] else "extractable"
            rows.append((_fmt(s), _fmt(theta), _fmt(report.max_wp[i, j] / h), verdict))
    _write_csv(out, "s,theta,max_wp,verdict", rows)
    print(f"wrote {len(rows)} rows to {out} (energy in h, time in 1/h)")
    print(f"passive points: {report.passive_count}")
    if plot_script:
        _emit_plot_script(plot_script, out, x="s", y="max_wp", title="passivity scan")
    return EXIT_OK


def _emit_plot_script(path: str, csv_path: str, x: str, y: str, title: str) -> None:
    script = f"""#!/usr/bin/env python3
\"\"\"Auto-generated plot of {csv_path}.\"\"\"
import csv
import matplotlib.pyplot as plt

with open({csv_path!r}) as f:
    rows = list(csv.DictReader(f))
xs = [float(r[{x!r}]) for r in rows]
ys = [float(r[{y!r}]) for r in rows]
plt.plot(xs, ys, ".-")
plt.xlabel({x!r})
plt.ylabel({y!r} + " (units of h)")
plt.title({title!r})
plt.tight_layout()
plt.show()
"""
    with open(path, "w", encoding="ascii") as f:
        f.write(script)
    print(f"wrote plot script to {path}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig fields that the subcommand's parser defines and the
    user set, over the defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return RunConfig(**{name: value for name, value in given.items() if value is not None})


def build_parser() -> argparse.ArgumentParser:
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--h", type=float, dest="h", default=None, help="field strength (default 1)")
    model.add_argument("--J", type=float, dest="J", default=None, help="coupling (default 2h)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    grid = argparse.ArgumentParser(add_help=False, parents=[model, seed])
    grid.add_argument("--k-min", type=float, dest="k_min", default=None)
    grid.add_argument("--k-max", type=float, dest="k_max", default=None)
    grid.add_argument("--k-points", type=int, dest="k_points", default=None)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget", type=int, default=None, help="evaluations per grid point")
    search.add_argument(
        "--t-max", type=float, dest="t_max", default=None, help="time bound in 1/h (default 10)"
    )
    search.add_argument("--threads", type=int, default=None, help="worker pool size")
    csv = argparse.ArgumentParser(add_help=False)
    csv.add_argument("--out", type=str, default=None, help="output CSV path")
    csv.add_argument("--plot-script", type=str, default=None, help="also emit a plot script")

    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Quantum-battery energy extraction: unitary vs. measurement-assisted.",
        fromfile_prefix_chars="@",
        epilog="@FILE reads further arguments from FILE, one per line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="k-sweep of one extraction method")
    families = sweep.add_subparsers(dest="family", required=True)
    families.add_parser("unitary", parents=[grid, csv], help="ergotropy, exact")
    for family in FAMILIES:
        families.add_parser(
            family, parents=[grid, search, csv], help=f"searched optimum, {family} inits"
        )
    inset = sub.add_parser(
        "inset", parents=[grid, search, csv], help="difference curves between methods"
    )
    inset.add_argument("which", choices=("fig2", "fig3"))
    sub.add_parser("verify", parents=[model, seed], help="run the self-check suites")
    mps = sub.add_parser("mps", parents=[model, csv], help="measurement-passivity scan")
    mps.add_argument("--grid-n", type=int, dest="grid_n", default=101)
    mps.add_argument(
        "--t-probe", type=float, dest="t_probe", default=None,
        help="probe time in 1/h (default min(0.1, 0.5 h/Omega), inside t < 1/Omega)",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "sweep":
            return cmd_sweep(args.family, cfg, args.plot_script)
        if args.command == "inset":
            return cmd_inset(args.which, cfg, args.plot_script)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_mps(cfg, args.grid_n, args.t_probe, args.plot_script)
    except (ConfigError, DomainError, MemoryError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
