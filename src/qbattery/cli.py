"""Command-line driver: k-sweeps, figure insets, self-verification, and the
measurement-passivity scan, all emitting deterministic CSV.

The CLI computes in units of h: every command runs the library on the
model (1, J/h), so ``--t-max`` in units of 1/h is already the search window
and the energies it returns are already in units of h. Every row and every
verify table therefore depends on J/h alone and is the same at every h;
verify.run_suites alone decides at which J/h the self-checks run.
Every stochastic row carries the derived per-point seed that reproduces it.
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
from .optimizer import FAMILIES, SearchSpace, check_phase, derive_seed, optimize

DEFAULT_SEED = 123456789
DEFAULT_BUDGET = 200_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (the flags given over the defaults).

    argparse types every flag given a value, and main refuses a flag given
    none, so the fields arrive typed; this class checks only their ranges,
    which reject values the user typed."""

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
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ConfigError(f"field strength h must be positive and finite, got {self.h}")
        if self.k_points < 1:
            raise ConfigError(f"k_points must be at least 1, got {self.k_points}")
        if self.k_points > analytic.MAX_GRID_POINTS:
            raise ConfigError(f"k_points {self.k_points} is too large: numpy cannot describe "
                              f"a float64 grid of that many points")
        if not -1.0 <= self.k_min <= self.k_max <= 1.0:
            raise ConfigError(f"need -1 <= k_min <= k_max <= 1, got [{self.k_min}, {self.k_max}]")
        if self.budget < 1:
            raise ConfigError(f"budget must be at least 1, got {self.budget}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")

    def spec(self) -> HamiltonianSpec:
        """The model in units of h, (1, J/h); J/h is 2 when J is not given,
        so 2h is never formed. HamiltonianSpec refuses a J/h that is not finite."""
        return HamiltonianSpec(1.0, 2.0 if self.J is None else HamiltonianSpec(self.h, self.J).g)

    def k_grid(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.k_points)


def _optimize_task(task) -> tuple[float, float, bool, int, int]:
    """The row (k, value, converged, samples, seed) of one search task."""
    space, _, _, seed = task
    report = optimize(*task)  # through the module global, so it can be swapped for a wrapper
    return space.k, report.best_value, report.converged, report.samples_used, seed


def sweep_values(family: str, cfg: RunConfig) -> list[tuple[float, float, bool, int, int]]:
    """(k, value, converged, samples, seed) per grid point, in k order, on the
    model in units of h. The rows run in a pool of at most ``threads`` processes
    (default and cap: the CPUs this process may run on)."""
    ks = cfg.k_grid()
    spec = cfg.spec()
    if family == "unitary":
        values = ergotropy(battery_state(ks), spec)
        return [(float(k), float(v), True, 0, cfg.seed) for k, v in zip(ks, values)]
    tasks = [
        (SearchSpace(family, float(k), cfg.t_max), spec, cfg.budget, derive_seed(cfg.seed, i))
        for i, k in enumerate(ks)
    ]
    check_phase(cfg.t_max, spec)  # before the pool starts
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on macOS and Windows
        cpus = os.cpu_count() or 1
    workers = min(cfg.threads or cpus, cpus, len(tasks))
    if workers <= 1:
        return [_optimize_task(t) for t in tasks]
    # numpy 2 loads numpy.random on first use; loaded here, before the fork, it
    # spares each worker the import in its first row. Not at module level: the
    # import costs every command, and mps never draws
    import numpy.random  # noqa: F401
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_optimize_task, tasks))


def cmd_sweep(family: str, cfg: RunConfig, plot_script: str | None = None) -> int:
    out = cfg.out or f"sweep_{family}.csv"
    values = sweep_values(family, cfg)
    _emit(out, "k,value,converged,samples,seed", values, plot_script, "value", f"{family} sweep")
    return EXIT_OK


def cmd_inset(which: str, cfg: RunConfig, plot_script: str | None = None) -> int:
    out = cfg.out or f"inset_{which}.csv"
    if which == "fig2":
        pairs = zip(sweep_values("unitary", cfg), sweep_values("separable", cfg))
        header, rows = "k,diff", [(ku, vs - vu) for (ku, vu, *_), (_, vs, *_) in pairs]
    else:
        pairs = zip(sweep_values("separable", cfg), sweep_values("entangled", cfg))
        entropy = analytic.entanglement_entropy(cfg.k_grid())
        header = "entropy_ebits,diff,k_sign"
        rows = [
            (e, ve - vs, np.sign(k)) for e, ((k, vs, *_), (_, ve, *_)) in zip(entropy, pairs)
        ]
    _emit(out, header, rows, plot_script, "diff", f"inset {which}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = verify.run_suites(cfg.spec(), cfg.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name:<26} max_residual={r.residual:.3e} tol={r.tolerance:.0e}"
        if r.note:
            line += f"  ({r.note})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_mps(cfg: RunConfig, grid_n: int, plot_script: str | None = None) -> int:
    out = cfg.out or "mps.csv"
    report = analytic.mps_scan(grid_n, cfg.spec())
    s, theta = np.meshgrid(report.s_grid, report.theta_grid, indexing="ij")
    verdicts = np.where(report.passive, "passive", "extractable")
    rows = zip(*(grid.ravel().tolist() for grid in (s, theta, report.max_wp, verdicts)))
    summary = f"passive points: {np.count_nonzero(report.passive)}"
    _emit(out, "s,theta,max_wp,verdict", rows, plot_script, "max_wp", "passivity scan", summary)
    return EXIT_OK


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _emit(path: str, header: str, rows, plot_script: str | None, y: str, title: str,
          summary: str | None = None) -> None:
    """Write the rows as CSV cells (floats to 12 significant digits), print
    the row count and the summary line, and, if asked, a plot script of
    column y against the first column."""
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(header + "\n")
        count = 0
        for count, row in enumerate(rows, 1):
            f.write(",".join(map(_cell, row)) + "\n")
    print(f"wrote {count} rows to {path} (energy in h, time in 1/h)")
    if summary:
        print(summary)
    if not plot_script:
        return
    x = header.split(",")[0]
    # ascii() writes each value as an ASCII literal, so the script is ASCII
    # Python for any path
    script = f"""#!/usr/bin/env python3
{ascii(f"Auto-generated plot of {path}.")}
import csv
import matplotlib.pyplot as plt

with open({ascii(path)}) as f:
    rows = list(csv.DictReader(f))
xs = [float(r[{ascii(x)}]) for r in rows]
ys = [float(r[{ascii(y)}]) for r in rows]
plt.plot(xs, ys, ".-")
plt.xlabel({ascii(x)})
plt.ylabel({ascii(y)} + " (units of h)")
plt.title({ascii(title)})
plt.tight_layout()
plt.show()
"""
    with open(plot_script, "w", encoding="ascii") as f:
        f.write(script)
    print(f"wrote plot script to {plot_script}")


def _argument_file_line(line: str) -> list[str]:
    """One argument per @FILE line. A NUL byte, which no path can hold, is
    refused here, before any work runs: open() would raise ValueError."""
    if "\0" in line:
        raise ConfigError(f"argument file line {line!r} holds a NUL byte")
    return [line]


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
        epilog="@FILE reads arguments from FILE, one per line. Write negative values as --J=-1e5.",
    )
    parser.convert_arg_line_to_args = _argument_file_line
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
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            # argparse stores [] for --FLAG=-- without calling type, and keeps
            # the '' of --out=; either would pass for an unset flag below
            if value in ([], ""):
                raise ConfigError(f"argument --{name.replace('_', '-')}: expected one argument")
        cfg = resolve_config(args)
        if args.command == "sweep":
            return cmd_sweep(args.family, cfg, args.plot_script)
        if args.command == "inset":
            return cmd_inset(args.which, cfg, args.plot_script)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_mps(cfg, args.grid_n, args.plot_script)
    except (ConfigError, DomainError, MemoryError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
