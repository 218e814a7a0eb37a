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
import json
import numbers
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .battery import HamiltonianSpec, battery_state, ergotropy
from .errors import ConfigError, DomainError
from .optimizer import SearchSpace, derive_seed, optimize
from .verify import CLOSED_FORM_TOL, run_suites

DEFAULT_SEED = 123456789
DEFAULT_BUDGET = 200_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (flags over config file over defaults)."""

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
        for name in ("k_points", "budget", "seed", "threads"):
            value = getattr(self, name)
            if not (_is_int(value) or (name == "threads" and value is None)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("h", "J", "k_min", "k_max", "t_max"):
            value = getattr(self, name)
            if not (_is_real(value) or (name == "J" and value is None)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if self.k_points < 1:
            raise ConfigError(f"k_points must be at least 1, got {self.k_points}")
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

    def worker_count(self) -> int:
        return self.threads if self.threads is not None else (os.cpu_count() or 1)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _optimize_task(task) -> tuple[float, bool, int]:
    family, k, h, j, t_max, budget, point_seed = task
    report = optimize(
        SearchSpace(family=family, k=float(k), t_max=t_max),
        HamiltonianSpec(h, j),
        budget,
        point_seed,
    )
    return report.best_value, report.converged, report.samples_used


def sweep_values(family: str, cfg: RunConfig) -> list[tuple[float, float, bool, int, int]]:
    """(k, value, converged, samples, seed) per grid point, in k order; values
    in units of h."""
    ks = cfg.k_grid()
    spec = cfg.spec()
    if family == "unitary":
        return [
            (float(k), ergotropy(battery_state(k), spec) / spec.h, True, 0, cfg.seed) for k in ks
        ]
    if family not in ("separable", "entangled"):
        raise ConfigError(f"unknown sweep family {family!r}")
    t_max = cfg.t_max / spec.h
    tasks = [
        (family, float(k), spec.h, spec.J, t_max, cfg.budget, derive_seed(cfg.seed, i))
        for i, k in enumerate(ks)
    ]
    workers = min(cfg.worker_count(), len(tasks))
    if workers <= 1:
        results = [_optimize_task(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_optimize_task, tasks))
    return [
        (task[1], value / spec.h, converged, samples, task[6])
        for task, (value, converged, samples) in zip(tasks, results)
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
    elif which == "fig3":
        out = cfg.out or "inset_fig3.csv"
        separable = sweep_values("separable", cfg)
        entangled = sweep_values("entangled", cfg)
        rows = [
            (
                _fmt(analytic.entanglement_entropy(k)),
                _fmt(ve - vs),
                _fmt(float(np.sign(k))),
            )
            for (k, vs, *_), (_, ve, *_) in zip(separable, entangled)
        ]
        _write_csv(out, "entropy_ebits,diff,k_sign", rows)
    else:
        raise ConfigError(f"unknown inset {which!r}")
    print(f"wrote {len(rows)} rows to {out} (energy in h)")
    if plot_script:
        _emit_plot_script(plot_script, out, x="entropy_ebits" if which == "fig3" else "k", y="diff", title=f"inset {which}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, closed_form_tol: float = CLOSED_FORM_TOL) -> int:
    results = run_suites(cfg.spec(), cfg.seed, closed_form_tol)
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


_CONFIG_FIELDS = (
    "h",
    "J",
    "k_min",
    "k_max",
    "k_points",
    "budget",
    "seed",
    "t_max",
    "threads",
    "out",
)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **loaded)
    overrides = {
        name: getattr(args, name) for name in _CONFIG_FIELDS if getattr(args, name) is not None
    }
    return replace(cfg, **overrides) if overrides else cfg


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--h", type=float, dest="h", default=None, help="field strength (default 1)")
    common.add_argument("--J", type=float, dest="J", default=None, help="coupling (default 2h)")
    common.add_argument("--k-min", type=float, dest="k_min", default=None)
    common.add_argument("--k-max", type=float, dest="k_max", default=None)
    common.add_argument("--k-points", type=int, dest="k_points", default=None)
    common.add_argument("--budget", type=int, default=None, help="evaluations per grid point")
    common.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    common.add_argument(
        "--t-max", type=float, dest="t_max", default=None, help="time bound in 1/h (default 10)"
    )
    common.add_argument("--threads", type=int, default=None, help="worker pool size")
    common.add_argument("--out", type=str, default=None, help="output CSV path")
    common.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")
    common.add_argument("--plot-script", type=str, default=None, help="also emit a plot script")

    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Quantum-battery energy extraction: unitary vs. measurement-assisted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", parents=[common], help="k-sweep of one extraction method")
    sweep.add_argument("family", choices=("unitary", "separable", "entangled"))
    inset = sub.add_parser("inset", parents=[common], help="difference curves between methods")
    inset.add_argument("which", choices=("fig2", "fig3"))
    sub.add_parser("verify", parents=[common], help="run the self-check suites")
    mps = sub.add_parser("mps", parents=[common], help="measurement-passivity scan")
    mps.add_argument("--grid-n", type=int, dest="grid_n", default=101)
    mps.add_argument(
        "--t-probe", type=float, dest="t_probe", default=None, help="probe time in 1/h (default 0.1)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "sweep":
            return cmd_sweep(args.family, cfg, args.plot_script)
        if args.command == "inset":
            return cmd_inset(args.which, cfg, args.plot_script)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "mps":
            return cmd_mps(cfg, args.grid_n, args.t_probe, args.plot_script)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
