"""Spans and counters around the calls into each qbattery layer.

``Tracer.install`` replaces public functions in the program's module
namespaces with timing wrappers, so calls made by the benchmark and by the
program itself pass through them; ``uninstall`` puts the originals back.
Every call becomes a span (name, start, end, parent) kept in flat arrays in
memory and written out once, at the end, by ``write``. Processes forked
while the wrappers are installed (the ``cli`` sweep pool's workers) drop
them at once, so workers run the program's own code and record nothing.
"""

from __future__ import annotations

import math
import os
import resource
import time
from array import array

import numpy as np

FAMILIES = ("separable", "entangled")

SUITES = (
    "operator_algebra",
    "passive_ergotropy",
    "measurement_protocol",
    "closed_form",
    "small_t_quartic",
    "excited_drain",
    "entropy",
    "zero_coupling_pointwise",
    "zero_coupling_optimized",
    "mps_uniqueness",
)

# Per-layer metric names and units, in BENCHMARK.json order.
PER_LAYER = (
    [
        (f"optimizer.{f}.{name}", unit)
        for f in FAMILIES
        for name, unit in (
            ("explore_s", "s"),
            ("batch_us_per_pt", "us"),
            ("minflt", "count"),
            ("refine_s", "s"),
            ("single_us", "us"),
            ("single_calls", "count"),
            ("other_s", "s"),
            ("batch_points", "count"),
            ("samples_used", "count"),
            ("unconverged_rows", "count"),
        )
    ]
    + [("optimizer.entangled.bound_gap_max", "h")]
    + [(f"cli.{f}.{name}", unit) for f in FAMILIES for name, unit in (("sweep_values_s", "s"), ("rows", "count"))]
    + [("analytic.mps_scan_s", "s"), ("analytic.mps_us_per_pt", "us"), ("analytic.mps_minflt", "count")]
    + [("protocol.run_protocol_calls", "count"), ("protocol.run_protocol_us", "us")]
    + [("verify.run_suites_s", "s"), ("verify.suites_failed", "count")]
    + [(f"verify.{suite}_s", "s") for suite in SUITES]
    + [("qmath.hermitian_eig_calls", "count"), ("qmath.hermitian_eig_us", "us")]
)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.uninstall)
        self.total: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.extra: dict[str, float] = {}  # minor faults, points

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        self._stack.pop()
        self.total[name] = self.total.get(name, 0.0) + (t - self.start[sid])
        self.count[name] = self.count.get(name, 0) + 1

    def _add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close(sid, name)

        self._patch(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        from qbattery import analytic, cli, optimizer, qmath, verify

        tracer = self
        optimize = optimizer.optimize

        def traced_optimize(space, *args, **kwargs):
            name = f"optimizer.{space.family}.optimize"
            sid = tracer._open(name)
            faults = _minflt()
            try:
                return optimize(space, *args, **kwargs)
            finally:
                tracer._add(f"{name}.minflt", _minflt() - faults)
                tracer._close(sid, name)

        for module in (optimizer, verify, cli):
            self._patch(module, "optimize", traced_optimize)

        evaluate = optimizer.WpEvaluator.__call__

        def traced_evaluate(evaluator, params):
            single = np.ndim(params) == 1
            name = f"optimizer.{evaluator.space.family}.{'single' if single else 'batch'}"
            sid = tracer._open(name)
            try:
                return evaluate(evaluator, params)
            finally:
                tracer._close(sid, name)
                if not single:
                    tracer._add(f"{name}.points", len(params))

        self._patch(optimizer.WpEvaluator, "__call__", traced_evaluate)

        sweep_values = cli.sweep_values

        def traced_sweep_values(family, cfg):
            name = f"cli.{family}.sweep_values"
            sid = tracer._open(name)
            try:
                rows = sweep_values(family, cfg)
            finally:
                tracer._close(sid, name)
            tracer._add(f"{name}.rows", len(rows))
            return rows

        self._patch(cli, "sweep_values", traced_sweep_values)

        mps_scan = analytic.mps_scan

        def traced_mps_scan(grid_n, *args, **kwargs):
            sid = tracer._open("analytic.mps_scan")
            faults = _minflt()
            try:
                return mps_scan(grid_n, *args, **kwargs)
            finally:
                tracer._add("analytic.mps_scan.minflt", _minflt() - faults)
                tracer._add("analytic.mps_scan.points", grid_n * grid_n)
                tracer._close(sid, "analytic.mps_scan")

        self._patch(analytic, "mps_scan", traced_mps_scan)

        for module in (analytic, verify):
            self._wrap(module, "run_protocol", "protocol.run_protocol")
        self._wrap(qmath, "hermitian_eig", "qmath.hermitian_eig")
        self._wrap(verify, "run_suites", "verify.run_suites")
        for suite in SUITES:
            self._wrap(verify, f"suite_{suite}", f"verify.{suite}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def layer_metrics(self, rows_by_family, suites_failed, rounds) -> dict[str, float]:
        """Every PER_LAYER metric, per round. ``rows_by_family`` holds the
        workload's (k, value, converged, samples) rows; layers the workload
        never reaches read 0."""
        t, c, x = self.total, self.count, self.extra
        out = {}
        for f in FAMILIES:
            p = f"optimizer.{f}"
            explore, refine = t.get(f"{p}.batch", 0.0), t.get(f"{p}.single", 0.0)
            points, singles = x.get(f"{p}.batch.points", 0.0), c.get(f"{p}.single", 0)
            rows = rows_by_family.get(f, [])
            out[f"{p}.explore_s"] = explore / rounds
            out[f"{p}.batch_us_per_pt"] = 1e6 * explore / points if points else 0.0
            out[f"{p}.minflt"] = x.get(f"{p}.optimize.minflt", 0.0) / rounds
            out[f"{p}.refine_s"] = refine / rounds
            out[f"{p}.single_us"] = 1e6 * refine / singles if singles else 0.0
            out[f"{p}.single_calls"] = singles / rounds
            out[f"{p}.other_s"] = (t.get(f"{p}.optimize", 0.0) - explore - refine) / rounds
            out[f"{p}.batch_points"] = points / rounds
            out[f"{p}.samples_used"] = sum(r[3] for r in rows) / rounds
            out[f"{p}.unconverged_rows"] = sum(1 for r in rows if not r[2]) / rounds
        gaps = [(1.0 + k) - value for k, value, *_ in rows_by_family.get("entangled", [])]
        out["optimizer.entangled.bound_gap_max"] = max(gaps, default=0.0)
        for f in FAMILIES:
            out[f"cli.{f}.sweep_values_s"] = t.get(f"cli.{f}.sweep_values", 0.0) / rounds
            out[f"cli.{f}.rows"] = x.get(f"cli.{f}.sweep_values.rows", 0.0) / rounds
        mps, mps_points = t.get("analytic.mps_scan", 0.0), x.get("analytic.mps_scan.points", 0.0)
        out["analytic.mps_scan_s"] = mps / rounds
        out["analytic.mps_us_per_pt"] = 1e6 * mps / mps_points if mps_points else 0.0
        out["analytic.mps_minflt"] = x.get("analytic.mps_scan.minflt", 0.0) / rounds
        calls = c.get("protocol.run_protocol", 0)
        out["protocol.run_protocol_calls"] = calls / rounds
        out["protocol.run_protocol_us"] = 1e6 * t.get("protocol.run_protocol", 0.0) / calls if calls else 0.0
        out["verify.run_suites_s"] = t.get("verify.run_suites", 0.0) / rounds
        out["verify.suites_failed"] = suites_failed / rounds
        for suite in SUITES:
            out[f"verify.{suite}_s"] = t.get(f"verify.{suite}", 0.0) / rounds
        eigs = c.get("qmath.hermitian_eig", 0)
        out["qmath.hermitian_eig_calls"] = eigs / rounds
        out["qmath.hermitian_eig_us"] = 1e6 * t.get("qmath.hermitian_eig", 0.0) / eigs if eigs else 0.0
        return out

    def write(self, path: str) -> None:
        """Tab-separated spans: id, parent id, name, start s, end s."""
        with open(path, "w", encoding="ascii") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.parent_of[i]}\t{names[self.name_of[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
