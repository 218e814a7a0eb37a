"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/figures.py

From the root of the checkout: runs every workload RUNS times untraced, on
seeds 1..RUNS, and once traced, each for BENCHMARK.json's run_seconds, then
prints per metric the median and the quartile spread as a share of the
median, the traced per-layer figures, the tracing overhead and the
sweep-pool scaling efficiency against three serial (threads=1) runs of the
same grid. Takes about 25 minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SERIAL_POOL_GRID = """
import dataclasses, json, sys, time
sys.path[:0] = [sys.argv[1], "src"]
from workload import FAMILIES, Pool
pool = Pool()
cfg = dataclasses.replace(pool.cfg, threads=1)
seconds = {}
for family in FAMILIES:
    t0 = time.perf_counter()
    pool.cli.sweep_values(family, cfg)
    seconds[family] = time.perf_counter() - t0
print(json.dumps(seconds))
"""


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(f".perfbench/result-{workload}-seed{seed}-trace{trace}.json", encoding="ascii") as f:
        return line, json.load(f)


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    medians = {}
    for workload in (w["name"] for w in bench["workloads"]):
        summaries, failed = {}, set()
        for seed in range(1, RUNS + 1):
            line, result = run(workload, seed, seconds, 0)
            failed.add((line["correct"], line["failed"] / line["attempted"]))
            for name, value in result["summary"].items():
                summaries.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: wall_s {result['summary']['wall_s']:.3f}", flush=True)
        traced_line, traced = run(workload, 1, seconds, 1)
        print(f"\n## {workload} ({RUNS} runs of {seconds} s; "
              f"(correct, failed share) {sorted(failed)})")
        for name, values in summaries.items():
            med, iqr = spread(values)
            medians[workload, name] = med
            print(f"  {name:<24} median {med:.6g}  quartile spread {100 * iqr:.1f}%")
        overhead = traced["summary"]["wall_s"] - statistics.median(summaries["wall_s"])
        print(f"  tracing overhead: traced wall_s minus untraced median = {overhead:+.3f} s")
        for name, metric in traced_line["metrics"].items():
            if metric["value"]:
                print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")
    if ("sweep-pool", "separable_s") in medians:
        workers = len(os.sched_getaffinity(0))
        serial = [json.loads(subprocess.run(
            [sys.executable, "-c", SERIAL_POOL_GRID, HERE], capture_output=True, text=True,
            check=True).stdout) for _ in range(3)]
        print(f"\n## sweep-pool scaling on {workers} workers, against threads=1 on the same grid")
        for family in ("separable", "entangled"):
            alone = statistics.median(s[family] for s in serial)
            pooled = medians["sweep-pool", f"{family}_s"]
            print(f"  {family}: threads=1 {alone:.3f} s, threads={workers} {pooled:.3f} s, "
                  f"speed-up {alone / pooled:.2f}, efficiency {alone / pooled / workers:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
