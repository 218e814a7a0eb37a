"""Record the benchmark of one or more checkouts in a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_<n>.json --pairs 10 parent=../parent change=.

Each LABEL=DIR names a qbattery checkout. For every workload in this
repository's BENCHMARK.json, the script runs each checkout's own
``perfbench/run.py`` from that checkout's root at BENCHMARK.json's
``run_seconds``, once per seed 1 .. --pairs, and alternates which checkout
goes first from one seed to the next. It then makes one traced run
(``--trace 1``, seed 1) per workload and checkout. Runs go one at a time, so
they do not compete for the CPUs.

The file records, per checkout, the git SHA and per workload: the median and
quartiles of ``wall_s`` and ``setup_s`` and every run's value, the failed and
attempted operations of every run, whether every run was correct, and the
traced per-layer metrics. With two checkouts it also records, per workload
and metric, how many seeds the second won against the first and the change
of the medians. The environment (Python, numpy, nproc, CPU model and SIMD
flags) is recorded once.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s")
SIMD_PREFIXES = ("sse", "ssse", "avx", "fma", "f16c")
RUN_TIMEOUT_S = 300.0  # run.py ends its own runs after 170 s


def checkout(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR with DIR/perfbench/run.py, got {text!r}")
    return label, os.path.abspath(path)


def run_bench(path: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run; its last line of output is a JSON object."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {path} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def git_sha(path: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", path, *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def environment() -> dict:
    model, flags = "", []
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = sorted(x for x in value.split() if x.startswith(SIMD_PREFIXES))
    except OSError:
        pass  # no /proc: the model and flags stay empty
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": nproc, "cpu_model": model, "cpu_simd_flags": flags}


def compare(base: dict, new: dict) -> dict:
    """Seeds the new side won (lower is better for both metrics, ties count for
    neither), the relative change of the medians, and the base's quartile spread."""
    wins = sum(n < b for b, n in zip(base["runs"], new["runs"]))
    return {"new_won": wins, "of": len(base["runs"]),
            "median_change": new["median"] / base["median"] - 1.0,
            "base_iqr": base["q3"] - base["q1"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="seeds per workload (at least 2)")
    parser.add_argument("checkouts", nargs="+", type=checkout, metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds, workloads = bench["run_seconds"], [w["name"] for w in bench["workloads"]]

    sides = {label: {**git_sha(path), "workloads": {}} for label, path in args.checkouts}
    for workload in workloads:
        results = {label: [] for label, _ in args.checkouts}
        for seed in range(1, args.pairs + 1):
            order = args.checkouts if seed % 2 else args.checkouts[::-1]
            for label, path in order:
                results[label].append(run_bench(path, workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {label}: "
                      f"wall_s {results[label][-1]['metrics']['wall_s']['value']:.4f}", flush=True)
        for label, path in args.checkouts:
            runs = results[label]
            traced = run_bench(path, workload, 1, seconds, 1)
            sides[label]["workloads"][workload] = {
                **{m: summary([r["metrics"][m]["value"] for r in runs]) for m in METRICS},
                "failed": [r["failed"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "correct": all(r["correct"] for r in runs) and traced["correct"],
                "traced": {name: v["value"] for name, v in traced["metrics"].items()},
            }

    record = {"environment": environment(), "run_seconds": seconds, "pairs": args.pairs,
              "checkouts": sides}
    if len(args.checkouts) == 2:
        (base, _), (new, _) = args.checkouts
        record["comparison"] = {
            "base": base, "new": new,
            "workloads": {w: {m: compare(sides[base]["workloads"][w][m],
                                          sides[new]["workloads"][w][m]) for m in METRICS}
                          for w in workloads},
        }
    with open(args.out, "w", encoding="ascii") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
