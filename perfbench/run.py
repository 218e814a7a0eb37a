"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a qbattery checkout.

Times set-up in several fresh interpreters, runs the workload in one more
(perfbench/workload.py), and prints each metric by name and unit. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The full result goes to
``.perfbench/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4  # set-up-only interpreters; the workload's own start makes one more
TIMEOUT_S = 170.0  # the whole run must end within 180 s
OUT_DIR = ".perfbench"


def child_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(args, extra, deadline):
    """Start workload.py; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    # a session of its own, so that stop() also ends sweep-pool's workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY" or time.monotonic() > deadline:
        stop(proc)
        raise RuntimeError(f"workload did not start (exit {proc.returncode})")
    return proc, setup


def adopt_orphans():
    """Become the child subreaper, so that the workers of a killed workload
    are re-parented to this process and can be waited for (Linux prctl)."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def stop(proc):
    """Kill the workload and everything in its session, and wait for all of it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sweep-deep", "sweep-pool", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qbattery", "__init__.py")):
        print("error: run from the root of a qbattery checkout (no src/qbattery here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    adopt_orphans()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT_DIR, f"spans-{tag}.tsv")

    setups = []
    try:
        for _ in range(SETUP_PROBES):
            proc, setup = start(args, ["--setup-only"], deadline)
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
            setups.append(setup)
        proc, setup = start(args, ["--spans", spans] if args.trace else [], deadline)
        setups.append(setup)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"workload exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        stop(proc)
        print(f"error: the run did not end within {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parts = {name: statistics.median(v) for name, v in result["parts"].items()}
    summary = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(result["round_s"]), "s"),
        **{name: (value, "s") for name, value in parts.items()},
        **{name: (value, "h") for name, value in result["values"].items()},
    }
    if args.trace:
        import tracing

        units = dict(tracing.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": summary[name][0], "unit": "s"}
                   for name in ("wall_s", "setup_s")}

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: {result['rounds']} round(s), seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    result["setup_s"] = setups
    result["summary"] = {name: value for name, (value, _) in summary.items()}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="ascii") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
