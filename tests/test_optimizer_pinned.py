"""Bit-for-bit pins of optimize's reports on a fixed case set.

The recorded reports live in data/optimize_reports.json, with every float
stored by float.hex. Bookkeeping changes to the search (sampling, the
leaderboard, the convergence window) must leave all of them unchanged;
a deliberate change to what the search returns re-records them with
``PYTHONPATH=src python tests/test_optimizer_pinned.py``.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

from qbattery.battery import HamiltonianSpec
from qbattery.optimizer import SearchSpace, optimize

RECORD = pathlib.Path(__file__).with_name("data") / "optimize_reports.json"
SPECS = [(1.0, 2.0), (1.0, 0.0), (2.0, 4.0), (0.5, -3.0), (1.0, 1e308)]
KS = [-1.0, -0.5, 0.0, 0.3, 1.0]
BUDGETS = [30, 2500, 30_000]  # 30: a chunk smaller than the leaderboard's candidate count


def cases():
    for i, (family, (h, j), k, budget) in enumerate(
        itertools.product(("separable", "entangled"), SPECS, KS, BUDGETS)
    ):
        yield {"family": family, "h": h, "J": j, "k": k, "budget": budget, "seed": 1000 + i}


def report_record(case):
    report = optimize(SearchSpace(case["family"], case["k"], t_max=10.0 / case["h"]),
                      HamiltonianSpec(case["h"], case["J"]), case["budget"], case["seed"])
    return {
        "best_value": report.best_value.hex(),
        "best_params": [float(x).hex() for x in report.best_params],
        "trace": [[int(n), v.hex()] for n, v in report.trace],
        "samples_used": report.samples_used,
        "converged": report.converged,
    }


def load():
    return json.loads(RECORD.read_text(encoding="ascii"))


@pytest.mark.parametrize("case", cases(), ids="{family}-h{h}-J{J}-k{k}-b{budget}".format_map)
def test_report_is_bit_identical_to_the_record(case):
    entry = next(e for e in load() if e["case"] == case)
    assert report_record(case) == entry["report"]


def test_record_covers_the_case_set():
    assert [entry["case"] for entry in load()] == list(cases())


if __name__ == "__main__":
    entries = [{"case": case, "report": report_record(case)} for case in cases()]
    RECORD.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"recorded {len(entries)} reports to {RECORD}")
