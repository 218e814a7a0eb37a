"""Bit-for-bit pins of optimize's reports on a fixed case set.

The recorded reports live in data/optimize_reports.json, with every float
stored by float.hex. Bookkeeping changes to the search (sampling, the
convergence window) must leave all of them unchanged. A change to what the
search returns, such as which refinement starts _select_leaders picks,
re-records them with ``PYTHONPATH=src python tests/test_optimizer_pinned.py``
in a commit of its own that names every report that moved.

One record holds on every numpy ``tan`` path. numpy's AVX-512 and scalar
``tan`` differ in the last bit at a few arguments, but no reported value
moves with them; a child interpreter under SCALAR_TAN checks that on every
machine where numpy can switch to the scalar path.
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qbattery.battery import HamiltonianSpec
from qbattery.optimizer import SearchSpace, optimize

RECORD = pathlib.Path(__file__).with_name("data") / "optimize_reports.json"
# numpy's features to disable for its scalar tan on an AVX-512 machine
SCALAR_TAN = "X86_V4 AVX512_ICL AVX512_SPR"
SPECS = [(1.0, 2.0), (1.0, 0.0), (2.0, 4.0), (0.5, -3.0), (1.0, 100.0)]
KS = [-1.0, -0.5, 0.0, 0.3, 1.0]
BUDGETS = [30, 2500, 30_000]  # 30: a chunk smaller than the 32 candidates each chunk keeps


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
        "samples_used": report.samples_used,
        "converged": report.converged,
    }


def tan_digest():
    """Names this process's np.tan path."""
    return hashlib.sha256(np.tan(np.linspace(0.0, 20.0, 4097)).tobytes()).hexdigest()


def load():
    return json.loads(RECORD.read_text(encoding="ascii"))


@pytest.mark.parametrize("case", cases(), ids="{family}-h{h}-J{J}-k{k}-b{budget}".format_map)
def test_report_is_bit_identical_to_the_record(case):
    assert report_record(case) == next(e["report"] for e in load() if e["case"] == case)


def test_record_covers_the_case_set():
    assert [entry["case"] for entry in load()] == list(cases())


# ImportWarning is numpy's word that it refuses NPY_DISABLE_CPU_FEATURES
CHILD = """
import json, warnings
with warnings.catch_warnings():
    warnings.simplefilter("error", ImportWarning)
    import numpy
import test_optimizer_pinned as pins
reports = [pins.report_record(case) for case in pins.cases()]
print(json.dumps({"tan": pins.tan_digest(), "reports": reports}))
"""


def test_record_holds_on_the_scalar_tan_path():
    path = os.pathsep.join(filter(None, [str(RECORD.parents[2] / "src"), str(RECORD.parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": SCALAR_TAN}
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                         timeout=300)
    if run.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in run.stderr:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={SCALAR_TAN!r}: "
                    + " ".join(run.stderr.split("ImportWarning:")[-1].split()))
    assert run.returncode == 0, run.stderr
    child = json.loads(run.stdout)
    if child["tan"] == tan_digest():
        pytest.skip(f"one np.tan path only: disabling {SCALAR_TAN} leaves it unchanged")
    assert child["reports"] == [entry["report"] for entry in load()]


if __name__ == "__main__":
    entries = [{"case": case, "report": report_record(case)} for case in cases()]
    RECORD.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"recorded {len(entries)} reports to {RECORD}")
