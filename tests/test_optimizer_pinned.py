"""Bit-for-bit pins of optimize's reports on a fixed case set.

The recorded reports live in data/optimize_reports.json, with every float
stored by float.hex. Bookkeeping changes to the search (sampling, the
convergence window) must leave all of them unchanged. A change to what the
search returns, such as which refinement starts _select_leaders picks,
re-records them with ``PYTHONPATH=src python tests/test_optimizer_pinned.py``
in a commit of its own that names every report that moved.

The reports hold per numpy ``tan`` path: numpy's AVX-512 and scalar ``tan``
differ in the last bit at a few arguments, which moves a few ``trace``
entries. The path is named by its fingerprint, the sha256 of
``np.tan(np.linspace(0.0, 20.0, 4097)).tobytes()``. The full record holds
under BASE_TAN (the AVX-512 path); data/optimize_reports_tan.json maps every
other known fingerprint to the reports that differ there. Running this file
under another path, for instance with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` on an AVX-512
machine, records that path's differences there instead.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from qbattery.battery import HamiltonianSpec
from qbattery.optimizer import SearchSpace, optimize

RECORD = pathlib.Path(__file__).with_name("data") / "optimize_reports.json"
TAN_RECORD = RECORD.with_name("optimize_reports_tan.json")
BASE_TAN = "e0c6cfc2492bff3e5a0146283454cbec777ecaad816f39faf9984bfbd18d1c93"
SPECS = [(1.0, 2.0), (1.0, 0.0), (2.0, 4.0), (0.5, -3.0), (1.0, 1e308)]
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
        "trace": [[int(n), v.hex()] for n, v in report.trace],
        "samples_used": report.samples_used,
        "converged": report.converged,
    }


def tan_fingerprint():
    return hashlib.sha256(np.tan(np.linspace(0.0, 20.0, 4097)).tobytes()).hexdigest()


def load():
    return json.loads(RECORD.read_text(encoding="ascii"))


def load_tan():
    return json.loads(TAN_RECORD.read_text(encoding="ascii"))


def expected(case):
    """The pinned report of ``case`` on this process's tan path."""
    fingerprint = tan_fingerprint()
    records = {BASE_TAN: [], **load_tan()}
    if fingerprint not in records:
        pytest.fail(f"no pinned record for the np.tan fingerprint {fingerprint}; "
                    f"record one by running this file under that numpy")
    return next(e for e in records[fingerprint] + load() if e["case"] == case)["report"]


@pytest.mark.parametrize("case", cases(), ids="{family}-h{h}-J{J}-k{k}-b{budget}".format_map)
def test_report_is_bit_identical_to_the_record(case):
    assert report_record(case) == expected(case)


def test_record_covers_the_case_set():
    assert [entry["case"] for entry in load()] == list(cases())


def test_tan_records_differ_from_the_full_record():
    full = {json.dumps(entry["case"]): entry["report"] for entry in load()}
    for fingerprint, changed in load_tan().items():
        assert fingerprint != BASE_TAN
        for entry in changed:
            assert full[json.dumps(entry["case"])] != entry["report"], (fingerprint, entry["case"])


def test_unknown_tan_path_fails_naming_its_fingerprint(monkeypatch):
    monkeypatch.setitem(globals(), "tan_fingerprint", lambda: "f" * 64)
    with pytest.raises(pytest.fail.Exception, match="f" * 64):
        expected(next(cases()))


if __name__ == "__main__":
    fingerprint = tan_fingerprint()
    entries = [{"case": case, "report": report_record(case)} for case in cases()]
    if fingerprint == BASE_TAN:
        RECORD.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
        print(f"recorded {len(entries)} reports to {RECORD}")
    else:
        changed = [entry for entry, base in zip(entries, load()) if entry != base]
        records = {**load_tan(), fingerprint: changed}
        TAN_RECORD.write_text(json.dumps(records, indent=1) + "\n", encoding="ascii")
        print(f"recorded {len(changed)} reports for tan path {fingerprint[:8]} to {TAN_RECORD}")
