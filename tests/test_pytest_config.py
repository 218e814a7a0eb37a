"""The repository's pytest settings, exercised on a throwaway test file."""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised while hypothesis
    # reports the failure into an INTERNALERROR that hides the example
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example: test_small(" in output and "INTERNALERROR" not in output
