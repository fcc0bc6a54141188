"""The suite's own pytest configuration, run on a throwaway test file.

`pyproject.toml` turns every warning into an error.  hypothesis's pytest
plugin warns while it writes a failure report, so without the one ignore
next to "error" a failing property ended the whole session with an
INTERNALERROR instead of reporting its falsifying example.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_runs_after():
    pass
'''


def test_failing_property_reports_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example: test_fails(" in done.stdout, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert done.returncode == 1, output
