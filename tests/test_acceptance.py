"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines, or use the
CLI equivalent `latstat reproduce`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from latstat.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("number,name",
                         [(num, name) for num, name, _, _ in CRITERIA],
                         ids=[f"criterion_{num:02d}" for num, _, _, _ in CRITERIA])
def test_criterion(number, name):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
    assert result.elapsed < result.limit


def test_criteria_fail_under_python_O():
    # -O strips assert statements; the criteria's checks must still run
    code = ("import latstat.acceptance as a\n"
            "real = a.run_counterexample_m3\n"
            "a.run_counterexample_m3 = lambda: dict(real(), pair_inequalities=249)\n"
            "print(a.run_criterion(1).line())\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("criterion  1 [FAIL]")
    assert out.endswith("diamond counterexample reproduction: assertion failed: 249\n")
