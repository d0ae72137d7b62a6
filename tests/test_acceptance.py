"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines, or use the
CLI equivalent `latstat reproduce`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latstat.acceptance import CRITERIA, run_criterion

# each criterion's `latstat reproduce` line, with its elapsed time masked
EXPECTED_LINES = {
    1: ('criterion  1 [PASS] (limit 1s) diamond counterexample reproduction: 250 pair '
        'inequalities hold; 148 vs 160 at labels (2,3,4)'),
    2: ('criterion  2 [PASS] (limit 30s) primal/dual order-statistic agreement: 15049 tuples '
        'agree on 20 distributive lattices; M3 dual dominated on 125 tuples with gap (1,1,5) vs '
        '(1,5,5)'),
    3: ('criterion  3 [PASS] (limit 300s) pair-window to full reduction on 200 functionals: 200 '
        'generated functionals pass pair-window and full checks'),
    4: ('criterion  4 [PASS] (limit 60s) rearrangement chain equals order statistics: 10000 '
        'random chains end at the order statistics, conserving multisets'),
    5: ('criterion  5 [PASS] (limit 60s) permanent row/column inequalities: 500 random matrices '
        'pass; 500 pre-sorted matrices give equality'),
    6: ('criterion  6 [PASS] (limit 60s) elementary symmetric inequalities: 500 instances pass '
        'for all k; k=1 and chain-ordered cases are equalities'),
    7: ('criterion  7 [PASS] (limit 120s) power/sup/inf products with conventions: 3000 '
        'power/sup/inf inequalities hold, corners with 0 and inf included'),
    8: ('criterion  8 [PASS] (limit 60s) association on independent product spaces: fair-coin '
        'instance gives 1/4 >= 3/16 exactly; 200 random product spaces pass'),
    9: ('criterion  9 [PASS] (limit 120s) FKG and family correlation instances: 100 lattices '
        'log-supermodular for inf and reciprocal weights; 100+100 instances pass'),
    10: ('criterion 10 [PASS] (limit 1s) non-reversibility demonstration: order-statistic '
         'families have 9 elements each; ratio 8.999998'),
    11: ('criterion 11 [PASS] (limit 120s) one-sided potential directions per curvature: 50+50 '
         "specs: concave realizes >= (['both', 'ge']), convex realizes <= (['both', 'le']); "
         'pair-transform inequality holds under each curvature'),
    12: ('criterion 12 [PASS] (limit 5s) Muirhead analogue along the insertion chain: 729 tuples '
         'on FN9: 2187 chain swaps are T-steps for 6 maps; no sum of j smallest rises, modular '
         'totals kept; the ge route matches enumeration in 36 checks'),
}


@pytest.mark.parametrize("number,name",
                         [(num, name) for num, name, _, _ in CRITERIA],
                         ids=[f"criterion_{num:02d}" for num, _, _, _ in CRITERIA])
def test_criterion(number, name):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
    assert result.elapsed < result.limit
    assert re.sub(r"\]\s+\d+\.\d+s ", "] ", result.line()) == EXPECTED_LINES[number]


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
