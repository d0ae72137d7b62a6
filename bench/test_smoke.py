"""The benchmark's own test: every workload at tiny size, untraced and
traced, runs the same output checks as a full run.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reproduce", "scan", "kernels")
COUNTS = ("lattice.meet_join_calls", "constructions.eval_calls", "semimod.instances")


def run_tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted


def test_traced_counts_repeat_exactly():
    first, second = run_tiny("scan", 1), run_tiny("scan", 1)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name]


def test_checks_reject_a_tampered_witness(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    ops = {op.name: op for op in workloads.build_scan(5, "tiny", tmp_path)}
    code, text = ops["m3_kn"].run()
    assert ops["m3_kn"].check((code, text), {}) == []
    payload = json.loads(text)
    payload["result"]["witness"]["lhs"] = {"num": 1, "den": 1}
    assert ops["m3_kn"].check((code, json.dumps(payload)), {})
    assert ops["m3_kn"].check((0, text), {})
