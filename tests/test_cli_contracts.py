"""End-to-end contracts of the command line, one table row per command.

Each row runs three times, each in a fresh directory holding the row's input
files: in-process through `cli.main`, and as `python -m latstat.cli` in two
subprocesses under fixed, different PYTHONHASHSEED values.  The three runs
must give the same exit code, stdout, stderr and written files, byte for
byte (`reproduce` lines are compared with their timings masked).  The row's
own check then reads the in-process run, and every JSON report a run leaves
must hold exactly when it carries no witness.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

import latstat
from latstat.cli import main

SRC = str(Path(latstat.__file__).resolve().parents[1])
HASH_SEEDS = ("0", "4242")
TIMEOUT_S = 60

FN9 = {"kind": "fn", "ground_size": 2, "chain_max": 2}
FN16 = {"kind": "fn", "ground_size": 2, "chain_max": 3}
FN46656 = {"kind": "fn", "ground_size": 6, "chain_max": 5}
M3 = {"kind": "order", "n": 5, "leq_pairs": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4],
                                             [0, 4]], "labels": [1, 2, 3, 4, 5]}
M3Q = {"12": [1, 2], "3": [2, 3], "5": [1, 3]}
MULTIADD = {"family": "multiadd", "n": 3, "k": 2,
            "m": {"kind": "prod_integrals", "measures": [[1, 2], [3, 1]]}}
LINEAR_11 = {"kind": "linear", "coeffs": [1, 1]}
POTENTIAL_FN16 = {"family": "potential", "measure": [2, 2],
                  "phi": {"kind": "relu", "scale": 1, "shift": -1},
                  "psi": {"kind": "min_affine", "pieces": [[4, -2], [1, 2]]}}
SCHUR_FN16 = {"family": "schur", "seed": 202142728,
              "lambda": {"kind": "capped_modular", "point_weights": [3, 2], "cap": 4},
              "F": {"kind": "sum_smallest", "k": 2}}
CHAIN120 = {"kind": "order", "n": 120,
            "leq_pairs": [[a, b] for a in range(120) for b in range(a + 1, 120)]}
FKG_ELEMENTS = [[0, 0], [0, 1], [1, 0], [1, 1]]


@dataclass
class Run:
    code: int
    out: str
    err: str
    files: dict  # name -> bytes of every file the run wrote

    def report(self, name=None):
        return json.loads(self.files[name] if name else self.out)["result"]


@dataclass
class Contract:
    id: str
    files: dict  # name -> JSON payload
    argv: tuple
    code: int
    check: Optional[Callable] = None  # check(run) asserts on the in-process run
    env: Optional[dict] = None  # environment variables every run sets


def _check_argv(lattice, functional, *flags):
    return ("check", "--lattice", lattice, "--functional", functional) + flags


def _witness(args=None, labels=None, lhs=None, rhs=None, instances=None, name=None):
    """A check of the report's witness: each given field must match."""
    def check(run):
        r = run.report(name)
        got = {"args": r["witness"]["args"], "labels": r.get("witness_labels"),
               "lhs": r["witness"]["lhs"], "rhs": r["witness"]["rhs"],
               "instances": r["instances_checked"]}
        want = {"args": args, "labels": labels, "lhs": lhs, "rhs": rhs, "instances": instances}
        assert {k: got[k] for k, v in want.items() if v is not None} == \
            {k: v for k, v in want.items() if v is not None}
    return check


M3Q5_WITNESS = dict(labels=[2, 3, 4, 5, 5], lhs={"num": 148, "den": 1},
                    rhs={"num": 160, "den": 1}, instances=3125)


def _m3q5_out(run):
    assert run.out == ""
    _witness(**M3Q5_WITNESS, name="m3q5_out.json")(run)


def _holds_over(instances):
    def check(run):
        r = run.report()
        assert r["holds"] and r["instances_checked"] == instances
    return check


def _reproduced(count):
    def check(run):
        lines = [ln for ln in run.out.splitlines() if ln.startswith("criterion")]
        assert len(lines) == count and all("[PASS]" in ln for ln in lines), run.out
    return check


def _stderr_has(text):
    def check(run):
        assert run.out == "" and len(run.err.splitlines()) == 1 and text in run.err
    return check


def _distributive_out(run):
    assert run.out == ""
    r = run.report("d.json")
    assert r["holds"] is False and r["witness"] is not None


def _ordstats_m3(run):
    r = run.report()
    assert (r["order_statistics_labels"], r["dual_order_statistics_labels"]) == (
        [1, 5, 5], [1, 1, 5])


def _ordstats_primal_is_dual(run):
    r = run.report()
    assert r["order_statistics"] == r["dual_order_statistics"]


def _permanent(run):
    assert run.report()["detail"]["permanent"] == {"num": 479001600, "den": 1}


def _silent_with_out(name):
    def check(run):
        assert run.out == "" and name in run.files
    return check


CONTRACTS = [
    Contract("demo-m3", {}, ("demo", "m3"), 0),
    Contract("reproduce-1-10", {}, ("reproduce", "--criteria", "1,10"), 0, _reproduced(2)),
    Contract("reproduce-3-11", {}, ("reproduce", "--criteria", "3,11"), 0, _reproduced(2)),
    Contract("multiadd-kn", {"fn.json": FN9, "multiadd.json": MULTIADD},
             _check_argv("fn.json", "multiadd.json", "--k", "n"), 0),
    Contract("multiadd-k2", {"fn.json": FN9, "multiadd.json": MULTIADD},
             _check_argv("fn.json", "multiadd.json", "--k", "2"), 0),
    Contract("multiadd-kn-out", {"fn.json": FN9, "multiadd.json": MULTIADD},
             _check_argv("fn.json", "multiadd.json", "--k", "n", "--out", "kn.json"), 0,
             _silent_with_out("kn.json")),
    Contract("multiadd-k2-out", {"fn.json": FN9, "multiadd.json": MULTIADD},
             _check_argv("fn.json", "multiadd.json", "--k", "2", "--out", "k2.json"), 0,
             _silent_with_out("k2.json")),
    Contract("m3-full", {"m3.json": M3, "m3q.json": {"family": "quadratic", "coeffs": M3Q,
                                                     "n": 3}},
             _check_argv("m3.json", "m3q.json", "--k", "n"), 1),
    Contract("m3-n5-full", {"m3.json": M3, "m3q5.json": {"family": "quadratic", "coeffs": M3Q,
                                                         "n": 5}},
             _check_argv("m3.json", "m3q5.json", "--k", "n"), 1, _witness(**M3Q5_WITNESS)),
    Contract("m3-n5-full-out", {"m3.json": M3, "m3q5.json": {"family": "quadratic",
                                                             "coeffs": M3Q, "n": 5}},
             _check_argv("m3.json", "m3q5.json", "--k", "n", "--out", "m3q5_out.json"), 1,
             _m3q5_out),
    Contract("m3-fractional", {"m3.json": M3, "m3frac.json": {
                 "family": "quadratic", "coeffs": {"12/5": [1, 2], "3/7": [2, 3], "1": [1, 3]},
                 "n": 3}},
             _check_argv("m3.json", "m3frac.json", "--k", "n"), 1,
             _witness(lhs={"num": 964, "den": 35})),
    Contract("m3-negative-k2", {"m3.json": M3, "m3neg.json": {
                 "family": "quadratic", "coeffs": {"-1": [1, 2]}, "n": 3}},
             _check_argv("m3.json", "m3neg.json", "--k", "2"), 1, _witness(args=[1, 2, 0])),
    Contract("perm-ones12", {"ones12.json": {"matrix": [[1] * 12 for _ in range(12)]}},
             ("corollary", "perm", "--config", "ones12.json"), 0, _permanent),
    Contract("perm-negative", {"perm_neg.json": {"matrix": [[1, -2]]}},
             ("corollary", "perm", "--config", "perm_neg.json"), 2, _stderr_has("/matrix/0/1")),
    Contract("fkg-power", {"fkg.json": {
                 "elements": FKG_ELEMENTS, "F": {"kind": "linear", "coeffs": [1, 2], "const": 0},
                 "G": {"kind": "linear", "coeffs": [2, 1]},
                 "weight": {"kind": "power", "r": -1, "measure": [1, 1]}}},
             ("fkg", "--config", "fkg.json"), 0),
    Contract("fkg-positive-r", {"fkg_r1.json": {
                 "elements": FKG_ELEMENTS, "F": {"kind": "linear", "coeffs": [1, 2]},
                 "G": {"kind": "linear", "coeffs": [2, 1]},
                 "weight": {"kind": "power", "r": 1, "measure": [1, 1]}}},
             ("fkg", "--config", "fkg_r1.json"), 2, _stderr_has("/weight/r")),
    Contract("potential-n8-k2", {"fn16.json": FN16, "pot8.json": dict(POTENTIAL_FN16, n=8)},
             _check_argv("fn16.json", "pot8.json", "--k", "2", "--budget", "100000000000"), 0),
    # 16^6 tuples each, through the insertion chain of the function lattice
    Contract("schur-fn16-n6-kn", {"fn16.json": FN16, "schur6.json": dict(SCHUR_FN16, n=6)},
             _check_argv("fn16.json", "schur6.json", "--k", "n"), 0, _holds_over(16 ** 6)),
    Contract("potential-fn16-n6-kn", {"fn16.json": FN16,
                                      "pot6.json": dict(POTENTIAL_FN16, n=6)},
             _check_argv("fn16.json", "pot6.json", "--k", "n"), 0, _holds_over(16 ** 6)),
    Contract("construct-schur-out", {"schur_params.json": {
                 "lattice": FN9, "n": 3, "lambda": {"kind": "modular", "point_weights": [1, 2]},
                 "F": {"kind": "sum"}}},
             ("construct", "schur", "--params", "schur_params.json", "--out", "construct.json"),
             0, _silent_with_out("construct.json")),
    Contract("esym-every-order", {"esym_all.json": {"measure": [1, 2],
                                                    "tuple": [[1, 0], [0, 1], [2, 1]]}},
             ("corollary", "esym", "--config", "esym_all.json"), 0),
    Contract("power-fractional", {"power_frac.json": {
                 "measure": [1, 2], "tuple": [[1, 2], [2, 1], [3, 1]], "p": "1/2", "r": "-1/2"}},
             ("corollary", "power", "--config", "power_frac.json"), 0),
    Contract("ahke-alphas-betas", {"ahke_ab.json": {
                 "families": [[[1, 2], [2, 1]], [[1, 1]]], "alphas": [LINEAR_11, LINEAR_11],
                 "betas": [LINEAR_11, LINEAR_11]}},
             ("ahke", "--config", "ahke_ab.json"), 0),
    Contract("ahke-repeated-elements", {"ahke_repeat.json": {
                 "families": [[[1, 2], [1, 2]], [[3, 3]]], "weight": {"kind": "inf"}}},
             ("ahke", "--config", "ahke_repeat.json"), 0),
    Contract("multiadd-unary-k2", {"fn.json": FN9, "multiadd1.json": {
                 "family": "multiadd", "n": 4, "k": 1,
                 "m": {"kind": "prod_integrals", "measures": [[1, 2]]}}},
             _check_argv("fn.json", "multiadd1.json", "--k", "2"), 0),
    Contract("sampled-without-seed", {"m3.json": M3, "unary_q.json": {
                 "family": "quadratic", "coeffs": {"1": [1, 1]}, "n": 1}},
             _check_argv("m3.json", "unary_q.json", "--mode", "sampled"), 2,
             _stderr_has("sampled mode requires a seed")),
    Contract("schur-46656-over-budget", {"fn46656.json": FN46656, "schur46656.json": {
                 "family": "schur", "n": 3,
                 "lambda": {"kind": "modular", "point_weights": [1, 1, 1, 1, 1, 1]},
                 "F": {"kind": "sum"}}},
             _check_argv("fn46656.json", "schur46656.json", "--mode", "sampled",
                         "--seed", "1", "--trials", "10", "--budget", "1000"), 3,
             _stderr_has("exceed budget 1000")),
    Contract("multiadd-46656-sampled", {"fn46656.json": FN46656, "multiadd46656.json": {
                 "family": "multiadd", "n": 3, "k": 2,
                 "m": {"kind": "prod_integrals",
                       "measures": [[1, 2, 1, 1, 3, 1], [2, 1, 1, 2, 1, 1]]}}},
             _check_argv("fn46656.json", "multiadd46656.json", "--mode", "sampled",
                         "--seed", "1", "--trials", "10"), 0),
    Contract("schur-fn8-kn", {"fn8.json": {"kind": "fn", "ground_size": 3, "chain_max": 1},
                              "schur8.json": {
                 "family": "schur", "n": 4,
                 "lambda": {"kind": "modular", "point_weights": [1, 2, 3]},
                 "F": {"kind": "min"}}},
             _check_argv("fn8.json", "schur8.json", "--k", "n"), 0),
    # the 120^3 axiom triples of an order carrier are charged before its loops
    Contract("order-chain120-over-budget", {"chain120.json": CHAIN120},
             ("lattice", "validate", "--lattice", "chain120.json"), 3,
             _stderr_has("1728000 lattice axiom triples exceed budget 1"),
             env={"LATSTAT_BUDGET": "1"}),
    Contract("distributive-m3-out", {"m3.json": M3},
             ("lattice", "distributive", "--lattice", "m3.json", "--out", "d.json"), 1,
             _distributive_out),
    Contract("ordstats-m3-dual", {"m3_ord.json": M3, "m3_tuple.json": [1, 2, 3]},
             ("ordstats", "--lattice", "m3_ord.json", "--tuple", "m3_tuple.json", "--dual"), 0,
             _ordstats_m3),
    Contract("ordstats-fn16-9-tuple-dual", {"fn16_ord.json": FN16, "fn_tuple9.json": [
                 [3, 0], [1, 2], [0, 3], [2, 2], [1, 1], [3, 3], [0, 1], [2, 0], [1, 3]]},
             ("ordstats", "--lattice", "fn16_ord.json", "--tuple", "fn_tuple9.json", "--dual"),
             0, _ordstats_primal_is_dual),
    # the subset formula's n * 2^(n-1) - n operations are charged before it is built
    Contract("ordstats-16-tuple-over-budget", {"fn4.json": {
                 "kind": "fn", "ground_size": 1, "chain_max": 3},
                 "tuple16.json": [[v % 4] for v in range(16)]},
             ("ordstats", "--lattice", "fn4.json", "--tuple", "tuple16.json"), 3,
             _stderr_has("524272 lattice operations of the subset formula exceed budget 1000"),
             env={"LATSTAT_BUDGET": "1000"}),
]


def _setup(directory: Path, files: dict) -> set:
    directory.mkdir()
    for name, payload in files.items():
        (directory / name).write_text(json.dumps(payload))
    return set(files)


def _written(directory: Path, inputs: set) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name not in inputs}


def _masked(run: Run, argv: tuple) -> tuple:
    out = run.out
    if argv[0] == "reproduce":
        out = re.sub(r"\d+\.\d+s \(limit", "?s (limit", out)
    return run.code, out, run.err, run.files


def _in_process(directory: Path, contract: Contract, monkeypatch) -> Run:
    inputs = _setup(directory, contract.files)
    monkeypatch.chdir(directory)
    monkeypatch.delenv("LATSTAT_BUDGET", raising=False)
    for name, value in (contract.env or {}).items():
        monkeypatch.setenv(name, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(contract.argv))
    return Run(code, out.getvalue(), err.getvalue(), _written(directory, inputs))


def _subprocesses(tmp_path: Path, contract: Contract) -> list:
    env = {k: v for k, v in os.environ.items() if k != "LATSTAT_BUDGET"}
    env.update(contract.env or {})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    started = []
    for seed in HASH_SEEDS:
        directory = tmp_path / f"hashseed-{seed}"
        inputs = _setup(directory, contract.files)
        proc = subprocess.Popen([sys.executable, "-m", "latstat.cli", *contract.argv],
                                cwd=directory, env=dict(env, PYTHONHASHSEED=seed),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        started.append((proc, directory, inputs))
    runs = []
    try:
        for proc, directory, inputs in started:
            out, err = proc.communicate(timeout=TIMEOUT_S)
            runs.append(Run(proc.returncode, out, err, _written(directory, inputs)))
    finally:
        for proc, _, _ in started:
            if proc.poll() is None:  # a timed-out run, or one left by a failure
                proc.kill()
                proc.communicate()
    return runs


def _reports(run: Run):
    texts = [run.out] + [b.decode() for b in run.files.values()]
    for text in texts:
        try:
            payload = json.loads(text)
        except ValueError:
            continue
        if isinstance(payload, dict) and isinstance(payload.get("result"), dict):
            yield payload["result"]


@pytest.mark.parametrize("contract", CONTRACTS, ids=[c.id for c in CONTRACTS])
def test_cli_contract(tmp_path, monkeypatch, contract):
    runs = [_in_process(tmp_path / "in-process", contract, monkeypatch)]
    runs += _subprocesses(tmp_path, contract)
    first = _masked(runs[0], contract.argv)
    for run in runs[1:]:
        assert _masked(run, contract.argv) == first
    assert runs[0].code == contract.code, runs[0].err
    if contract.check is not None:
        contract.check(runs[0])
    verdicts = [r for r in _reports(runs[0]) if "holds" in r and "witness" in r]
    for result in verdicts:
        assert result["holds"] == (result["witness"] is None)
    if contract.argv[0] in ("check", "lattice") and contract.code in (0, 1):
        assert verdicts
