import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latstat import build_m3, cli, semimod
from latstat.cli import main
from latstat.lattice import require_lattice

M3_ORDER = {
    "kind": "order",
    "n": 5,
    "leq_pairs": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4], [0, 4]],
    "labels": [1, 2, 3, 4, 5],
}

M3_FUNCTIONAL = {
    "family": "quadratic",
    "coeffs": {"12": [1, 2], "3": [2, 3], "5": [1, 3]},
    "n": 3,
}

FN_LATTICE = {"kind": "fn", "ground_size": 2, "chain_max": 2}

SYM_LATTICE = {"kind": "fn", "ground_size": 1, "chain_min": -1, "chain_max": 1}

SCHUR_FUNCTIONAL = {"family": "schur", "n": 3,
                    "lambda": {"kind": "modular", "point_weights": [1, 2]},
                    "F": {"kind": "sum"}}

MULTIADD_FUNCTIONAL = {"family": "multiadd", "n": 3, "k": 2,
                       "m": {"kind": "integral_of_product", "weights": [1, 2]}}

POTENTIAL_FUNCTIONAL = {"family": "potential", "n": 3, "phi": {"kind": "relu"},
                        "psi": {"kind": "min_affine", "pieces": [[1, 0], [2, -1]]},
                        "measure": [1]}

FKG_CONFIG = {"elements": [[0, 0], [0, 1], [1, 0], [1, 1]],
              "F": {"kind": "linear", "coeffs": [1, 2]},
              "G": {"kind": "linear", "coeffs": [2, 1], "const": 1},
              "weight": {"kind": "inf"}}

AHKE_CONFIG = {"families": [[[1, 2], [2, 1]], [[1, 1]]],
               "weight": {"kind": "power", "r": -1, "measure": [1, 1]}}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_validate_and_distributive(write, capsys):
    lat = write("m3.json", M3_ORDER)
    code, out, _ = run_cli(capsys, "lattice", "validate", "--lattice", lat)
    assert code == 0
    assert json.loads(out)["result"]["holds"]
    code, out, _ = run_cli(capsys, "lattice", "distributive", "--lattice", lat)
    assert code == 1  # M3 is the canonical non-distributive input
    payload = json.loads(out)
    assert not payload["result"]["holds"]
    assert payload["result"]["witness"] is not None


def test_lattice_birkhoff(write, capsys):
    lat = write("chain3.json", {"kind": "order", "n": 3,
                                "leq_pairs": [[0, 1], [1, 2], [0, 2]]})
    code, out, _ = run_cli(capsys, "lattice", "birkhoff", "--lattice", lat)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["ground_size"] == 2
    assert result["map"]["0"] == [{"num": 0, "den": 1}, {"num": 0, "den": 1}]


def test_ordstats_with_labels(write, capsys):
    lat = write("m3.json", M3_ORDER)
    tup = write("t.json", [1, 2, 3])  # ids of labels 2,3,4
    code, out, _ = run_cli(capsys, "ordstats", "--lattice", lat,
                           "--tuple", tup, "--dual")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order_statistics_labels"] == [1, 5, 5]
    assert result["dual_order_statistics_labels"] == [1, 1, 5]


def test_ordstats_on_a_table_lattice_json(write, capsys):
    m3 = build_m3()
    ids = range(m3.size)
    lat = write("m3t.json", {"kind": "table", "n": m3.size, "labels": m3.labels,
                             "meet": [[m3.meet(a, b) for b in ids] for a in ids],
                             "join": [[m3.join(a, b) for b in ids] for a in ids]})
    code, out, _ = run_cli(capsys, "ordstats", "--lattice", lat,
                           "--tuple", write("t.json", [1, 2, 3]), "--dual")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order_statistics_labels"] == [1, 5, 5]
    assert result["dual_order_statistics_labels"] == [1, 1, 5]


def test_ordstats_on_a_function_lattice(write, capsys):
    code, out, _ = run_cli(capsys, "ordstats", "--lattice", write("fn.json", FN_LATTICE),
                           "--tuple", write("t.json", [[1, 0], [0, 2], [2, 1]]), "--dual")
    assert code == 0
    result = json.loads(out)["result"]
    stats = [[{"num": v, "den": 1}] * 2 for v in (0, 1, 2)]
    assert result == {"order_statistics": stats, "dual_order_statistics": stats}


def test_check_pair_windows_hold_on_m3(write, capsys):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    code, out, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                           "--relation", "ge", "--k", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] and result["instances_checked"] == 250


def test_check_full_fails_on_m3_with_witness_labels(write, capsys):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    code, out, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                           "--relation", "ge", "--k", "n")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["witness_labels"] == [2, 3, 4]
    assert result["witness"]["lhs"] == {"num": 148, "den": 1}
    assert result["witness"]["rhs"] == {"num": 160, "den": 1}


def test_check_budget_exceeded_exit_3(write, capsys):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    code, _, err = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                           "--k", "n", "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_sampled_trials_are_charged_to_the_budget(write, capsys):
    # a sampled scan is charged its trials, the instances its report counts
    lat = write("fn16.json", {"kind": "fn", "ground_size": 2, "chain_max": 3})
    fun = write("schur4.json", dict(SCHUR_FUNCTIONAL, n=4))
    for k, scan in (("n", "sampled scan"), ("2", "sampled windowed scan")):
        check = ("check", "--lattice", lat, "--functional", fun, "--k", k, "--mode", "sampled",
                 "--seed", "1", "--budget", "1000")
        assert run_cli(capsys, *check, "--trials", "1001") == (
            3, "", f"budget exceeded: 1001 trials of the {scan} of L^4 exceed budget 1000\n")
        code, out, _ = run_cli(capsys, *check, "--trials", "1000")
        assert (code, json.loads(out)["result"]["instances_checked"]) == (0, 1000)


def test_check_env_budget(write, capsys, monkeypatch):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    monkeypatch.setenv("LATSTAT_BUDGET", "5")
    code, _, err = run_cli(capsys, "check", "--lattice", lat,
                           "--functional", fun, "--k", "n")
    assert code == 3


@pytest.mark.parametrize("env,message", [
    ("x", "LATSTAT_BUDGET must be an integer, got 'x'"),
    ("1.5", "LATSTAT_BUDGET must be an integer, got '1.5'"),
    ("0", "LATSTAT_BUDGET must be positive"),
    ("-3", "LATSTAT_BUDGET must be positive"),
])
def test_malformed_env_budget_exits_2(write, capsys, monkeypatch, env, message):
    monkeypatch.setenv("LATSTAT_BUDGET", env)
    lat, fun = write("m3.json", M3_ORDER), write("f.json", M3_FUNCTIONAL)
    check = ("check", "--lattice", lat, "--functional", fun)
    for argv in (check, ("lattice", "distributive", "--lattice", lat)):
        assert run_cli(capsys, *argv) == (2, "", f"input error: {message}\n")
    # --budget, where the command has it, wins over the environment
    code, _, err = run_cli(capsys, *check, "--budget", "200")
    assert (code, err) == (1, "")


def test_family_commands_take_the_budget(write, capsys, monkeypatch):
    # a 2 x 1 family product for ahke, 2 x 2 for the nonreversibility demo
    ahke = ("ahke", "--config", write("ahke.json", AHKE_CONFIG))
    nonrev = ("demo", "nonrev", "--N", "2")
    refusals = {ahke: "budget exceeded: 2 tuples of the family product exceed budget 1\n",
                nonrev: "budget exceeded: 4 tuples of the family product exceed budget 1\n"}
    for argv, err in refusals.items():
        assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, *argv, "--budget", "1") == (3, "", err)
    monkeypatch.setenv("LATSTAT_BUDGET", "1")
    for argv, err in refusals.items():
        assert run_cli(capsys, *argv) == (3, "", err)
        assert run_cli(capsys, *argv, "--budget", "4")[0] == 0


@pytest.mark.parametrize("action", ["validate", "birkhoff"])
def test_lattice_axiom_loops_are_charged_before_they_run(write, capsys, monkeypatch, action):
    chain = write("chain3.json", {"kind": "order", "n": 3,
                                  "leq_pairs": [[0, 1], [1, 2], [0, 2]]})
    argv = ("lattice", action, "--lattice", chain)
    err = "budget exceeded: 27 lattice axiom triples exceed budget 26\n"
    assert run_cli(capsys, *argv, "--budget", "26") == (3, "", err)
    monkeypatch.setenv("LATSTAT_BUDGET", "26")
    assert run_cli(capsys, *argv) == (3, "", err)
    assert run_cli(capsys, *argv, "--budget", "27")[0] == 0


def test_order_carriers_are_charged_before_they_are_built(write, capsys, monkeypatch):
    # every command that decodes a carrier refuses an order carrier's n^3
    # axiom triples before `lattice_from_order` loops over them
    from latstat import jsonio

    def unreachable(*args, **kwargs):
        raise AssertionError("lattice_from_order ran before the budget gate")

    lat = write("m3.json", M3_ORDER)
    params = write("p.json", {"lattice": M3_ORDER, "n": 2, "F": {"kind": "sum"},
                              "lambda": {"kind": "max_value"}})
    commands = [("lattice", "validate", "--lattice", lat),
                ("lattice", "distributive", "--lattice", lat),
                ("check", "--lattice", lat, "--functional", write("f.json", M3_FUNCTIONAL)),
                ("ordstats", "--lattice", lat, "--tuple", write("t.json", [1, 2])),
                ("construct", "schur", "--params", params)]
    monkeypatch.setattr(jsonio, "lattice_from_order", unreachable)
    monkeypatch.setenv("LATSTAT_BUDGET", "124")
    for argv in commands:
        assert run_cli(capsys, *argv) == (
            3, "", "budget exceeded: 125 lattice axiom triples exceed budget 124\n"), argv
    monkeypatch.undo()
    # within budget each runs as before; a schur functional needs an fn carrier
    assert [run_cli(capsys, *argv)[0] for argv in commands] == [0, 1, 1, 0, 2]


def test_cli_loops_are_charged_before_they_run(write, capsys, monkeypatch):
    # ordstats, corollary esym and corollary perm count their work from the
    # input's sizes and refuse it before the subset formula, the symmetric
    # sums or the permanents run; a budget of exactly that count runs
    from latstat import constructions, lattice

    def unreachable(*args, **kwargs):
        raise AssertionError("the work ran before the budget gate")

    fn = write("fn.json", {"kind": "fn", "ground_size": 1, "chain_max": 3})
    tup = write("t.json", [[v % 4] for v in range(10)])
    esym = {"measure": [1], "tuple": [[v % 3] for v in range(12)]}
    ops, sums, adds = ("lattice operations of the subset formula",
                       "subsets of the elementary symmetric sums", "multiply-adds of the permanents")
    cases = [
        (("ordstats", "--lattice", fn, "--tuple", tup), 10 * 2 ** 9 - 10, ops),
        (("ordstats", "--lattice", fn, "--tuple", tup, "--dual"), 2 * (10 * 2 ** 9 - 10), ops),
        (("corollary", "esym", "--config", write("e.json", esym)), 2 * (2 ** 12 - 1), sums),
        (("corollary", "esym", "--config", write("k.json", {**esym, "k": 6})), 2 * 924, sums),
        # d * sum_{i <= d} C(p, i) per permanent, three permanents per matrix
        (("corollary", "perm", "--config", write("p.json", {"matrix": [[1] * 8] * 6})),
         3 * 6 * 247, adds),
        (("corollary", "perm", "--config", write("r.json", {"random": {"count": 20, "seed": 5}})),
         20 * 3 * 5 * 120, adds),
    ]
    monkeypatch.setattr(lattice, "_subset_formula", unreachable)
    monkeypatch.setattr(constructions, "elementary_symmetric", unreachable)
    monkeypatch.setattr(constructions, "_permanent", unreachable)
    monkeypatch.setenv("LATSTAT_BUDGET", "1000")
    for argv, units, what in cases:
        assert run_cli(capsys, *argv) == (
            3, "", f"budget exceeded: {units} {what} exceed budget 1000\n"), argv
    monkeypatch.undo()
    for argv, units, _ in cases:
        monkeypatch.setenv("LATSTAT_BUDGET", str(units))
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_check_refuses_a_table_that_is_not_a_lattice(write, capsys):
    # join(1, 2) = 1 but join(2, 1) = 2: a scan would report the witness [1, 1, 2]
    lat = write("t.json", {"kind": "table", "n": 3, "meet": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
                           "join": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]})
    fun = write("f.json", {"family": "quadratic", "coeffs": {"1": [1, 2]}, "n": 3})
    assert run_cli(capsys, "check", "--k", "n", "--lattice", lat, "--functional", fun) == (
        2, "", "input error: not a lattice: join commutativity at (1, 2)\n")
    # the axiom check is charged as the 27 triples it reads
    code, out, err = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                             "--budget", "26")
    assert (code, out, err) == (3, "", "budget exceeded: 27 lattice axiom triples exceed "
                                       "budget 26\n")


def test_distributive_refuses_a_table_that_is_not_a_lattice(write, capsys):
    # the distributive law holds on all 27 triples of these tables, which
    # break join commutativity at (1, 2): like `check`, the command
    # validates the table first, charging its axiom triples before its
    # distributivity triples
    lat = write("t.json", {"kind": "table", "n": 3, "meet": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
                           "join": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]})
    argv = ("lattice", "distributive", "--lattice", lat)
    assert run_cli(capsys, *argv) == (
        2, "", "input error: not a lattice: join commutativity at (1, 2)\n")
    assert run_cli(capsys, *argv, "--budget", "26") == (
        3, "", "budget exceeded: 27 lattice axiom triples exceed budget 26\n")
    chain = write("c.json", {"kind": "table", "n": 3, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                             "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]})
    code, out, err = run_cli(capsys, "lattice", "distributive", "--lattice", chain)
    result = json.loads(out)["result"]
    assert (code, err, result["holds"], result["instances_checked"]) == (0, "", True, 27)

def test_check_validates_table_carriers_only(write, capsys, monkeypatch):
    # order and fn carriers are certified as built; only a table is checked
    calls = []
    monkeypatch.setattr(cli, "require_lattice",
                        lambda t, budget: calls.append(t.n) or require_lattice(t, budget))
    fun = write("f.json", {"family": "quadratic", "coeffs": {"1": [1, 2]}, "n": 2})
    carriers = {"table": {"kind": "table", "n": 2, "meet": [[0, 0], [0, 1]],
                          "join": [[0, 1], [1, 1]]},
                "order": {"kind": "order", "n": 3, "leq_pairs": [[0, 1], [1, 2], [0, 2]]},
                "fn": {"kind": "fn", "ground_size": 1, "chain_max": 3}}
    for kind, carrier in carriers.items():
        lat = write(f"{kind}.json", carrier)
        assert run_cli(capsys, "check", "--k", "n", "--lattice", lat,
                       "--functional", fun)[0] == 0
    assert calls == [2]


@pytest.mark.parametrize("k", ["2", "n"])
def test_m3_as_a_table_reports_what_m3_as_an_order_reports(write, capsys, k):
    m3 = build_m3()
    table = {"kind": "table", "n": 5, "meet": m3._meet, "join": m3._join, "labels": m3.labels}
    fun = write("f.json", M3_FUNCTIONAL)
    reports = []
    for carrier in (M3_ORDER, table):
        reports.append(run_cli(capsys, "check", "--k", k, "--lattice", write("m3.json", carrier),
                               "--functional", fun))
    assert reports[0] == reports[1] and reports[0][0] == (0 if k == "2" else 1)


@pytest.mark.parametrize("functional", [
    {"family": "schur", "n": 3, "lambda": {"kind": "modular", "point_weights": [1] * 6},
     "F": {"kind": "sum"}},
    {"family": "potential", "n": 3, "measure": [1] * 6, "phi": {"kind": "relu"},
     "psi": {"kind": "min_affine", "pieces": [[1, 0], [2, -1]]}},
], ids=["schur", "potential"])
def test_construction_verification_is_charged_to_the_budget(write, capsys, monkeypatch,
                                                            functional):
    # 46,656 elements: 46,656^2 Schur pairs or 11^6 potential integrals to verify
    lattice = {"kind": "fn", "ground_size": 6, "chain_max": 5}
    code, out, err = run_cli(capsys, "check", "--lattice", write("fn6.json", lattice),
                             "--functional", write("f.json", functional), "--mode", "sampled",
                             "--seed", "1", "--trials", "10", "--budget", "1000")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "exceed budget 1000" in err
    monkeypatch.setenv("LATSTAT_BUDGET", "1000")
    params = write("params.json", dict(functional, lattice=lattice))
    code, out, err = run_cli(capsys, "construct", functional["family"], "--params", params)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "exceed budget 1000" in err


def test_check_sampled_mode_is_deterministic(write, capsys):
    lat = write("fn.json", FN_LATTICE)
    fun = write("f.json", {"family": "schur", "n": 3,
                           "lambda": {"kind": "modular", "point_weights": [1, 2]},
                           "F": {"kind": "sum"}})
    args = ("check", "--lattice", lat, "--functional", fun, "--relation", "eq",
            "--k", "n", "--mode", "sampled", "--seed", "9", "--trials", "40")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("coeffs,n", [({"1": [1, 1]}, 1), ({"1": [1, 2]}, 2)])
def test_check_sampled_without_seed_exits_2_at_every_arity(write, capsys, coeffs, n):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", {"family": "quadratic", "coeffs": coeffs, "n": n})
    code, out, err = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                             "--k", "n", "--mode", "sampled")
    assert (code, out) == (2, "")
    assert err == "input error: sampled mode requires a seed\n"


def test_demo_m3_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "demo", "m3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["expected_violation_reproduced"]
    assert result["pair_inequalities"] == 250


def test_demo_nonrev(capsys):
    code, out, _ = run_cli(capsys, "demo", "nonrev", "--N", "3",
                           "--delta", "1/1000", "--eps", "1/10000", "--r", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["stat_family_sizes"] == [9, 9]


def test_corollary_perm(write, capsys):
    cfg = write("perm.json", {"matrix": [[1, 2], [3, 0]]})
    code, out, _ = run_cli(capsys, "corollary", "perm", "--config", cfg)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["detail"]["permanent"] == {"num": 6, "den": 1}
    assert result["detail"]["rows_sorted"] == {"num": 2, "den": 1}


def test_corollary_perm_random_batch(write, capsys):
    cfg = write("perm.json", {"random": {"count": 20, "seed": 5}})
    code, out, _ = run_cli(capsys, "corollary", "perm", "--config", cfg)
    assert code == 0
    assert json.loads(out)["result"]["detail"]["batch"] == 20


def test_corollary_esym_and_power_and_supinf(write, capsys):
    esym = write("esym.json", {"measure": [1, 1], "tuple": [[1, 0], [0, 1]], "k": 2})
    code, out, _ = run_cli(capsys, "corollary", "esym", "--config", esym)
    assert code == 0
    power = write("power.json", {"measure": [1, 1], "tuple": [[1, 0], [0, 1]],
                                 "p": "1", "r": "-1"})
    code, out, _ = run_cli(capsys, "corollary", "power", "--config", power)
    assert code == 0
    assert json.loads(out)["result"]["detail"]["rhs"] == "inf"
    supinf = write("supinf.json", {"tuple": [[1, 0], [0, "inf"]]})
    code, out, _ = run_cli(capsys, "corollary", "supinf", "--config", supinf)
    assert code == 0
    every_k = write("esym_all.json", {"measure": [1, 1], "tuple": [[1, 0], [0, 1], [2, 1]]})
    code, out, _ = run_cli(capsys, "corollary", "esym", "--config", every_k)
    assert code == 0


def test_esym_without_k_reports_every_order(write, capsys):
    # three orders, each one instance, listed in the detail; with k the
    # report has one instance and no list
    tuple_ = [[1, 0], [0, 1], [2, 1]]
    code, out, _ = run_cli(capsys, "corollary", "esym", "--config",
                           write("all.json", {"measure": [1, 1], "tuple": tuple_}))
    result = json.loads(out)["result"]
    assert code == 0 and result["instances_checked"] == 3
    assert result["detail"]["orders"] == [1, 2, 3]
    for k in (1, 2, 3):
        code, out, _ = run_cli(capsys, "corollary", "esym", "--config",
                               write(f"k{k}.json", {"measure": [1, 1], "tuple": tuple_, "k": k}))
        one = json.loads(out)["result"]
        assert code == 0 and one["instances_checked"] == 1
        assert one["detail"] == {key: v for key, v in result["detail"].items() if key != "orders"}


def test_corollary_psi_sets_indep(write, capsys):
    psi = write("psi.json", {"measure": [1, 2], "tuple": [[1, 0], [2, 2]],
                             "psi": {"kind": "power", "t": 2}})
    code, _, _ = run_cli(capsys, "corollary", "psi", "--config", psi)
    assert code == 0
    sets = write("sets.json", {
        "ground_size": 3, "k": 2,
        "weights": [[[0, 1], 1], [[1, 2], 2], [[0, 0], 1]],
        "sets": [[0, 1], [1], [1, 2]],
    })
    code, _, _ = run_cli(capsys, "corollary", "sets", "--config", sets)
    assert code == 0
    indep = write("indep.json", {"marginals": [
        [[0, {"num": 1, "den": 2}], [1, {"num": 1, "den": 2}]],
        [[0, {"num": 1, "den": 2}], [1, {"num": 1, "den": 2}]],
    ]})
    code, out, _ = run_cli(capsys, "corollary", "indep", "--config", indep)
    assert code == 0
    detail = json.loads(out)["result"]["detail"]
    assert detail["mean_of_product"] == {"num": 1, "den": 4}


def test_construct_emits_consumable_descriptor(write, capsys, tmp_path):
    params = write("params.json", {
        "lattice": FN_LATTICE,
        "n": 3,
        "lambda": {"kind": "capped_modular", "point_weights": [1, 1], "cap": 2},
        "F": {"kind": "min"},
    })
    emitted = str(tmp_path / "functional.json")
    code, out, _ = run_cli(capsys, "construct", "schur", "--params", params,
                           "--emit", emitted)
    assert code == 0
    assert json.loads(out)["result"]["verified"]
    lat = write("fn.json", FN_LATTICE)
    code, out, _ = run_cli(capsys, "check", "--lattice", lat,
                           "--functional", emitted, "--relation", "ge", "--k", "2")
    assert code == 0


def test_construct_refuses_invalid_spec(write, capsys):
    params = write("params.json", {
        "lattice": FN_LATTICE,
        "n": 3,
        "lambda": {"kind": "modular", "point_weights": [1, 1]},
        "F": {"kind": "sum_smallest", "k": 0},
    })
    code, _, err = run_cli(capsys, "construct", "schur", "--params", params)
    assert code == 2
    assert "/F/k" in err


# every command that takes --out and --timing, its JSON inputs as payloads,
# and the exit code it gives
REPORTING_COMMANDS = {
    "lattice-validate": (("lattice", "validate", "--lattice", M3_ORDER), 0),
    "lattice-distributive": (("lattice", "distributive", "--lattice", M3_ORDER), 1),
    "lattice-birkhoff": (("lattice", "birkhoff", "--lattice",
                          {"kind": "order", "n": 3, "leq_pairs": [[0, 1], [1, 2], [0, 2]]}), 0),
    "ordstats": (("ordstats", "--lattice", M3_ORDER, "--tuple", [1, 2, 3], "--dual"), 0),
    "check": (("check", "--lattice", M3_ORDER, "--functional", M3_FUNCTIONAL), 1),
    "demo-m3": (("demo", "m3"), 0),
    "demo-nonrev": (("demo", "nonrev"), 0),
    "corollary": (("corollary", "perm", "--config", {"matrix": [[1, 2], [3, 0]]}), 0),
    "construct": (("construct", "schur", "--params",
                   {"lattice": FN_LATTICE, "n": 3, "F": {"kind": "min"},
                    "lambda": {"kind": "modular", "point_weights": [1, 1]}}), 0),
    "fkg": (("fkg", "--config", FKG_CONFIG), 0),
    "ahke": (("ahke", "--config", AHKE_CONFIG), 0),
}


@pytest.mark.parametrize("name", list(REPORTING_COMMANDS))
def test_out_and_timing_keep_the_report_and_exit_code(write, capsys, tmp_path, name):
    template, expected = REPORTING_COMMANDS[name]
    argv = [a if isinstance(a, str) else write(f"arg{i}.json", a)
            for i, a in enumerate(template)]
    code, shown, err = run_cli(capsys, *argv)
    assert (code, err) == (expected, "")
    report = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--out", str(report)) == (code, "", "")
    assert report.read_bytes() == shown.encode()
    timed_code, out, _ = run_cli(capsys, *argv, "--timing")
    payload = json.loads(out)
    assert isinstance(payload.pop("timing_seconds"), float)
    assert (timed_code, payload) == (code, json.loads(shown))


def test_fkg_and_ahke_configs(write, capsys):
    fkg = write("fkg.json", {
        "elements": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "F": {"kind": "linear", "coeffs": [1, 2]},
        "G": {"kind": "linear", "coeffs": [2, 1], "const": 1},
        "weight": {"kind": "inf"},
    })
    code, _, _ = run_cli(capsys, "fkg", "--config", fkg)
    assert code == 0
    ahke = write("ahke.json", {
        "families": [[[1, 2], [2, 1]], [[1, 1]]],
        "weight": {"kind": "power", "r": -1, "measure": [1, 1]},
    })
    code, _, _ = run_cli(capsys, "ahke", "--config", ahke)
    assert code == 0
    table = write("fkg_table.json", dict(FKG_CONFIG, weight={
        "kind": "table", "mode": "zero",
        "values": [[[0, 0], 1], [[0, 1], 1], [[1, 0], 1], [[1, 1], 2]]}))
    code, out, _ = run_cli(capsys, "fkg", "--config", table)
    assert code == 0
    assert json.loads(out)["result"]["holds"]
    linear = {"kind": "linear", "coeffs": [1, 1]}
    pairs = write("ahke_ab.json", {"families": AHKE_CONFIG["families"],
                                   "alphas": [linear, linear], "betas": [linear, linear]})
    code, out, _ = run_cli(capsys, "ahke", "--config", pairs)
    assert code == 0
    assert json.loads(out)["result"]["detail"]["stat_family_sizes"] == [1, 2]
    # families are sets: a repeated element is one element, not a violation
    repeated = write("ahke_repeat.json", {"families": [[[1, 2], [1, 2]], [[3, 3]]],
                                          "weight": {"kind": "inf"}})
    code, out, _ = run_cli(capsys, "ahke", "--config", repeated)
    assert code == 0
    assert json.loads(out)["result"]["detail"]["lhs"] == {"num": 3, "den": 1}


def test_input_errors_exit_2_with_pointer(write, capsys):
    bad = write("bad.json", {"kind": "fn", "ground_size": 2, "chain_max": 2,
                             "bogus": 1})
    code, _, err = run_cli(capsys, "lattice", "validate", "--lattice", bad)
    assert code == 2
    assert "/bogus" in err

    lat = write("fn.json", FN_LATTICE)
    bad_fun = write("bad_fun.json", {"family": "quadratic",
                                     "coeffs": {"x?y": [1, 2]}})
    code, _, err = run_cli(capsys, "check", "--lattice", lat,
                           "--functional", bad_fun)
    assert code == 2
    assert "/coeffs/x?y" in err

    den0 = write("den0.json", {"measure": [{"num": 1, "den": 0}],
                               "tuple": [[1]], "k": 1})
    code, _, err = run_cli(capsys, "corollary", "esym", "--config", den0)
    assert code == 2
    assert "/measure/0/den" in err


def test_array_label_exit_2_with_pointer(write, capsys):
    lat = write("m3.json", dict(M3_ORDER, labels=[1, [2], 3, 4, 5]))
    code, _, err = run_cli(capsys, "lattice", "validate", "--lattice", lat)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "/labels/1" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "demo", "m3")
    assert code == 0
    code, _, err = run_cli(capsys, "lattice", "validate", "--lattice",
                           "/nonexistent/l.json")
    assert code == 2
    assert "no such file" in err


def test_out_flag_and_byte_determinism(write, capsys, tmp_path):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
            "--k", "2", "--out", out1)
    run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
            "--k", "2", "--out", out2)
    b1 = Path(out1).read_bytes()
    b2 = Path(out2).read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["schema_version"] == "1"
    assert "timing_seconds" not in payload


def test_jobs_flag_does_not_change_output(write, capsys):
    lat = write("m3.json", M3_ORDER)
    fun = write("f.json", M3_FUNCTIONAL)
    _, out1, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                         "--k", "2", "--jobs", "1")
    _, out4, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                         "--k", "2", "--jobs", "4")
    assert out1 == out4


@pytest.mark.parametrize("argv", [
    ("check", "--mode", "sampled", "--seed", "1", "--trials", "-3"),
    ("check", "--jobs", "0"),
    ("check", "--jobs", "-2"),
    ("check", "--budget", "0"),
    ("reproduce", "--budget", "0"),
])
def test_count_flags_below_one_exit_2(write, capsys, argv):
    if argv[0] == "check":
        argv += ("--lattice", write("m3.json", M3_ORDER),
                 "--functional", write("f.json", M3_FUNCTIONAL))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "must be >= 1" in err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    import latstat.cli as cli

    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_demo", broken)
    code, out, err = run_cli(capsys, "demo", "m3")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_handler_patched_after_a_call_still_runs(capsys, monkeypatch):
    # the parser is built once per process; handlers are looked up per call
    import latstat.cli as cli

    assert run_cli(capsys, "demo", "m3")[0] == 0

    def broken(args):
        raise RuntimeError("patched")

    monkeypatch.setattr(cli, "_cmd_demo", broken)
    assert run_cli(capsys, "demo", "m3") == (4, "", "internal error: RuntimeError: patched\n")


def test_a_call_leaves_no_state_for_the_next(write, capsys):
    lat = write("fn.json", FN_LATTICE)
    fun = write("f.json", SCHUR_FUNCTIONAL)
    common = ("check", "--lattice", lat, "--functional", fun)
    code, out, _ = run_cli(capsys, *common, "--mode", "sampled", "--seed", "3")
    assert code == 0 and json.loads(out)["config"]["seed"] == 3
    code, out, _ = run_cli(capsys, *common)
    config = json.loads(out)["config"]
    assert code == 0 and (config["seed"], config["mode"]) == (None, "exhaustive")


def test_reproduce_subset(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--criteria", "1,10")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion")]
    assert len(lines) == 2
    assert all("[PASS]" in ln for ln in lines)


@pytest.mark.parametrize("criteria,entry", [("1,x", "'x'"), ("99", "'99'")])
def test_reproduce_unknown_criterion_exits_2(capsys, criteria, entry):
    code, out, err = run_cli(capsys, "reproduce", "--criteria", criteria)
    assert (code, out) == (2, "")
    assert err == f"input error: --criteria: {entry} is not a criterion number 1..12\n"


def test_reproduce_tiny_budget_exits_3(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--criteria", "3", "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_check_potential_functional(write, capsys):
    lat = write("sym.json", {"kind": "fn", "ground_size": 1,
                             "chain_min": -1, "chain_max": 1})
    fun = write("pot.json", {
        "family": "potential", "n": 3,
        "phi": {"kind": "relu"},
        "psi": {"kind": "min_affine", "pieces": [[1, 0], [2, -1]]},
        "measure": [1],
    })
    code, out, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                           "--relation", "ge", "--k", "2")
    assert code == 0
    assert json.loads(out)["result"]["holds"]


def test_check_multiadd_functional(write, capsys):
    lat = write("fn.json", FN_LATTICE)
    fun = write("ma.json", MULTIADD_FUNCTIONAL)
    code, out, _ = run_cli(capsys, "check", "--lattice", lat, "--functional", fun,
                           "--relation", "ge", "--k", "n")
    assert code == 0


def test_fkg_inf_table_weight_without_mode(write, capsys):
    # no sum meets 0 * inf when F and G are positive where the weight is inf
    cfg = write("fkg.json", {"elements": [[1, 1], [1, 2], [2, 1], [2, 2]],
                             "F": {"kind": "linear", "coeffs": [1, 2]},
                             "G": {"kind": "linear", "coeffs": [2, 1]},
                             "weight": {"kind": "table", "values": [
                                 [[1, 1], 1], [[1, 2], 1], [[2, 1], 1], [[2, 2], "inf"]]}})
    code, out, _ = run_cli(capsys, "fkg", "--config", cfg)
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_corrupt_integer_table_exits_4(write, capsys, monkeypatch):
    # the M3 pair windows hold; negating the integer tables that the scan
    # reads (the quadratic's, keyed on labels) makes it find a false
    # violation, which the witness replay refuses
    real = semimod.id_table

    def negated(*args):
        scale, table = real(*args)
        return scale, [-v for v in table]

    args = ("check", "--lattice", write("m3.json", M3_ORDER),
            "--functional", write("q.json", M3_FUNCTIONAL), "--k", "2")
    assert run_cli(capsys, *args)[0] == 0
    monkeypatch.setattr(semimod, "id_table", negated)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: InternalError: witness replay disagrees at ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", ["2", "n"])
def test_quadratic_refusals_keep_their_messages(write, capsys, k):
    # a non-numeric label and elements of two ground points have no
    # scalar value, on the integer-keyed tables as on elements
    q = write("q.json", M3_FUNCTIONAL)
    lettered = dict(M3_ORDER, labels=[1, "a", 3, 4, 5])
    for lattice, message in ((lettered, "label 'a' is not numeric"),
                             (FN_LATTICE, "quadratic functionals need scalar-valued elements")):
        code, out, err = run_cli(capsys, "check", "--lattice", write("l.json", lattice),
                                 "--functional", q, "--k", k)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_corrupt_pair_table_exits_4(write, capsys, monkeypatch):
    # negated pair tables make the pairwise route of the holding M3 pair
    # windows report a false violation: exit 4, never 1
    from latstat import cli
    from test_semimod import negated_pair_terms

    real = cli.functional_from_json
    args = ("check", "--lattice", write("m3.json", M3_ORDER),
            "--functional", write("q.json", M3_FUNCTIONAL), "--k", "2")
    monkeypatch.setattr(cli, "functional_from_json",
                        lambda *a: negated_pair_terms(real(*a)))
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: InternalError: witness replay disagrees at ")
    assert err.count("\n") == 1


def test_corollary_psi_table_kind(write, capsys):
    cfg = write("psi.json", {
        "measure": [1, 1],
        "tuple": [[0, 1], [1, 0]],
        "psi": {"kind": "table", "direction": "nonincreasing",
                "points": [[0, 5], [1, 2]]},
    })
    code, _, _ = run_cli(capsys, "corollary", "psi", "--config", cfg)
    assert code == 0


def check_schur(functional, lattice=FN_LATTICE):
    return ("check", "--lattice", lattice, "--functional", functional, "--k", "2")


def check_potential(functional):
    return check_schur(functional, SYM_LATTICE)


PSI_CONFIG = {"measure": [1, 2], "tuple": [[1, 0], [2, 2]]}


@pytest.mark.parametrize("argv,message", [
    (("fkg", "--config", dict(FKG_CONFIG, weight={"kind": "power", "r": -1})),
     "/weight/measure: missing required field"),
    (("fkg", "--config", dict(FKG_CONFIG, weight={"kind": "table"})),
     "/weight/values: missing required field"),
    (("ahke", "--config", dict(AHKE_CONFIG, weight={"kind": "power", "measure": [1, 1]})),
     "/weight/r: missing required field"),
    (check_schur(dict(SCHUR_FUNCTIONAL, **{"lambda": [1]})),
     "/lambda/kind: unknown one-argument map kind None"),
    (check_schur(dict(SCHUR_FUNCTIONAL, F="min")), "/F/kind: unknown combiner kind None"),
    (check_potential(dict(POTENTIAL_FUNCTIONAL, phi=3)),
     "/phi/kind: unknown inner map kind None"),
    (check_schur(dict(SCHUR_FUNCTIONAL, seed="x")), "/seed: expected an integer"),
    (check_schur(dict(SCHUR_FUNCTIONAL, seed=1.5)), "/seed: expected an integer"),
    (check_schur(dict(SCHUR_FUNCTIONAL, **{"lambda": {"kind": "max_value", "shift": "inf"}})),
     "/lambda/shift: must be finite"),
    (check_potential(dict(POTENTIAL_FUNCTIONAL,
                          measure={"weights": [1], "probability": "yes"})),
     "/measure/probability: expected a boolean"),
    (check_potential(dict(POTENTIAL_FUNCTIONAL, sign_mode="sub")), "/sign_mode: unknown field"),
    (check_schur(dict(SCHUR_FUNCTIONAL, **{"lambda": {"kind": "modular",
                                                      "point_weights": [1, "inf"]}})),
     "/lambda/point_weights/1: must be finite"),
    (check_potential(dict(POTENTIAL_FUNCTIONAL, phi={"kind": "relu", "scale": "inf"})),
     "/phi/scale: must be finite"),
    (check_potential(dict(POTENTIAL_FUNCTIONAL,
                          psi={"kind": "min_affine", "pieces": [[1, "inf"]]})),
     "/psi/pieces/0/1: must be finite"),
    (("fkg", "--config", dict(FKG_CONFIG, F={"kind": "linear", "coeffs": ["inf", 1]})),
     "/F/coeffs/0: must be finite"),
    (("corollary", "perm", "--config", {"matrix": [[1, "inf"]]}), "/matrix/0/1: must be finite"),
    (("lattice", "validate", "--lattice", dict(M3_ORDER, leq_pairs=[[0, 1], 3])),
     "/leq_pairs/1: expected a list"),
    (check_schur(SCHUR_FUNCTIONAL, M3_ORDER), ": schur functionals need a function lattice"),
    (check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "integral_of_product",
                                              "weights": [1, "inf"]})),
     "/m/weights/1: must be finite"),
    (("fkg", "--config", dict(FKG_CONFIG, elements=[[0, 0], [0, "inf"]])),
     "/elements/1/1: must be finite"),
    (("fkg", "--config", dict(FKG_CONFIG, F={"kind": "table", "values": [
        [[0, 0], 0], [[0, 1], "inf"], [[1, 0], 1], [[1, 1], 2]]})),
     "/F/values/1/1: must be finite"),
    (("corollary", "supinf", "--config", {"tuple": [[]]}), "/tuple/0: expected at least one value"),
    (("corollary", "esym", "--config", {"measure": [], "tuple": [[]]}),
     "/tuple/0: expected at least one value"),
    (check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "prod_integrals",
                                              "measures": [[1, "inf"], [1, 1]]})),
     "/m/measures/0/1: must be finite"),
    (("fkg", "--config", {"elements": [[1, 1], [1, 2], [2, 1], [2, 2]],
                          "F": {"kind": "linear", "coeffs": [1, 1]},
                          "G": {"kind": "linear", "coeffs": [0, 0]},
                          "weight": {"kind": "table", "values": [
                              [[1, 1], 1], [[1, 2], 1], [[2, 1], 1], [[2, 2], "inf"]]}}),
     '/weight/values/3/1: an infinite weight meets a zero G value, and 0 * inf is '
     'undefined without a convention; set "mode" to "zero" or "inf"'),
    (check_potential(dict(POTENTIAL_FUNCTIONAL, measure=["inf"],
                          phi={"kind": "relu", "shift": -3})), "/measure/0: must be finite"),
    (("fkg", "--config", dict(FKG_CONFIG, F={"kind": "table", "values": [
        [[0, 0], 0], [[0, 1], 1], [[1, 0], 1]]})), "/F/values: no value at [1, 1]"),
    (("corollary", "psi", "--config", {
        "measure": [1, 1], "tuple": [[0, 3], [1, 0]],
        "psi": {"kind": "table", "direction": "nondecreasing", "points": [[0, 5], [1, 6]]}}),
     "/psi/points: no value at 3"),
    (("corollary", "perm", "--config", {"matrix": [[1, -2]]}), "/matrix/0/1: must be nonnegative"),
    (("corollary", "esym", "--config", {"measure": [1], "tuple": [[1]], "k": 3}),
     "/k: must be <= 1"),
    (("corollary", "esym", "--config", {"measure": [1, 1], "tuple": [[1, 0], [0, -1]]}),
     "/tuple/1/1: must be nonnegative"),
    (("corollary", "power", "--config", dict(PSI_CONFIG, tuple=[[1, 0], [-1, 2]], p="1", r="1")),
     "/tuple/1/0: must be nonnegative"),
    (("corollary", "supinf", "--config", {"tuple": [[1, 0], [0, -1]]}),
     "/tuple/1/1: must be nonnegative"),
    (("corollary", "esym", "--config", {"measure": [1, -1], "tuple": [[1, 0], [0, 1]]}),
     "/measure/1: must be nonnegative"),
    (("fkg", "--config", dict(FKG_CONFIG, weight={"kind": "table", "mode": "bogus", "values": [
        [[0, 0], 1], [[0, 1], 1], [[1, 0], 1], [[1, 1], 1]]})),
     "/weight/mode: unknown convention mode 'bogus'; use 'zero' or 'inf'"),
    (("corollary", "sets", "--config", {"ground_size": 2, "k": 1, "weights": [[[0], 1]],
                                        "sets": [[0], [0, 2]]}),
     "/sets/1/1: must be <= 1"),
    (("corollary", "indep", "--config", {"marginals": [[[1, {"num": 1, "den": 2}],
                                                       [-1, {"num": 1, "den": 2}]]]}),
     "/marginals/0/1/0: must be nonnegative"),
    (("corollary", "sets", "--config", {"ground_size": 2, "k": 1, "weights": [[[5], 1]],
                                        "sets": [[0], [0, 1]]}),
     "/weights/0/0/0: must be <= 1"),
    (("corollary", "sets", "--config", {"ground_size": 2, "k": 1, "weights": [[[0, 1], 1]],
                                        "sets": [[0], [0, 1]]}),
     "/weights/0/0: expected 1 values, got 2"),
    (check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "tensor", "weights": [[[5, 0], 1]]})),
     "/m/weights/0/0/0: must be <= 1"),
    (check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "tensor", "weights": [[[0], 1]]})),
     "/m/weights/0/0: expected 2 values, got 1"),
    (("fkg", "--config", dict(FKG_CONFIG, weight={"kind": "power", "r": 1,
                                                  "measure": [1, 1]})),
     "/weight/r: must be <= -1"),
    (("ahke", "--config", dict(AHKE_CONFIG, weight={"kind": "power", "r": 0,
                                                    "measure": [1, 1]})),
     "/weight/r: must be <= -1"),
    (("corollary", "sets", "--config", {"ground_size": 2, "k": 1, "weights": [[[1], "inf"]],
                                        "sets": [[0], [0, 1]]}),
     "/weights/0/1: must be finite"),
    (check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "tensor", "weights": [[[0, 1], "inf"]]})),
     "/m/weights/0/1: must be finite"),
    (("corollary", "power", "--config", dict(PSI_CONFIG, p="0", r="1")), "/p: must be nonzero"),
    (("corollary", "power", "--config", dict(PSI_CONFIG, p="x", r="1")),
     "/p: not a rational literal"),
    (("corollary", "power", "--config", dict(PSI_CONFIG, p="1", r="0/1")),
     "/r: must be nonzero"),
    (("check", "--lattice", M3_ORDER, "--functional", M3_FUNCTIONAL, "--k", "two"),
     "--k must be an integer or 'n', got 'two'"),
    (("check", "--lattice", M3_ORDER, "--functional", M3_FUNCTIONAL, "--k", "1.5"),
     "--k must be an integer or 'n', got '1.5'"),
])
def test_malformed_config_exits_2_with_pointer(write, capsys, argv, message):
    argv = [write(f"arg{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("argv", [
    check_schur(dict(SCHUR_FUNCTIONAL, **{"lambda": {"kind": "max_value", "shift": 1}})),
    check_schur(dict(SCHUR_FUNCTIONAL, **{"lambda": {
        "kind": "relation_image", "pairs": [[0, 0], [1, 0], [1, 1]], "target_weights": [1, 2]}}),
        dict(FN_LATTICE, chain_max=1)),
    check_potential(dict(POTENTIAL_FUNCTIONAL, phi={"kind": "step"},
                         psi={"kind": "max_affine", "pieces": [[1, 0], [2, -1]]}))
    + ("--relation", "le"),
    ("corollary", "psi", "--config", dict(PSI_CONFIG, psi={"kind": "identity"})),
    ("corollary", "psi", "--config", dict(PSI_CONFIG, psi={"kind": "one_over_one_plus"})),
    check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "tensor",
                                              "weights": [[[0, 1], 1], [[1, 0], 2]]})),
    check_schur(dict(MULTIADD_FUNCTIONAL, m={"kind": "prod_integrals",
                                              "measures": [[1, 2], [3, 1]]})),
    ("lattice", "validate", "--lattice", dict(FN_LATTICE, ground_size=7, max_ground=7)),
    ("lattice", "validate", "--lattice", dict(FN_LATTICE, chain_max=6, max_chain=7)),
])
def test_valid_config_kinds_exit_0(write, capsys, argv):
    argv = [write(f"arg{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["holds"] is True


# --- one-field mutations of valid configs ---

FUZZ_SEEDS = [
    ("check", "--lattice", M3_ORDER, "--functional", M3_FUNCTIONAL, "--k", "2"),
    ("check", "--lattice", M3_ORDER, "--functional", M3_FUNCTIONAL, "--k", "n"),
    check_schur(SCHUR_FUNCTIONAL),
    check_schur(MULTIADD_FUNCTIONAL),
    check_potential(POTENTIAL_FUNCTIONAL),
    ("fkg", "--config", FKG_CONFIG),
    ("ahke", "--config", AHKE_CONFIG),
    ("corollary", "perm", "--config", {"matrix": [[1, 2], [3, 0]]}),
    ("corollary", "esym", "--config", {"measure": [1, 1], "tuple": [[1, 0], [0, 1]], "k": 2}),
    ("corollary", "power", "--config", dict(PSI_CONFIG, p="1", r="-1")),
    ("corollary", "psi", "--config", dict(PSI_CONFIG, psi={"kind": "power", "t": 2})),
    ("corollary", "supinf", "--config", {"tuple": [[1, 0], [0, "inf"]]}),
    ("corollary", "sets", "--config", {"ground_size": 3, "k": 2, "sets": [[0, 1], [1], [1, 2]],
                                       "weights": [[[0, 1], 1], [[1, 2], 2], [[0, 0], 1]]}),
    ("corollary", "indep", "--config", {"marginals": [[[0, "1/2"], [1, "1/2"]],
                                                      [[0, "1/3"], [2, "2/3"]]]}),
]

DELETE = object()
MUTANTS = (DELETE, None, True, -1, 0, 1, 2, 3, "1/2", "-1", "inf", "x", [], [0, 1], {},
           {"kind": "x"})


def _fields(node, path=()):
    """Paths to every field and list entry below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutated(argv, path, value):
    argv = copy.deepcopy(list(argv))
    *parents, last = path
    node = argv
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_field_mutation_exit_codes(data):
    argv = data.draw(st.sampled_from(FUZZ_SEEDS))
    paths = [(i,) + p for i, a in enumerate(argv) if isinstance(a, dict) for p in _fields(a)]
    argv = _mutated(argv, data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(MUTANTS)))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for i, a in enumerate(argv):
            if isinstance(a, dict):
                argv[i] = str(Path(tmp) / f"arg{i}.json")
                Path(argv[i]).write_text(json.dumps(a))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    result = json.loads(out.getvalue())["result"]
    violated = result.get("holds") is False and result.get("witness") is not None
    assert (code == 1) == violated
