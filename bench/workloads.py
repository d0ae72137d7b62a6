"""The benchmark's workloads: seeded inputs, the operations that are timed,
and the output checks that run (untimed) after each operation.

Every operation is one closed-loop call by a single client; the only
parallel work is the one `--jobs 2` scan command.  Inputs come from the
seed, but their sizes do not, so run-to-run cost differences come from the
program rather than from the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from latstat import acceptance, cli, constructions, correlation, jsonio, lattice, semimod
from latstat.constructions import Measure
from latstat.correlation import ExplicitSublattice
from latstat.lattice import FnLattice, build_m3, product_of_chains
from latstat.scalars import INF, scalar_from_json
from latstat.semimod import TransitiveRelation

SIZES = {
    "full": {"ground": 2, "top": 1, "arity": 5, "wide_ground": 3, "wide_arity": 4,
             "m3_arity": 5, "small_scans": 4,
             "ord_arities": range(3, 10), "perm_sizes": range(4, 9),
             "criteria": range(1, 12)},
    "tiny": {"ground": 1, "top": 2, "arity": 3, "wide_ground": 1, "wide_arity": 4,
             "m3_arity": 4, "small_scans": 1,
             "ord_arities": range(3, 6), "perm_sizes": range(4, 6),
             "criteria": (1, 2, 10)},
}

M3_ORDER = {"kind": "order", "n": 5,
            "leq_pairs": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4], [0, 4]],
            "labels": [1, 2, 3, 4, 5]}


@dataclass
class Op:
    """One timed call.  `check` gets the call's outcome and the latest
    outcome of every operation run so far, and returns a list of problems;
    `digest` gives the bytes whose SHA-256 is recorded."""

    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    work: int = 1
    digest: Optional[Callable[[object], bytes]] = None
    parallel: bool = False  # uses more than one worker


@dataclass
class Workload:
    name: str
    build: Callable[[int, str, Path], list]
    seconds_metrics: dict  # metric name -> group whose operation times are summed
    rate_metrics: dict     # metric name -> group whose work per second is reported


# --- reproduce ---

def _line_without_seconds(result) -> bytes:
    return re.sub(r"\]\s+\d+\.\d+s ", "] ", result.line()).encode()


def _criterion_passed(result, _seen) -> list:
    return [] if result.passed else [result.line()]


def build_reproduce(seed: int, size: str, workdir: Path) -> list:
    # The acceptance suite fixes its own seeds, so --seed does not reach
    # this workload; it runs each criterion exactly as `latstat reproduce`.
    groups = {3: "crit03", 4: "crit04", 11: "crit11"}
    return [Op(name=f"crit{num:02d}", group=groups.get(num, "other"),
               run=lambda num=num: acceptance.run_criterion(num),
               check=_criterion_passed, digest=_line_without_seconds)
            for num in SIZES[size]["criteria"]]


# --- scan ---

def scan_specs(rng: random.Random, size: str) -> dict:
    """Seeded lattice and functional JSON for the scan commands.  The seed
    picks parameters inside families whose verdicts are known: verified
    Schur, multiadditive and potential functionals hold on distributive
    carriers, and a positive multiple of the diamond quadratic on the first
    three of its arguments holds on every pair window of M3 but fails the
    full check (at labels (2,3,4,5,...), 148 against 160 times the scale)."""
    p = SIZES[size]
    n = p["arity"]
    width = p["ground"]
    weights = [rng.randint(1, 4) for _ in range(width)]
    slopes = rng.sample(range(1, 6), 2)
    curvature = rng.choice(("min_affine", "max_affine"))
    scale = rng.randint(1, 7)
    schur = {"family": "schur", "n": n, "seed": rng.randrange(2 ** 30),
             "lambda": {"kind": "capped_modular", "point_weights": weights,
                        "cap": rng.randint(2, 8)},
             "F": {"kind": "sum_smallest", "k": 2}}
    wide_weights = weights + [rng.randint(1, 4) for _ in range(p["wide_ground"] - width)]
    return {
        "fn": {"kind": "fn", "ground_size": width, "chain_max": p["top"]},
        "wide": {"kind": "fn", "ground_size": p["wide_ground"], "chain_max": p["top"]},
        "m3": M3_ORDER,
        "schur": schur,
        "schur_wide": dict(schur, n=p["wide_arity"],
                           **{"lambda": dict(schur["lambda"], point_weights=wide_weights)}),
        "multiadd": {"family": "multiadd", "n": n, "k": 2, "seed": rng.randrange(2 ** 30),
                     "m": {"kind": "integral_of_product",
                           "weights": [rng.randint(1, 4) for _ in range(width)]}},
        "potential": {"family": "potential", "n": n,
                      "measure": [rng.randint(1, 3) for _ in range(width)],
                      "phi": {"kind": "relu", "scale": rng.randint(1, 3),
                              "shift": rng.randint(-1, 1)},
                      "psi": {"kind": curvature,
                              "pieces": [[s, rng.randint(-2, 2)] for s in slopes]}},
        "quadratic": {"family": "quadratic", "n": p["m3_arity"],
                      "coeffs": {str(12 * scale): [1, 2], str(3 * scale): [2, 3],
                                 str(5 * scale): [1, 3]}},
    }


def _relation(specs: dict, family: str) -> str:
    """The relation each family is built to satisfy between its value on a
    tuple and on the tuple's order statistics: `le` for a potential with a
    convex outer map, `ge` otherwise."""
    if family == "potential" and specs["potential"]["psi"]["kind"] == "max_affine":
        return "le"
    return "ge"


def _small_scans_hold(outcomes, _seen) -> list:
    problems = []
    for pair, full, instances in outcomes:
        problems += [f"violated: {r.witness}" for r in (pair, full) if not r.holds]
        if (pair.instances_checked, full.instances_checked) != instances:
            problems.append(f"instances {pair.instances_checked}, {full.instances_checked} "
                            f"!= {instances}")
    return problems


def _run_cli(argv: list, cwd: Path):
    """Run one CLI command from `cwd` on bare file names, so that the names
    its report echoes, and so its bytes, do not depend on where the
    benchmark runs."""
    buf = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return code, buf.getvalue()


def _verify_witness(result: dict, carrier, functional, relation: str, k) -> list:
    """Re-derive a reported violation through the slow public path: the
    subset-formula order statistics and the functional's own value."""
    w = result["witness"]
    args = tuple(jsonio.element_from_json(e, carrier) for e in w["args"])
    if k == "n":
        moved = lattice.order_statistics_tuple(carrier, args)
    else:
        j = int(w["note"].rsplit(" ", 1)[-1])
        moved = (args[:j] + lattice.order_statistics_tuple(carrier, args[j:j + k])
                 + args[j + k:])
    lhs, rhs = functional.fn(args), functional.fn(moved)
    problems = []
    if lhs != scalar_from_json(w["lhs"]) or rhs != scalar_from_json(w["rhs"]):
        problems.append(f"witness values {w['lhs']}, {w['rhs']} != recomputed {lhs}, {rhs}")
    if TransitiveRelation.from_name(relation).holds(lhs, rhs):
        problems.append(f"witness {w['args']} does not violate the relation")
    return problems


def build_scan(seed: int, size: str, workdir: Path) -> list:
    rng = random.Random(seed)
    specs = scan_specs(rng, size)
    paths = {}
    for key, spec in specs.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(spec))
    carriers = {key: jsonio.lattice_from_json(specs[key]) for key in ("fn", "wide", "m3")}
    # (op name, group, carrier, functional, --k, --jobs, expected verdict)
    commands = []
    for fam in ("schur", "multiadd", "potential"):
        commands.append((f"{fam}_kn", "kn", "fn", fam, "n", 1, True))
        commands.append((f"{fam}_k2", "k2", "fn", fam, 2, 1, True))
    # 4,096 tuples: the smallest scan that the thread pool partitions
    commands.append(("schur_wide_kn", "kn", "wide", "schur_wide", "n", 1, True))
    commands.append(("schur_wide_kn_jobs2", "jobs2", "wide", "schur_wide", "n", 2, True))
    commands.append(("m3_kn", "nondist", "m3", "quadratic", "n", 1, False))
    commands.append(("m3_k2", "nondist", "m3", "quadratic", 2, 1, True))

    ops = []
    for name, group, ckey, fam, k, jobs, expect in commands:
        carrier = carriers[ckey]
        functional = jsonio.functional_from_json(specs[fam], carrier)
        arity = functional.arity
        windows = 1 if k == "n" else arity - k + 1
        instances = windows * carrier.size ** arity
        relation = _relation(specs, fam)
        argv = ["check", "--lattice", paths[ckey].name, "--functional", paths[fam].name,
                "--relation", relation, "--k", str(k), "--jobs", str(jobs)]

        def check(outcome, seen, *, name=name, carrier=carrier, functional=functional,
                  relation=relation, fam=fam, k=k, jobs=jobs, expect=expect,
                  instances=instances, distributive=ckey != "m3"):
            code, text = outcome
            result = json.loads(text)["result"]
            problems = []
            if code != (0 if expect else 1) or result["holds"] is not expect:
                problems.append(f"exit {code}, holds {result['holds']}; expected holds {expect}")
            if result["instances_checked"] != instances:
                problems.append(f"instances_checked {result['instances_checked']} != {instances}")
            if result["witness"] is not None:
                problems += _verify_witness(result, carrier, functional, relation, k)
            if name.endswith("_k2") and distributive and result["holds"]:
                kn = seen.get(f"{fam}_kn")
                if kn is None or not json.loads(kn[1])["result"]["holds"]:
                    problems.append("k = 2 passed on a distributive carrier without a k = n pass")
            if jobs > 1 and seen.get(name[:-len("_jobs2")], (None, None))[1] != text:
                problems.append("--jobs 2 report differs from the --jobs 1 report")
            return problems

        ops.append(Op(name=name, group=group, run=lambda argv=argv: _run_cli(argv, workdir),
                      check=check, work=instances,
                      digest=lambda outcome: outcome[1].encode(), parallel=jobs > 1))

    # Many small scans through the library, each paying parsing, verified
    # construction and scan set-up, as the acceptance suite's reduction and
    # potential criteria do.  A compile-once change can lose here.  They are
    # one operation, so that its time is long enough to settle.
    small = [(spec["fn"], spec[fam], TransitiveRelation.from_name(_relation(spec, fam)))
             for spec in (scan_specs(rng, "tiny") for _ in range(SIZES[size]["small_scans"]))
             for fam in ("schur", "multiadd", "potential")]

    def run_small():
        outcomes = []
        for carrier_spec, spec, rel in small:
            carrier = jsonio.lattice_from_json(carrier_spec)
            lam = jsonio.functional_from_json(spec, carrier)
            tuples = carrier.size ** lam.arity
            outcomes.append((semimod.check_generalized_nk(carrier, lam, 2, rel),
                             semimod.check_generalized_n(carrier, lam, rel),
                             ((lam.arity - 1) * tuples, tuples)))
        return outcomes

    ops.append(Op("small_scans", "small", run_small, _small_scans_hold, work=len(small)))
    return ops


# --- kernels ---

def _agree(names: list):
    def check(outcome, seen):
        last = outcome.rows[-1]
        others = [seen.get(n) for n in names]
        return [] if all(o == last for o in others) else [
            f"engines disagree: chain {last} vs {dict(zip(names, others))}"]
    return check


def _holds(report, _seen) -> list:
    reports = report if isinstance(report, list) else [report]
    return [f"violated: {r.witness}" for r in reports if not r.holds]


def _no_check(_outcome, _seen) -> list:
    return []


def _rand_fn(rng, width, lo=1, hi=6, zero_prob=0.0):
    return tuple(Fraction(0) if rng.random() < zero_prob
                 else Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(width))


def kernel_inputs(rng: random.Random) -> dict:
    """Fixed-size, seeded inputs for the corollary and correlation kernels."""
    width = 3
    chain = sorted(rng.sample(range(1, 9), 3))
    grid = [(Fraction(a), Fraction(b)) for a in chain for b in chain]
    return {
        "measure": Measure(tuple(Fraction(rng.randint(1, 4)) for _ in range(width))),
        "esym_fs": [_rand_fn(rng, width, zero_prob=0.2) for _ in range(4)],
        "corner_fs": [tuple(Fraction(0) for _ in range(width)),
                      tuple(INF for _ in range(width)),
                      tuple(Fraction(0) if i % 2 else INF for i in range(width)),
                      _rand_fn(rng, width)],
        "marginals": [[(Fraction(rng.randint(0, 5)), Fraction(c, 8)),
                       (Fraction(rng.randint(0, 5)), Fraction(8 - c, 8))]
                      for c in (rng.randint(1, 7) for _ in range(3))],
        "set_weights": {(a, b): Fraction(rng.randint(1, 5)) for a in range(3) for b in range(3)},
        "sets": [frozenset(s for s in range(3) if rng.random() < 0.6) | {rng.randrange(3)}
                 for _ in range(3)],
        "sublattice": ExplicitSublattice(grid),
        "F": _linear(rng), "G": _linear(rng),
        "fkg_measure": Measure((Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4)))),
        "families": [rng.sample(grid, 2) for _ in range(3)],
    }


def _linear(rng):
    coeffs = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
    const = Fraction(rng.randint(0, 2))
    return lambda h: coeffs[0] * h[0] + coeffs[1] * h[1] + const


def build_kernels(seed: int, size: str, workdir: Path) -> list:
    rng = random.Random(seed)
    p = SIZES[size]
    fl = FnLattice.zero_to(2, 3)
    chain_sizes = [2, 2, 3]
    rng.shuffle(chain_sizes)
    tl = product_of_chains(chain_sizes)
    m3 = build_m3()
    ops = []
    for n in p["ord_arities"]:
        f = tuple(rng.choice(fl.elements()) for _ in range(n))
        t = tuple(rng.choice(tl.elements()) for _ in range(n))
        ops += [
            Op(f"subset.fn.n{n}", "ordstat",
               lambda f=f: lattice.order_statistics_tuple(fl, f), _no_check),
            Op(f"dual.fn.n{n}", "ordstat",
               lambda f=f: lattice.order_statistics_dual_tuple(fl, f), _no_check),
            Op(f"sort.fn.n{n}", "ordstat",
               lambda f=f: lattice.pointwise_order_statistics(f), _no_check),
            Op(f"chain.fn.n{n}", "chain", lambda f=f: semimod.insertion_chain(fl, f),
               _agree([f"subset.fn.n{n}", f"dual.fn.n{n}", f"sort.fn.n{n}"])),
            Op(f"subset.table.n{n}", "ordstat",
               lambda t=t: lattice.order_statistics_tuple(tl, t), _no_check),
            Op(f"dual.table.n{n}", "ordstat",
               lambda t=t: lattice.order_statistics_dual_tuple(tl, t), _no_check),
            Op(f"chain.table.n{n}", "chain", lambda t=t: semimod.insertion_chain(tl, t),
               _agree([f"subset.table.n{n}", f"dual.table.n{n}"])),
        ]

    def m3_witness(report, _seen):
        if report.holds:
            return ["M3 reported distributive"]
        a, b, c = report.witness.args
        if m3.meet(a, m3.join(b, c)) == m3.join(m3.meet(a, b), m3.meet(a, c)):
            return [f"M3 distributivity witness {report.witness.args} is not a violation"]
        return []

    def birkhoff_ok(outcome, _seen):
        ambient, mapping, ground = outcome
        problems = []
        if len(ground) != sum(s - 1 for s in chain_sizes):
            problems.append(f"{len(ground)} join-irreducibles, expected {sum(chain_sizes) - 3}")
        if any(mapping[tl.meet(a, b)] != ambient.meet(mapping[a], mapping[b])
               or mapping[tl.join(a, b)] != ambient.join(mapping[a], mapping[b])
               for a in tl.elements() for b in tl.elements()):
            problems.append("Birkhoff map is not a lattice homomorphism")
        return problems

    ops += [
        Op("distributive.table", "structure", lambda: lattice.is_distributive(tl), _holds),
        Op("distributive.m3", "structure", lambda: lattice.is_distributive(m3), m3_witness),
        Op("birkhoff.table", "structure", lambda: lattice.birkhoff_embed(tl), birkhoff_ok),
    ]
    for d in p["perm_sizes"]:
        # integer entries keep the permanent's cost independent of the seed
        matrix = [[Fraction(rng.randint(1, 9)) for _ in range(d)] for _ in range(d)]
        ops.append(Op(f"perm.d{d}", "corollary",
                      lambda m=matrix: constructions.perm_orderstat_check(m), _holds))
    k = kernel_inputs(rng)
    mu, fs, corners = k["measure"], k["esym_fs"], k["corner_fs"]
    ops += [
        Op("esym", "corollary", lambda: [constructions.esym_orderstat_check(mu, fs, j)
                                         for j in range(1, len(fs) + 1)], _holds),
        Op("power.r1", "corollary",
           lambda: constructions.power_inequality_check(2, 1, mu, corners), _holds),
        Op("power.r-1", "corollary",
           lambda: constructions.power_inequality_check(1, -1, mu, corners), _holds),
        Op("supinf", "corollary", lambda: constructions.supinf_check(corners), _holds),
        Op("indep", "corollary",
           lambda: constructions.indep_association_check(k["marginals"]), _holds),
        Op("sets", "corollary", lambda: constructions.product_measure_check(
            k["set_weights"], k["sets"], 2, 3), _holds),
        Op("fkg.power", "corollary", lambda: correlation.corollary_fkg_check(
            k["sublattice"], k["F"], k["G"], measure=k["fkg_measure"], r=-1), _holds),
        Op("fkg.inf", "corollary", lambda: correlation.corollary_fkg_check(
            k["sublattice"], k["F"], k["G"], use_inf=True), _holds),
        Op("ahke.power", "corollary", lambda: correlation.corollary_ahke_check(
            k["families"], measure=k["fkg_measure"], r=-1), _holds),
        Op("ahke.inf", "corollary",
           lambda: correlation.corollary_ahke_check(k["families"], use_inf=True), _holds),
    ]
    return ops


WORKLOADS = {
    "reproduce": Workload("reproduce", build_reproduce,
                          seconds_metrics={"crit03_s": "crit03", "crit04_s": "crit04",
                                           "crit11_s": "crit11", "crit_other_s": "other"},
                          rate_metrics={}),
    "scan": Workload("scan", build_scan, seconds_metrics={},
                     rate_metrics={"kn_tuples_per_s": "kn", "k2_tuples_per_s": "k2",
                                   "nondist_tuples_per_s": "nondist",
                                   "jobs2_tuples_per_s": "jobs2",
                                   "small_scans_per_s": "small"}),
    "kernels": Workload("kernels", build_kernels, seconds_metrics={},
                        rate_metrics={"ordstats_per_s": "ordstat", "chains_per_s": "chain",
                                      "corollary_per_s": "corollary"}),
}
