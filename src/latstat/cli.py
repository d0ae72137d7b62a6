"""Command-line surface.

Exit codes: 0 = inequality holds / demo reproduced / all criteria pass,
1 = violated, 2 = input error, 3 = evaluation budget exceeded,
4 = internal error (any other exception, reported on one stderr line).
Reports are JSON on stdout (or --out) and are byte-deterministic for a
fixed config and seed; --timing adds a wall-clock field at the cost of
that determinism.  LATSTAT_BUDGET overrides the default evaluation budget.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .acceptance import run_all
from .constructions import (
    esym_orderstat_check,
    indep_association_check,
    perm_orderstat_check,
    power_inequality_check,
    product_measure_check,
    psi_transform_check,
    supinf_check,
)
from .correlation import (
    ExplicitSublattice,
    aharoni_keich_check,
    corollary_ahke_check,
    corollary_fkg_check,
    fkg_check,
    nonreversibility_demo,
)
from .generators import rand_fraction
from .jsonio import (
    dump_report,
    element_from_json,
    element_to_json,
    fn_elem_from_json,
    functional_from_json,
    lattice_from_json,
    load_json_file,
    make_report,
    measure_from_json,
    parse_config,
    psi_from_json,
    scalar_from_json,
    value_to_json,
    _expect_int,
    _expect_list,
    _expect_object,
)
from .lattice import (
    DEFAULT_BUDGET,
    TableLattice,
    birkhoff_embed,
    is_distributive,
    order_statistics_dual_tuple,
    order_statistics_tuple,
    validate_table_lattice,
)
from .scalars import (
    BudgetExceededError,
    ConventionMode,
    InputError,
    parse_rational,
)
from .semimod import (
    TransitiveRelation,
    check_generalized_n,
    check_generalized_nk,
    run_counterexample_m3,
)


def _default_budget() -> int:
    env = os.environ.get("LATSTAT_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise InputError(f"LATSTAT_BUDGET must be an integer, got {env!r}")
    if value < 1:
        raise InputError("LATSTAT_BUDGET must be positive")
    return value


def _require_positive(args, *flags) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise InputError(f"--{flag} must be >= 1, got {value}")


def _emit(args, command: str, config_echo: dict, result, started: float) -> None:
    timing = (time.perf_counter() - started) if getattr(args, "timing", False) else None
    report = make_report(command, config_echo, result, timing_seconds=timing)
    text = dump_report(report)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_labels(lattice, elems):
    if isinstance(lattice, TableLattice) and lattice.labels is not None:
        return [lattice.label_of(e) for e in elems]
    return None


# --- handlers (each returns the process exit code) ---

def _cmd_lattice(args) -> int:
    started = time.perf_counter()
    lattice = lattice_from_json(load_json_file(args.lattice))
    echo = {"lattice": args.lattice, "action": args.action}
    if args.action == "validate":
        if not isinstance(lattice, TableLattice):
            result = {"note": "function lattices are valid by construction",
                      "holds": True}
            _emit(args, "lattice validate", echo, result, started)
            return 0
        report = validate_table_lattice(lattice)
        _emit(args, "lattice validate", echo, report, started)
        return 0 if report.holds else 1
    if args.action == "distributive":
        report = is_distributive(lattice, budget=_default_budget())
        _emit(args, "lattice distributive", echo, report, started)
        return 0 if report.holds else 1
    if args.action == "birkhoff":
        if not isinstance(lattice, TableLattice):
            raise InputError("birkhoff embedding applies to table lattices")
        ambient, mapping, ground = birkhoff_embed(lattice)
        result = {
            "join_irreducibles": list(ground),
            "ground_size": ambient.ground.size,
            "map": {str(k): element_to_json(v) for k, v in sorted(mapping.items())},
        }
        _emit(args, "lattice birkhoff", echo, result, started)
        return 0
    raise InputError(f"unknown lattice action {args.action!r}")


def _cmd_ordstats(args) -> int:
    started = time.perf_counter()
    lattice = lattice_from_json(load_json_file(args.lattice))
    raw = load_json_file(args.tuple)
    elems = tuple(element_from_json(e, lattice, f"/{i}")
                  for i, e in enumerate(_expect_list(raw, "")))
    stats = order_statistics_tuple(lattice, elems)
    result = {"order_statistics": [element_to_json(e) for e in stats]}
    labels = _maybe_labels(lattice, stats)
    if labels is not None:
        result["order_statistics_labels"] = labels
    if args.dual:
        dual = order_statistics_dual_tuple(lattice, elems)
        result["dual_order_statistics"] = [element_to_json(e) for e in dual]
        dual_labels = _maybe_labels(lattice, dual)
        if dual_labels is not None:
            result["dual_order_statistics_labels"] = dual_labels
    _emit(args, "ordstats", {"lattice": args.lattice, "tuple": args.tuple,
                             "dual": bool(args.dual)}, result, started)
    return 0


def _cmd_check(args) -> int:
    started = time.perf_counter()
    _require_positive(args, "trials", "jobs", "budget")
    lattice = lattice_from_json(load_json_file(args.lattice))
    functional = functional_from_json(load_json_file(args.functional), lattice)
    rel = TransitiveRelation.from_name(args.relation)
    budget = args.budget if args.budget is not None else _default_budget()
    kwargs = dict(mode=args.mode, seed=args.seed, trials=args.trials,
                  budget=budget, jobs=args.jobs)
    if args.k == "n":
        report = check_generalized_n(lattice, functional, rel, **kwargs)
        k_echo = "n"
    else:
        try:
            k = int(args.k)
        except ValueError:
            raise InputError(f"--k must be an integer or 'n', got {args.k!r}")
        report = check_generalized_nk(lattice, functional, k, rel, **kwargs)
        k_echo = k
    result = value_to_json(report)
    if report.witness is not None:
        labels = _maybe_labels(lattice, report.witness.args)
        if labels is not None:
            result["witness_labels"] = labels
    # jobs is accepted but does not change execution; it stays out of the
    # echo so reports are byte-identical across worker counts
    echo = {"lattice": args.lattice, "functional": args.functional,
            "relation": args.relation, "k": k_echo, "mode": args.mode,
            "seed": args.seed, "trials": args.trials, "budget": budget}
    _emit(args, "check", echo, result, started)
    return 0 if report.holds else 1


def _cmd_demo(args) -> int:
    started = time.perf_counter()
    if args.which == "m3":
        demo = run_counterexample_m3()
        _emit(args, "demo m3", {"demo": "m3"}, demo, started)
        return 0 if demo["expected_violation_reproduced"] else 1
    if args.which == "nonrev":
        demo = nonreversibility_demo(args.N, parse_rational(args.delta),
                                     parse_rational(args.eps), args.r)
        echo = {"demo": "nonrev", "N": args.N, "delta": args.delta,
                "eps": args.eps, "r": args.r}
        _emit(args, "demo nonrev", echo, demo, started)
        return 0 if demo["sizes_are_n_squared"] else 1
    raise InputError(f"unknown demo {args.which!r}")


def _tuple_from_config(cfg, key, width, ptr):
    raw = _expect_list(cfg[key], f"{ptr}/{key}")
    return [fn_elem_from_json(e, width, f"{ptr}/{key}/{i}") for i, e in enumerate(raw)]


def _cmd_corollary(args) -> int:
    started = time.perf_counter()
    name = args.which
    if name == "perm":
        cfg = parse_config(args.config, (), ("matrix", "random"))
        if "matrix" in cfg:
            matrix = [[scalar_from_json(v, f"/matrix/{i}/{j}")
                       for j, v in enumerate(_expect_list(row, f"/matrix/{i}"))]
                      for i, row in enumerate(_expect_list(cfg["matrix"], "/matrix"))]
            report = perm_orderstat_check(matrix)
        elif "random" in cfg:
            spec = _expect_object(cfg["random"], "/random", ("count", "seed"),
                                  ("max_rows", "max_cols"))
            import random as _random
            rng = _random.Random(_expect_int(spec["seed"], "/random/seed"))
            count = _expect_int(spec["count"], "/random/count", 1)
            max_rows = _expect_int(spec.get("max_rows", 5), "/random/max_rows", 1)
            max_cols = _expect_int(spec.get("max_cols", 7), "/random/max_cols", 1)
            failed = None
            for _ in range(count):
                matrix = [[rand_fraction(rng, max_num=6, max_den=4)
                           for _ in range(rng.randint(1, max_cols))]
                          for _ in range(rng.randint(1, max_rows))]
                width = max(len(r) for r in matrix)
                matrix = [r + [Fraction(0)] * (width - len(r)) for r in matrix]
                one = perm_orderstat_check(matrix)
                if not one.holds and failed is None:
                    failed = one
            report = failed if failed is not None else one
            report.detail["batch"] = count
        else:
            raise InputError("/matrix: provide 'matrix' or 'random'")
    elif name == "esym":
        cfg = parse_config(args.config, ("measure", "tuple"), ("k",))
        measure = measure_from_json(cfg["measure"], "/measure")
        fs = _tuple_from_config(cfg, "tuple", measure.size, "")
        if not fs:
            raise InputError("/tuple: must be nonempty")
        if "k" in cfg:
            report = esym_orderstat_check(measure, fs,
                                          _expect_int(cfg["k"], "/k", 1))
        else:
            report = None
            for k in range(1, len(fs) + 1):
                one = esym_orderstat_check(measure, fs, k)
                if report is None or (report.holds and not one.holds):
                    report = one
    elif name == "psi":
        cfg = parse_config(args.config, ("measure", "tuple", "psi"), ())
        measure = measure_from_json(cfg["measure"], "/measure")
        fs = _tuple_from_config(cfg, "tuple", measure.size, "")
        psi, direction = psi_from_json(cfg["psi"], "/psi")
        report = psi_transform_check(psi, direction, measure, fs)
    elif name == "power":
        cfg = parse_config(args.config, ("measure", "tuple", "p", "r"), ())
        measure = measure_from_json(cfg["measure"], "/measure")
        fs = _tuple_from_config(cfg, "tuple", measure.size, "")
        report = power_inequality_check(parse_rational(cfg["p"]),
                                        parse_rational(cfg["r"]), measure, fs)
    elif name == "supinf":
        cfg = parse_config(args.config, ("tuple",), ())
        raw = _expect_list(cfg["tuple"], "/tuple")
        width = None
        fs = []
        for i, e in enumerate(raw):
            elem = fn_elem_from_json(e, width, f"/tuple/{i}")
            width = len(elem)
            fs.append(elem)
        report = supinf_check(fs)
    elif name == "sets":
        cfg = parse_config(args.config, ("ground_size", "k", "weights", "sets"), ())
        ground = _expect_int(cfg["ground_size"], "/ground_size", 1)
        k = _expect_int(cfg["k"], "/k", 1)
        weights = {}
        for i, entry in enumerate(_expect_list(cfg["weights"], "/weights")):
            entry = _expect_list(entry, f"/weights/{i}")
            if len(entry) != 2:
                raise InputError(f"/weights/{i}: expected [[points...], weight]")
            key = tuple(_expect_int(s, f"/weights/{i}/0/{j}", 0)
                        for j, s in enumerate(_expect_list(entry[0], f"/weights/{i}/0")))
            weights[key] = scalar_from_json(entry[1], f"/weights/{i}/1")
        sets = [frozenset(_expect_int(s, f"/sets/{i}/{j}", 0)
                          for j, s in enumerate(_expect_list(A, f"/sets/{i}")))
                for i, A in enumerate(_expect_list(cfg["sets"], "/sets"))]
        report = product_measure_check(weights, sets, k, ground)
    elif name == "indep":
        cfg = parse_config(args.config, ("marginals",), ())
        marginals = []
        for i, marg in enumerate(_expect_list(cfg["marginals"], "/marginals")):
            pts = []
            for j, pair in enumerate(_expect_list(marg, f"/marginals/{i}")):
                pair = _expect_list(pair, f"/marginals/{i}/{j}")
                if len(pair) != 2:
                    raise InputError(f"/marginals/{i}/{j}: expected [value, prob]")
                pts.append((scalar_from_json(pair[0], f"/marginals/{i}/{j}/0"),
                            scalar_from_json(pair[1], f"/marginals/{i}/{j}/1")))
            marginals.append(pts)
        report = indep_association_check(marginals)
    else:
        raise InputError(f"unknown corollary {name!r}")
    _emit(args, f"corollary {name}", {"config": args.config}, report, started)
    return 0 if report.holds else 1


def _cmd_construct(args) -> int:
    started = time.perf_counter()
    params = load_json_file(args.params)
    if not isinstance(params, dict):
        raise InputError("/: expected a params object")
    lattice_spec = params.get("lattice")
    if lattice_spec is None:
        raise InputError("/lattice: construction params must embed the carrier lattice")
    lattice = lattice_from_json(lattice_spec, "/lattice")
    descriptor = dict(params)
    descriptor["family"] = args.family
    functional_from_json(descriptor, lattice)  # validates every invariant
    text = dump_report(make_report("construct", {"params": args.params},
                                   {"functional": descriptor, "verified": True}))
    if args.emit:
        import json as _json
        with open(args.emit, "w", encoding="utf-8") as fh:
            _json.dump(descriptor, fh, sort_keys=True, indent=2)
            fh.write("\n")
    sys.stdout.write(text)
    return 0


def _func_from_json(obj, width, ptr):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "linear":
        _expect_object(obj, ptr, ("kind", "coeffs"), ("const",))
        coeffs = [scalar_from_json(v, f"{ptr}/coeffs/{i}")
                  for i, v in enumerate(_expect_list(obj["coeffs"], f"{ptr}/coeffs"))]
        if len(coeffs) != width:
            raise InputError(f"{ptr}/coeffs: expected {width} coefficients")
        const = scalar_from_json(obj.get("const", 0), f"{ptr}/const")
        return lambda h: sum((c * v for c, v in zip(coeffs, h)), const)
    if kind == "table":
        _expect_object(obj, ptr, ("kind", "values"), ())
        table = {}
        for i, entry in enumerate(_expect_list(obj["values"], f"{ptr}/values")):
            entry = _expect_list(entry, f"{ptr}/values/{i}")
            if len(entry) != 2:
                raise InputError(f"{ptr}/values/{i}: expected [element, value]")
            table[fn_elem_from_json(entry[0], width, f"{ptr}/values/{i}/0")] = \
                scalar_from_json(entry[1], f"{ptr}/values/{i}/1")

        def func(h, _t=table):
            if tuple(h) not in _t:
                raise InputError(f"function table has no value at {h}")
            return _t[tuple(h)]

        return func
    raise InputError(f"{ptr}/kind: unknown function kind {kind!r}")


def _families_from_config(cfg, ptr):
    fams = []
    width = None
    for i, fam in enumerate(_expect_list(cfg["families"], f"{ptr}/families")):
        elems = []
        for j, e in enumerate(_expect_list(fam, f"{ptr}/families/{i}")):
            elem = fn_elem_from_json(e, width, f"{ptr}/families/{i}/{j}")
            width = len(elem)
            elems.append(elem)
        fams.append(elems)
    return fams, width


def _cmd_fkg(args) -> int:
    started = time.perf_counter()
    cfg = parse_config(args.config, ("elements", "F", "G", "weight"), ())
    width = None
    elems = []
    for i, e in enumerate(_expect_list(cfg["elements"], "/elements")):
        elem = fn_elem_from_json(e, width, f"/elements/{i}")
        width = len(elem)
        elems.append(elem)
    sub = ExplicitSublattice(elems)
    F = _func_from_json(cfg["F"], sub.width, "/F")
    G = _func_from_json(cfg["G"], sub.width, "/G")
    weight = _expect_object(cfg["weight"], "/weight", ("kind",),
                            ("measure", "r", "values", "mode"))
    kind = weight["kind"]
    if kind == "power":
        measure = measure_from_json(weight["measure"], "/weight/measure",
                                    width=sub.width)
        report = corollary_fkg_check(sub, F, G, measure=measure,
                                     r=_expect_int(weight["r"], "/weight/r"))
    elif kind == "inf":
        report = corollary_fkg_check(sub, F, G, use_inf=True)
    elif kind == "table":
        nu = _func_from_json({"kind": "table", "values": weight["values"]},
                             sub.width, "/weight")
        mode = ConventionMode.from_name(weight["mode"]) if "mode" in weight else None
        report = fkg_check(sub, nu, F, G, mode)
    else:
        raise InputError(f"/weight/kind: unknown weight kind {kind!r}")
    _emit(args, "fkg", {"config": args.config}, report, started)
    return 0 if report.holds else 1


def _cmd_ahke(args) -> int:
    started = time.perf_counter()
    cfg = parse_config(args.config, ("families",), ("weight", "alphas", "betas"))
    fams, width = _families_from_config(cfg, "")
    if "weight" in cfg:
        weight = _expect_object(cfg["weight"], "/weight", ("kind",), ("measure", "r"))
        kind = weight["kind"]
        if kind == "power":
            measure = measure_from_json(weight["measure"], "/weight/measure",
                                        width=width)
            report = corollary_ahke_check(fams, measure=measure,
                                          r=_expect_int(weight["r"], "/weight/r"))
        elif kind == "inf":
            report = corollary_ahke_check(fams, use_inf=True)
        else:
            raise InputError(f"/weight/kind: unknown weight kind {kind!r}")
    elif "alphas" in cfg and "betas" in cfg:
        alphas = [_func_from_json(a, width, f"/alphas/{i}")
                  for i, a in enumerate(_expect_list(cfg["alphas"], "/alphas"))]
        betas = [_func_from_json(b, width, f"/betas/{i}")
                 for i, b in enumerate(_expect_list(cfg["betas"], "/betas"))]
        report = aharoni_keich_check(alphas, betas, fams,
                                     mode=ConventionMode.ZERO)
    else:
        raise InputError("/weight: provide 'weight' or both 'alphas' and 'betas'")
    _emit(args, "ahke", {"config": args.config}, report, started)
    return 0 if report.holds else 1


def _cmd_reproduce(args) -> int:
    _require_positive(args, "budget")
    budget = args.budget if args.budget is not None else _default_budget()
    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
    results = run_all(budget=budget, stream=sys.stdout, numbers=numbers)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latstat",
        description="Exact checks of semimodularity-type inequalities and "
                    "lattice order statistics on finite distributive lattices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock seconds (breaks byte determinism)")

    p = sub.add_parser("lattice", help="validate / test distributivity / embed (plumbing)")
    p.add_argument("action", choices=("validate", "distributive", "birkhoff"))
    p.add_argument("--lattice", required=True)
    add_io(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("ordstats", help="order statistics of a tuple (plumbing)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--dual", action="store_true")
    add_io(p)
    p.set_defaults(handler=_cmd_ordstats)

    p = sub.add_parser("check", help="generalized semimodularity check")
    p.add_argument("--lattice", required=True)
    p.add_argument("--functional", required=True)
    p.add_argument("--relation", default="ge")
    p.add_argument("--k", default="n", help="window width: an integer or 'n'")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int)
    p.add_argument("--jobs", type=int, default=1)
    add_io(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("which", choices=("m3", "nonrev"))
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--delta", default="1/1000")
    p.add_argument("--eps", default="1/10000")
    p.add_argument("--r", type=int, default=1)
    add_io(p)
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("corollary", help="inequality checkers")
    p.add_argument("which", choices=("perm", "esym", "psi", "power", "supinf",
                                     "sets", "indep"))
    p.add_argument("--config", required=True)
    add_io(p)
    p.set_defaults(handler=_cmd_corollary)

    p = sub.add_parser("construct", help="validate and emit a functional descriptor")
    p.add_argument("family", choices=("schur", "potential", "multiadd"))
    p.add_argument("--params", required=True)
    p.add_argument("--emit")
    add_io(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("fkg", help="four-sum correlation inequality")
    p.add_argument("--config", required=True)
    add_io(p)
    p.set_defaults(handler=_cmd_fkg)

    p = sub.add_parser("ahke", help="family correlation inequality")
    p.add_argument("--config", required=True)
    add_io(p)
    p.set_defaults(handler=_cmd_ahke)

    p = sub.add_parser("reproduce", help="run the acceptance suite (plumbing)")
    p.add_argument("--budget", type=int)
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: never exit 1 without a witness
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
