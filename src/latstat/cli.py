"""Command-line surface.  Each handler decodes its input, calls what the
decoded config selects (the config decoders in `jsonio` return the call of
their checker), and returns the command name, config echo, result and
verdict.  The parser is built once per process; `main` looks up the
handler of each call by its command name, and alone times the call, emits
the report and turns the verdict into the exit code.

Exit codes: 0 = inequality holds / demo reproduced / all criteria pass,
1 = violated, 2 = input error, 3 = evaluation budget exceeded,
4 = internal error (any other exception, reported on one stderr line).
Reports are JSON on stdout (or --out) and are byte-deterministic for a
fixed config and seed; --timing adds a wall-clock field at the cost of
that determinism.  `_budget` picks each call's evaluation budget.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache

from . import __version__
from .acceptance import CRITERIA, run_all
from .correlation import DEFAULT_FAMILY_BUDGET, nonreversibility_demo
from .jsonio import (
    ahke_config_from_json,
    construction_from_json,
    corollary_config_from_json,
    dump_report,
    element_to_json,
    elements_from_json,
    fkg_config_from_json,
    functional_from_json,
    lattice_from_json,
    load_json_file,
    make_report,
    value_to_json,
)
from .lattice import (
    DEFAULT_BUDGET,
    TableLattice,
    birkhoff_embed,
    is_distributive,
    order_statistics_dual_tuple,
    order_statistics_tuple,
    require_lattice,
    validate_table_lattice,
)
from .scalars import BudgetExceededError, InputError, charge, parse_rational
from .semimod import (
    TransitiveRelation,
    check_generalized_n,
    check_generalized_nk,
    run_counterexample_m3,
)

def _require_positive(args, *flags) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise InputError(f"--{flag} must be >= 1, got {value}")


def _budget(args, default: int = DEFAULT_BUDGET) -> int:
    """--budget where the command has it, else LATSTAT_BUDGET, else default."""
    if getattr(args, "budget", None) is not None:
        _require_positive(args, "budget")
        return args.budget
    env = os.environ.get("LATSTAT_BUDGET")
    if env is None:
        return default
    try:
        value = int(env)
    except ValueError:
        raise InputError(f"LATSTAT_BUDGET must be an integer, got {env!r}")
    if value < 1:
        raise InputError("LATSTAT_BUDGET must be positive")
    return value


def _emit(args, command: str, config_echo: dict, result, started: float) -> None:
    timing = (time.perf_counter() - started) if args.timing else None
    text = dump_report(make_report(command, config_echo, result, timing_seconds=timing))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_labels(lattice, elems):
    if isinstance(lattice, TableLattice) and lattice.labels is not None:
        return [lattice.label_of(e) for e in elems]
    return None


# --- handlers (each returns the command, config echo, result and verdict) ---

def _cmd_lattice(args):
    budget = _budget(args)
    lattice = lattice_from_json(load_json_file(args.lattice), budget=budget)
    command, echo = f"lattice {args.action}", {"lattice": args.lattice, "action": args.action}
    if args.action == "birkhoff":
        if not isinstance(lattice, TableLattice):
            raise InputError("birkhoff embedding applies to table lattices")
        ambient, mapping, ground = birkhoff_embed(lattice, budget)
        result = {
            "join_irreducibles": list(ground),
            "ground_size": ambient.ground.size,
            "map": {str(k): element_to_json(v) for k, v in sorted(mapping.items())},
        }
        return command, echo, result, True
    if args.action == "distributive":
        if lattice.certified is None:  # as in `check`: tables are validated first
            require_lattice(lattice, budget)
        report = is_distributive(lattice, budget=budget)
    elif isinstance(lattice, TableLattice):
        report = validate_table_lattice(lattice, budget)
    else:
        return command, echo, {"note": "function lattices are valid by construction",
                               "holds": True}, True
    return command, echo, report, report.holds


def _cmd_ordstats(args):
    budget = _budget(args)
    lattice = lattice_from_json(load_json_file(args.lattice), budget=budget)
    elems = elements_from_json(load_json_file(args.tuple), lattice)
    n = len(elems)  # the literal formula's joins plus meets, per formula
    charge((n * 2 ** n // 2 - n) * (1 + args.dual), budget,
           "lattice operations of the subset formula")
    rows = [("order_statistics", order_statistics_tuple(lattice, elems))]
    if args.dual:
        rows.append(("dual_order_statistics", order_statistics_dual_tuple(lattice, elems)))
    result = {}
    for key, stats in rows:
        result[key] = [element_to_json(e) for e in stats]
        labels = _maybe_labels(lattice, stats)
        if labels is not None:
            result[f"{key}_labels"] = labels
    echo = {"lattice": args.lattice, "tuple": args.tuple, "dual": bool(args.dual)}
    return "ordstats", echo, result, True


def _cmd_check(args):
    _require_positive(args, "trials", "jobs")
    budget = _budget(args)
    lattice = lattice_from_json(load_json_file(args.lattice), budget=budget)
    if lattice.certified is None:  # order and fn carriers are lattices by construction
        require_lattice(lattice, budget)
    functional = functional_from_json(load_json_file(args.functional), lattice, budget)
    rel = TransitiveRelation.from_name(args.relation)
    kwargs = dict(mode=args.mode, seed=args.seed, trials=args.trials, budget=budget)
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
    # --jobs is validated and otherwise ignored (scans run in this process);
    # it stays out of the echo, so reports are byte-identical across its values
    echo = {"lattice": args.lattice, "functional": args.functional,
            "relation": args.relation, "k": k_echo, "mode": args.mode,
            "seed": args.seed, "trials": args.trials, "budget": budget}
    return "check", echo, result, report.holds


def _cmd_demo(args):
    if args.which == "m3":
        demo = run_counterexample_m3()
        return "demo m3", {"demo": "m3"}, demo, demo["expected_violation_reproduced"]
    demo = nonreversibility_demo(args.N, parse_rational(args.delta),
                                 parse_rational(args.eps), args.r,
                                 budget=_budget(args, DEFAULT_FAMILY_BUDGET))
    echo = {"demo": "nonrev", "N": args.N, "delta": args.delta,
            "eps": args.eps, "r": args.r}
    return "demo nonrev", echo, demo, demo["sizes_are_n_squared"]


def _cmd_corollary(args):
    report = corollary_config_from_json(args.which, args.config, _budget(args))()
    return f"corollary {args.which}", {"config": args.config}, report, report.holds


def _cmd_construct(args):
    descriptor = construction_from_json(load_json_file(args.params), args.family,
                                        _budget(args))
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(dump_report(descriptor))
    return "construct", {"params": args.params}, {"functional": descriptor, "verified": True}, True


def _cmd_fkg(args):
    report = fkg_config_from_json(args.config)()
    return "fkg", {"config": args.config}, report, report.holds


def _cmd_ahke(args):
    report = ahke_config_from_json(args.config, _budget(args, DEFAULT_FAMILY_BUDGET))()
    return "ahke", {"config": args.config}, report, report.holds


def _cmd_reproduce(args):
    budget = _budget(args)
    numbers = None
    if args.criteria:
        numbers = []
        for entry in args.criteria.split(","):
            number = int(entry) if entry.strip().isdecimal() else None
            if number not in {num for num, _, _, _ in CRITERIA}:
                raise InputError(f"--criteria: {entry!r} is not a criterion number "
                                 f"1..{len(CRITERIA)}")
            numbers.append(number)
    results = run_all(budget=budget, stream=sys.stdout, numbers=numbers)
    return None, None, None, all(r.passed for r in results)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `main` finds each subcommand's
    handler, `_cmd_<command>`, by name when it runs."""
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
    p.add_argument("--budget", type=int)
    add_io(p)

    p = sub.add_parser("ordstats", help="order statistics of a tuple (plumbing)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--dual", action="store_true")
    add_io(p)

    p = sub.add_parser("check", help="generalized semimodularity check")
    p.add_argument("--lattice", required=True)
    p.add_argument("--functional", required=True)
    p.add_argument("--relation", default="ge")
    p.add_argument("--k", default="n", help="window width: an integer or 'n'")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; must be >= 1 and changes nothing")
    add_io(p)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("which", choices=("m3", "nonrev"))
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--delta", default="1/1000")
    p.add_argument("--eps", default="1/10000")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--budget", type=int)
    add_io(p)

    p = sub.add_parser("corollary", help="inequality checkers")
    p.add_argument("which", choices=("perm", "esym", "psi", "power", "supinf",
                                     "sets", "indep"))
    p.add_argument("--config", required=True)
    add_io(p)

    p = sub.add_parser("construct", help="validate and emit a functional descriptor")
    p.add_argument("family", choices=("schur", "potential", "multiadd"))
    p.add_argument("--params", required=True)
    p.add_argument("--emit")
    add_io(p)

    p = sub.add_parser("fkg", help="four-sum correlation inequality")
    p.add_argument("--config", required=True)
    add_io(p)

    p = sub.add_parser("ahke", help="family correlation inequality")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int)
    add_io(p)

    p = sub.add_parser("reproduce", help="run the acceptance suite (plumbing)")
    p.add_argument("--budget", type=int)
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        command, echo, result, holds = globals()[f"_cmd_{args.command}"](args)
        if command is not None:  # reproduce prints its own lines
            _emit(args, command, echo, result, started)
        return 0 if holds else 1
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
