"""JSON codecs for lattices, functionals, measures, configs, and reports.

Rationals travel as {"num": p, "den": q} (or bare integers), infinity as
"inf"; floats never appear in exact payloads.  Validation errors carry a
JSON-pointer-style path to the offending field and map to CLI exit code 2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import SCHEMA_VERSION, __version__
from .constructions import (
    Measure,
    integral_of_product,
    potential_construct,
    product_of_integrals,
    relation_image_measure,
    schur_construct,
    multiadd_symmetric_sum,
    tensor_multiadditive,
    verify_multiadditive,
    PotentialSpec,
    SchurSpec,
    SetRelation,
)
from .lattice import FnLattice, TableLattice, lattice_from_order
from .report import CheckReport, Witness
from .scalars import (
    INF,
    InputError,
    as_scalar,
    is_inf,
    scalar_from_json,
    scalar_to_json,
)
from .semimod import TupleFunctional, scalar_quadratic


# --- validation helpers ---

def _expect_object(obj, ptr: str, required: tuple, optional: tuple = ()) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{ptr or '/'}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise InputError(f"{ptr}/{key}: unknown field")
    for key in required:
        if key not in obj:
            raise InputError(f"{ptr}/{key}: missing required field")
    return obj


def _expect_int(v, ptr: str, minimum: Optional[int] = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"{ptr}: expected an integer")
    if minimum is not None and v < minimum:
        raise InputError(f"{ptr}: must be >= {minimum}")
    return v


def _expect_list(v, ptr: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{ptr}: expected a list")
    return v


def _rational_key(text, ptr: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{ptr}: not a rational literal")


# --- elements ---

def element_from_json(obj, lattice, ptr: str = ""):
    """Table elements are integer ids; function elements are scalar arrays."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        if not lattice.contains(obj):
            raise InputError(f"{ptr}: id {obj} is not in the lattice")
        return obj
    if isinstance(obj, list):
        elem = tuple(scalar_from_json(v, f"{ptr}/{i}") for i, v in enumerate(obj))
        if not lattice.contains(elem):
            raise InputError(f"{ptr}: element {elem} is not in the lattice")
        return elem
    raise InputError(f"{ptr}: expected an element id or a scalar array")


def element_to_json(e):
    if isinstance(e, tuple):
        return [scalar_to_json(as_scalar(v)) for v in e]
    return e


def fn_elem_from_json(obj, width: Optional[int], ptr: str = "") -> tuple:
    vals = _expect_list(obj, ptr)
    elem = tuple(scalar_from_json(v, f"{ptr}/{i}") for i, v in enumerate(vals))
    if width is not None and len(elem) != width:
        raise InputError(f"{ptr}: expected {width} values, got {len(elem)}")
    return elem


# --- lattices ---

def _labels_from_json(obj, ptr: str):
    labels = obj.get("labels")
    if labels is None:
        return None
    for i, label in enumerate(_expect_list(labels, f"{ptr}/labels")):
        if isinstance(label, (list, dict)):
            raise InputError(f"{ptr}/labels/{i}: expected a scalar label, "
                             "not an array or object")
    return labels


def lattice_from_json(obj, ptr: str = ""):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{ptr}/kind: missing lattice kind")
    kind = obj["kind"]
    if kind == "table":
        _expect_object(obj, ptr, ("kind", "n", "meet", "join"), ("labels",))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        return TableLattice(n, _expect_list(obj["meet"], f"{ptr}/meet"),
                            _expect_list(obj["join"], f"{ptr}/join"),
                            labels=_labels_from_json(obj, ptr))
    if kind == "order":
        _expect_object(obj, ptr, ("kind", "n", "leq_pairs"), ("labels",))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        return lattice_from_order(n, _expect_list(obj["leq_pairs"], f"{ptr}/leq_pairs"),
                                  labels=_labels_from_json(obj, ptr))
    if kind == "fn":
        _expect_object(obj, ptr, ("kind", "ground_size", "chain_max"),
                       ("chain_min", "max_ground", "max_chain"))
        size = _expect_int(obj["ground_size"], f"{ptr}/ground_size", 1)
        top = _expect_int(obj["chain_max"], f"{ptr}/chain_max")
        lo = _expect_int(obj.get("chain_min", 0), f"{ptr}/chain_min")
        if lo > top:
            raise InputError(f"{ptr}/chain_min: exceeds chain_max")
        kw = {}
        if "max_ground" in obj:
            kw["max_ground"] = _expect_int(obj["max_ground"], f"{ptr}/max_ground", 1)
        if "max_chain" in obj:
            kw["max_chain"] = _expect_int(obj["max_chain"], f"{ptr}/max_chain", 1)
        return FnLattice(size, [Fraction(v) for v in range(lo, top + 1)], **kw)
    raise InputError(f"{ptr}/kind: unknown lattice kind {kind!r}")


# --- measures ---

def measure_from_json(obj, ptr: str = "", width: Optional[int] = None) -> Measure:
    if isinstance(obj, list):
        weights = tuple(scalar_from_json(v, f"{ptr}/{i}") for i, v in enumerate(obj))
        prob = False
    else:
        _expect_object(obj, ptr, ("weights",), ("probability",))
        raw = _expect_list(obj["weights"], f"{ptr}/weights")
        weights = tuple(scalar_from_json(v, f"{ptr}/weights/{i}")
                        for i, v in enumerate(raw))
        prob = bool(obj.get("probability", False))
    if width is not None and len(weights) != width:
        raise InputError(f"{ptr}: expected {width} weights, got {len(weights)}")
    return Measure(weights, probability=prob)


# --- functionals ---

def _schur_lam_from_json(obj, lattice, ptr: str):
    kind = obj.get("kind")
    if kind == "modular":
        _expect_object(obj, ptr, ("kind", "point_weights"))
        ws = [scalar_from_json(v, f"{ptr}/point_weights/{i}")
              for i, v in enumerate(_expect_list(obj["point_weights"], f"{ptr}/point_weights"))]
        return (lambda f: sum((w * v for w, v in zip(ws, f)), Fraction(0)),
                "modular")
    if kind == "capped_modular":
        _expect_object(obj, ptr, ("kind", "point_weights", "cap"))
        ws = [scalar_from_json(v, f"{ptr}/point_weights/{i}")
              for i, v in enumerate(_expect_list(obj["point_weights"], f"{ptr}/point_weights"))]
        cap = scalar_from_json(obj["cap"], f"{ptr}/cap")
        return (lambda f: min(cap, sum((w * v for w, v in zip(ws, f)), Fraction(0))),
                "capped_modular")
    if kind == "max_value":
        _expect_object(obj, ptr, ("kind",), ("shift",))
        shift = scalar_from_json(obj.get("shift", 0), f"{ptr}/shift")
        return (lambda f: max(f) + shift, "max_value")
    if kind == "relation_image":
        _expect_object(obj, ptr, ("kind", "pairs", "target_weights"))
        raw_pairs = _expect_list(obj["pairs"], f"{ptr}/pairs")
        tw = [scalar_from_json(v, f"{ptr}/target_weights/{i}")
              for i, v in enumerate(_expect_list(obj["target_weights"], f"{ptr}/target_weights"))]
        pairs = []
        for i, pr in enumerate(raw_pairs):
            pr = _expect_list(pr, f"{ptr}/pairs/{i}")
            if len(pr) != 2:
                raise InputError(f"{ptr}/pairs/{i}: expected [source, target]")
            pairs.append((_expect_int(pr[0], f"{ptr}/pairs/{i}/0", 0),
                          _expect_int(pr[1], f"{ptr}/pairs/{i}/1", 0)))
        width = lattice.ground.size
        target = max((t for _, t in pairs), default=-1) + 1
        target = max(target, len(tw))
        rel = SetRelation(frozenset(pairs), width, target)
        if len(tw) < target:
            raise InputError(f"{ptr}/target_weights: need {target} weights")
        return relation_image_measure(rel, tw), "relation_image"
    raise InputError(f"{ptr}/kind: unknown one-argument map kind {kind!r}")


def _schur_combiner_from_json(obj, ptr: str):
    kind = obj.get("kind")
    if kind == "min":
        return (lambda xs: min(xs)), "min"
    if kind == "sum":
        return (lambda xs: sum(xs, Fraction(0))), "sum"
    if kind == "sum_smallest":
        _expect_object(obj, ptr, ("kind", "k"))
        k = _expect_int(obj["k"], f"{ptr}/k", 1)
        return (lambda xs: sum(sorted(xs)[:k], Fraction(0))), f"sum_smallest({k})"
    raise InputError(f"{ptr}/kind: unknown combiner kind {kind!r}")


def psi_from_json(obj, ptr: str = ""):
    """Monotone transform registry: returns (callable, direction)."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "identity":
        return (lambda x: x), "nondecreasing"
    if kind == "power":
        _expect_object(obj, ptr, ("kind", "t"))
        t = _expect_int(obj["t"], f"{ptr}/t", 1)

        def psi(x, _t=t):
            return INF if is_inf(x) else x ** _t

        return psi, "nondecreasing"
    if kind == "one_over_one_plus":
        def psi(x):
            return Fraction(0) if is_inf(x) else Fraction(1) / (1 + x)

        return psi, "nonincreasing"
    if kind == "table":
        _expect_object(obj, ptr, ("kind", "points", "direction"))
        table = {}
        for i, pair in enumerate(_expect_list(obj["points"], f"{ptr}/points")):
            pair = _expect_list(pair, f"{ptr}/points/{i}")
            if len(pair) != 2:
                raise InputError(f"{ptr}/points/{i}: expected [x, y]")
            table[scalar_from_json(pair[0], f"{ptr}/points/{i}/0")] = \
                scalar_from_json(pair[1], f"{ptr}/points/{i}/1")
        direction = obj["direction"]
        if direction not in ("nondecreasing", "nonincreasing"):
            raise InputError(f"{ptr}/direction: must be nondecreasing or nonincreasing")

        def psi(x, _t=table):
            if x not in _t:
                raise InputError(f"transform has no tabulated value at {x}")
            return _t[x]

        return psi, direction
    raise InputError(f"{ptr}/kind: unknown transform kind {kind!r}")


def _potential_phi_from_json(obj, ptr: str):
    kind = obj.get("kind")
    if kind == "relu":
        _expect_object(obj, ptr, ("kind",), ("scale", "shift"))
        scale = scalar_from_json(obj.get("scale", 1), f"{ptr}/scale")
        shift = scalar_from_json(obj.get("shift", 0), f"{ptr}/shift")
        return (lambda u: max(scale * (u - shift), Fraction(0))), "relu"
    if kind == "step":
        _expect_object(obj, ptr, ("kind",), ("shift",))
        shift = scalar_from_json(obj.get("shift", 0), f"{ptr}/shift")
        return (lambda u: Fraction(1) if u > shift else Fraction(0)), "step"
    raise InputError(f"{ptr}/kind: unknown inner map kind {kind!r}")


def _potential_psi_from_json(obj, ptr: str):
    _expect_object(obj, ptr, ("kind", "pieces"), ())
    kind = obj.get("kind")
    if kind not in ("min_affine", "max_affine"):
        raise InputError(f"{ptr}/kind: expected min_affine or max_affine")
    pieces = []
    for i, pair in enumerate(_expect_list(obj["pieces"], f"{ptr}/pieces")):
        pair = _expect_list(pair, f"{ptr}/pieces/{i}")
        if len(pair) != 2:
            raise InputError(f"{ptr}/pieces/{i}: expected [slope, intercept]")
        pieces.append((scalar_from_json(pair[0], f"{ptr}/pieces/{i}/0"),
                       scalar_from_json(pair[1], f"{ptr}/pieces/{i}/1")))
    if not pieces:
        raise InputError(f"{ptr}/pieces: must be nonempty")
    if kind == "min_affine":
        return (lambda u: min(a * u + b for a, b in pieces)), "concave"
    return (lambda u: max(a * u + b for a, b in pieces)), "convex"


def functional_from_json(obj, lattice, ptr: str = "") -> TupleFunctional:
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError(f"{ptr}/family: missing functional family")
    family = obj["family"]
    if family == "quadratic":
        _expect_object(obj, ptr, ("family", "coeffs"), ("n", "lattice"))
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, dict) or not coeffs:
            raise InputError(f"{ptr}/coeffs: expected a nonempty object")
        terms = []
        max_idx = 0
        for key, idx in coeffs.items():
            c = _rational_key(key, f"{ptr}/coeffs/{key}")
            idx = _expect_list(idx, f"{ptr}/coeffs/{key}")
            if len(idx) != 2:
                raise InputError(f"{ptr}/coeffs/{key}: expected an index pair")
            i = _expect_int(idx[0], f"{ptr}/coeffs/{key}/0", 1)
            j = _expect_int(idx[1], f"{ptr}/coeffs/{key}/1", 1)
            terms.append((c, i, j))
            max_idx = max(max_idx, i, j)
        n = _expect_int(obj.get("n", max_idx), f"{ptr}/n", 1)
        return scalar_quadratic(lattice, terms, n)
    if family == "schur":
        _expect_object(obj, ptr, ("family", "n", "lambda", "F"), ("lattice", "seed"))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        lam, lam_name = _schur_lam_from_json(obj["lambda"], lattice, f"{ptr}/lambda")
        combiner, comb_name = _schur_combiner_from_json(obj["F"], f"{ptr}/F")
        spec = SchurSpec(lattice, lam, combiner, lam_name=lam_name,
                         combiner_name=comb_name)
        return schur_construct(spec, n, seed=int(obj.get("seed", 0)))
    if family == "potential":
        _expect_object(obj, ptr, ("family", "n", "phi", "psi", "measure"),
                       ("lattice", "sign_mode"))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        if not isinstance(lattice, FnLattice):
            raise InputError(f"{ptr}: potential functionals need a function lattice")
        measure = measure_from_json(obj["measure"], f"{ptr}/measure",
                                    width=lattice.ground.size)
        phi, phi_name = _potential_phi_from_json(obj["phi"], f"{ptr}/phi")
        psi, curvature = _potential_psi_from_json(obj["psi"], f"{ptr}/psi")
        spec = PotentialSpec(carrier=lattice, measure=measure, phi=phi, psi=psi,
                             curvature=curvature, phi_name=phi_name,
                             psi_name=obj["psi"]["kind"],
                             sign_mode=obj.get("sign_mode", ""))
        return potential_construct(spec, n)
    if family == "multiadd":
        _expect_object(obj, ptr, ("family", "n", "k", "m"), ("lattice", "seed"))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        k = _expect_int(obj["k"], f"{ptr}/k", 1)
        if not isinstance(lattice, FnLattice):
            raise InputError(f"{ptr}: multiadditive functionals need a function lattice")
        m = _multiadditive_from_json(obj["m"], k, lattice, f"{ptr}/m")
        verify_multiadditive(m, lattice, seed=int(obj.get("seed", 0)))
        return multiadd_symmetric_sum(m, n, lattice)
    raise InputError(f"{ptr}/family: unknown family {family!r}")


def _multiadditive_from_json(obj, k: int, lattice: FnLattice, ptr: str):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    width = lattice.ground.size
    if kind == "prod_integrals":
        _expect_object(obj, ptr, ("kind", "measures"))
        raw = _expect_list(obj["measures"], f"{ptr}/measures")
        if len(raw) != k:
            raise InputError(f"{ptr}/measures: expected {k} measures")
        return product_of_integrals(
            [measure_from_json(m, f"{ptr}/measures/{i}", width=width)
             for i, m in enumerate(raw)])
    if kind == "integral_of_product":
        _expect_object(obj, ptr, ("kind", "weights"))
        return integral_of_product(
            measure_from_json(obj["weights"], f"{ptr}/weights", width=width), k)
    if kind == "tensor":
        _expect_object(obj, ptr, ("kind", "weights"))
        weights = {}
        for i, entry in enumerate(_expect_list(obj["weights"], f"{ptr}/weights")):
            entry = _expect_list(entry, f"{ptr}/weights/{i}")
            if len(entry) != 2:
                raise InputError(f"{ptr}/weights/{i}: expected [[points...], weight]")
            key = tuple(_expect_int(s, f"{ptr}/weights/{i}/0/{j}", 0)
                        for j, s in enumerate(_expect_list(entry[0], f"{ptr}/weights/{i}/0")))
            weights[key] = scalar_from_json(entry[1], f"{ptr}/weights/{i}/1")
        return tensor_multiadditive(weights, k, width)
    raise InputError(f"{ptr}/kind: unknown multiadditive kind {kind!r}")


# --- report serialization ---

def value_to_json(v):
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, Fraction) or is_inf(v):
        return scalar_to_json(v)
    if isinstance(v, Witness):
        return {
            "args": [value_to_json(a) for a in v.args],
            "lhs": value_to_json(v.lhs),
            "rhs": value_to_json(v.rhs),
            "note": v.note,
        }
    if isinstance(v, CheckReport):
        return {
            "holds": v.holds,
            "instances_checked": v.instances_checked,
            "witness": value_to_json(v.witness),
            "mode": v.mode,
            "seed": v.seed,
            "detail": value_to_json(v.detail),
        }
    if isinstance(v, dict):
        return {str(k): value_to_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = sorted(v) if isinstance(v, (set, frozenset)) else v
        return [value_to_json(x) for x in items]
    raise InputError(f"cannot serialize {type(v).__name__}")


def make_report(command: str, config_echo: dict, result, *,
                timing_seconds: Optional[float] = None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "command": command,
        "config": value_to_json(config_echo),
        "result": value_to_json(result),
    }
    if timing_seconds is not None:
        out["timing_seconds"] = timing_seconds
    return out


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def parse_config(path: str, required: tuple = (), optional: tuple = ()) -> dict:
    """Load a config file and validate its field names against the schema of
    the command consuming it."""
    obj = load_json_file(path)
    if required or optional:
        _expect_object(obj, "", required, optional)
    elif not isinstance(obj, dict):
        raise InputError("/: expected a config object")
    return obj
