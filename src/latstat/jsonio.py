"""JSON codecs for lattices, functionals, measures, configs, and reports.

Rationals travel as {"num": p, "den": q} (or bare integers), infinity as
"inf"; floats never appear in exact payloads.  Validation errors carry a
JSON-pointer-style path to the offending field and map to CLI exit code 2.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import partial
from typing import Optional

from . import SCHEMA_VERSION, __version__
from .constructions import (
    Measure,
    MultisetCombiner,
    esym_orderstat_check,
    indep_association_check,
    integral_of_product,
    perm_orderstat_batch,
    perm_orderstat_check,
    potential_construct,
    power_inequality_check,
    product_measure_check,
    product_of_integrals,
    psi_transform_check,
    relation_image_measure,
    schur_construct,
    multiadd_symmetric_sum,
    supinf_check,
    tensor_multiadditive,
    verify_multiadditive,
    PotentialSpec,
    SchurSpec,
    SetRelation,
)
from .correlation import (
    DEFAULT_FAMILY_BUDGET,
    ExplicitSublattice,
    aharoni_keich_check,
    corollary_ahke_check,
    corollary_fkg_check,
    fkg_check,
)
from .lattice import DEFAULT_BUDGET, FnLattice, TableLattice, lattice_from_order
from .report import CheckReport, Witness
from .scalars import (
    INF,
    ConventionMode,
    InputError,
    as_scalar,
    charge,
    is_inf,
    scalar_from_json,
    scalar_to_json,
)
from .semimod import TupleFunctional, scalar_quadratic


# --- shapes shared by every config ---

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


def _expect_kind(obj, ptr: str, noun: str, kinds: dict) -> str:
    """Validate an object whose "kind" field selects its schema: `kinds`
    maps each kind to its (required, optional) fields besides "kind"."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"{ptr}/kind: unknown {noun} kind {kind!r}")
    required, optional = kinds[kind]
    _expect_object(obj, ptr, ("kind",) + required, optional)
    return kind


def _expect_int(v, ptr: str, minimum: Optional[int] = None,
                maximum: Optional[int] = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"{ptr}: expected an integer")
    if minimum is not None and v < minimum:
        raise InputError(f"{ptr}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise InputError(f"{ptr}: must be <= {maximum}")
    return v


_natural = partial(_expect_int, minimum=0)
_positive = partial(_expect_int, minimum=1)


def _finite_scalar(v, ptr: str):
    x = scalar_from_json(v, ptr)
    if is_inf(x):
        raise InputError(f"{ptr}: must be finite")
    return x


def _nonneg_scalar(v, ptr: str, decode=scalar_from_json):
    x = decode(v, ptr)
    if not is_inf(x) and x < 0:
        raise InputError(f"{ptr}: must be nonnegative")
    return x


_nonneg_finite = partial(_nonneg_scalar, decode=_finite_scalar)


def _expect_list(v, ptr: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{ptr}: expected a list")
    return v


def _list_of(v, ptr: str, decode) -> list:
    """Decode each entry of a list with `decode(entry, pointer)`."""
    return [decode(x, f"{ptr}/{i}") for i, x in enumerate(_expect_list(v, ptr))]


def _pair(v, ptr: str, what: str, first, second) -> tuple:
    """Decode an [a, b] list; `what` names its entries in the error."""
    pair = _expect_list(v, ptr)
    if len(pair) != 2:
        raise InputError(f"{ptr}: expected {what}")
    return first(pair[0], f"{ptr}/0"), second(pair[1], f"{ptr}/1")


def _pairs(v, ptr: str, what: str, first, second) -> list:
    return _list_of(v, ptr, lambda x, p: _pair(x, p, what, first, second))


def _point_table(v, ptr: str, k: int, size: int) -> dict:
    """A [[points...], weight] table: k-tuples of points of a ground set of
    `size` points -> weights."""
    point = partial(_expect_int, minimum=0, maximum=size - 1)
    return dict(_pairs(v, ptr, "[[points...], weight]",
                       lambda key, p: fn_elem_from_json(key, k, p, point), _nonneg_finite))


def _rational(text, ptr: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{ptr}: not a rational literal")


def _nonzero_rational(text, ptr: str) -> Fraction:
    x = _rational(text, ptr)
    if x == 0:
        raise InputError(f"{ptr}: must be nonzero")
    return x


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


def elements_from_json(obj, lattice, ptr: str = "") -> tuple:
    return tuple(_list_of(obj, ptr, lambda e, p: element_from_json(e, lattice, p)))


def element_to_json(e):
    if isinstance(e, tuple):
        return [scalar_to_json(as_scalar(v)) for v in e]
    return e


def fn_elem_from_json(obj, width: Optional[int], ptr: str = "",
                      decode=scalar_from_json) -> tuple:
    elem = tuple(_list_of(obj, ptr, decode))
    if width is not None and len(elem) != width:
        raise InputError(f"{ptr}: expected {width} values, got {len(elem)}")
    return elem


def fn_elems_from_json(obj, ptr: str, width: Optional[int] = None,
                       decode=scalar_from_json) -> list:
    """A list of function elements that share one width: `width`, or else
    the first element's.  Elements need at least one value: the checkers
    take maxima, minima and integrals over the points."""
    elems = []
    for i, e in enumerate(_expect_list(obj, ptr)):
        elems.append(fn_elem_from_json(e, width, f"{ptr}/{i}", decode))
        width = len(elems[-1])
        if not width:
            raise InputError(f"{ptr}/{i}: expected at least one value")
    return elems


def _families_from_json(obj, ptr: str) -> tuple:
    """Lists of function elements sharing one width across all lists;
    returns (families, width), width None when every list is empty."""
    fams, width = [], None
    for i, fam in enumerate(_expect_list(obj, ptr)):
        fams.append(fn_elems_from_json(fam, f"{ptr}/{i}", width))
        if fams[-1]:
            width = len(fams[-1][0])
    return fams, width


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


def lattice_from_json(obj, ptr: str = "", budget: int = DEFAULT_BUDGET):
    """Decode a carrier.  An `order` carrier's n^3 lattice axiom triples,
    which `lattice_from_order` loops over, are charged to `budget` first."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{ptr}/kind: missing lattice kind")
    kind = _expect_kind(obj, ptr, "lattice", {
        "table": (("n", "meet", "join"), ("labels",)),
        "order": (("n", "leq_pairs"), ("labels",)),
        "fn": (("ground_size", "chain_max"), ("chain_min", "max_ground", "max_chain")),
    })
    if kind == "table":
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        return TableLattice(n, _list_of(obj["meet"], f"{ptr}/meet", _expect_list),
                            _list_of(obj["join"], f"{ptr}/join", _expect_list),
                            labels=_labels_from_json(obj, ptr))
    if kind == "order":
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        pairs = _list_of(obj["leq_pairs"], f"{ptr}/leq_pairs", _expect_list)
        labels = _labels_from_json(obj, ptr)
        charge(n ** 3, budget, "lattice axiom triples")
        return lattice_from_order(n, pairs, labels=labels)
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
    return FnLattice(size, range(lo, top + 1), **kw)


# --- measures ---

def measure_from_json(obj, ptr: str = "", width: Optional[int] = None,
                      finite: bool = False) -> Measure:
    weight = _nonneg_finite if finite else _nonneg_scalar
    if isinstance(obj, list):
        weights = _list_of(obj, ptr, weight)
        prob = False
    else:
        _expect_object(obj, ptr, ("weights",), ("probability",))
        weights = _list_of(obj["weights"], f"{ptr}/weights", weight)
        prob = obj.get("probability", False)
        if not isinstance(prob, bool):
            raise InputError(f"{ptr}/probability: expected a boolean")
    if width is not None and len(weights) != width:
        raise InputError(f"{ptr}: expected {width} weights, got {len(weights)}")
    return Measure(tuple(weights), probability=prob)


# --- functionals ---

def _schur_lam_from_json(obj, lattice, ptr: str):
    kind = _expect_kind(obj, ptr, "one-argument map", {
        "modular": (("point_weights",), ()),
        "capped_modular": (("point_weights", "cap"), ()),
        "max_value": ((), ("shift",)),
        "relation_image": (("pairs", "target_weights"), ()),
    })
    if kind == "modular":
        ws = _list_of(obj["point_weights"], f"{ptr}/point_weights", _finite_scalar)
        return (lambda f: sum((w * v for w, v in zip(ws, f)), Fraction(0)),
                "modular")
    if kind == "capped_modular":
        ws = _list_of(obj["point_weights"], f"{ptr}/point_weights", _finite_scalar)
        cap = scalar_from_json(obj["cap"], f"{ptr}/cap")
        return (lambda f: min(cap, sum((w * v for w, v in zip(ws, f)), Fraction(0))),
                "capped_modular")
    if kind == "max_value":
        shift = _finite_scalar(obj.get("shift", 0), f"{ptr}/shift")
        return (lambda f: max(f) + shift, "max_value")
    pairs = _pairs(obj["pairs"], f"{ptr}/pairs", "[source, target]", _natural, _natural)
    tw = _list_of(obj["target_weights"], f"{ptr}/target_weights", scalar_from_json)
    width = lattice.ground.size
    target = max(max((t for _, t in pairs), default=-1) + 1, len(tw))
    rel = SetRelation(frozenset(pairs), width, target)
    if len(tw) < target:
        raise InputError(f"{ptr}/target_weights: need {target} weights")
    return relation_image_measure(rel, tw), "relation_image"


def _schur_combiner_from_json(obj, ptr: str):
    kind = _expect_kind(obj, ptr, "combiner", {
        "min": ((), ()), "sum": ((), ()), "sum_smallest": (("k",), ())})
    if kind != "sum_smallest":
        return MultisetCombiner(kind), kind
    k = _expect_int(obj["k"], f"{ptr}/k", 1)
    return MultisetCombiner(kind, k), f"sum_smallest({k})"


def psi_from_json(obj, ptr: str = ""):
    """Monotone transform registry: returns (callable, direction)."""
    kind = _expect_kind(obj, ptr, "transform", {
        "identity": ((), ()), "power": (("t",), ()), "one_over_one_plus": ((), ()),
        "table": (("points", "direction"), ())})
    if kind == "identity":
        return (lambda x: x), "nondecreasing"
    if kind == "power":
        t = _expect_int(obj["t"], f"{ptr}/t", 1)

        def psi(x, _t=t):
            return INF if is_inf(x) else x ** _t

        return psi, "nondecreasing"
    if kind == "one_over_one_plus":
        def psi(x):
            return Fraction(0) if is_inf(x) else Fraction(1) / (1 + x)

        return psi, "nonincreasing"
    points = _pairs(obj["points"], f"{ptr}/points", "[x, y]", scalar_from_json, scalar_from_json)
    direction = obj["direction"]
    if direction not in ("nondecreasing", "nonincreasing"):
        raise InputError(f"{ptr}/direction: must be nondecreasing or nonincreasing")
    return _lookup(points, f"{ptr}/points"), direction


def _potential_phi_from_json(obj, ptr: str):
    kind = _expect_kind(obj, ptr, "inner map", {
        "relu": ((), ("scale", "shift")), "step": ((), ("shift",))})
    if kind == "relu":
        scale = _finite_scalar(obj.get("scale", 1), f"{ptr}/scale")
        shift = _finite_scalar(obj.get("shift", 0), f"{ptr}/shift")
        return (lambda u: max(scale * (u - shift), Fraction(0))), "relu"
    shift = scalar_from_json(obj.get("shift", 0), f"{ptr}/shift")
    return (lambda u: Fraction(1) if u > shift else Fraction(0)), "step"


def _potential_psi_from_json(obj, ptr: str):
    _expect_object(obj, ptr, ("kind", "pieces"), ())
    kind = obj["kind"]
    if kind not in ("min_affine", "max_affine"):
        raise InputError(f"{ptr}/kind: expected min_affine or max_affine")
    pieces = _pairs(obj["pieces"], f"{ptr}/pieces", "[slope, intercept]",
                    _finite_scalar, _finite_scalar)
    if not pieces:
        raise InputError(f"{ptr}/pieces: must be nonempty")
    if kind == "min_affine":
        return (lambda u: min(a * u + b for a, b in pieces)), "concave"
    return (lambda u: max(a * u + b for a, b in pieces)), "convex"


def potential_spec_from_json(obj, lattice, ptr: str = "") -> PotentialSpec:
    """The spec that a potential config's "measure", "phi" and "psi" give
    on `lattice`; the caller validates the config's field names."""
    if not isinstance(lattice, FnLattice):
        raise InputError(f"{ptr}: potential functionals need a function lattice")
    measure = measure_from_json(obj["measure"], f"{ptr}/measure",
                                width=lattice.ground.size, finite=True)
    phi, phi_name = _potential_phi_from_json(obj["phi"], f"{ptr}/phi")
    psi, curvature = _potential_psi_from_json(obj["psi"], f"{ptr}/psi")
    return PotentialSpec(carrier=lattice, measure=measure, phi=phi, psi=psi,
                         curvature=curvature, phi_name=phi_name, psi_name=obj["psi"]["kind"])


def functional_from_json(obj, lattice, budget: int = DEFAULT_BUDGET,
                         ptr: str = "") -> TupleFunctional:
    """Decode a functional on `lattice`, charging its verification to `budget`."""
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
            c = _rational(key, f"{ptr}/coeffs/{key}")
            i, j = _pair(idx, f"{ptr}/coeffs/{key}", "an index pair", _positive, _positive)
            terms.append((c, i, j))
            max_idx = max(max_idx, i, j)
        n = _expect_int(obj.get("n", max_idx), f"{ptr}/n", 1)
        return scalar_quadratic(lattice, terms, n)
    if family == "schur":
        _expect_object(obj, ptr, ("family", "n", "lambda", "F"), ("lattice", "seed"))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        if not isinstance(lattice, FnLattice):
            raise InputError(f"{ptr}: schur functionals need a function lattice")
        lam, lam_name = _schur_lam_from_json(obj["lambda"], lattice, f"{ptr}/lambda")
        combiner, comb_name = _schur_combiner_from_json(obj["F"], f"{ptr}/F")
        spec = SchurSpec(lattice, lam, combiner, lam_name=lam_name,
                         combiner_name=comb_name)
        return schur_construct(spec, n, seed=_expect_int(obj.get("seed", 0), f"{ptr}/seed"),
                               budget=budget)
    if family == "potential":
        _expect_object(obj, ptr, ("family", "n", "phi", "psi", "measure"), ("lattice",))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        return potential_construct(potential_spec_from_json(obj, lattice, ptr), n, budget)
    if family == "multiadd":
        _expect_object(obj, ptr, ("family", "n", "k", "m"), ("lattice", "seed"))
        n = _expect_int(obj["n"], f"{ptr}/n", 1)
        k = _expect_int(obj["k"], f"{ptr}/k", 1)
        if not isinstance(lattice, FnLattice):
            raise InputError(f"{ptr}: multiadditive functionals need a function lattice")
        m = _multiadditive_from_json(obj["m"], k, lattice, f"{ptr}/m")
        seed = _expect_int(obj.get("seed", 0), f"{ptr}/seed")
        return multiadd_symmetric_sum(verify_multiadditive(m, lattice, seed=seed), n, lattice)
    raise InputError(f"{ptr}/family: unknown family {family!r}")


def _multiadditive_from_json(obj, k: int, lattice: FnLattice, ptr: str):
    kind = _expect_kind(obj, ptr, "multiadditive", {
        "prod_integrals": (("measures",), ()),
        "integral_of_product": (("weights",), ()),
        "tensor": (("weights",), ()),
    })
    width = lattice.ground.size
    if kind == "prod_integrals":
        measures = _list_of(obj["measures"], f"{ptr}/measures",
                            lambda m, p: measure_from_json(m, p, width=width, finite=True))
        if len(measures) != k:
            raise InputError(f"{ptr}/measures: expected {k} measures")
        return product_of_integrals(measures)
    if kind == "integral_of_product":
        return integral_of_product(
            measure_from_json(obj["weights"], f"{ptr}/weights", width=width, finite=True), k)
    return tensor_multiadditive(_point_table(obj["weights"], f"{ptr}/weights", k, width),
                                k, width)


def construction_from_json(params, family: str, budget: int = DEFAULT_BUDGET) -> dict:
    """Validate the params of `latstat construct <family>`, which embed the
    carrier lattice; returns the functional descriptor they make."""
    if not isinstance(params, dict):
        raise InputError("/: expected a params object")
    if params.get("lattice") is None:
        raise InputError("/lattice: construction params must embed the carrier lattice")
    lattice = lattice_from_json(params["lattice"], "/lattice", budget)
    descriptor = dict(params, family=family)
    functional_from_json(descriptor, lattice, budget)  # validates every invariant
    return descriptor


# --- correlation configs ---

def _table_entries(obj, width: Optional[int], ptr: str, finite: bool = False) -> list:
    return _pairs(obj, ptr, "[element, value]", lambda e, p: fn_elem_from_json(e, width, p),
                  _finite_scalar if finite else scalar_from_json)


def _lookup(entries: list, ptr: str):
    """The function that maps x, a scalar or a function element, to its
    value among the decoded [x, value] entries at ptr (a repeated x takes
    its last value).  A missing x is an input error at ptr that writes x as
    a config would."""
    table = dict(entries)

    def written(v):
        return int(v) if not is_inf(v) and v.denominator == 1 else scalar_to_json(v)

    def func(x):
        if x not in table:
            at = [written(v) for v in x] if isinstance(x, tuple) else written(x)
            raise InputError(f"{ptr}: no value at {json.dumps(at)}")
        return table[x]

    return func


def function_from_json(obj, width: Optional[int], ptr: str = "", finite: bool = False):
    """A "linear" or a "table" function of function elements of `width`
    values: an fkg F or G, an ahke alpha or beta."""
    kind = _expect_kind(obj, ptr, "function", {
        "linear": (("coeffs",), ("const",)), "table": (("values",), ())})
    if kind == "table":
        return _lookup(_table_entries(obj["values"], width, f"{ptr}/values", finite),
                       f"{ptr}/values")
    coeffs = _list_of(obj["coeffs"], f"{ptr}/coeffs", _finite_scalar)
    if len(coeffs) != width:
        raise InputError(f"{ptr}/coeffs: expected {width} coefficients")
    const = _finite_scalar(obj.get("const", 0), f"{ptr}/const")
    return lambda h: sum((c * v for c, v in zip(coeffs, h)), const)


def _weight_from_json(obj, width: Optional[int], kinds: tuple) -> Optional[dict]:
    """The fkg/ahke weight, one of `kinds`: "power" (a measure and an
    exponent r), "inf", or "table" (values and an optional convention
    mode).  Returns the keyword arguments of `corollary_fkg_check` /
    `corollary_ahke_check`, or None for a table, which the fkg decoder
    reads itself."""
    fields = {"power": (("measure", "r"), ()), "inf": ((), ()),
              "table": (("values",), ("mode",))}
    kind = _expect_kind(obj, "/weight", "weight", {kind: fields[kind] for kind in kinds})
    if kind == "power":
        return {"measure": measure_from_json(obj["measure"], "/weight/measure", width=width),
                "r": _expect_int(obj["r"], "/weight/r", maximum=-1)}
    return {"use_inf": True} if kind == "inf" else None


def fkg_config_from_json(path: str) -> partial:
    """Decode a `latstat fkg` config into the call of its checker:
    `corollary_fkg_check` for a power or inf weight, `fkg_check` with the
    decoded mode for a table weight.  Elements and F, G values must be
    finite: the four sums multiply them in plain arithmetic, and only the
    weight's products follow a convention mode."""
    cfg = parse_config(path, ("elements", "F", "G", "weight"))
    sub = ExplicitSublattice(fn_elems_from_json(cfg["elements"], "/elements",
                                                decode=_finite_scalar))
    F = function_from_json(cfg["F"], sub.width, "/F", finite=True)
    G = function_from_json(cfg["G"], sub.width, "/G", finite=True)
    weight = _weight_from_json(cfg["weight"], sub.width, ("power", "inf", "table"))
    if weight is not None:
        return partial(corollary_fkg_check, sub, F, G, **weight)
    table = cfg["weight"]
    entries = _table_entries(table["values"], sub.width, "/weight/values")
    mode = None
    if "mode" in table:
        try:
            mode = ConventionMode(str(table["mode"]).lower())
        except ValueError:
            raise InputError(f"/weight/mode: unknown convention mode {table['mode']!r}; "
                             "use 'zero' or 'inf'")
    if mode is None:
        _refuse_zero_times_inf(entries, "/weight/values", sub, F, G)
    return partial(fkg_check, sub, _lookup(entries, "/weight/values"), F, G, mode)


def _refuse_zero_times_inf(entries: list, ptr: str, sub, F, G) -> None:
    """Without a mode, refuse an infinite table weight that `fkg_check`
    would multiply by 0: it multiplies every two weights on the sublattice,
    and each weight by F, G and F * G at its element.  Names the first such
    entry (a repeated element takes its last value, as the table does)."""
    on_sub = set(sub.elements())
    last = {e: i for i, (e, _) in enumerate(entries) if e in on_sub}
    zero_weight = any(entries[i][1] == 0 for i in last.values())
    for i in sorted(last.values()):
        e, w = entries[i]
        if not is_inf(w):
            continue
        zero = ("weight" if zero_weight else "F value" if F(e) == 0
                else "G value" if G(e) == 0 else None)
        if zero is not None:
            raise InputError(
                f"{ptr}/{i}/1: an infinite weight meets a zero {zero}, and 0 * inf "
                'is undefined without a convention; set "mode" to "zero" or "inf"')


def ahke_config_from_json(path: str, budget: int = DEFAULT_FAMILY_BUDGET) -> partial:
    """Decode a `latstat ahke` config into the call of its checker, with
    the budget for its family product: `corollary_ahke_check` for a
    weight, else `aharoni_keich_check` with the alphas and betas under the
    zero rule for 0 * inf."""
    cfg = parse_config(path, ("families",), ("weight", "alphas", "betas"))
    fams, width = _families_from_json(cfg["families"], "/families")
    if "weight" in cfg:
        return partial(corollary_ahke_check, fams, budget=budget,
                       **_weight_from_json(cfg["weight"], width, ("power", "inf")))
    if "alphas" in cfg and "betas" in cfg:
        alphas, betas = (_list_of(cfg[key], f"/{key}",
                                  lambda a, p: function_from_json(a, width, p))
                         for key in ("alphas", "betas"))
        return partial(aharoni_keich_check, alphas, betas, fams, mode=ConventionMode.ZERO,
                       budget=budget)
    raise InputError("/weight: provide 'weight' or both 'alphas' and 'betas'")


# --- corollary configs ---

def _measure_and_tuple(cfg) -> dict:
    measure = measure_from_json(cfg["measure"], "/measure")
    return {"measure": measure,
            "fs": fn_elems_from_json(cfg["tuple"], "/tuple", measure.size, _nonneg_scalar)}


def _charge_permanents(count: int, rows: int, cols: int, budget: int) -> None:
    """Charge the three permanents of each of count matrices of at most
    rows x cols: d * sum_{i <= d} C(p, i) multiply-adds each (`permanent`)."""
    d, p = sorted((rows, cols))
    charge(count * 3 * d * sum(math.comb(p, i) for i in range(d + 1)), budget,
           "multiply-adds of the permanents")


def corollary_config_from_json(name: str, path: str, budget: int = DEFAULT_BUDGET) -> partial:
    """Decode the config of `latstat corollary <name>` into the call of its
    checker: a random permanent batch calls `perm_orderstat_batch`, and an
    esym config without "k" calls `esym_orderstat_check` for every order.
    perm and esym charge their work to the budget from sizes, before the
    call is built."""
    if name == "perm":
        cfg = parse_config(path, (), ("matrix", "random"))
        if "matrix" in cfg:
            matrix = _list_of(cfg["matrix"], "/matrix",
                              lambda row, p: _list_of(row, p, _nonneg_finite))
            _charge_permanents(1, len(matrix), max(map(len, matrix), default=0), budget)
            return partial(perm_orderstat_check, matrix)
        if "random" not in cfg:
            raise InputError("/matrix: provide 'matrix' or 'random'")
        spec = _expect_object(cfg["random"], "/random", ("count", "seed"),
                              ("max_rows", "max_cols"))
        batch = dict(seed=_expect_int(spec["seed"], "/random/seed"),
                     count=_expect_int(spec["count"], "/random/count", 1),
                     max_rows=_expect_int(spec.get("max_rows", 5), "/random/max_rows", 1),
                     max_cols=_expect_int(spec.get("max_cols", 7), "/random/max_cols", 1))
        _charge_permanents(batch["count"], batch["max_rows"], batch["max_cols"], budget)
        return partial(perm_orderstat_batch, **batch)
    if name == "esym":
        cfg = parse_config(path, ("measure", "tuple"), ("k",))
        out = _measure_and_tuple(cfg)
        n = len(out["fs"])
        if not n:
            raise InputError("/tuple: must be nonempty")
        if "k" in cfg:
            out["k"] = _expect_int(cfg["k"], "/k", 1, n)
        subsets = math.comb(n, out["k"]) if "k" in out else 2 ** n - 1  # of each side
        charge(2 * subsets, budget, "subsets of the elementary symmetric sums")
        return partial(esym_orderstat_check, **out)
    if name == "psi":
        cfg = parse_config(path, ("measure", "tuple", "psi"))
        out = _measure_and_tuple(cfg)
        out["psi"], out["direction"] = psi_from_json(cfg["psi"], "/psi")
        return partial(psi_transform_check, **out)
    if name == "power":
        cfg = parse_config(path, ("measure", "tuple", "p", "r"))
        return partial(power_inequality_check, **_measure_and_tuple(cfg),
                       p=_nonzero_rational(cfg["p"], "/p"), r=_nonzero_rational(cfg["r"], "/r"))
    if name == "supinf":
        return partial(supinf_check, fn_elems_from_json(
            parse_config(path, ("tuple",))["tuple"], "/tuple", decode=_nonneg_scalar))
    if name == "sets":
        cfg = parse_config(path, ("ground_size", "k", "weights", "sets"))
        size = _expect_int(cfg["ground_size"], "/ground_size", 1)
        k = _expect_int(cfg["k"], "/k", 1)
        point = partial(_expect_int, minimum=0, maximum=size - 1)
        return partial(product_measure_check, ground_size=size, k=k,
                       weights=_point_table(cfg["weights"], "/weights", k, size),
                       sets=_list_of(cfg["sets"], "/sets",
                                     lambda A, p: frozenset(_list_of(A, p, point))))
    if name == "indep":
        cfg = parse_config(path, ("marginals",))
        return partial(indep_association_check, _list_of(
            cfg["marginals"], "/marginals",
            lambda marg, p: _pairs(marg, p, "[value, prob]", _nonneg_scalar,
                                   _nonneg_scalar)))
    raise InputError(f"unknown corollary {name!r}")


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


def parse_config(path: str, required: tuple, optional: tuple = ()) -> dict:
    """Load a config file and validate its field names against the schema of
    the command consuming it."""
    return _expect_object(load_json_file(path), "", required, optional)
