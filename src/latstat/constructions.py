"""Factories for tuple functionals that are pair-window submodular by
construction (Schur compositions, one-sided potentials, symmetric sums of
multiadditive forms) and exact checkers for the inequalities they yield:
permanents, elementary symmetric functions, monotone transforms, power /
sup / inf products, association on product spaces, and product measures of
set tuples.

Everything is exact rational arithmetic under the 0 * inf conventions of
`scalars`.  The one rounded value is a non-integer power in
`power_inequality_check`: `_power` evaluates it to 40 digits with mpmath
and the rest of the check carries the rounded value exactly.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Optional, Sequence

from .lattice import (DEFAULT_BUDGET, FnLattice, _CompiledLattice, _Memo, fn_diff, fn_meet,
                      pointwise_order_statistics)
from .report import CheckReport, Witness
from .scalars import (
    ConventionMode,
    InputError,
    Scalar,
    as_scalar,
    charge,
    ext_pow,
    ext_prod,
    ext_sum,
    ext_mul,
    integer_scale,
    is_inf,
    require_nonneg,
)
from .semimod import KeyedValue, TupleFunctional, form_sum, id_table


# --- measures on a finite ground set ---

@dataclass(frozen=True)
class Measure:
    """Nonnegative point weights; the integral of a function element is the
    weighted sum of its values, with 0 * inf resolved by the caller's mode."""

    weights: tuple
    probability: bool = False

    def __post_init__(self):
        ws = tuple(as_scalar(w) for w in self.weights)
        for w in ws:
            require_nonneg(w, "measure weight")
        if self.probability:
            if any(is_inf(w) for w in ws):
                raise InputError("probability weights must be finite")
            if sum(ws) != 1:
                raise InputError("probability weights must sum to 1")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def counting(cls, size: int) -> "Measure":
        return cls(tuple(Fraction(1) for _ in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "Measure":
        return cls(tuple(Fraction(1, size) for _ in range(size)), probability=True)

    @property
    def size(self) -> int:
        return len(self.weights)

    def integral(self, h: Sequence, mode: Optional[ConventionMode] = None) -> Scalar:
        if len(h) != self.size:
            raise InputError("function element does not match the measure's ground set")
        return ext_sum(ext_mul(as_scalar(v), w, mode) for v, w in zip(h, self.weights))


def _require_nonneg_fn(f, what="function element"):
    for v in f:
        require_nonneg(as_scalar(v), what)
    return f


# --- majorization ---

def majorizes(x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    """True when x is majorized by y: equal totals and every ascending
    partial sum of x dominates the corresponding one of y."""
    if len(x) != len(y):
        raise InputError("majorization needs vectors of equal length")
    xs, ys = sorted(x), sorted(y)
    if sum(xs) != sum(ys):
        return False
    tx = ty = Fraction(0)
    for a, b in zip(xs[:-1], ys[:-1]):
        tx += a
        ty += b
        if tx < ty:
            return False
    return True


# --- Schur composition ---

@dataclass(frozen=True)
class MultisetCombiner:
    """A Schur combiner that reads only the multiset of its arguments:
    "min", "sum", or "sum_smallest" (the sum of the k smallest).  A
    SchurSpec with one builds a symmetric functional, which scans evaluate
    once per multiset; any other callable may read argument order.  All
    three are Schur-concave and nondecreasing by theorem, and commute with
    a positive scale, so they combine Fractions and scaled integers alike."""

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("min", "sum", "sum_smallest"):
            raise InputError(f"unknown multiset combiner {self.kind!r}")
        if self.kind == "sum_smallest" and self.k < 1:
            raise InputError("sum_smallest needs k >= 1")

    def __call__(self, xs):
        return self.over(_identity)(xs)

    def over(self, at: Callable):
        """The combiner of at's values, as a map of argument tuples, bound
        once: min, sum or the sum of the k smallest over map(at, args)."""
        if self.kind == "min":
            return lambda args: min(map(at, args))
        if self.kind == "sum":
            return lambda args: sum(map(at, args))
        k = self.k
        return lambda args: sum(sorted(map(at, args))[:k])


def _identity(x):
    return x


@dataclass
class SchurSpec:
    """A one-argument submodular nondecreasing map on a small carrier lattice
    together with a coordinatewise-nondecreasing Schur-concave combiner."""

    lattice: object
    lam: Callable
    combiner: Callable
    lam_name: str = "lam"
    combiner_name: str = "F"


def verify_schur_spec(spec: SchurSpec, n: int, *, seed: int = 0,
                      spot_checks: int = 40, budget: int = DEFAULT_BUDGET) -> tuple:
    """Exhaustively check the one-argument map (submodular, nondecreasing) and
    spot-check the combiner on generated majorization pairs.  The combiner
    check is a falsification filter, not a proof, and is skipped for a
    `MultisetCombiner`, whose properties are theorems.  Raises with a
    witness on failure; returns (scale, ints): lam's values times scale,
    the least positive integer that makes them all integers, by id in
    `spec.lattice.elements()` order.  The map is read on the carrier's meet
    and join id tables, filled whole, with f <= g exactly when the meet of
    f and g is f, and compared as those integers; a failure maps its sums
    back to Fractions for the message.  The m^2 pairs are charged to the
    budget before any element is listed."""
    m = spec.lattice.size
    charge(m * m, budget, "pairs of the Schur map check")
    compiled = _CompiledLattice.of(spec.lattice).whole()
    elems, meet, join = compiled.elems, compiled.meet, compiled.join
    vals = [Fraction(spec.lam(e)) for e in elems]
    scale, ints = integer_scale(vals)  # Fractions always have a scale
    for i, v in enumerate(ints):
        row = i * m
        for j, w in enumerate(ints):
            low = meet[row + j]
            lhs, rhs = v + w, ints[join[row + j]] + ints[low]
            if lhs < rhs:
                raise InputError(
                    f"{spec.lam_name} is not submodular: pair ({elems[i]!r}, {elems[j]!r}) "
                    f"gives {Fraction(lhs, scale)} < {Fraction(rhs, scale)}")
            if low == i and v > w:
                raise InputError(
                    f"{spec.lam_name} is not nondecreasing: {elems[i]!r} <= {elems[j]!r} "
                    f"but {vals[i]} > {vals[j]}")
    if isinstance(spec.combiner, MultisetCombiner):
        return scale, ints
    rng = random.Random(seed)
    pool = sorted(set(vals))
    for _ in range(spot_checks):
        y = tuple(rng.choice(pool) if pool else Fraction(rng.randrange(8))
                  for _ in range(n))
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i == j:
            continue
        t = Fraction(rng.randrange(1, 4), 4)
        x = list(y)
        x[i] = t * y[i] + (1 - t) * y[j]
        x[j] = (1 - t) * y[i] + t * y[j]
        x = tuple(x)
        if not majorizes(x, y):
            raise InputError("internal error: averaging transform broke majorization")
        if spec.combiner(x) < spec.combiner(y):
            raise InputError(
                f"{spec.combiner_name} is not Schur-concave: {x} majorized by {y} "
                f"but F(x)={spec.combiner(x)} < F(y)={spec.combiner(y)}")
        bumped = tuple(v + (1 if k == i else 0) for k, v in enumerate(y))
        if spec.combiner(bumped) < spec.combiner(y):
            raise InputError(f"{spec.combiner_name} is not nondecreasing in argument {i}")
    return scale, ints


def schur_construct(spec: SchurSpec, n: int, *, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> TupleFunctional:
    """Functional F(lam(f_1), ..., lam(f_n)); verified spec makes it pass the
    pair-window check (>=) on any distributive carrier.  fn computes lam
    on each argument, on any element, and never reads the verification's
    values, so a witness replay re-proves what the scan found.  Only
    on_ids reads them: lam by id through `id_table`, from the by-id
    integers its verification returned, handed over as a `KeyedValue` on
    their scale: on that scale for a `MultisetCombiner` when the limit
    allows the m values (other combiners need not commute with a scale),
    else as Fractions, and a `MultisetCombiner` is bound to that table
    once (`MultisetCombiner.over`).  With the combiner "sum" it is the sum
    of the unary terms (values, (i,)).  A `MultisetCombiner` also declares
    `ge_by_theorem` (the proof is in `TupleFunctional`), so exhaustive ge
    checks on spec.lattice, when it is a function lattice, hold with no
    scan; other combiners are only spot-checked, and enumerate."""
    scale, ints = verify_schur_spec(spec, n, seed=seed, budget=budget)  # charged first
    lam = KeyedValue(lambda e: Fraction(spec.lam(e)), spec.lattice, scale, ints.__getitem__)
    combiner = spec.combiner
    multiset = isinstance(combiner, MultisetCombiner)

    def fn(f):
        return combiner(tuple(map(lam, f)))

    def on_ids(elems, limit=None):
        scale, values = id_table(lam, elems, 1, limit if multiset else None)
        at = values.__getitem__
        sums = scale is not None and combiner == MultisetCombiner("sum")
        terms = [(values, (i,)) for i in range(n)] if sums else None
        if multiset:
            return combiner.over(at), scale, terms
        return (lambda ids: combiner(tuple(map(at, ids)))), scale, terms

    return TupleFunctional(arity=n, fn=fn,
                           tag=f"schur({spec.lam_name},{spec.combiner_name})",
                           lattice=spec.lattice, on_ids=on_ids, symmetric=multiset,
                           ge_by_theorem=multiset)


# --- set functions from relations ---

@dataclass(frozen=True)
class SetRelation:
    """Pairs (s, t) between two finite index sets; forward images of subsets
    of the source are unions, so measuring the image yields a submodular,
    nondecreasing set function."""

    pairs: frozenset
    source_size: int
    target_size: int

    def __post_init__(self):
        for s, t in self.pairs:
            if not (0 <= s < self.source_size and 0 <= t < self.target_size):
                raise InputError(f"relation pair ({s},{t}) out of range")

    def image(self, subset_indicator: Sequence) -> frozenset:
        return frozenset(t for s, t in self.pairs if subset_indicator[s] != 0)


def relation_image_measure(relation: SetRelation, target_weights: Sequence) -> Callable:
    """Map a source subset (0/1 indicator tuple) to the measure of its image.
    Submodular and nondecreasing; suitable as the one-argument map of a
    SchurSpec over an indicator lattice."""
    ws = tuple(as_scalar(w) for w in target_weights)
    if len(ws) != relation.target_size:
        raise InputError("target weights must match the relation's target size")
    for w in ws:
        require_nonneg(w, "target weight")
        if is_inf(w):
            raise InputError("target weights must be finite")

    def lam(indicator):
        if len(indicator) != relation.source_size:
            raise InputError("indicator length does not match the relation source")
        return sum((ws[t] for t in relation.image(indicator)), Fraction(0))

    return lam


# --- one-sided potentials ---

@dataclass
class PotentialSpec:
    """Monotone inner map, curved outer map, and a measure over the carrier's
    ground set.  The carrier is a lattice of possibly-negative values since
    the functional is built from argument differences."""

    carrier: FnLattice
    measure: Measure
    phi: Callable
    psi: Callable
    curvature: str  # "concave" or "convex"
    phi_name: str = "phi"
    psi_name: str = "psi"

    def __post_init__(self):
        if self.curvature not in ("concave", "convex"):
            raise InputError("curvature must be 'concave' or 'convex'")
        if self.measure.size != self.carrier.ground.size:
            raise InputError("measure and carrier ground sets differ")


def verify_potential_spec(spec: PotentialSpec, budget: int = DEFAULT_BUDGET) -> tuple:
    """Check the inner map is monotone on all achievable differences and the
    outer map has the declared curvature on all achievable integral values.
    Raises with a witness on failure.  The d^g integrals, of the d
    differences at the g ground points, are charged to the budget first.
    phi is computed once per difference and psi once per integral value.

    A difference function g is read by its code: the base-d number, point
    0 first, of the positions of its values in the sorted differences; a
    code with an infinite phi value has no integral.  Returns (position,
    by_code): each difference's position in increasing order, and psi at
    each code's integral value, or None (`_pair_digits` reads them)."""
    chain = spec.carrier.chain
    diffs = sorted({a - b for a in chain for b in chain})
    ground = spec.carrier.ground.size
    charge(len(diffs) ** ground, budget, "integrals of the potential check")
    phi_vals = [as_scalar(spec.phi(d)) for d in diffs]
    for v in phi_vals:
        require_nonneg(v, f"{spec.phi_name} value")
    nondecr = all(phi_vals[i] <= phi_vals[i + 1] for i in range(len(phi_vals) - 1))
    nonincr = all(phi_vals[i] >= phi_vals[i + 1] for i in range(len(phi_vals) - 1))
    if not (nondecr or nonincr):
        raise InputError(f"{spec.phi_name} is not monotone on the difference range")
    integrals = [None if any(is_inf(v) for v in vals) else spec.measure.integral(vals)
                 for vals in product(phi_vals, repeat=ground)]  # in code order
    points = sorted(set(integrals) - {None})
    psi = _Memo(spec.psi)  # filled in the order the triples first read it
    for u1, u2, u3 in zip(points, points[1:], points[2:]):
        left = (psi[u2] - psi[u1]) * (u3 - u2)
        right = (psi[u3] - psi[u2]) * (u2 - u1)
        if spec.curvature == "concave" and left < right:
            raise InputError(
                f"{spec.psi_name} is not concave at ({u1},{u2},{u3})")
        if spec.curvature == "convex" and left > right:
            raise InputError(
                f"{spec.psi_name} is not convex at ({u1},{u2},{u3})")
    return (dict(zip(diffs, range(len(diffs)))),
            [None if u is None else psi[u] for u in integrals])


def _potential_transform(spec: PotentialSpec) -> Callable[[tuple], Fraction]:
    """The curved integral transform g -> psi(measure(phi o g)) of a
    difference function, computed from the spec and memoized; it reads no
    verification table, so a witness replay re-proves what the scan found
    on `_pair_digits`' values."""
    return _Memo(lambda g: spec.psi(spec.measure.integral(tuple(map(spec.phi, g))))).__getitem__


def _pair_digits(spec: PotentialSpec, verified: tuple, pair: Callable) -> Callable:
    """The potential's pair value, as a `KeyedValue` that reads each id key
    a * m + b by its difference code, built from the two ids' chain digits
    (one difference position per digit pair), in `verify_potential_spec`'s
    psi values by code, when every code has one and they are finite
    rationals; else pair itself.  Only the scan reads these values; pair
    computes its own."""
    position, by_code = verified
    scaled = None if None in by_code else integer_scale(by_code)
    if scaled is None:
        return pair
    scale, ints = scaled
    chain, d = spec.carrier.chain, len(position)
    c, ground = len(chain), spec.carrier.ground.size
    step = [position[x - y] for x in chain for y in chain]  # keyed x * c + y
    zero = 0
    for _ in range(ground):
        zero = zero * d + position[0]
    entry = [v - ints[zero] for v in ints]
    powers = [c ** p for p in reversed(range(ground))]
    m = c ** ground

    def at(key):
        a, b = divmod(key, m)
        code = 0
        for p in powers:
            code = code * d + step[a // p % c * c + b // p % c]
        return entry[code]
    return KeyedValue(pair, spec.carrier, scale, at)


def _symmetrized(transform: Callable[[tuple], Fraction], g: tuple) -> Fraction:
    return transform(g) + transform(tuple(-x for x in g))


def potential_construct(spec: PotentialSpec, n: int,
                        budget: int = DEFAULT_BUDGET) -> TupleFunctional:
    """Sum over all ordered argument pairs of the curved integral transform of
    their difference, normalized so the zero difference contributes zero
    (constant tuples evaluate to 0): a `form_sum` of one pair value, which
    scans read by difference code (`_pair_digits`).  The pair value itself
    is the transform of the difference minus the transform of zero, both
    computed from the spec on first use."""
    verified = verify_potential_spec(spec, budget)
    transform = _potential_transform(spec)
    zero = tuple(Fraction(0) for _ in range(spec.carrier.ground.size))

    def pair(e, f):
        return transform(tuple(a - b for a, b in zip(e, f))) - transform(zero)

    value = _pair_digits(spec, verified, pair)
    return form_sum(n, [(value, (j, k)) for j in range(n) for k in range(n) if j != k],
                    tag=f"potential({spec.phi_name},{spec.psi_name},{spec.curvature})",
                    lattice=spec.carrier, symmetric=True)


def potential_pair_inequality_check(spec: PotentialSpec, *, seed: int = 0,
                                    samples: int = 200) -> CheckReport:
    """Compare the symmetrized transform at f1 - f2 against its value at
    |f1 - f2| on sampled carrier pairs: <= under a convex outer map, >=
    under a concave one."""
    verify_potential_spec(spec)
    transform = _potential_transform(spec)
    rng = random.Random(seed)
    elems = spec.carrier.elements()
    want_le = spec.curvature == "convex"
    first = None
    for _ in range(samples):
        f1 = elems[rng.randrange(len(elems))]
        f2 = elems[rng.randrange(len(elems))]
        d = tuple(a - b for a, b in zip(f1, f2))
        ad = tuple(abs(x) for x in d)
        lhs = _symmetrized(transform, d)
        rhs = _symmetrized(transform, ad)
        ok = lhs <= rhs if want_le else lhs >= rhs
        if not ok and first is None:
            first = Witness(args=(f1, f2), lhs=lhs, rhs=rhs,
                            note=f"curvature {spec.curvature}")
    return CheckReport(instances_checked=samples, witness=first, mode="sampled",
                       seed=seed)


# --- multiadditive forms ---

@dataclass
class MultiadditiveFn:
    """A map on k-tuples of nonnegative function elements that is additive in
    every slot under the split f = (f meet g) + (f minus-below g).

    multilinear declares that fn is a multilinear form in the pointwise
    values of its arguments with finite nonnegative coefficients: each slot
    is linear under pointwise +, so the split holds exactly, and its values
    on nonnegative finite elements are nonnegative.  It is not a
    constructor argument: only the JSON kinds' constructors set it
    (`product_of_integrals` with finite weights, `integral_of_product`,
    `tensor_multiadditive`, through `_multilinear`), since a wrong
    declaration gives wrong verdicts; like `TupleFunctional.symmetric`, it
    is never inferred.  A multilinear form is given by its
    coefficients, its values at tuples of point indicators, so its scan
    tables are read from chain digits (`_multilinear_digits`)."""

    arity: int
    fn: Callable[..., Fraction]
    tag: str = ""
    multilinear: bool = field(default=False, init=False)

    def __call__(self, *args):
        return self.fn(*args)


def _multilinear(arity: int, fn: Callable[..., Fraction], tag: str) -> MultiadditiveFn:
    """A `MultiadditiveFn` declared multilinear: fn must be a multilinear
    form with finite nonnegative coefficients."""
    m = MultiadditiveFn(arity, fn, tag)
    m.multilinear = True
    return m


def verify_multiadditive(m: MultiadditiveFn, lattice: FnLattice, *, seed: int = 0,
                         samples: int = 60) -> MultiadditiveFn:
    """Check slotwise additivity and nonnegativity.  A `multilinear` m on a
    carrier whose chain values are finite and nonnegative passes by
    theorem, and m itself is returned without a draw: each slot is linear,
    f = (f meet g) + (f minus-below g) holds exactly, and the coefficients
    are finite and nonnegative, so no sample could fail.

    Any other m (a user callable, or any form on a chain with a negative or
    infinite value) is spot-checked on sampled tuples of carrier elements,
    a falsification filter; raises with a witness on failure.  m is called
    once per element tuple, through a memo keyed by element tuples.
    Returns m, with its arity and tag, as a form that reads m's values
    from that memo, seeded with every value the samples computed, so a scan of
    `multiadd_symmetric_sum` of it evaluates m once per tuple in all."""
    if m.multilinear and isinstance(lattice, FnLattice) and all(
            not is_inf(v) and v >= 0 for v in lattice.chain):
        return m
    rng = random.Random(seed)
    elems = _CompiledLattice.of(lattice).elems
    k = m.arity
    known = _Memo(lambda args: m.fn(*args))

    def pick():
        return elems[rng.randrange(len(elems))]

    for _ in range(samples):
        slot = rng.randrange(k)
        fixed = [pick() for _ in range(k)]
        f, g = pick(), pick()
        with_f, with_meet, with_rest = list(fixed), list(fixed), list(fixed)
        with_f[slot], with_meet[slot], with_rest[slot] = f, fn_meet(f, g), fn_diff(f, g)
        lhs = known[tuple(with_f)]
        rhs = known[tuple(with_meet)] + known[tuple(with_rest)]
        if lhs != rhs:
            raise InputError(
                f"{m.tag or 'map'} is not additive in slot {slot}: "
                f"{lhs} != {rhs} at f={f}, g={g}")
        if lhs < 0:
            raise InputError(f"{m.tag or 'map'} is negative at {with_f}")
    return MultiadditiveFn(arity=k, fn=lambda *args: known[tuple(map(tuple, args))], tag=m.tag)


def symmetrize(m: MultiadditiveFn) -> MultiadditiveFn:
    """Average over all argument orders; preserves multiadditivity and
    nonnegativity, and the result is permutation-symmetric."""
    k = m.arity
    scale = Fraction(1, math.factorial(k))

    def fn(*args):
        if len(args) != k:
            raise InputError(f"expected {k} arguments")
        return scale * sum((m.fn(*(args[i] for i in perm))
                            for perm in permutations(range(k))), Fraction(0))

    return MultiadditiveFn(arity=k, fn=fn, tag=f"sym({m.tag})")


def multiadd_symmetric_sum(m: MultiadditiveFn, n: int,
                           lattice: Optional[FnLattice] = None) -> TupleFunctional:
    """Sum of m over all injective placements of k of the n arguments, in
    `itertools.permutations` order: a `form_sum` of the one value m.fn.
    Nonnegative multiadditive m makes this pass the pair-window check (>=);
    with k <= 2 exhaustive k = 2 checks enumerate no tuples.  A
    `multilinear` m on an `FnLattice` with finite chain values and no more
    than m coefficients (g^k <= m for g ground points, so a table entry
    never costs more than a pass over the carrier) hands its tables over
    from chain digits (`_multilinear_digits`); any other m's values reach
    the scan through m.fn itself (the memo form a sampled
    `verify_multiadditive` returns, say)."""
    k = m.arity
    if k > n:
        raise InputError(f"multiadditive arity {k} exceeds tuple length {n}")
    value = m.fn
    if (m.multilinear and isinstance(lattice, FnLattice) and lattice.ground.size ** k
            <= lattice.size and not any(is_inf(v) for v in lattice.chain)):
        value = KeyedValue(m.fn, lattice, *_multilinear_digits(m, lattice))
    return form_sum(n, [(value, places) for places in permutations(range(n), k)],
                    tag=f"multiadd({m.tag},k={k})", lattice=lattice, symmetric=True)


def _multilinear_digits(m: MultiadditiveFn, lattice: FnLattice) -> tuple:
    """(scale, at) of a multilinear m on lattice, for `KeyedValue`: at(key)
    is m at the key's k ids times scale, an int.  m's coefficients are its
    values at the g^k tuples of point indicators, and an id's values at the
    points are its chain digits' values, both on an integer scale; the
    coefficients are contracted with one slot's values at a time, each
    partial contraction memoized by the ids of the slots it has read (the
    key's leading digits), so a table filled whole costs about g
    multiply-adds per entry."""
    k, g, c = m.arity, lattice.ground.size, len(lattice.chain)
    size = c ** g
    unit = [tuple(Fraction(int(s == t)) for t in range(g)) for s in range(g)]
    coef_scale, coefs = integer_scale([m.fn(*args) for args in product(unit, repeat=k)])
    chain_scale, chain = integer_scale(lattice.chain)
    powers = [c ** p for p in reversed(range(g))]
    values = _Memo(lambda a: [chain[a // p % c] for p in powers])

    def contract(rows, xs):
        width = len(rows) // g
        out = [0] * width
        for x, start in zip(xs, range(0, len(rows), width)):
            if x:
                out = [u + x * r for u, r in zip(out, rows[start:start + width])]
        return out

    def deeper(level):
        return _Memo(lambda ids: contract(level(ids // size), values[ids % size])).__getitem__

    level = [coefs].__getitem__  # no slot read yet: the prefix is 0
    for _ in range(k - 1):
        level = deeper(level)

    def at(key):
        return sum(map(operator.mul, values[key % size], level(key // size)))
    return coef_scale * chain_scale ** k, at


def product_of_integrals(measures: Sequence[Measure]) -> MultiadditiveFn:
    """m(f_1, ..., f_k) as the product of one integral per slot."""
    ms = list(measures)

    def fn(*args):
        if len(args) != len(ms):
            raise InputError(f"expected {len(ms)} arguments")
        out = Fraction(1)
        for mu, f in zip(ms, args):
            v = mu.integral(f)
            if is_inf(v):
                raise InputError("product-of-integrals needs finite integrals")
            out *= v
        return out

    finite = not any(is_inf(w) for mu in ms for w in mu.weights)
    return (_multilinear if finite else MultiadditiveFn)(len(ms), fn, "prod-integrals")


def integral_of_product(measure: Measure, k: int) -> MultiadditiveFn:
    """m(f_1, ..., f_k) as the integral of the pointwise product; the
    weights must be finite."""
    if any(is_inf(w) for w in measure.weights):
        raise InputError("integral-of-product weights must be finite")

    def fn(*args):
        if len(args) != k:
            raise InputError(f"expected {k} arguments")
        total = Fraction(0)
        for s, w in enumerate(measure.weights):
            term = w
            for f in args:
                term *= f[s]
            total += term
        return total

    return _multilinear(k, fn, "integral-of-product")


def _point_weights(weights: dict, k: int, ground_size: int, noun: str) -> dict:
    """Validate finite nonnegative weights keyed by k-tuples of ground points;
    `noun` names the weights in error messages."""
    table = {}
    for key, w in weights.items():
        key = tuple(key)
        if len(key) != k or any(not 0 <= s < ground_size for s in key):
            raise InputError(f"weight key {key!r} is not a valid point {k}-tuple")
        w = as_scalar(w)
        require_nonneg(w, f"{noun} weight")
        if is_inf(w):
            raise InputError(f"{noun} weights must be finite")
        table[key] = w
    return table


def tensor_multiadditive(weights: dict, k: int, ground_size: int) -> MultiadditiveFn:
    """General multilinear form from sparse nonnegative weights on k-tuples of
    ground points."""
    table = _point_weights(weights, k, ground_size, "tensor")

    def fn(*args):
        if len(args) != k:
            raise InputError(f"expected {k} arguments")
        total = Fraction(0)
        for key, w in table.items():
            term = w
            for f, s in zip(args, key):
                term *= f[s]
            total += term
        return total

    return _multilinear(k, fn, "tensor")


# --- permanents ---

def permanent(matrix: Sequence[Sequence]) -> Fraction:
    """Permanent of a rectangular rational matrix: the sum over all injective
    column placements of row-entry products (transposed first when there are
    more rows than columns, keeping the value transposition-invariant).

    Computed exactly by a recurrence over column sets.  Each row is scaled
    to integers by `integer_scale`.  After folding in rows
    1..i, `ways[S]` is the weighted count of placements of those rows onto
    exactly the column set S (a bitmask); row i + 1 extends each S by each
    column outside it whose entry is nonzero.  Rectangular matrices need no
    sign terms or padding.  There are at most C(p, i) sets after i rows,
    each extended by at most p - i columns, so a d x p matrix (d <= p) costs
    at most d * sum_{i <= d} C(p, i) integer multiply-adds, against the
    p! / (p - d)! placements of the literal sum: a 12 x 12 matrix takes
    24,576 multiply-adds, not 479,001,600 placements."""
    return _permanent([[Fraction(x) for x in row] for row in matrix])


def _permanent(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """`permanent` of rows whose entries are already `Fraction`s."""
    if not rows or not rows[0]:
        raise InputError("permanent needs a nonempty matrix")
    p = len(rows[0])
    if any(len(r) != p for r in rows):
        raise InputError("matrix rows must have equal length")
    if len(rows) > p:
        rows = list(zip(*rows))
    scale = 1
    ways = {0: 1}
    for row in rows:
        denom, row = integer_scale(row)
        scale *= denom
        entries = [(1 << c, x) for c, x in enumerate(row) if x]
        folded = {}
        for cols, w in ways.items():
            for bit, x in entries:
                if not cols & bit:
                    key = cols | bit
                    folded[key] = folded.get(key, 0) + w * x
        ways = folded
    return Fraction(sum(ways.values()), scale)


def perm_orderstat_check(matrix: Sequence[Sequence]) -> CheckReport:
    """Verify the permanent does not increase when the rows are replaced by
    their pointwise order statistics, nor when the columns are."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    for row in rows:
        for x in row:
            require_nonneg(x, "matrix entry")
    base = _permanent(rows)
    row_sorted = pointwise_order_statistics(rows)
    col_sorted = [sorted(row) for row in rows]
    perm_rows = _permanent(row_sorted)
    perm_cols = _permanent(col_sorted)
    detail = {"permanent": base, "rows_sorted": perm_rows, "cols_sorted": perm_cols}
    witness = None
    if perm_rows > base:
        witness = Witness(args=(tuple(map(tuple, rows)),), lhs=perm_rows, rhs=base,
                          note="rows")
    elif perm_cols > base:
        witness = Witness(args=(tuple(map(tuple, rows)),), lhs=perm_cols, rhs=base,
                          note="columns")
    return CheckReport(instances_checked=2, witness=witness, detail=detail)


def perm_orderstat_batch(count: int, seed: int, max_rows: int,
                         max_cols: int) -> CheckReport:
    """Run `perm_orderstat_check` on `count` seeded random matrices (rows of
    random lengths, padded with zeros); returns the first failing report,
    else the last, with the batch size in its detail."""
    rng = random.Random(seed)
    failed = None
    for _ in range(count):
        matrix = [[Fraction(rng.randint(0, 6), rng.randint(1, 4))
                   for _ in range(rng.randint(1, max_cols))]
                  for _ in range(rng.randint(1, max_rows))]
        width = max(len(r) for r in matrix)
        matrix = [r + [Fraction(0)] * (width - len(r)) for r in matrix]
        one = perm_orderstat_check(matrix)
        if not one.holds and failed is None:
            failed = one
    report = failed if failed is not None else one
    report.detail["batch"] = count
    return report


# --- elementary symmetric functions ---

def elementary_symmetric(k: int, xs: Sequence, mode: Optional[ConventionMode] = None) -> Scalar:
    """Sum over all k-element subsets of the product of the chosen entries."""
    vals = [as_scalar(x) for x in xs]
    n = len(vals)
    if not 1 <= k <= n:
        raise InputError(f"symmetric-function order {k} out of range 1..{n}")
    return ext_sum(ext_prod((vals[i] for i in J), mode) for J in combinations(range(n), k))


def esym_orderstat_check(measure: Measure, fs: Sequence, k: Optional[int] = None,
                         mode: ConventionMode = ConventionMode.ZERO) -> CheckReport:
    """Elementary symmetric function of order k of the integrals dominates
    its value on the integrals of the pointwise order statistics, one
    instance per order checked.  With no k, every order 1..n is checked and
    listed in the detail as "orders"; the witness is the first failing
    order's."""
    for f in fs:
        _require_nonneg_fn(f)
    mus = [measure.integral(f, mode) for f in fs]
    stats = pointwise_order_statistics(tuple(fs))
    mus_stats = [measure.integral(g, mode) for g in stats]
    detail = {"integrals": mus, "stat_integrals": mus_stats}
    orders = [k] if k is not None else list(range(1, len(fs) + 1))
    if k is None:
        detail["orders"] = orders
    first = None
    for j in orders:
        lhs = elementary_symmetric(j, mus, mode)
        rhs = elementary_symmetric(j, mus_stats, mode)
        if not lhs >= rhs and first is None:
            first = Witness(args=tuple(fs), lhs=lhs, rhs=rhs, note=f"k={j}")
    return CheckReport(instances_checked=len(orders), witness=first, detail=detail)


# --- association on independent product spaces ---

def indep_association_check(marginals: Sequence[Sequence]) -> CheckReport:
    """Build the product space of independent finite-support nonnegative
    random values and verify the mean of the product of the coordinate
    order statistics dominates the product of their means."""
    supports = []
    for m_idx, marg in enumerate(marginals):
        pts = [(as_scalar(v), as_scalar(p)) for v, p in marg]
        total = Fraction(0)
        for v, p in pts:
            require_nonneg(v, "support value")
            require_nonneg(p, "probability")
            if is_inf(v) or is_inf(p):
                raise InputError("supports and probabilities must be finite")
            total += p
        if total != 1:
            raise InputError(f"marginal {m_idx} probabilities sum to {total}, not 1")
        supports.append(pts)
    n = len(supports)
    mean_of_prod = Fraction(0)
    stat_means = [Fraction(0)] * n
    for outcome in product(*supports):
        w = Fraction(1)
        for _, p in outcome:
            w *= p
        values = sorted(v for v, _ in outcome)
        term = Fraction(1)
        for v in values:
            term *= v
        mean_of_prod += w * term
        for j, v in enumerate(values):
            stat_means[j] += w * v
    rhs = Fraction(1)
    for v in stat_means:
        rhs *= v
    detail = {"mean_of_product": mean_of_prod, "stat_means": stat_means,
              "product_of_means": rhs}
    witness = None
    if not mean_of_prod >= rhs:
        witness = Witness(args=tuple(tuple(m) for m in marginals), lhs=mean_of_prod,
                          rhs=rhs)
    return CheckReport(instances_checked=1, witness=witness, detail=detail)


# --- monotone transforms ---

def psi_transform_check(psi: Callable, direction: str, measure: Measure,
                        fs: Sequence,
                        mode: ConventionMode = ConventionMode.ZERO) -> CheckReport:
    """Product of integrals of a monotone transform of each argument versus
    the same product over the transformed order statistics.  A nondecreasing
    transform composes with the order statistics directly; a nonincreasing
    one reverses their order."""
    if direction not in ("nondecreasing", "nonincreasing"):
        raise InputError("direction must be 'nondecreasing' or 'nonincreasing'")
    for f in fs:
        _require_nonneg_fn(f)
    seen = sorted({as_scalar(v) for f in fs for v in f})
    imgs = [as_scalar(psi(v)) for v in seen]
    for v in imgs:
        require_nonneg(v, "transform value")
    for a, b in zip(imgs, imgs[1:]):
        if direction == "nondecreasing" and not a <= b:
            raise InputError("transform is not nondecreasing on the sampled values")
        if direction == "nonincreasing" and not a >= b:
            raise InputError("transform is not nonincreasing on the sampled values")
    n = len(fs)
    lhs = ext_prod((measure.integral(tuple(psi(v) for v in f), mode) for f in fs), mode)
    stats = pointwise_order_statistics(tuple(fs))
    if direction == "nondecreasing":
        composed = [tuple(psi(v) for v in stats[j]) for j in range(n)]
    else:
        composed = [tuple(psi(v) for v in stats[n - 1 - j]) for j in range(n)]
    rhs = ext_prod((measure.integral(g, mode) for g in composed), mode)
    witness = None
    if not lhs >= rhs:
        witness = Witness(args=tuple(fs), lhs=lhs, rhs=rhs, note=direction)
    return CheckReport(instances_checked=1, witness=witness,
                       detail={"lhs": lhs, "rhs": rhs})


# --- power products ---

def _power(x: Scalar, t) -> Scalar:
    """x ** t for a nonzero rational t, with `ext_pow`'s conventions at 0 and
    INF.  An integer t is exact; otherwise x ** t is evaluated to 40 digits
    and its rounded binary value is returned as an exact Fraction."""
    if t.denominator == 1:
        return ext_pow(x, int(t))
    if is_inf(x) or x == 0:
        return ext_pow(x, 1 if t > 0 else -1)
    import mpmath
    with mpmath.workdps(40):
        man, exp = mpmath.power(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator),
                                mpmath.mpf(str(t))).man_exp
    return man * Fraction(2) ** exp


def power_inequality_check(p, r, measure: Measure, fs: Sequence) -> CheckReport:
    """Product over arguments of (integral of the p-th power) to the r-th
    power, against the same expression over the order statistics: dominating
    for positive r (zero rule for 0 * inf), dominated for negative r
    (infinity rule).  Zero to a negative power is infinity and infinity to a
    negative power is zero.

    Both sides are carried exactly through `ext_mul` and `ext_prod`, with
    every power taken by `_power`: integer exponents are exact, and each
    non-integer power is rounded to 40 digits.  With a non-integer exponent
    the detail reports floats and, when both sides are finite, the
    comparison is widened by 1e-9.
    """
    p, r = (t if isinstance(t, (int, Fraction)) else Fraction(t) for t in (p, r))
    if p == 0 or r == 0:
        raise InputError("exponents must be nonzero")
    for f in fs:
        _require_nonneg_fn(f)
    mode = ConventionMode.ZERO if r > 0 else ConventionMode.INF

    def side(elems):
        return ext_prod((_power(measure.integral(tuple(_power(as_scalar(v), p) for v in f),
                                                 mode), r)
                         for f in elems), mode)

    lhs, rhs = side(fs), side(pointwise_order_statistics(tuple(fs)))
    big, small = (lhs, rhs) if r > 0 else (rhs, lhs)
    if p.denominator == r.denominator == 1:
        ok = big >= small
        detail = {"lhs": lhs, "rhs": rhs, "arithmetic": "exact"}
    else:
        finite = not (is_inf(lhs) or is_inf(rhs))
        ok = big + Fraction(1, 10 ** 9) >= small if finite else big >= small
        lhs, rhs = (math.inf if is_inf(v) else float(v) for v in (lhs, rhs))
        detail = {"lhs": lhs, "rhs": rhs, "arithmetic": "float(tol=1e-9)"}
    witness = None
    if not ok:
        witness = Witness(args=tuple(fs), lhs=lhs, rhs=rhs, note=f"p={p}, r={r}")
    return CheckReport(instances_checked=1, witness=witness, detail=detail)


# --- sup / inf products ---

def supinf_check(fs: Sequence) -> CheckReport:
    """Product of pointwise suprema dominates the same product over the order
    statistics (zero rule), and the product of infima is dominated by it
    (infinity rule)."""
    for f in fs:
        _require_nonneg_fn(f)
    stats = pointwise_order_statistics(tuple(fs))
    sups = [max(as_scalar(v) for v in f) for f in fs]
    infs = [min(as_scalar(v) for v in f) for f in fs]
    sup_stats = [max(as_scalar(v) for v in g) for g in stats]
    inf_stats = [min(as_scalar(v) for v in g) for g in stats]
    lhs_sup = ext_prod(sups, ConventionMode.ZERO)
    rhs_sup = ext_prod(sup_stats, ConventionMode.ZERO)
    lhs_inf = ext_prod(infs, ConventionMode.INF)
    rhs_inf = ext_prod(inf_stats, ConventionMode.INF)
    detail = {"sup_lhs": lhs_sup, "sup_rhs": rhs_sup,
              "inf_lhs": lhs_inf, "inf_rhs": rhs_inf}
    witness = None
    if not lhs_sup >= rhs_sup:
        witness = Witness(args=tuple(fs), lhs=lhs_sup, rhs=rhs_sup, note="sup side")
    elif not lhs_inf <= rhs_inf:
        witness = Witness(args=tuple(fs), lhs=lhs_inf, rhs=rhs_inf, note="inf side")
    return CheckReport(instances_checked=2, witness=witness, detail=detail)


# --- product measures of set tuples ---

def product_measure_check(weights: dict, sets: Sequence, k: int,
                          ground_size: int) -> CheckReport:
    """Sum over injective placements of k of the n sets of the weight of
    their Cartesian product; the order-statistic sets never beat the
    originals."""
    table = _point_weights(weights, k, ground_size, "product-measure")
    fams = [frozenset(A) for A in sets]
    for A in fams:
        if any(not 0 <= s < ground_size for s in A):
            raise InputError("set contains points outside the ground set")
    n = len(fams)
    if k > n:
        raise InputError(f"product arity {k} exceeds the number of sets {n}")

    def box_measure(box):
        return sum((w for key, w in table.items()
                    if all(s in B for s, B in zip(key, box))), Fraction(0))

    def perm_sum(family):
        return sum((box_measure([family[i] for i in perm])
                    for perm in permutations(range(n), k)), Fraction(0))

    stats = pointwise_order_statistics(
        tuple(tuple(int(s in A) for s in range(ground_size)) for A in fams))
    original = perm_sum(fams)
    rearranged = perm_sum([frozenset(s for s, x in enumerate(g) if x) for g in stats])
    detail = {"original_sum": original, "orderstat_sum": rearranged}
    witness = None
    if not rearranged <= original:
        witness = Witness(args=tuple(sorted(tuple(sorted(A)) for A in fams)),
                          lhs=rearranged, rhs=original)
    return CheckReport(instances_checked=1, witness=witness, detail=detail)
