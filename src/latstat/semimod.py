"""Checkers for generalized semimodularity of tuple functionals.

A functional on n-tuples of lattice elements is compared, under a pluggable
transitive relation, against its value on the tuple's lattice order
statistics.  The pair-swap (window k = 2) variant, the relaxed sorted-prefix
variant, and the constructive rearrangement chain that sorts a tuple into
its order statistics by adjacent meet/join swaps are all implemented
exactly, with deterministic first witnesses.

All three checks run through one scan engine, `_scan`, in a single process:
the full check is the one window of width n, the windowed check slides a
k-wide window, and the relaxed check feeds its sorted-prefix instances.
Every route, `_scan` and `_pair_windows` alike, returns its first violation
on ids (for a window check the odometer's first), and each check replays
it once (`_replayed`).  Scans run on element ids in `L.elements()` order,
so they visit tuples in the same order as a scan of elements would and
report the same first witness, mapped back to elements.  Order statistics
are read off the lattice's one set of id tables
(`lattice._CompiledLattice.of`), which an exhaustive scan fills whole
first and a sampled one fills per pair drawn: by the insertion chain's
swaps on a function lattice, by the subset formula, memoized by the
sorted window, on any other; a functional with `on_ids` is evaluated on
ids directly.  A scan of integer values over a scale under ge, le or eq
ends at its first violation, which settles the verdict
(`_scan`); `instances_checked` counts the tuples covered, not the tuples
visited, and the budget is charged the same count, or the sampled trials.
The full check's instances are (f, order statistics of f) with no
slicing, and since its odometer meets each f once, such a scan of a
functional that is not symmetric evaluates f without the memo; the
windowed and relaxed scans memoize both tuples.

A `symmetric` functional is evaluated once per multiset: every scan keys its
value memo by the sorted id tuple and evaluates on that key.  Its exhaustive
windowed and full checks (the full check is the window k = n) also enumerate
window 0 only, as a sorted window followed by a sorted rest, in
lexicographic order, instead of every window of all m^n tuples (at
k = n on a function lattice both tuples of an instance come sorted, the
order statistics by id, and are their own memo keys).  A
violation at window j, permuted so that its window comes first, is a
violation at window 0, and there the verdict depends only on the window's
multiset and the rest's, since the order statistics are symmetric too.  So
the odometer's first violating instance is at window 0 with both parts
sorted, and this enumeration meets it first: the witness is unchanged.
`instances_checked` still counts the windows * m^n instances the check
covers, and the budget is charged for them.  Custom relations keep per-tuple
keys and the full odometer, because their transitivity filter subsamples
the memo's values.

Values are compared as integers over one positive scale D, fixed by the
functional's one id-level hook, `on_ids`, which each check calls once before
it scans (see `TupleFunctional`; `id_table` is the one scale rule): the
memo, ge/le/eq and the choice of the first witness run on machine ints, and
only that witness's two values are mapped back, as Fraction(v, D).  There
is no scale, and the scan compares fn's own values, when a value is not a
finite rational, when the relation is custom, and for a functional without
`on_ids`.  Before a witness is reported it is replayed through the element
oracle (`_replayed`): the moved tuple is recomputed by
`order_statistics_tuple` of the window (for the relaxed check, of the
swapped pair, whose order statistics are its meet and join), both values
by fn, and the relation is tested again; a disagreement raises
InternalError (CLI exit 4), never a verdict.

A functional whose `on_ids` gives terms is a sum of integer terms with
one or two places each (`form_sum`), and its exhaustive k = 2 checks under
ge, le or eq enumerate no tuples (`_pair_windows`).  With the window at
(j, j + 1) holding (a, b), lam(f) - lam(g) is a window part
P(a, b) plus one part Q_r(a, b, f_r) per rest position r, so the window
holds for every rest exactly when P + sum_r min_x Q_r >= 0 for each (a, b)
(max and <= 0 for le, both for eq).  That costs O(n * m^3) table lookups per
window instead of m^n tuples.  The first failing window's witness is built
greedily, position by position, as the least value that still has a
violating completion, which is the odometer's first violation; it is
replayed like any other.  The terms are merged by place pair once, by
`on_ids` (`_merged`), and the route reads the merged terms the evaluator
reads: a potential or multiadditive sum has one table per pair of
positions, not one per ordered pair, and each distinct table's rows are
built once.  A symmetric functional is decided at window 0 alone, by the
argument above: window 0 holds exactly when every window does, and the
odometer meets it first.  `instances_checked` and the budget still count
the windows * m^n tuples covered.  Sampled checks, custom relations, k >= 3,
the relaxed check and functionals without a scale keep enumerating, and the
enumerating scan stays the route's oracle in the tests.

A functional that declares `ge_by_theorem` (a Schur composition with a
`constructions.MultisetCombiner`; the proof, an analogue of Muirhead's
lemma, is in `TupleFunctional`) holds under ge at every window width on
the function lattice its lam was verified on.  An exhaustive check with
the built-in ge relation on that same `FnLattice` object returns `holds`
after the budget charge and the k = 1 vacuous return, with
`instances_checked` = windows * m^n, and compiles and visits nothing.  le,
eq, custom relations, sampled checks, other carriers and functionals
without the declaration take the routes above.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Optional, Sequence

from .lattice import (
    DEFAULT_BUDGET,
    FnLattice,
    TableLattice,
    birkhoff_embed,
    build_m3,
    order_statistics_dual_tuple,
    order_statistics_tuple,
    _CompiledLattice,
    _Memo,
    _insertion_swaps,
    _validate_tuple,
)
from .report import CheckReport, Witness
from .scalars import InputError, InternalError, charge, integer_scale

_TRANSITIVITY_SAMPLE_CAP = 60
_OPERATORS = {"ge": operator.ge, "le": operator.le, "eq": operator.eq}


@dataclass(frozen=True)
class TransitiveRelation:
    """Comparison on a functional's codomain: >=, <=, ==, or a custom predicate.

    Custom predicates are only spot-checked for transitivity, on the values
    a scan actually encounters (capped at a deterministic subsample); that
    check is a falsification filter, not a proof.
    """

    kind: str
    pred: Optional[Callable] = None
    name: str = ""

    @classmethod
    def ge(cls):
        return cls(kind="ge", name="ge")

    @classmethod
    def le(cls):
        return cls(kind="le", name="le")

    @classmethod
    def eq(cls):
        return cls(kind="eq", name="eq")

    @classmethod
    def custom(cls, pred: Callable, name: str = "custom"):
        return cls(kind="custom", pred=pred, name=name)

    @classmethod
    def from_name(cls, name: str):
        try:
            return {"ge": cls.ge, "le": cls.le, "eq": cls.eq}[str(name).lower()]()
        except KeyError:
            raise InputError(f"unknown relation {name!r}; use ge, le, or eq")

    def holds(self, a, b) -> bool:
        op = _OPERATORS.get(self.kind)
        return op(a, b) if op is not None else bool(self.pred(a, b))

    def check_transitive(self, values: Iterable) -> None:
        """Raise InputError if the relation is visibly non-transitive on values."""
        if self.kind != "custom":
            return
        vals = list(values)
        if len(vals) > _TRANSITIVITY_SAMPLE_CAP:
            stride = len(vals) // _TRANSITIVITY_SAMPLE_CAP + 1
            vals = vals[::stride]
        for a in vals:
            for b in vals:
                if not self.pred(a, b):
                    continue
                for c in vals:
                    if self.pred(b, c) and not self.pred(a, c):
                        raise InputError(
                            f"relation {self.name!r} is not transitive: "
                            f"{a!r} ~ {b!r} ~ {c!r} but not {a!r} ~ {c!r}")


@dataclass
class TupleFunctional:
    """A total, deterministic map from n-tuples of lattice elements to an
    ordered codomain.  The optional lattice field records the carrier the
    functional was constructed for.

    The optional on_ids factory is the functional's one id-level hook; scans
    use it when given.  It takes a carrier's element list and a limit and
    returns (evaluate, scale, terms): evaluate maps tuples of indices into
    the list to values.  With scale None they equal fn on the mapped
    elements.  With a positive integer scale D they are integers, and fn's
    value is Fraction(v, D); D is fixed before the scan, so a scan compares
    and memoizes machine integers.  A limit of None asks for fn's own
    values (a custom relation's predicate receives those); an integer limit
    allows a scale and caps the table the factory may fill before the scan
    to find it (`id_table`).  A factory declares no scale when any value is
    not a finite rational.  terms, given only with a scale, declares that
    fn is a sum of integer terms (table, places) of one or two places
    (`form_sum`), already merged by place pair (`_merged`): they are the
    terms the evaluator reads.  Exhaustive k = 2 checks under ge, le or eq
    then decide each pair window from the tables instead of enumerating
    tuples (see the module docstring).  Schur sums and the `form_sum`s of
    quadratic forms, potentials and multiadditive forms of arity 1 or 2
    give terms.

    symmetric declares that fn is invariant under every permutation of its
    arguments; scans then evaluate it once per multiset of ids (see the
    module docstring).  Constructors set it from how they build fn: symmetric
    sums of multiadditive forms and potentials always, Schur compositions
    only with a `constructions.MultisetCombiner`, since an arbitrary
    combiner is only spot-checked for Schur-concavity and may read argument
    order.  Like terms, it is declared by the constructor and never
    inferred: a wrong declaration gives wrong verdicts.

    ge_by_theorem declares that fn(f) >= fn(g) whenever g is f with any
    window sorted into its order statistics on the function lattice
    `lattice`, so an exhaustive ge check there holds at every width with
    nothing enumerated (`_window_scan`).  Only `constructions.schur_construct`
    sets it, for a `MultisetCombiner`: fn(f) = F(lam(f_1), ..., lam(f_n))
    with lam submodular and nondecreasing on `lattice` (verified on all m^2
    pairs) and F = S_j, the sum of the j smallest values: "min" is S_1,
    "sum_smallest" k is S_min(k, n) and "sum" is S_n.  Proof, the analogue of
    Muirhead's lemma (Hardy, Littlewood and Polya 1929; Marshall, Olkin and
    Arnold, Inequalities, 2nd ed., 3.A): a swap of positions p, q from
    (a, b) to (a meet b, a join b) never raises S_j.  Write P, Q for
    lam(a), lam(b) and P', Q' for the new values; monotonicity gives
    P' <= min(P, Q), submodularity P' + Q' <= P + Q.  Take j positions
    whose old values sum to S_j.  If they hold both p and q, the same
    positions sum to at most that after the swap, by submodularity; if
    they hold one of them, trading it for p does, since P' is at most
    either old value; if neither, their sum is unchanged.  On a function
    lattice, which is distributive, the window's insertion chain
    (`insertion_chain`) reaches its order statistics by such swaps with
    the rest fixed, so S_j(lam(g)) <= S_j(lam(f)).  Like symmetric, it is
    declared and never inferred, and a wrong declaration gives wrong
    verdicts."""

    arity: int
    fn: Callable[[tuple], object]
    tag: str = ""
    lattice: object = None
    on_ids: Optional[Callable[[list, Optional[int]], tuple]] = None
    symmetric: bool = False
    ge_by_theorem: bool = False

    def __call__(self, args: tuple):
        return self.fn(args)


def form_sum(n: int, forms: list, *, tag: str, lattice=None,
             symmetric: bool = False) -> TupleFunctional:
    """The functional of arity n that sums its forms, a list of (value,
    places): value takes len(places) elements, places is a tuple of 0-based
    argument positions, and fn adds value(f at places) in list order from
    Fraction(0).  on_ids fills one `id_table` per distinct value object and
    puts all tables on the lcm of their scales, or, with no limit or when
    one has none, keeps fn's own values in all.  With a scale the (table,
    places) terms are merged by place pair once (`_merged`); the evaluator
    reads the merged terms, and they are the terms declared when no form
    has over two places.  fn's own values keep fn's order of addition.  Values a
    verification computed reach the tables by `id_table`'s one rule: a
    `KeyedValue` gives them from ids, any other value through its own
    calls."""
    distinct = {id(value): (value, len(places)) for value, places in forms}
    pairs = all(len(places) <= 2 for _, places in forms)

    def fn(f):
        return sum((value(*(f[i] for i in places)) for value, places in forms), Fraction(0))

    def on_ids(elems, limit=None):
        m = len(elems)
        filled = {key: id_table(value, elems, k, limit)
                  for key, (value, k) in distinct.items()}
        scales = [s for s, _ in filled.values()]
        scale = None if limit is None or None in scales else math.lcm(*scales)
        tables = {key: table if s == scale else
                  [Fraction(v, s) if scale is None else v * (scale // s) for v in table]
                  for key, (s, table) in filled.items()}
        terms = [(tables[id(value)], places) for value, places in forms]
        if scale is None:
            return _term_sum(terms, m), None, None
        merged = _merged(terms, m)
        return _term_sum(merged, m), scale, merged if pairs else None

    return TupleFunctional(arity=n, fn=fn, tag=tag, lattice=lattice, on_ids=on_ids,
                           symmetric=symmetric)


def _term_sum(terms: list, m: int) -> Callable[[tuple], object]:
    """The evaluator of the sum, in list order, of each (table, places)
    term's table at the ids at places read as a base-m key (`id_table`):
    the leading pair terms as table[a * m + b], then the rest digit by
    digit, so inexact values (floats) still add up in fn's order.  A
    scaled sum hands it `_merged` terms, whose pair terms all lead."""
    lead = next((p for p, (_, places) in enumerate(terms) if len(places) != 2), len(terms))
    pairs = [(table, i, j) for table, (i, j) in terms[:lead]]
    rest = terms[lead:]

    def evaluate(ids):
        total = 0
        for table, i, j in pairs:
            total += table[ids[i] * m + ids[j]]
        for table, places in rest:
            key = 0
            for i in places:
                key = key * m + ids[i]
            total += table[key]
        return total
    return evaluate


def _merged(terms: list, m: int) -> list:
    """Integer (table, places) terms with the same sum, merged by place
    pair: a pair term at (j, i) with j > i reads its table transposed at
    (i, j), one at (i, i) its diagonal as a unary term at i, and the terms
    at the same places add into one table, so a sum over all ordered pairs
    of n positions reads C(n, 2) tables, not n(n - 1).  Equal sums share
    one list, and a place's only table is kept as it is.  The pair terms
    come first, then the unary ones, then any term of more places, as
    given.  Only integer tables are merged: their sum does not depend on
    the order of addition."""
    parts: dict = {}  # places -> ((id of table, how it is read), ...)
    tables = {}
    wider = []
    for table, places in terms:
        how = "as is"
        if len(places) == 2:
            i, j = places
            if i >= j:
                places, how = ((i,), "diagonal") if i == j else ((j, i), "transposed")
        elif len(places) > 2:
            wider.append((table, places))
            continue
        tables[id(table)] = table
        parts[places] = parts.get(places, ()) + ((id(table), how),)
    read = {"as is": lambda t: t, "diagonal": lambda t: t[::m + 1],
            "transposed": lambda t: [v for a in range(m) for v in t[a::m]]}
    sums: dict = {}  # equal parts -> their one summed table
    merged = [], []
    for places, key in parts.items():
        if key not in sums:
            read_in = [read[how](tables[i]) for i, how in key]
            sums[key] = read_in[0] if len(key) == 1 else list(map(sum, zip(*read_in)))
        merged[len(places) - 1].append((sums[key], places))
    return merged[1] + merged[0] + wider


@dataclass(frozen=True)
class KeyedValue:
    """A form value that also gives its entries straight from ids on one
    carrier: for a base-m key of ids into `_CompiledLattice.of(lattice)`'s
    element list (`id_table`), at(key) is the value at those elements times
    scale, an int, read from chain digits or from a verification's by-id
    list, with no element built or hashed.  Calling it calls fn, which
    serves elements of any carrier."""

    fn: Callable
    lattice: object
    scale: int
    at: Callable[[int], int]

    def __call__(self, *args):
        return self.fn(*args)


def id_table(value: Callable, elems: list, arity: int, limit: Optional[int]) -> tuple:
    """(scale, table) of value on arity-tuples of elems, keyed by their ids
    read as a base-m number (a * m + b for a pair).  A `KeyedValue` whose
    carrier lists elems gives each entry from its key; any other value is
    called on the key's elements.  When the limit allows all m^arity
    entries, they are computed before the scan into a list and scaled to
    integers over the lcm of their denominators (`integer_scale`), or kept
    as value's results with scale None when one is not a finite rational; a
    keyed value's ints are divided by their gcd with its scale, which gives
    the same scale and integers.  Otherwise scale is None and the table
    holds value's results, each computed on the first use of its key (a
    keyed value's as Fraction(at(key), scale)).  This is the one rule by
    which verified values reach a scan."""
    m = len(elems)
    eager = limit is not None and m ** arity <= limit
    if isinstance(value, KeyedValue) and elems is _CompiledLattice.of(value.lattice).elems:
        scale, at = value.scale, value.at
        if not eager:
            return None, _Memo(lambda key: Fraction(at(key), scale))
        ints = list(map(at, range(m ** arity)))
        common = math.gcd(scale, *ints)
        return scale // common, ints if common == 1 else [v // common for v in ints]
    if eager:
        values = [value(*args) for args in product(elems, repeat=arity)]
        return integer_scale(values) or (None, values)
    digits = [m ** p for p in reversed(range(arity))]
    return None, _Memo(lambda key: value(*(elems[key // w % m] for w in digits)))


@dataclass(frozen=True)
class InsertionChain:
    """Rows g_0 .. g_{n-1} of the adjacent meet/join rearrangement: row 0 has
    the first n-1 entries already sorted (by the same swaps) with the last
    entry appended; row k swaps positions (n-k, n-k+1) for meet/join; the final
    row is the tuple of order statistics."""

    rows: tuple


# --- scan engine ---

def _evaluator(lam: TupleFunctional, rel: TransitiveRelation, elems: list,
               limit: int) -> tuple:
    """(evaluate on id tuples, scale or None, terms or None), as
    `TupleFunctional.on_ids` gives them; a custom relation gets fn's own
    values."""
    if lam.on_ids is not None:
        return lam.on_ids(elems, None if rel.kind == "custom" else limit)
    fn = lam.fn
    at = elems.__getitem__
    return (lambda ids: fn(tuple(map(at, ids)))), None, None


def _scan(rel: TransitiveRelation, instances, evaluate: Callable[[tuple], object],
          scale: Optional[int], sort: bool, once: bool = False):
    """The first violation ((f, g, j), lhs, rhs) of rel(evaluate(f),
    evaluate(g)) over (f, g, j) instances of id tuples, in instance order, or None, as
    `_pair_windows` gives it.  Values come from evaluate, on the scale that
    `_evaluator` gives for the scan's instance total, through one value
    memo, keyed by the sorted tuple when sort.  The scan ends at the first
    violation when the relation is ge, le or eq and there is a scale: every
    value is then an integer fixed before the scan, so no later evaluation
    can raise, and there is no transitivity filter to feed.  Such a scan
    evaluates f without the memo when once declares that no f comes twice
    (an exhaustive full check's odometer); g, which repeats, is memoized.
    Otherwise every instance is compared, and the scan ends with the
    transitivity filter on the values seen.  The caller replays the
    violation (`_replayed`)."""
    holds = _OPERATORS.get(rel.kind, rel.holds)
    stop = scale is not None and rel.kind in _OPERATORS
    once = once and stop
    memo: dict = {}
    first = None
    for instance in instances:
        f, g, _ = instance
        if sort:
            f, g = tuple(sorted(f)), tuple(sorted(g))
        if once:
            a = evaluate(f)
        else:
            a = memo.get(f)
            if a is None:
                a = memo[f] = evaluate(f)
        b = memo.get(g)
        if b is None:
            b = memo[g] = evaluate(g)
        if not holds(a, b) and first is None:
            first = instance, a, b
            if stop:
                break
    rel.check_transitive(memo.values())
    return first


def _pair_windows(rel: TransitiveRelation, terms: list, m: int, n: int,
                  stats: Callable[[tuple], tuple], symmetric: bool):
    """The odometer-first violation ((f, g, j), lhs, rhs) of the exhaustive
    k = 2 check of a sum of integer terms with one or two places (see
    `form_sum`) under ge, le or eq, or None, without enumerating tuples.

    With the window at (j, j + 1) holding (a, b) moved to (s, t),
    lam(f) - lam(g) = P(a, b) + sum over rest positions r of
    Q_r(a, b, f_r): terms whose places all lie in the window make P, terms
    joining the window to r make Q_r, and the others, unary terms at rest
    positions included, cancel.  The terms come merged by place pair, as
    `TupleFunctional.on_ids` declares them (`_merged`), and each distinct
    table's rows are built once.  So the
    smallest and the largest difference over all rests add up the smallest
    and the largest Q_r of each r; ge fails exactly when some (a, b) gives a
    negative smallest, le a positive largest, and eq either.  Windows are
    tried in order, and the failing window's lex-least tuple is built
    greedily: at each position the least value that keeps a violating
    completion.  A symmetric functional is tried at window 0 only: by
    symmetry window 0 holds exactly when every window holds, and it is the
    odometer's first (see the module docstring)."""
    low, high = rel.kind in ("ge", "eq"), rel.kind in ("le", "eq")
    cells = range(m)
    zero = [[0] * m] * m
    # link[w, r][y][x]: the term joining position w at value y to r at x
    link: dict = {}
    rows_of: dict = {}
    for table, places in terms:
        if len(places) == 2:
            if id(table) not in rows_of:
                rows = [table[y * m:(y + 1) * m] for y in cells]
                rows_of[id(table)] = rows, [list(col) for col in zip(*rows)]
            link[places], link[places[::-1]] = rows_of[id(table)]

    def fails(lo, hi):
        return (low and lo < 0) or (high and hi > 0)

    # the windows (a, b) that the order statistics move to (s, t); g = f at the others
    moves = [(a, b) + stats((a, b)) for a in cells for b in cells]
    moves = [(a, b, s, t) for a, b, s, t in moves if (s, t) != (a, b)]

    for p in range(1 if symmetric else n - 1):
        q = p + 1
        inner = _term_sum([(table, tuple(i - p for i in places)) for table, places in terms
                           if set(places) <= {p, q}], m)
        # rest positions joined to the window by the same tables share Q_r
        joins: dict = {}
        for r in range(n):
            if r not in (p, q):
                up, uq = link.get((p, r), zero), link.get((q, r), zero)
                joins.setdefault((id(up), id(uq)), (up, uq, []))[2].append(r)
        # [a, b, low sum, high sum, {r: (Q_r row over x, its min, its max)}]
        cands = []
        for a, b, s, t in moves:
            lo = hi = inner((a, b)) - inner((s, t))
            rows = {}
            for up, uq, rs in joins.values():
                row = [w + x - y - z for w, x, y, z in zip(up[a], uq[b], up[s], uq[t])]
                part = row, min(row), max(row)
                lo += part[1] * len(rs)
                hi += part[2] * len(rs)
                rows.update(dict.fromkeys(rs, part))
            cands.append([a, b, lo, hi, rows])
        if not any(fails(c[2], c[3]) for c in cands):
            continue
        f = []
        for pos in range(n):
            for v in cells:
                if pos in (p, q):
                    kept = [c for c in cands if c[pos - p] == v]
                    if any(fails(c[2], c[3]) for c in kept):
                        cands = kept
                        break
                elif any(fails(c[2] + c[4][pos][0][v] - c[4][pos][1],
                               c[3] + c[4][pos][0][v] - c[4][pos][2]) for c in cands):
                    for c in cands:
                        row, lo, hi = c[4][pos]
                        c[2] += row[v] - lo
                        c[3] += row[v] - hi
                    break
            f.append(v)
        f = tuple(f)
        g = f[:p] + stats(f[p:q + 1]) + f[q + 1:]
        total = _term_sum(terms, m)
        return (f, g, p), total(f), total(g)
    return None


def _window_move(L, f: tuple, j: int, k: int) -> tuple:
    """f with its k-wide window at j replaced by the window's order
    statistics, from the public `order_statistics_tuple`: the move that a
    replay recomputes."""
    return f[:j] + order_statistics_tuple(L, f[j:j + k]) + f[j + k:]


def _replayed(lam: TupleFunctional, rel: TransitiveRelation, first, elems: list,
              scale: Optional[int], oracle: Callable[[tuple, int], tuple]) -> Optional[Witness]:
    """The witness of a scan's first violation ((f, g, j), lhs, rhs) on ids
    and on the scan's scale, or None, re-proved through the element oracle:
    the values are mapped back as Fraction(v, scale), oracle(f, j) gives
    the moved tuple, recomputed from f on elements (`_window_move`), and the
    witness note, and both values are recomputed with fn and compared
    again.  A disagreement is a fault of a fast path, so it raises
    InternalError and is never reported as a violation."""
    if first is None:
        return None
    (f, g, j), lhs, rhs = first
    if scale is not None:
        lhs, rhs = Fraction(lhs, scale), Fraction(rhs, scale)
    f, g = (tuple(elems[i] for i in ids) for ids in (f, g))
    oracle_g, note = oracle(f, j)
    want = lam.fn(f), lam.fn(oracle_g)
    if g != oracle_g or (lhs, rhs) != want or rel.holds(*want):
        raise InternalError(
            f"witness replay disagrees at {f!r}: the scan moved it to {g!r} with "
            f"values {lhs}, {rhs}; the oracle moves it to {oracle_g!r} with values "
            f"{want[0]}, {want[1]}")
    return Witness(args=f, lhs=lhs, rhs=rhs, note=note)


def _derive_seed(seed: int, i: int) -> int:
    # 64-bit splitmix-style stream derivation so trial i depends on (seed, i) only
    x = (seed + (i + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _window_scan(L, lam: TupleFunctional, k: int, rel: TransitiveRelation,
                 mode: str, seed: Optional[int], trials: int, budget: int,
                 windowed: bool) -> CheckReport:
    """Scan (f, f with its k-wide window at j sorted into order statistics).
    The full check is the single window k = n with windowed=False: its
    witnesses carry no window note and sampled trials draw no window.  An
    exhaustive scan of a symmetric functional under ge, le or eq enumerates
    window 0 as sorted window times sorted rest, and an exhaustive k = 2
    scan with integer terms under ge, le or eq enumerates nothing
    (`_pair_windows`; see the module docstring).  An exhaustive ge scan of a
    functional that declares `ge_by_theorem` for this function lattice
    holds with nothing compiled or enumerated.  Whichever route ran, its
    first violation is replayed once, through `order_statistics_tuple` and
    fn, before it is reported (`_replayed`).  Every scan is charged the
    instances its report counts: the exhaustive tuples or the sampled
    trials.  A scan with k = 1 is vacuous: it validates mode and seed, then
    checks nothing."""
    if mode == "sampled":
        if seed is None:
            raise InputError("sampled mode requires a seed")
    elif mode == "exhaustive":
        seed = None  # exhaustive reports echo no seed
    else:
        raise InputError(f"unknown mode {mode!r}; use exhaustive or sampled")
    if k == 1:
        if windowed:
            vacuous = "1-wide windows equal their order statistics"
        else:
            vacuous = "1-tuples equal their order statistics"
        return CheckReport(instances_checked=0, mode=mode, seed=seed,
                           detail={"vacuous": vacuous})
    n = lam.arity
    m = L.size
    windows = n - k + 1
    total, unit = ((windows * m ** n, "tuples of the exhaustive") if mode == "exhaustive"
                   else (trials, "trials of the sampled"))
    charge(total, budget, f"{unit} {'windowed scan' if windowed else 'scan'} of L^{n}")
    if (mode == "exhaustive" and rel.kind == "ge" and lam.ge_by_theorem
            and lam.lattice is L and isinstance(L, FnLattice)):
        # holds by theorem (see `TupleFunctional`): nothing to enumerate
        return CheckReport(instances_checked=total)
    compiled = _CompiledLattice.of(L)
    if mode == "exhaustive":  # every pair is read, and the m^2 reads are charged
        compiled.whole()
    stats = compiled.order_statistics()
    evaluate, scale, terms = _evaluator(lam, rel, compiled.elems, total)
    sort = lam.symmetric and rel.kind != "custom"  # once per multiset

    def instance(j: int, f: tuple):
        return f, f[:j] + stats(f[j:j + k]) + f[j + k:], j

    if mode == "sampled":
        def draws():
            for i in range(trials):
                rng = random.Random(_derive_seed(seed, i))
                j = rng.randrange(windows) if windowed else 0
                yield instance(j, tuple(rng.randrange(m) for _ in range(n)))
        instances = draws()
    elif k == n:  # the one window is the whole tuple: nothing to slice
        tuples = (combinations_with_replacement(range(m), n) if sort
                  else product(range(m), repeat=n))
        instances = ((f, stats(f), 0) for f in tuples)
    elif sort:
        instances = ((w + r, stats(w) + r, 0) for w, r in product(
            combinations_with_replacement(range(m), k),
            combinations_with_replacement(range(m), n - k)))
    else:
        instances = (instance(j, f) for j in range(windows)
                     for f in product(range(m), repeat=n))

    if mode == "exhaustive" and k == 2 and rel.kind != "custom" and terms is not None:
        first = _pair_windows(rel, terms, m, n, stats, lam.symmetric)
    else:
        # at k = n the multisets come sorted, and the insertion chain's
        # order statistics are sorted by id: a chain has nondecreasing digits
        presorted = mode == "exhaustive" and k == n and compiled.by_swaps
        # the odometer of a full check meets each tuple once
        once = mode == "exhaustive" and k == n and not sort
        first = _scan(rel, instances, evaluate, scale, sort and not presorted, once)
    witness = _replayed(lam, rel, first, compiled.elems, scale, lambda f, j: (
        _window_move(L, f, j, k), f"window start {j}" if windowed else ""))
    # total counts every tuple covered, also when multisets or pair tables
    # stand for them and when the scan ended at its first violation
    return CheckReport(instances_checked=total, witness=witness, mode=mode, seed=seed)


# --- the checkers ---
# jobs is accepted for interface stability and does not change execution:
# every scan runs in this process.

def check_generalized_n(L, lam: TupleFunctional, rel: TransitiveRelation, *,
                        mode: str = "exhaustive", seed: Optional[int] = None,
                        trials: int = 1000, budget: int = DEFAULT_BUDGET,
                        jobs: int = 1) -> CheckReport:
    """Verify rel(lam(f), lam(order statistics of f)) over L^n."""
    return _window_scan(L, lam, lam.arity, rel, mode, seed, trials, budget,
                        windowed=False)


def check_generalized_nk(L, lam: TupleFunctional, k: int, rel: TransitiveRelation, *,
                         mode: str = "exhaustive", seed: Optional[int] = None,
                         trials: int = 1000, budget: int = DEFAULT_BUDGET,
                         jobs: int = 1) -> CheckReport:
    """Verify the windowed form: every contiguous k-argument slice, with the
    other arguments fixed, satisfies the k-ary check.  One instance is one
    (window position, full tuple) pair."""
    n = lam.arity
    if not 1 <= k <= n:
        raise InputError(f"window width {k} out of range 1..{n}")
    return _window_scan(L, lam, k, rel, mode, seed, trials, budget, windowed=True)


def check_relaxed_hypothesis(L, lam: TupleFunctional, rel: TransitiveRelation, *,
                             budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Weaker-than-windowed hypothesis: only tuples whose first j entries are
    already a nondecreasing chain must improve under the (j, j+1) meet/join
    swap."""
    n = lam.arity
    if n < 2:
        raise InputError("relaxed hypothesis needs arity >= 2")
    m = L.size
    total = (n - 1) * m ** n
    charge(total, budget, f"tuples of the relaxed-hypothesis scan of L^{n}")
    compiled = _CompiledLattice.of(L).whole()
    meet, join = compiled.meet, compiled.join
    # ids above a, ascending; only chains of length >= 2 need them
    up = [[b for b in range(m) if meet[a * m + b] == a] for a in range(m)] if n > 2 else []

    def chains(length: int):
        """Id chains c_1 <= ... <= c_length, in lexicographic order."""
        if length == 1:
            yield from ((a,) for a in range(m))
            return
        for c in chains(length - 1):
            for b in up[c[-1]]:
                yield c + (b,)

    def instances():
        for j in range(1, n):  # 1-based length of the sorted prefix
            for prefix in chains(j):
                for rest in product(range(m), repeat=n - j):
                    f = prefix + rest
                    key = f[j - 1] * m + f[j]
                    yield f, f[:j - 1] + (meet[key], join[key]) + f[j + 1:], j

    def oracle(f: tuple, j: int):
        if not all(L.leq(f[i], f[i + 1]) for i in range(j - 1)):
            raise InternalError(f"witness replay: the prefix of {f!r} is not a chain")
        # a pair's order statistics are (meet, join) on every lattice
        return _window_move(L, f, j - 1, 2), f"sorted prefix length {j}"

    evaluate, scale, _ = _evaluator(lam, rel, compiled.elems, total)
    first = _scan(rel, instances(), evaluate, scale, lam.symmetric and rel.kind != "custom")
    witness = _replayed(lam, rel, first, compiled.elems, scale, oracle)
    # the instances covered, also when the scan ended at its first violation
    count = sum(sum(1 for _ in chains(j)) * m ** (n - j) for j in range(1, n))
    return CheckReport(instances_checked=count, witness=witness)


# --- the rearrangement chain ---

def insertion_chain(L, f: Sequence) -> InsertionChain:
    """Build the adjacent meet/join rearrangement that sorts f into its order
    statistics, by the `_insertion_swaps` plan on L.meet and L.join; its
    rows are the last n: before and after each of the last entry's swaps.
    A table lattice must have a Birkhoff embedding: `birkhoff_embed` runs
    until it certifies the table "distributive", refusing a non-lattice or
    non-distributive table on every call.  The chain then runs on the
    table's own meet/join tables, giving the rows the embedding would map
    back, since the embedding is an injective lattice homomorphism."""
    _validate_tuple(L, f)
    if isinstance(L, TableLattice) and L.certified != "distributive":
        birkhoff_embed(L)
    row, rows = list(f), [tuple(f)]
    for i in _insertion_swaps(len(row)):
        a, b = row[i], row[i + 1]
        row[i], row[i + 1] = L.meet(a, b), L.join(a, b)
        rows.append(tuple(row))
    return InsertionChain(rows=tuple(rows[-len(row):]))


def verify_chain_sortedness(chain: InsertionChain) -> CheckReport:
    """Check the partial sortedness every rearrangement row guarantees.

    For row k (k >= 1) of an n-wide chain over function elements, at every
    point: entries are pointwise nondecreasing at adjacent positions
    j..j+1 for j in [1, n-k-2] and [n-k, n-1] (1-based), and position
    n-k-1 is below position n-k+1 whenever k <= n-2.
    """
    rows = chain.rows
    if not rows:
        raise InputError("empty chain")
    n = len(rows[0])
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("chain must have n rows of n entries each")
    for row in rows:
        for e in row:
            if not isinstance(e, tuple):
                raise InputError("chain rows must hold function elements")
    width = len(rows[0][0])
    checked = 0
    first = None

    def record(k, j1, j2, s, a, b):
        nonlocal first
        if first is None:
            first = Witness(args=(k, j1, s), lhs=a, rhs=b,
                            note=f"row {k}: position {j1} above position {j2} at point {s}")

    for k in range(1, n):
        row = rows[k]
        adj = list(range(1, n - k - 1)) + list(range(n - k, n))  # 1-based j values
        for j in adj:
            for s in range(width):
                checked += 1
                if not row[j - 1][s] <= row[j][s]:
                    record(k, j, j + 1, s, row[j - 1][s], row[j][s])
        if k <= n - 2:
            lo, hi = n - k - 2, n - k  # 0-based positions n-k-1 and n-k+1
            for s in range(width):
                checked += 1
                if not row[lo][s] <= row[hi][s]:
                    record(k, lo + 1, hi + 1, s, row[lo][s], row[hi][s])
    return CheckReport(instances_checked=checked, witness=first)


def chain_point_multisets_conserved(chain: InsertionChain) -> bool:
    """True when every row carries the same per-point value multiset as row 0."""
    rows = chain.rows
    width = len(rows[0][0])
    base = [sorted(e[s] for e in rows[0]) for s in range(width)]
    return all(sorted(e[s] for e in row) == base[s]
               for row in rows[1:] for s in range(width))


# --- scalar-valued quadratic functionals and the diamond demo ---

def scalar_quadratic(L, terms: Sequence, n: int) -> TupleFunctional:
    """Functional sum of c * v(f_i) * v(f_j) over the given (c, i, j) terms,
    where v is the element's numeric value and i, j are 1-based argument
    positions: a `form_sum` with one pair value per coefficient.  On a
    `TableLattice` (v its numeric labels, or its ids) and on an `FnLattice`
    of one ground point (v its chain values), each pair value is a
    `KeyedValue` read on integers: c's numerator times the two elements' v
    over their common scale, with no `Fraction` product per entry; a chain
    with an infinite value, and every other carrier, calls the value on
    elements."""
    if isinstance(L, TableLattice):
        numeric = {a: L.element_value(a) for a in L.elements()}.__getitem__
    else:
        def numeric(a):
            if len(a) != 1:
                raise InputError("quadratic functionals need scalar-valued elements")
            return a[0]
    keyed = isinstance(L, TableLattice) or (isinstance(L, FnLattice) and L.ground.size == 1)
    scaled = integer_scale(map(numeric, L.elements())) if keyed else None
    m = L.size

    def value_of(c):
        def value(a, b):
            return c * numeric(a) * numeric(b)
        if scaled is None:
            return value
        scale, ints = scaled
        row = [c.numerator * v for v in ints]
        return KeyedValue(value, L, c.denominator * scale ** 2,
                          lambda key: row[key // m] * ints[key % m])

    values = {}
    forms = []
    for c, i, j in terms:
        if not 1 <= i <= n or not 1 <= j <= n:
            raise InputError(f"term indices ({i},{j}) out of range 1..{n}")
        c = Fraction(c)
        if c not in values:
            values[c] = value_of(c)
        forms.append((values[c], (i - 1, j - 1)))
    return form_sum(n, forms, tag="quadratic", lattice=L)


M3_QUADRATIC_TERMS = ((12, 1, 2), (3, 2, 3), (5, 1, 3))


def m3_quadratic(L=None) -> TupleFunctional:
    """The diamond-lattice demo functional 12ab + 3bc + 5ac on numeric labels."""
    return scalar_quadratic(L if L is not None else build_m3(), M3_QUADRATIC_TERMS, 3)


def run_counterexample_m3() -> dict:
    """Reproduce the diamond-lattice demonstration: the quadratic functional
    passes all 250 pair-window inequalities yet fails the full 3-ary check
    at labels (2,3,4), where it evaluates to 148 against 160 on the order
    statistics (1,5,5)."""
    L = build_m3()
    lam = m3_quadratic(L)
    rel = TransitiveRelation.ge()
    pair = check_generalized_nk(L, lam, 2, rel)
    full = check_generalized_n(L, lam, rel)
    f_ids = tuple(L.id_of(x) for x in (2, 3, 4))
    stats_ids = order_statistics_tuple(L, f_ids)
    dual_ids = order_statistics_dual_tuple(L, f_ids)
    stats_labels = tuple(L.label_of(a) for a in stats_ids)
    dual_labels = tuple(L.label_of(a) for a in dual_ids)
    value_tuple = lam.fn(f_ids)
    value_stats = lam.fn(stats_ids)
    witness_labels = (tuple(L.label_of(a) for a in full.witness.args)
                      if full.witness is not None else None)
    expected = (pair.holds and pair.instances_checked == 250
                and stats_labels == (1, 5, 5) and dual_labels == (1, 1, 5)
                and value_tuple == Fraction(148) and value_stats == Fraction(160)
                and not full.holds)
    return {
        "lattice": "diamond M3 on labels 1..5",
        "pair_window_check": pair,
        "pair_inequalities": pair.instances_checked,
        "order_stats_of_234": stats_labels,
        "dual_order_stats_of_234": dual_labels,
        "value_at_234": value_tuple,
        "value_at_order_stats": value_stats,
        "full_check": full,
        "full_check_witness_labels": witness_labels,
        "expected_violation_reproduced": expected,
    }


# --- regression harness for the pair-to-full reduction ---

def reduction_regression(generator: Callable, trials: int, seed: int, *,
                         rel: Optional[TransitiveRelation] = None,
                         budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Generate functionals from families built to pass the pair-window check
    and confirm each also passes the full check on its (distributive)
    carrier.  A functional failing its own pair-window precondition is
    flagged, not counted as a falsification; a pair-passing functional that
    fails the full check is a falsification and is reported with its
    witness.
    """
    if rel is None:
        rel = TransitiveRelation.ge()
    rng = random.Random(seed)
    verified = 0
    flagged = 0
    first = None
    for t in range(trials):
        L, lam = generator(rng)
        pair = check_generalized_nk(L, lam, 2, rel, budget=budget)
        if not pair.holds:
            flagged += 1
            continue
        full = check_generalized_n(L, lam, rel, budget=budget)
        verified += 1
        if not full.holds and first is None:
            first = Witness(args=full.witness.args, lhs=full.witness.lhs,
                            rhs=full.witness.rhs,
                            note=f"trial {t}, functional {lam.tag!r} passed pair windows "
                                 "but failed the full check")
    return CheckReport(instances_checked=verified, witness=first, mode="sampled",
                       seed=seed, detail={"trials": trials, "precondition_failures": flagged})
