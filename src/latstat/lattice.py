"""Finite lattice backends and lattice order statistics.

Two element representations share one interface (elements, index = position
in elements(), contains, meet, join, leq): explicit meet-join tables, and
functions from a small ground set into a finite chain, with pointwise min/max.
The public order-statistic functions evaluate the defining subset
formulas, folding each subset from its prefix in the literal bracketing, and
serve as the oracle (witness replay goes through them); the pointwise
per-point sort is provided separately for function elements.  Scans go
through `_CompiledLattice` instead, one per lattice for its lifetime,
shared by verification and every scan: elements become ids in `elements()`
order, and meet and join become id tables, from chain digits on an
`FnLattice` (filled lazily per pair, or whole by `_CompiledLattice.whole`),
else from the carrier's own id rows.  Its order statistics take one of two
engines, chosen by the carrier's kind.  An `FnLattice` is a product of
chains, so distributive, and there the paper's insertion chain sorts any
window by n(n - 1)/2 adjacent (meet, join) swaps on the id tables
(`_insertion_swaps`).  Every other carrier (M3, any `TableLattice`) runs
`_subset_rows`, the formula's one executor, on id-table lookups, memoized
by the sorted window: off a distributive lattice the swaps need not give
the order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import islice, product
from typing import Optional, Sequence

from .report import CheckReport, Witness
from .scalars import (
    INF,
    InputError,
    as_scalar,
    charge,
    is_inf,
)

DEFAULT_MAX_GROUND = 6
DEFAULT_MAX_CHAIN = 6
DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class GroundSet:
    """The index set that function elements are defined over."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError("ground set must have at least one point")


# --- pointwise operations on function elements (plain tuples of scalars) ---

def fn_meet(a: tuple, b: tuple) -> tuple:
    return tuple(x if x <= y else y for x, y in zip(a, b))


def fn_join(a: tuple, b: tuple) -> tuple:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def fn_leq(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def fn_diff(a: tuple, b: tuple) -> tuple:
    """a \\ b := a - (a meet b), computed pointwise."""
    out = []
    for x, y in zip(a, b):
        m = x if x <= y else y
        if is_inf(x):
            out.append(Fraction(0) if is_inf(m) else INF)
        else:
            out.append(x - m)
    return tuple(out)


class FnLattice:
    """All functions from a ground set into a fixed finite chain of values.

    A product of chains, hence always distributive; closed under pointwise
    min and max by construction.
    """

    def __init__(self, ground, chain: Sequence, *, max_ground: int = DEFAULT_MAX_GROUND,
                 max_chain: int = DEFAULT_MAX_CHAIN):
        if isinstance(ground, int):
            ground = GroundSet(ground)
        self.ground = ground
        if ground.size > max_ground:
            raise InputError(
                f"ground size {ground.size} exceeds cap {max_ground} "
                "(pass max_ground to override)")
        if len(chain) > max_chain:  # before any value is converted
            raise InputError(
                f"chain length {len(chain)} exceeds cap {max_chain} "
                "(pass max_chain to override)")
        vals = tuple(as_scalar(v) for v in chain)
        if len(vals) < 1:
            raise InputError("value chain must be nonempty")
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise InputError("value chain must be strictly increasing")
        self.chain = vals
        self._digit = {v: d for d, v in enumerate(vals)}
        self._elements: Optional[list] = None

    @classmethod
    def zero_to(cls, ground_size: int, top: int, **kw) -> "FnLattice":
        return cls(ground_size, range(top + 1), **kw)

    @classmethod
    def symmetric(cls, ground_size: int, absmax: int, **kw) -> "FnLattice":
        return cls(ground_size, range(-absmax, absmax + 1), **kw)

    @property
    def size(self) -> int:
        return len(self.chain) ** self.ground.size

    def elements(self) -> list:
        if self._elements is None:
            self._elements = [tuple(v) for v in product(self.chain, repeat=self.ground.size)]
        return self._elements

    def index(self, a) -> int:
        """Position in `elements()`: `a`'s chain positions as base-c digits."""
        i, digit, c = 0, self._digit, len(self.chain)
        for v in a:
            i = i * c + digit[v]
        return i

    def pick_id(self, a: int, b: int, pick) -> int:
        """Id of the pointwise pick (min: meet, max: join) of ids a and b, on `index`'s digits."""
        i, place, c = 0, 1, len(self.chain)
        while a or b:
            (a, x), (b, y) = divmod(a, c), divmod(b, c)
            i, place = i + place * pick(x, y), place * c
        return i

    def contains(self, a) -> bool:
        return (isinstance(a, tuple) and len(a) == self.ground.size
                and all(v in self._digit for v in a))

    def meet(self, a, b):
        return fn_meet(a, b)

    def join(self, a, b):
        return fn_join(a, b)

    def leq(self, a, b) -> bool:
        return fn_leq(a, b)

    def __repr__(self):
        return f"FnLattice(ground={self.ground.size}, chain={list(self.chain)})"


class TableLattice:
    """A finite lattice given by explicit N x N meet and join tables over ids 0..N-1."""

    def __init__(self, n_elems: int, meet_table, join_table, labels: Optional[Sequence] = None):
        if n_elems < 1:
            raise InputError("lattice must have at least one element")
        self.n = n_elems
        self._meet = _check_table(meet_table, n_elems, "meet")
        self._join = _check_table(join_table, n_elems, "join")
        if labels is not None:
            labels = list(labels)
            if len(labels) != n_elems or len(set(labels)) != n_elems:
                raise InputError("labels must be distinct and match the element count")
        self.labels = labels
        self._embeds = False  # set once birkhoff_embed accepts this table (insertion_chain)

    @property
    def size(self) -> int:
        return self.n

    def elements(self) -> list:
        return list(range(self.n))

    def index(self, a: int) -> int:
        return a

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.n

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def leq(self, a: int, b: int) -> bool:
        return self._meet[a][b] == a

    def id_of(self, label) -> int:
        if self.labels is None:
            raise InputError("lattice carries no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}")

    def label_of(self, a: int):
        return self.labels[a] if self.labels is not None else a

    def element_value(self, a: int) -> Fraction:
        """Numeric value of an element for scalar-valued functionals: its
        numeric label when labels are numeric, else the raw id."""
        if self.labels is not None:
            lab = self.labels[a]
            if isinstance(lab, (int, Fraction)) and not isinstance(lab, bool):
                return Fraction(lab)
            raise InputError(f"label {lab!r} is not numeric")
        return Fraction(a)

    def __repr__(self):
        return f"TableLattice(n={self.n})"


def _check_table(table, n: int, name: str):
    rows = [list(r) for r in table]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError(f"{name} table must be {n}x{n}")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InputError(f"{name}[{i}][{j}] = {v!r} is not an element id")
    return rows


# --- public element operations with membership validation ---

def _require_member(L, a):
    if not L.contains(a):
        raise InputError(f"element {a!r} is not in the lattice")


def meet(L, a, b):
    _require_member(L, a)
    _require_member(L, b)
    return L.meet(a, b)


def join(L, a, b):
    _require_member(L, a)
    _require_member(L, b)
    return L.join(a, b)


def leq(L, a, b) -> bool:
    _require_member(L, a)
    _require_member(L, b)
    return L.leq(a, b)


# --- structural checks ---

def validate_table_lattice(t: TableLattice, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Exhaustively verify the lattice axioms on the tables: commutativity,
    idempotence, absorption, associativity.  Reports the first violation.
    The n^3 triples are charged to the budget first."""
    n = t.n
    charge(n ** 3, budget, "lattice axiom triples")
    checked = 0
    for a in range(n):
        checked += 2
        if t.meet(a, a) != a:
            return _axiom_fail((a,), t.meet(a, a), a, "meet idempotence", checked)
        if t.join(a, a) != a:
            return _axiom_fail((a,), t.join(a, a), a, "join idempotence", checked)
    for a, b in product(range(n), repeat=2):
        checked += 4
        if t.meet(a, b) != t.meet(b, a):
            return _axiom_fail((a, b), t.meet(a, b), t.meet(b, a), "meet commutativity", checked)
        if t.join(a, b) != t.join(b, a):
            return _axiom_fail((a, b), t.join(a, b), t.join(b, a), "join commutativity", checked)
        if t.join(a, t.meet(a, b)) != a:
            return _axiom_fail((a, b), t.join(a, t.meet(a, b)), a, "absorption join(a, meet(a,b))", checked)
        if t.meet(a, t.join(a, b)) != a:
            return _axiom_fail((a, b), t.meet(a, t.join(a, b)), a, "absorption meet(a, join(a,b))", checked)
    for a, b, c in product(range(n), repeat=3):
        checked += 2
        if t.meet(a, t.meet(b, c)) != t.meet(t.meet(a, b), c):
            return _axiom_fail((a, b, c), t.meet(a, t.meet(b, c)),
                               t.meet(t.meet(a, b), c), "meet associativity", checked)
        if t.join(a, t.join(b, c)) != t.join(t.join(a, b), c):
            return _axiom_fail((a, b, c), t.join(a, t.join(b, c)),
                               t.join(t.join(a, b), c), "join associativity", checked)
    return CheckReport(instances_checked=checked)


def _axiom_fail(args, lhs, rhs, law, checked) -> CheckReport:
    return CheckReport(instances_checked=checked,
                       witness=Witness(args=args, lhs=lhs, rhs=rhs, note=law))


def require_lattice(t: TableLattice, budget: int = DEFAULT_BUDGET) -> None:
    """Refuse tables that break a lattice axiom, naming the first broken law."""
    ok = validate_table_lattice(t, budget)
    if not ok.holds:
        raise InputError(f"not a lattice: {ok.witness.note} at {ok.witness.args}")


def is_distributive(L, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Check a meet (b join c) == (a meet b) join (a meet c) over all triples.
    The |L|^3 triples are charged, and counted, before any element is
    listed; the check ends at the first witness."""
    total = L.size ** 3
    charge(total, budget, "distributivity triples")
    for a, b, c in product(L.elements(), repeat=3):
        lhs = L.meet(a, L.join(b, c))
        rhs = L.join(L.meet(a, b), L.meet(a, c))
        if lhs != rhs:
            return CheckReport(instances_checked=total, witness=Witness(
                args=(a, b, c), lhs=lhs, rhs=rhs,
                note="a meet (b join c) != (a meet b) join (a meet c)"))
    return CheckReport(instances_checked=total)


# --- order statistics ---

def _validate_tuple(L, f):
    if len(f) < 1:
        raise InputError("tuple must have at least one element")
    for a in f:
        _require_member(L, a)


@cache
def _subset_formula(n: int) -> tuple:
    """The plan, built once per n, of the subset formulas of an n-tuple f:
    per level j = 1..n, None at j = 1 (the level is f), then the j-subsets
    J in `combinations` order as (p, i), the position of J[:-1] in level
    j - 1 and the index i = J[-1] it adds.  Level j holds inner(entry p of
    level j - 1, f[i]), one inner call per subset in the literal bracketing
    and argument order (so equal even on tables that break the axioms), and
    row j is its left `outer` fold.  `_subset_rows` is the plan's one
    executor: the public functions run it on the lattice's meet and join,
    as the oracle, and `_CompiledLattice` on lookups in its id tables."""
    plan, lasts = [None], range(n)
    for _ in range(1, n):
        steps = tuple((p, i) for p, last in enumerate(lasts) for i in range(last + 1, n))
        plan.append(steps)
        lasts = [i for _, i in steps]
    return tuple(plan)


def _subset_rows(f, inner, outer):
    """Yields rows j = 1..n of the `_subset_formula` plan for f."""
    level = f
    for steps in _subset_formula(len(f)):
        if steps is not None:
            level = [inner(level[p], f[i]) for p, i in steps]
        yield reduce(outer, level)


def order_statistics(L, f: Sequence, j: int):
    """The j-th order statistic: meet over all j-element subsets of the
    join of each subset."""
    n = len(f)
    if not 1 <= j <= n:
        raise InputError(f"order statistic index {j} out of range 1..{n}")
    _validate_tuple(L, f)
    return next(islice(_subset_rows(f, L.join, L.meet), j - 1, None))


def order_statistics_tuple(L, f: Sequence) -> tuple:
    _validate_tuple(L, f)
    return tuple(_subset_rows(f, L.join, L.meet))


def order_statistics_dual(L, f: Sequence, j: int):
    """Dual formula: join over all (n+1-j)-element subsets of the meet of
    each subset.  Equals the primal formula exactly on distributive lattices."""
    n = len(f)
    if not 1 <= j <= n:
        raise InputError(f"order statistic index {j} out of range 1..{n}")
    _validate_tuple(L, f)
    return next(islice(_subset_rows(f, L.meet, L.join), n - j, None))


def order_statistics_dual_tuple(L, f: Sequence) -> tuple:
    _validate_tuple(L, f)
    return tuple(_subset_rows(f, L.meet, L.join))[::-1]


class _Memo(dict):
    """fn evaluated once per key, on the key's first lookup: `memo[key]`
    stores and returns fn(key), so every evaluation (and any error it
    raises) happens at the same lookup as without the memo."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@cache
def _insertion_swaps(n: int) -> tuple:
    """The insertion chain's swap plan, built once per n and run on elements
    (`semimod.insertion_chain`) and on ids (`_CompiledLattice`): for
    p = 1..n - 1, entry p enters the sorted prefix by swaps at i = p - 1
    down to 0, each replacing (row[i], row[i + 1]) by their (meet, join).
    n(n - 1)/2 swaps in all; on a distributive lattice they sort any tuple
    into its order statistics."""
    return tuple(i for p in range(1, n) for i in range(p - 1, -1, -1))


def _digit_table(c: int, g: int, pick) -> list:
    """The flat id table, keyed a * m + b over the m = c^g ids of g-digit
    base-c numbers (an `FnLattice`'s `index`), of the digitwise pick (min:
    meet, max: join).  Built one digit at a time: with the new leading
    digits x of a and y of b, entry (a, b) is pick(x, y) followed by the
    entry of the remaining digits, read from the table one digit shorter.
    Every entry of the result is one of m shared id objects."""
    table, size = [0], 1
    for _ in range(g):
        ids = list(range(c * size))
        shifted = [ids[z * size:(z + 1) * size].__getitem__ for z in range(c)]
        rows = [table[r * size:(r + 1) * size] for r in range(size)]
        table = []
        for x in range(c):
            for row in rows:
                for y in range(c):
                    table += map(shifted[pick(x, y)], row)
        size *= c
    return table


class _CompiledLattice:
    """A lattice's elements as ids 0..m-1 in `L.elements()` order, with
    meet and join id tables keyed a * m + b.  On an `FnLattice` they start
    lazy (`L.pick_id`), so a sampled scan fills only the pairs it draws,
    until a caller that reads every pair calls `whole`; every other carrier
    hands over its own id rows (`_meet`, `_join`), flattened once.
    `by_swaps` records the order-statistic engine, chosen once: the
    insertion chain on an `FnLattice`, distributive by construction, and
    the subset formula on every other carrier."""

    def __init__(self, L):
        elems = self.elems = L.elements()
        m = self.m = len(elems)
        self.by_swaps = isinstance(L, FnLattice)
        if self.by_swaps:
            # held apart from L: whole tables keep no reference to L, so L
            # and its tables go with L's last user
            self._digits = (len(L.chain), L.ground.size)
            self.meet = _Memo(lambda key: L.pick_id(*divmod(key, m), min))
            self.join = _Memo(lambda key: L.pick_id(*divmod(key, m), max))
        else:
            self.meet, self.join = ([v for row in rows for v in row] for rows in (L._meet, L._join))

    def whole(self) -> "_CompiledLattice":
        """Fill both tables whole, as flat lists of m^2 ids, for a caller
        that reads every pair (its m^2 reads are charged already): on an
        `FnLattice` from chain digits (`_digit_table`), with no element;
        other carriers' tables are whole from the start.  A list holds an
        entry in one slot, against a dict's hash, key and value."""
        if isinstance(self.meet, _Memo):
            self.meet, self.join = (_digit_table(*self._digits, pick) for pick in (min, max))
        return self

    @classmethod
    def of(cls, L) -> "_CompiledLattice":
        """L's one compiled carrier, built on first use and kept on L for its lifetime."""
        if getattr(L, "_compiled", None) is None:
            L._compiled = cls(L)
        return L._compiled

    def order_statistics(self):
        """The map from a tuple of ids, in any order, to the ids of its
        order statistics, read off the meet and join id tables.  With
        `by_swaps`, the `_insertion_swaps` plan runs on a copy of the window,
        with no memo: an exhaustive scan of a symmetric functional meets
        each window once.  Otherwise `_subset_rows` runs the plan of
        `_subset_formula` on table lookups; that formula is symmetric in its
        arguments on every lattice, so rows are memoized by the sorted window."""
        meet, join, m = self.meet, self.join, self.m
        if self.by_swaps:
            def chain(w):
                row = list(w)
                for i in _insertion_swaps(len(row)):
                    key = row[i] * m + row[i + 1]
                    row[i] = meet[key]
                    row[i + 1] = join[key]
                return tuple(row)
            return chain
        rows = _Memo(lambda w: tuple(_subset_rows(
            w, lambda a, b: join[a * m + b], lambda a, b: meet[a * m + b])))
        return lambda w: rows[tuple(sorted(w))]


def pointwise_order_statistics(fs: Sequence[tuple]) -> tuple:
    """Sort the values of a tuple of function elements at every point.

    Output tuple j (0-based j-1) is the function whose value at each point
    is the (j)-th smallest of the input values there; per-point multisets
    are preserved.
    """
    if len(fs) < 1:
        raise InputError("tuple must have at least one element")
    width = len(fs[0])
    if any(len(f) != width for f in fs):
        raise InputError("all function elements must share one ground set")
    cols = [sorted(col) for col in zip(*fs)]
    return tuple(tuple(col[j] for col in cols) for j in range(len(fs)))


# --- Birkhoff embedding ---

def birkhoff_embed(t: TableLattice, budget: int = DEFAULT_BUDGET):
    """Embed a distributive table lattice into a 0/1 function lattice.

    Each element maps to the indicator of the set of join-irreducible
    elements below it.  Returns (ambient FnLattice, id -> element map,
    tuple of join-irreducible ids forming the ground set).  Refuses
    non-distributive input, quoting the violating triple; the budget bounds
    the lattice axiom triples (`validate_table_lattice`) and then the
    distributivity triples (`is_distributive`).
    """
    require_lattice(t, budget)
    dist = is_distributive(t, budget)
    if not dist.holds:
        raise InputError(
            f"lattice is not distributive: witness triple {dist.witness.args} "
            f"gives {dist.witness.lhs} != {dist.witness.rhs}")
    bottom = 0
    for a in range(t.n):
        bottom = t.meet(bottom, a)
    irreducibles = []
    for x in range(t.n):
        if x == bottom:
            continue
        below = [y for y in range(t.n) if y != x and t.leq(y, x)]
        v = bottom
        for y in below:
            v = t.join(v, y)
        if v != x:
            irreducibles.append(x)
    ground = tuple(irreducibles)
    if not ground:
        # one-element lattice embeds on a single dummy point
        ambient = FnLattice(1, [Fraction(0), Fraction(1)])
        return ambient, {bottom: (Fraction(0),)}, ground
    one, zero = Fraction(1), Fraction(0)
    # a verified distributive lattice embeds injectively, preserving meet and
    # join (Birkhoff's representation theorem): no check of the map is needed
    mapping = {x: tuple(one if t.leq(g, x) else zero for g in ground) for x in range(t.n)}
    ambient = FnLattice(len(ground), [zero, one],
                        max_ground=max(DEFAULT_MAX_GROUND, len(ground)))
    return ambient, mapping, ground


# --- constructors ---

def lattice_from_order(n: int, leq_pairs, labels: Optional[Sequence] = None) -> TableLattice:
    """Build the meet/join tables from an explicit order relation on ids
    0..n-1.  Verifies the relation is a partial order and that every pair
    has a meet and a join."""
    rel = [[False] * n for _ in range(n)]
    for k, pair in enumerate(leq_pairs):
        pair = list(pair)
        if len(pair) != 2 or any(not isinstance(v, int) or isinstance(v, bool)
                                 or not 0 <= v < n for v in pair):
            raise InputError(f"leq_pairs[{k}] = {pair!r} is not a valid id pair")
        rel[pair[0]][pair[1]] = True
    for a in range(n):
        rel[a][a] = True
    for a in range(n):
        for b in range(n):
            if a != b and rel[a][b] and rel[b][a]:
                raise InputError(f"order is not antisymmetric at ({a},{b})")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rel[a][b] and rel[b][c] and not rel[a][c]:
                    raise InputError(f"order is not transitive at ({a},{b},{c})")
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lows = [c for c in range(n) if rel[c][a] and rel[c][b]]
            tops = [m for m in lows if all(rel[c][m] for c in lows)]
            if len(tops) != 1:
                raise InputError(f"elements ({a},{b}) have no meet")
            meet_t[a][b] = tops[0]
            ups = [c for c in range(n) if rel[a][c] and rel[b][c]]
            bots = [m for m in ups if all(rel[m][c] for c in ups)]
            if len(bots) != 1:
                raise InputError(f"elements ({a},{b}) have no join")
            join_t[a][b] = bots[0]
    return TableLattice(n, meet_t, join_t, labels=labels)


def build_m3() -> TableLattice:
    """The 5-element diamond lattice M3: bottom 1, three mutually
    incomparable middle elements 2,3,4, top 5 (labels 1..5)."""
    pairs_labels = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (1, 5)]
    pairs = [(a - 1, b - 1) for a, b in pairs_labels]
    return lattice_from_order(5, pairs, labels=[1, 2, 3, 4, 5])


def product_of_chains(sizes: Sequence[int], labels: bool = False) -> TableLattice:
    """Table lattice for a product of chains (a convenient distributive family)."""
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("chain sizes must be positive")
    elems = [tuple(v) for v in product(*(range(s) for s in sizes))]
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            meet_t[i][j] = index[tuple(min(x, y) for x, y in zip(a, b))]
            join_t[i][j] = index[tuple(max(x, y) for x, y in zip(a, b))]
    return TableLattice(n, meet_t, join_t, labels=elems if labels else None)
