import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from latstat import (
    BudgetExceededError,
    FnLattice,
    InputError,
    TableLattice,
    birkhoff_embed,
    build_m3,
    insertion_chain,
    is_distributive,
    join,
    leq,
    meet,
    order_statistics,
    order_statistics_dual,
    order_statistics_dual_tuple,
    order_statistics_tuple,
    pointwise_order_statistics,
    product_of_chains,
    validate_table_lattice,
)
from latstat.correlation import ExplicitSublattice
from latstat.lattice import (_CompiledLattice, _insertion_swaps, _subset_rows, fn_diff,
                             fn_join, fn_meet, lattice_from_order)
from latstat.scalars import INF


@pytest.fixture(scope="module")
def m3():
    return build_m3()


@pytest.fixture(scope="module")
def fn22():
    return FnLattice.zero_to(2, 3)


def lab(m3, *labels):
    return tuple(m3.id_of(x) for x in labels)


# --- meet / join / leq ---

def test_fn_meet_join_pointwise(fn22):
    assert meet(fn22, (2, 0), (1, 3)) == (1, 0)
    assert join(fn22, (2, 0), (1, 3)) == (2, 3)
    assert meet(fn22, (2, 1), (2, 1)) == (2, 1)
    assert join(fn22, (2, 1), (2, 1)) == (2, 1)


def test_m3_meet_join_labels(m3):
    a, b = lab(m3, 2, 3)
    assert m3.label_of(meet(m3, a, b)) == 1
    assert m3.label_of(join(m3, a, b)) == 5
    c, d = lab(m3, 2, 4)
    assert m3.label_of(meet(m3, c, d)) == 1
    e, f = lab(m3, 3, 4)
    assert m3.label_of(join(m3, e, f)) == 5


def test_leq(m3, fn22):
    assert leq(fn22, (1, 0), (1, 3))
    assert not leq(fn22, (2, 0), (1, 3))
    a, b = lab(m3, 2, 3)
    assert not leq(m3, a, b)
    assert leq(m3, a, a)
    bot, top = lab(m3, 1, 5)
    assert leq(m3, bot, top)


def test_membership_errors(fn22, m3):
    with pytest.raises(InputError):
        meet(fn22, (9, 9), (0, 0))
    with pytest.raises(InputError):
        join(m3, 0, 17)


# --- table validation ---

def test_validate_m3_and_chain(m3):
    assert validate_table_lattice(m3).holds
    chain = product_of_chains([2])
    assert validate_table_lattice(chain).holds


def test_validate_catches_broken_commutativity():
    chain = product_of_chains([3])
    bad_join = [row[:] for row in chain._join]
    bad_join[0][2] = 0  # join(0,2) != join(2,0)
    bad = TableLattice(3, chain._meet, bad_join)
    report = validate_table_lattice(bad)
    assert not report.holds
    assert "commut" in report.witness.note or "absorption" in report.witness.note


def _patched(rows, entries):
    rows = [row[:] for row in rows]
    for (a, b), v in entries.items():
        rows[a][b] = v
    return rows


# with bottom 0 and top 4: each pair of tables below, one of them patched at
# (2, 3), is commutative, idempotent and absorptive, and breaks one
# associative law at (1, 2, 3)
MEET_NONASSOC = [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 3, 2], [0, 1, 3, 3, 3],
                 [0, 1, 2, 3, 4]]
JOIN_NONASSOC = [[0, 1, 2, 3, 4], [1, 1, 4, 3, 4], [2, 4, 2, 3, 4], [3, 3, 3, 3, 4],
                 [4, 4, 4, 4, 4]]


@pytest.mark.parametrize("meet_fix,join_fix,law,args", [
    ({(1, 1): 0}, {}, "meet idempotence", (1,)),
    ({}, {(1, 1): 2}, "join idempotence", (1,)),
    ({(2, 0): 1}, {}, "meet commutativity", (0, 2)),
    ({}, {(0, 1): 2, (1, 0): 2}, "absorption join(a, meet(a,b))", (1, 0)),
    ({(1, 2): 0, (2, 1): 0}, {}, "absorption meet(a, join(a,b))", (1, 2)),
], ids=["meet-idempotence", "join-idempotence", "meet-commutativity",
        "absorption-join", "absorption-meet"])
def test_validate_reports_the_first_broken_law(meet_fix, join_fix, law, args):
    chain = product_of_chains([3])
    bad = TableLattice(3, _patched(chain._meet, meet_fix), _patched(chain._join, join_fix))
    report = validate_table_lattice(bad)
    assert (report.holds, report.witness.note, report.witness.args) == (False, law, args)


@pytest.mark.parametrize("meet_t,join_t,law", [
    (MEET_NONASSOC, _patched(JOIN_NONASSOC, {(2, 3): 2, (3, 2): 2}), "meet associativity"),
    (_patched(MEET_NONASSOC, {(2, 3): 2, (3, 2): 2}), JOIN_NONASSOC, "join associativity"),
], ids=["meet", "join"])
def test_validate_reports_broken_associativity(meet_t, join_t, law):
    report = validate_table_lattice(TableLattice(5, meet_t, join_t))
    assert (report.holds, report.witness.note, report.witness.args) == (False, law, (1, 2, 3))


def test_table_constructor_rejects_malformed():
    with pytest.raises(InputError):
        TableLattice(2, [[0, 0]], [[0, 1], [1, 1]])
    with pytest.raises(InputError):
        TableLattice(2, [[0, 0], [0, 5]], [[0, 1], [1, 1]])


# --- distributivity ---

def test_m3_not_distributive_with_valid_witness(m3):
    report = is_distributive(m3)
    assert not report.holds
    a, b, c = report.witness.args
    lhs = m3.meet(a, m3.join(b, c))
    rhs = m3.join(m3.meet(a, b), m3.meet(a, c))
    assert lhs != rhs
    assert report.instances_checked == 5 ** 3


def test_distributivity_charges_its_triples_first(m3):
    with pytest.raises(BudgetExceededError, match="^125 distributivity triples exceed budget 124$"):
        is_distributive(m3, budget=124)
    assert not is_distributive(m3, budget=125).holds


def test_fn_lattices_distributive(fn22):
    assert is_distributive(FnLattice.zero_to(1, 2)).holds
    assert is_distributive(fn22).holds


def test_boolean_cube_distributive():
    assert is_distributive(product_of_chains([2, 2, 2])).holds


# --- order statistics ---

def test_order_statistics_on_a_chain():
    L = FnLattice.zero_to(1, 3)
    f = ((3,), (1,), (2,))
    assert order_statistics_tuple(L, f) == ((1,), (2,), (3,))
    assert order_statistics(L, f, 1) == (1,)
    assert order_statistics(L, f, 3) == (3,)


def test_order_statistics_on_m3(m3):
    f = lab(m3, 2, 3, 4)
    stats = order_statistics_tuple(m3, f)
    assert tuple(m3.label_of(x) for x in stats) == (1, 5, 5)
    dual = order_statistics_dual_tuple(m3, f)
    assert tuple(m3.label_of(x) for x in dual) == (1, 1, 5)


def test_order_statistics_extremes(fn22):
    elems = fn22.elements()
    rng = random.Random(3)
    for _ in range(50):
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(3))
        all_meet = f[0]
        all_join = f[0]
        for x in f[1:]:
            all_meet = fn22.meet(all_meet, x)
            all_join = fn22.join(all_join, x)
        assert order_statistics(fn22, f, 1) == all_meet
        assert order_statistics(fn22, f, 3) == all_join
        assert order_statistics_dual(fn22, f, 1) == all_meet


def test_order_statistics_index_errors(fn22):
    with pytest.raises(InputError):
        order_statistics(fn22, ((0, 0),), 2)
    with pytest.raises(InputError):
        order_statistics_dual(fn22, ((0, 0),), 0)


def test_order_statistics_permutation_invariant(fn22):
    elems = fn22.elements()
    rng = random.Random(11)
    for _ in range(30):
        f = [elems[rng.randrange(len(elems))] for _ in range(4)]
        stats = order_statistics_tuple(fn22, tuple(f))
        rng.shuffle(f)
        assert order_statistics_tuple(fn22, tuple(f)) == stats


def test_dual_agrees_on_distributive_lattices():
    for L in (FnLattice.zero_to(1, 3), FnLattice.zero_to(2, 1),
              product_of_chains([2, 3])):
        elems = L.elements()
        for n in (1, 2, 3):
            for f in product(elems, repeat=n):
                assert order_statistics_tuple(L, f) == \
                    order_statistics_dual_tuple(L, f)


def test_dual_below_primal_everywhere_on_m3(m3):
    for f in product(m3.elements(), repeat=3):
        primal = order_statistics_tuple(m3, f)
        dual = order_statistics_dual_tuple(m3, f)
        assert all(m3.leq(d, p) for d, p in zip(dual, primal))


def test_dual_agreement_up_to_27_elements_and_n4():
    cube27 = product_of_chains([3, 3, 3])
    assert cube27.size == 27
    for n in (1, 2, 3):
        for f in product(cube27.elements(), repeat=n):
            assert order_statistics_tuple(cube27, f) == \
                order_statistics_dual_tuple(cube27, f)
    small = product_of_chains([2, 2])
    for f in product(small.elements(), repeat=4):
        assert order_statistics_tuple(small, f) == \
            order_statistics_dual_tuple(small, f)


def literal_subset_formula(L, f, dual=False):
    """The defining formula evaluated literally: the j-th is the meet, in
    `combinations` order, of the left-folded join of each j-subset; the
    dual swaps meet and join and takes (n+1-j)-subsets."""
    inner, outer = (L.meet, L.join) if dual else (L.join, L.meet)
    n, out = len(f), []
    for j in range(1, n + 1):
        best = None
        for J in combinations(range(n), n + 1 - j if dual else j):
            v = f[J[0]]
            for i in J[1:]:
                v = inner(v, f[i])
            best = v if best is None else outer(best, v)
        out.append(best)
    return tuple(out)


def random_table(rng, size):
    """Random meet and join tables: almost never a lattice, so any change
    of bracketing or argument order shows."""
    def table():
        return [[rng.randrange(size) for _ in range(size)] for _ in range(size)]
    return TableLattice(size, table(), table())


@pytest.mark.parametrize("make", [
    lambda rng: FnLattice.zero_to(2, 3),
    lambda rng: product_of_chains([2, 3, 2]),
    lambda rng: build_m3(),
    lambda rng: random_table(rng, rng.randint(2, 5)),
], ids=["fn", "chains", "m3", "non_lattice"])
def test_every_engine_matches_the_literal_subset_formula(make):
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(4):
            L = make(rng)
            elems = L.elements()
            f = tuple(rng.choice(elems) for _ in range(n))
            primal = literal_subset_formula(L, f)
            dual = literal_subset_formula(L, f, dual=True)
            assert order_statistics_tuple(L, f) == primal
            assert order_statistics_dual_tuple(L, f) == dual
            for j in range(1, n + 1):
                assert order_statistics(L, f, j) == primal[j - 1]
                assert order_statistics_dual(L, f, j) == dual[j - 1]
            # either compiled engine gives the formula's result on the sorted window
            compiled = _CompiledLattice(L)
            ids = [compiled.elems.index(a) for a in f]
            window = tuple(compiled.elems[i] for i in sorted(ids))
            assert tuple(compiled.elems[i] for i in compiled.order_statistics()(ids)) == \
                literal_subset_formula(L, window)


class CountingLattice:
    def __init__(self, L):
        self.L, self.meets, self.joins = L, 0, 0

    def contains(self, a):
        return self.L.contains(a)

    def meet(self, a, b):
        self.meets += 1
        return self.L.meet(a, b)

    def join(self, a, b):
        self.joins += 1
        return self.L.join(a, b)


def test_subset_formula_costs_one_call_per_subset(fn22):
    # 2^9 - 9 - 1 subsets of size >= 2: one inner call each, and as many
    # outer calls (C(9, j) - 1 per order statistic)
    f = tuple(random.Random(5).choice(fn22.elements()) for _ in range(9))
    primal = CountingLattice(fn22)
    order_statistics_tuple(primal, f)
    assert (primal.joins, primal.meets) == (502, 502)
    dual = CountingLattice(fn22)
    order_statistics_dual_tuple(dual, f)
    assert (dual.meets, dual.joins) == (502, 502)
    literal = CountingLattice(fn22)
    literal_subset_formula(literal, f)
    assert (literal.joins, literal.meets) == (9 * 2 ** 8 - 2 ** 9 + 1, 502)
    # one statistic stops at its level: the all-meet and the all-join
    single = CountingLattice(fn22)
    order_statistics(single, f, 1)
    order_statistics_dual(single, f, 9)
    assert (single.joins, single.meets) == (8, 8)


# --- pointwise order statistics ---

def test_pointwise_sort_example():
    assert pointwise_order_statistics(((1, 0), (0, 1))) == ((0, 0), (1, 1))


def test_pointwise_identical_tuple():
    f = (Fraction(2), Fraction(5))
    assert pointwise_order_statistics((f, f, f)) == (f, f, f)


def test_pointwise_matches_subset_formula(fn22):
    elems = fn22.elements()
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        assert pointwise_order_statistics(f) == order_statistics_tuple(fn22, f)


@pytest.mark.parametrize("make", [lambda: FnLattice.zero_to(2, 2),
                                  lambda: FnLattice.symmetric(2, 1),
                                  lambda: FnLattice(2, [0, Fraction(1, 2), 3]),
                                  lambda: product_of_chains([2, 3]), build_m3],
                         ids=["fn", "symmetric", "fraction-chain", "chains", "m3"])
def test_compiled_order_statistics_match_subset_formula(make):
    # every k-tuple, so every permutation of each sorted-window memo key
    L = make()
    compiled = _CompiledLattice(L)
    elems = compiled.elems
    for k in (2, 3, 4):
        stats = compiled.order_statistics()
        for ids in product(range(len(elems)), repeat=k):
            expected = order_statistics_tuple(L, tuple(elems[i] for i in ids))
            assert tuple(elems[i] for i in stats(ids)) == expected


@pytest.mark.parametrize("make", [
    lambda: FnLattice.zero_to(2, 2),
    lambda: FnLattice.zero_to(3, 1),
    lambda: FnLattice.symmetric(2, 1),
    lambda: FnLattice(2, [0, Fraction(1, 2), 3]),
    lambda: FnLattice(2, [Fraction(7)]),
    lambda: FnLattice.zero_to(1, 4),
    lambda: FnLattice.symmetric(3, 1),
], ids=["fn", "ground-3", "symmetric", "fraction-chain", "one-value", "ground-1",
        "symmetric-ground-3"])
def test_digit_tables_match_the_generic_fill(make):
    # every pair against the elements' own meet and join, so a digit-wise
    # max for meet or digits read in reverse fail
    L = make()
    digits = _CompiledLattice(L)
    m, elems = digits.m, digits.elems
    for a, b in product(elems, repeat=2):
        key = L.index(a) * m + L.index(b)
        assert digits.meet[key] == L.index(L.meet(a, b))
        assert digits.join[key] == L.index(L.join(a, b))
    assert len(digits.meet) == len(digits.join) == m * m


def test_one_compiled_carrier_per_lattice():
    # built on first use and kept on the lattice, filled entries included
    L, other = FnLattice.zero_to(2, 2), FnLattice.zero_to(2, 2)
    compiled = _CompiledLattice.of(L)
    compiled.meet[5]
    assert _CompiledLattice.of(L) is compiled and len(compiled.meet) == 1
    assert _CompiledLattice.of(other) is not compiled


def test_compiled_tables_fill_lazily():
    L = FnLattice.zero_to(6, 5)
    compiled = _CompiledLattice(L)
    a, b = 7, 40000
    assert compiled.elems[compiled.meet[a * compiled.m + b]] == L.meet(
        compiled.elems[a], compiled.elems[b])
    assert len(compiled.meet) == 1 and len(compiled.join) == 0


# --- the insertion chain on function lattices ---

@pytest.mark.parametrize("n", range(1, 11))
def test_insertion_swaps_sort_every_zero_one_input(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input over a chain, so by coordinates every FnLattice tuple
    assert len(_insertion_swaps(n)) == n * (n - 1) // 2
    bits = FnLattice(1, [0, 1])
    compiled = _CompiledLattice(bits)
    assert compiled.by_swaps and [bits.index(e) for e in bits.elements()] == [0, 1]
    chain = compiled.order_statistics()
    for w in product((0, 1), repeat=n):
        assert chain(w) == tuple(sorted(w))


FN_SET = [
    lambda: FnLattice.zero_to(2, 3),
    lambda: FnLattice.symmetric(1, 2),
    lambda: FnLattice.zero_to(3, 2),
    lambda: FnLattice(2, [-1, Fraction(1, 2), 4, INF]),
]
FN_IDS = ["fn16", "symmetric", "width-3", "inf-chain"]


@pytest.mark.parametrize("make", FN_SET, ids=FN_IDS)
def test_insertion_chain_matches_the_subset_formula(make):
    L = make()
    compiled = _CompiledLattice(L)
    elems, chain = compiled.elems, compiled.order_statistics()
    rng = random.Random(23)
    for n in range(1, 10):
        for _ in range(12):
            ids = tuple(rng.randrange(compiled.m) for _ in range(n))  # unsorted
            f = tuple(elems[i] for i in ids)
            assert tuple(elems[i] for i in chain(ids)) == tuple(_subset_rows(f, L.join, L.meet))


def recursive_insertion_chain(L, f: tuple) -> tuple:
    """The insertion chain's rows by the literal recursion, kept as the
    reference: the chain of f[:-1] sorts it, f[-1] is appended, and swaps at
    i = n - 2 down to 0 move it into place."""
    n = len(f)
    if n == 1:
        return (f,)
    row = recursive_insertion_chain(L, f[:-1])[-1] + (f[-1],)
    rows = [row]
    for k in range(1, n):
        i = n - k - 1
        a, b = row[i], row[i + 1]
        row = row[:i] + (L.meet(a, b), L.join(a, b)) + row[i + 2:]
        rows.append(row)
    return tuple(rows)


@pytest.mark.parametrize("make", FN_SET + [lambda: product_of_chains([2, 3])],
                         ids=FN_IDS + ["chains"])
def test_insertion_chain_rows_match_the_recursive_reference(make):
    # every row, not only the sorted last one, so a swap out of order fails
    L = make()
    elems = L.elements()
    rng = random.Random(29)
    for n in range(1, 8):
        for _ in range(8):
            f = tuple(rng.choice(elems) for _ in range(n))
            assert insertion_chain(L, f).rows == recursive_insertion_chain(L, f)
    with pytest.raises(InputError, match="not distributive"):
        insertion_chain(build_m3(), (1, 2, 3))


@pytest.mark.parametrize("make", FN_SET, ids=FN_IDS)
def test_whole_digit_tables_match_pick_id(make):
    L = make()
    compiled = _CompiledLattice(L).whole()
    m = compiled.m
    assert len(compiled.meet) == len(compiled.join) == m * m
    for a, b in product(range(m), repeat=2):
        assert compiled.meet[a * m + b] == L.pick_id(a, b, min)
        assert compiled.join[a * m + b] == L.pick_id(a, b, max)
    # one id object per id, however many entries hold it
    assert len({id(v) for v in compiled.meet + compiled.join}) == m


@pytest.mark.parametrize("make", [
    build_m3,
    lambda: product_of_chains([2, 3]),
    lambda: ExplicitSublattice.closure([(0, 2), (1, 1), (2, 0)]),
], ids=["m3", "chains", "sublattice"])
def test_whole_tables_match_the_lazy_fill(make):
    # a carrier that hands over its own rows: every entry is the id of the
    # elements' meet or join
    L = make()
    compiled = _CompiledLattice(L)
    assert compiled.whole() is compiled and isinstance(compiled.meet, list)
    m = compiled.m
    for (i, a), (j, b) in product(enumerate(compiled.elems), repeat=2):
        assert compiled.meet[i * m + j] == L.index(L.meet(a, b))
        assert compiled.join[i * m + j] == L.index(L.join(a, b))
    assert len(compiled.meet) == len(compiled.join) == m * m


@pytest.mark.parametrize("make", FN_SET, ids=FN_IDS)
def test_swaps_return_windows_sorted_by_id(make):
    # a chain in the product order has nondecreasing digits, so the order
    # statistics of any window come back sorted by id: scans need not sort them
    L = make()
    compiled = _CompiledLattice(L)
    chain = compiled.order_statistics()
    rng = random.Random(5)
    for n in range(1, 9):
        for _ in range(20):
            out = chain(tuple(rng.randrange(compiled.m) for _ in range(n)))
            assert list(out) == sorted(out)


@pytest.mark.parametrize("make", [build_m3, lambda: product_of_chains([2, 3])],
                         ids=["m3", "chains"])
def test_tables_keep_the_subset_formula(make):
    # the swaps sort M3's (2, 3, 4) to (1, 4, 5), not its order statistics
    # (1, 5, 5); a distributive table keeps the formula too
    L = make()
    compiled = _CompiledLattice(L)
    assert not compiled.by_swaps
    rng = random.Random(3)
    windows = [(1, 2, 3)] + [tuple(rng.randrange(L.size) for _ in range(4)) for _ in range(50)]
    for w in windows:
        assert compiled.order_statistics()(w) == order_statistics_tuple(L, w)
    if L.size == 5:
        compiled.by_swaps = True
        assert compiled.order_statistics()((1, 2, 3)) == (0, 3, 4)


@pytest.mark.parametrize("make", [
    lambda: FnLattice.zero_to(2, 3),
    lambda: FnLattice.symmetric(2, 1),
    lambda: FnLattice(2, [0, Fraction(1, 2), 3]),
    lambda: product_of_chains([2, 3]),
    build_m3,
    lambda: ExplicitSublattice.closure([(0, 2), (1, 1), (2, 0)]),
    lambda: birkhoff_embed(product_of_chains([2, 3]))[0],
], ids=["fn", "symmetric", "fraction-chain", "chains", "m3", "sublattice", "birkhoff"])
def test_index_is_the_position_in_elements(make):
    L = make()
    elems = L.elements()
    for e in elems:
        assert L.index(e) == elems.index(e)


def test_pointwise_monotone_and_multiset_preserving(fn22):
    elems = fn22.elements()
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 4)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        stats = pointwise_order_statistics(f)
        for j in range(n - 1):
            assert fn_meet(stats[j], stats[j + 1]) == stats[j]
        for s in range(2):
            assert sorted(g[s] for g in stats) == sorted(x[s] for x in f)


def test_pointwise_mismatched_widths():
    with pytest.raises(InputError):
        pointwise_order_statistics(((1, 2), (1,)))


# --- Birkhoff embedding ---

def test_birkhoff_three_chain():
    chain = product_of_chains([3])
    ambient, mapping, ground = birkhoff_embed(chain)
    assert len(ground) == 2
    images = [mapping[x] for x in range(3)]
    assert images == [(0, 0), (1, 0), (1, 1)]


def test_birkhoff_two_atom_boolean():
    square = product_of_chains([2, 2])
    ambient, mapping, ground = birkhoff_embed(square)
    assert len(ground) == 2
    assert len(set(mapping.values())) == 4


def test_birkhoff_preserves_structure():
    # ids relabelled by a seeded shuffle, so the bottom is not id 0 and the
    # tables are not in product order: birkhoff_embed does not re-check its map
    rng = random.Random(5)
    for sizes in ([2, 3], [2, 2, 2], [3, 3], [2, 2, 3]):
        chains = product_of_chains(sizes)
        n = chains.n
        for perm in (list(range(n)), rng.sample(range(n), n)):
            tables = [[[0] * n for _ in range(n)] for _ in range(2)]
            for a, b in product(range(n), repeat=2):
                tables[0][perm[a]][perm[b]] = perm[chains.meet(a, b)]
                tables[1][perm[a]][perm[b]] = perm[chains.join(a, b)]
            L = TableLattice(n, *tables)
            _, mapping, _ = birkhoff_embed(L)
            assert len(set(mapping.values())) == n
            for a in L.elements():
                for b in L.elements():
                    assert mapping[L.meet(a, b)] == fn_meet(mapping[a], mapping[b])
                    assert mapping[L.join(a, b)] == fn_join(mapping[a], mapping[b])


def test_birkhoff_refuses_m3(m3):
    with pytest.raises(InputError) as err:
        birkhoff_embed(m3)
    assert "distributive" in str(err.value)


def test_birkhoff_refuses_the_pentagon():
    # N5: bottom 0 < 1 < 2 < top 4, and 0 < 3 < 4 beside that chain
    n5 = lattice_from_order(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4),
                                (2, 4), (3, 4)])
    with pytest.raises(InputError, match="not distributive"):
        birkhoff_embed(n5)


def test_birkhoff_charges_the_axiom_triples_before_checking_them():
    chain = product_of_chains([40])
    with pytest.raises(BudgetExceededError, match="64000 lattice axiom triples"):
        birkhoff_embed(chain, budget=40 ** 3 - 1)
    with pytest.raises(BudgetExceededError, match="lattice axiom triples"):
        validate_table_lattice(chain, budget=40 ** 3 - 1)
    assert validate_table_lattice(chain, budget=40 ** 3).holds


# --- constructors ---

def test_build_m3_order_relation(m3):
    one, five = lab(m3, 1, 5)
    assert leq(m3, one, five)
    for x in (2, 3, 4):
        for y in (2, 3, 4):
            if x != y:
                assert not leq(m3, m3.id_of(x), m3.id_of(y))


def test_lattice_from_order_rejects_non_lattice():
    from latstat.lattice import lattice_from_order
    # two incomparable elements with no common upper bound
    with pytest.raises(InputError):
        lattice_from_order(2, [])


@pytest.mark.parametrize("pairs,message", [
    ([(0, 1), (1, 0)], r"order is not antisymmetric at \(0,1\)"),
    ([(0, 1), (1, 2)], r"order is not transitive at \(0,1,2\)"),
], ids=["antisymmetry", "transitivity"])
def test_lattice_from_order_rejects_non_orders(pairs, message):
    from latstat.lattice import lattice_from_order
    with pytest.raises(InputError, match=message):
        lattice_from_order(3, pairs)


def test_fn_lattice_guards():
    with pytest.raises(InputError):
        FnLattice.zero_to(7, 1)
    with pytest.raises(InputError):
        FnLattice(1, [Fraction(0)] * 9)
    with pytest.raises(InputError):
        FnLattice(1, [Fraction(1), Fraction(1)])
    FnLattice.zero_to(7, 1, max_ground=8)  # override allowed


def test_fn_lattice_refuses_a_long_chain_before_converting_it(monkeypatch):
    # the cap is decided from the chain's length, so a 10^6-value chain
    # from JSON is refused with no value converted
    from latstat import jsonio, lattice
    real, calls = lattice.as_scalar, []

    def counted(x):
        calls.append(x)
        if len(calls) > 100:
            raise AssertionError("chain values converted before the cap was checked")
        return real(x)

    monkeypatch.setattr(lattice, "as_scalar", counted)
    with pytest.raises(InputError, match=r"chain length 1000001 exceeds cap 6 "):
        jsonio.lattice_from_json({"kind": "fn", "ground_size": 1, "chain_max": 10 ** 6})
    assert calls == []


@pytest.mark.parametrize("build, length", [
    (lambda: FnLattice.zero_to(1, 10 ** 6), 10 ** 6 + 1),
    (lambda: FnLattice.symmetric(1, 10 ** 6), 2 * 10 ** 6 + 1),
], ids=["zero_to", "symmetric"])
def test_fn_lattice_constructors_refuse_a_long_chain_before_converting_it(
        monkeypatch, build, length):
    # the library constructors hand the range itself to FnLattice, so the
    # cap refuses it before any value is converted or built as a Fraction
    from latstat import lattice
    calls = []

    def counted(real):
        def call(*args):
            calls.append(args)
            if len(calls) > 100:
                raise AssertionError("chain values converted before the cap was checked")
            return real(*args)
        return call

    monkeypatch.setattr(lattice, "as_scalar", counted(lattice.as_scalar))
    monkeypatch.setattr(lattice, "Fraction", counted(Fraction))
    with pytest.raises(InputError, match=rf"chain length {length} exceeds cap 6 "):
        build()
    assert calls == []
    monkeypatch.undo()
    # within the cap the chain holds the same Fractions as before
    assert FnLattice.zero_to(2, 2).chain == tuple(Fraction(v) for v in range(3))
    chain = FnLattice.symmetric(1, 2).chain
    assert chain == tuple(Fraction(v) for v in range(-2, 3))
    assert all(type(v) is Fraction for v in chain)


def test_fn_diff():
    assert fn_diff((3, 1), (2, 5)) == (1, 0)
    assert fn_diff((2, 2), (2, 2)) == (0, 0)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
       st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2))
def test_absorption_on_fn_lattice(a, b):
    L = FnLattice.zero_to(2, 3)
    a, b = tuple(a), tuple(b)
    assert L.join(a, L.meet(a, b)) == a
    assert L.meet(a, L.join(a, b)) == a
