import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from latstat import (
    BudgetExceededError,
    FnLattice,
    InputError,
    InsertionChain,
    TransitiveRelation,
    TupleFunctional,
    build_m3,
    check_generalized_n,
    check_generalized_nk,
    check_relaxed_hypothesis,
    insertion_chain,
    order_statistics_tuple,
    product_of_chains,
    reduction_regression,
    run_counterexample_m3,
    verify_chain_sortedness,
)
from latstat import lattice, semimod
from latstat.constructions import (
    MultisetCombiner,
    SchurSpec,
    potential_construct,
    schur_construct,
    verify_schur_spec,
)
from latstat.generators import (
    random_multiadd_functional,
    random_potential_spec,
    random_schur_functional,
)
from latstat.lattice import birkhoff_embed, lattice_from_order
from latstat.report import CheckReport, Witness
from latstat.scalars import InternalError
from latstat.semimod import (
    _derive_seed,
    chain_point_multisets_conserved,
    form_sum,
    m3_quadratic,
    scalar_quadratic,
)

GE = TransitiveRelation.ge()
LE = TransitiveRelation.le()
EQ = TransitiveRelation.eq()


def pair_sum_functional(L, lam):
    return TupleFunctional(arity=2, fn=lambda f: lam(f[0]) + lam(f[1]), tag="pair-sum")


# --- check_generalized_n ---

def test_submodular_pair_sum_passes_ge():
    L = FnLattice.zero_to(2, 2)

    def lam(f):  # capped sum: submodular and nondecreasing
        return min(Fraction(3), Fraction(f[0] + f[1]))

    report = check_generalized_n(L, pair_sum_functional(L, lam), GE)
    assert report.holds
    assert report.instances_checked == L.size ** 2


def test_constant_functional_eq():
    L = FnLattice.zero_to(1, 2)
    const = TupleFunctional(arity=3, fn=lambda f: Fraction(7), tag="const")
    assert check_generalized_n(L, const, EQ).holds


def test_m3_quadratic_fails_full_check():
    L = build_m3()
    lam = m3_quadratic(L)
    report = check_generalized_n(L, lam, GE)
    assert not report.holds
    assert report.instances_checked == 125
    assert tuple(L.label_of(a) for a in report.witness.args) == (2, 3, 4)
    assert report.witness.lhs == 148
    assert report.witness.rhs == 160


def test_scaled_scan_stops_at_first_violation_and_counts_the_enumeration():
    # the n = 5 M3 quadratic first fails at tuple 975 of 3125 in odometer
    # order; the scan evaluates only those tuples and their order statistics
    L = build_m3()
    lam = scalar_quadratic(L, semimod.M3_QUADRATIC_TERMS, 5)
    seen = set()
    real = lam.on_ids

    def on_ids(elems, limit=None):
        evaluate, scale, terms = real(elems, limit)

        def counted(ids):
            seen.add(ids)
            return evaluate(ids)
        return counted, scale, terms

    lam.on_ids = on_ids
    report = check_generalized_n(L, lam, GE)
    assert report.instances_checked == 3125
    assert tuple(L.label_of(a) for a in report.witness.args) == (2, 3, 4, 5, 5)
    assert (report.witness.lhs, report.witness.rhs) == (148, 160)
    tuples = list(product(range(5), repeat=5))
    visited = tuples[:975]
    assert tuples.index(report.witness.args) == 974
    assert set(visited) <= seen
    assert seen <= set(visited) | {order_statistics_tuple(L, f) for f in visited}


def test_unscaled_scan_compares_every_instance():
    # without a scale the values are computed lazily, so an evaluation that
    # raises after the first violation still decides the outcome
    L = FnLattice.zero_to(1, 3)

    def fn(f):
        if f == ((3,), (3,)):
            raise InputError("no value at the top")
        return Fraction(10 * f[1][0] + f[0][0])

    lam = TupleFunctional(arity=2, fn=fn)
    with pytest.raises(InputError, match="no value at the top"):
        check_generalized_n(L, lam, GE)
    with pytest.raises(InputError, match="no value at the top"):
        check_generalized_nk(L, lam, 2, GE)


def test_arity_one_is_vacuous():
    L = FnLattice.zero_to(1, 2)
    never = TransitiveRelation.custom(lambda a, b: False, name="never")
    lam = TupleFunctional(arity=1, fn=lambda f: f[0][0], tag="id")
    report = check_generalized_n(L, lam, never)
    assert report.holds
    assert report.instances_checked == 0


# --- check_generalized_nk ---

def test_m3_quadratic_passes_all_250_pair_windows():
    L = build_m3()
    report = check_generalized_nk(L, m3_quadratic(L), 2, GE)
    assert report.holds
    assert report.instances_checked == 250


def test_k_equals_n_matches_full_check():
    L = FnLattice.zero_to(1, 2)
    lam = scalar_quadratic(L, [(2, 1, 1), (1, 1, 2)], 2)
    full = check_generalized_n(L, lam, GE)
    windowed = check_generalized_nk(L, lam, 2, GE)
    assert full.holds == windowed.holds
    assert full.instances_checked == windowed.instances_checked


def test_full_check_has_no_window_note():
    L = build_m3()
    lam = m3_quadratic(L)
    windowed = check_generalized_nk(L, lam, 3, GE)
    full = check_generalized_n(L, lam, GE)
    assert windowed.witness.note == "window start 0"
    assert full.witness.note == ""
    assert full.witness.args == windowed.witness.args


def test_k_one_vacuous():
    L = build_m3()
    report = check_generalized_nk(L, m3_quadratic(L), 1, GE)
    assert report.holds
    assert report.instances_checked == 0


def test_vacuous_checks_validate_mode_and_seed():
    L = build_m3()
    checks = ((lambda **kw: check_generalized_n(L, scalar_quadratic(L, ((1, 1, 1),), 1),
                                                GE, **kw),
               "1-tuples equal their order statistics"),
              (lambda **kw: check_generalized_nk(L, m3_quadratic(L), 1, GE, **kw),
               "1-wide windows equal their order statistics"))
    for check, vacuous in checks:
        with pytest.raises(InputError, match="sampled mode requires a seed"):
            check(mode="sampled")
        with pytest.raises(InputError, match="unknown mode 'bogus'"):
            check(mode="bogus")
        assert check(seed=3).seed is None  # exhaustive reports echo no seed
        sampled = check(mode="sampled", seed=3)
        assert sampled.holds and sampled.seed == 3 and sampled.instances_checked == 0
        assert sampled.detail == {"vacuous": vacuous}


def test_report_holds_exactly_when_it_has_no_witness():
    assert CheckReport(instances_checked=1).holds
    witness = Witness(args=(), lhs=1, rhs=2)
    assert not CheckReport(instances_checked=1, witness=witness).holds
    with pytest.raises(TypeError):
        CheckReport(holds=True, instances_checked=1)


def test_k_out_of_range():
    L = build_m3()
    with pytest.raises(InputError):
        check_generalized_nk(L, m3_quadratic(L), 4, GE)


# --- relaxed hypothesis ---

def _sorted_prefix_count(L, n):
    """The relaxed check's instances, by an independent enumeration of
    sorted-prefix tuples."""
    return sum(all(L.leq(f[i], f[i + 1]) for i in range(j - 1))
               for j in range(1, n) for f in product(L.elements(), repeat=n))


def test_relaxed_hypothesis_on_m3_quadratic():
    L = build_m3()
    report = check_relaxed_hypothesis(L, m3_quadratic(L), GE)
    assert report.holds
    assert report.instances_checked == _sorted_prefix_count(L, 3)


def test_violated_relaxed_hypothesis_counts_every_instance():
    # a violated relaxed check with integer values over a scale ends at its
    # first violation and still reports every sorted-prefix instance
    L = build_m3()
    lam = scalar_quadratic(L, ((-1, 1, 2),), 3)
    seen = set()
    real = lam.on_ids

    def on_ids(elems, limit=None):
        evaluate, scale, terms = real(elems, limit)

        def counted(ids):
            seen.add(ids)
            return evaluate(ids)
        return counted, scale, terms

    lam.on_ids = on_ids
    report = check_relaxed_hypothesis(L, lam, GE)
    assert not report.holds
    assert report.instances_checked == _sorted_prefix_count(L, 3)
    assert len(seen) < 5 ** 3


def test_relaxed_hypothesis_witness():
    # sum(f3) - sum(f2) holds under the (1,2) swap but fails under the (2,3)
    # swap of incomparable entries, so the witness needs the prefix filter
    L = FnLattice.zero_to(2, 1)
    lam = TupleFunctional(arity=3, fn=lambda f: sum(f[2]) - sum(f[1]), tag="diff")
    report = check_relaxed_hypothesis(L, lam, GE)
    expected, count = None, 0
    for j in (1, 2):
        for f in product(L.elements(), repeat=3):
            if not all(L.leq(f[i], f[i + 1]) for i in range(j - 1)):
                continue
            count += 1
            a, b = f[j - 1], f[j]
            g = f[:j - 1] + (L.meet(a, b), L.join(a, b)) + f[j + 1:]
            if expected is None and not lam(f) >= lam(g):
                expected = Witness(args=f, lhs=lam(f), rhs=lam(g),
                                   note=f"sorted prefix length {j}")
    assert expected is not None and expected.note == "sorted prefix length 2"
    assert not report.holds
    assert report.witness == expected
    assert report.instances_checked == count


@pytest.mark.parametrize("L", [
    product_of_chains([2, 3]),
    # ids against the order: 3 <= 2 <= 1 <= 0, so a chain prefix climbs to lower ids
    lattice_from_order(4, [(3, 2), (2, 1), (1, 0), (3, 1), (3, 0), (2, 0)]),
], ids=["product_2x3", "reversed_chain"])
def test_relaxed_hypothesis_matches_filter_loop(L):
    lam = TupleFunctional(arity=3, fn=lambda f: Fraction(4 * f[0] - 3 * f[1] + f[2]),
                          tag="affine")
    report = check_relaxed_hypothesis(L, lam, GE)
    expected, count = None, 0
    for j in (1, 2):
        for f in product(L.elements(), repeat=3):
            if j == 2 and not L.leq(f[0], f[1]):
                continue
            count += 1
            a, b = f[j - 1], f[j]
            g = f[:j - 1] + (L.meet(a, b), L.join(a, b)) + f[j + 1:]
            if expected is None and not lam(f) >= lam(g):
                expected = Witness(args=f, lhs=lam(f), rhs=lam(g),
                                   note=f"sorted prefix length {j}")
    assert expected is not None
    assert report.witness == expected
    assert report.instances_checked == count


def test_pair_window_pass_implies_relaxed_pass():
    rng = random.Random(5)
    for _ in range(5):
        L, lam = random_schur_functional(rng)
        assert check_generalized_nk(L, lam, 2, GE).holds
        assert check_relaxed_hypothesis(L, lam, GE).holds


# --- insertion chain ---

def test_chain_n2_is_meet_join_swap():
    L = FnLattice.zero_to(2, 2)
    g, h = (2, 0), (1, 1)
    chain = insertion_chain(L, (g, h))
    assert chain.rows == (((2, 0), (1, 1)), ((1, 0), (2, 1)))


def test_chain_sorts_scalar_chain():
    L = FnLattice.zero_to(1, 3)
    chain = insertion_chain(L, ((3,), (1,), (2,)))
    assert chain.rows[-1] == ((1,), (2,), (3,))


def test_chain_final_row_matches_order_statistics():
    L = FnLattice.zero_to(3, 2)
    elems = L.elements()
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 5)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        chain = insertion_chain(L, f)
        assert chain.rows[-1] == order_statistics_tuple(L, f)
        assert chain_point_multisets_conserved(chain)


def test_chain_sortedness_witness_names_the_unsorted_row():
    x = [(Fraction(v),) for v in range(4)]
    rows = ((x[2], x[3], x[1]), (x[1], x[3], x[2]), (x[1], x[2], x[3]))
    report = verify_chain_sortedness(InsertionChain(rows))
    assert (report.holds, report.instances_checked) == (False, 4)
    assert report.witness == Witness(args=(1, 2, 0), lhs=3, rhs=2,
                                     note="row 1: position 2 above position 3 at point 0")


def test_chain_on_table_lattice_routes_through_embedding():
    L = product_of_chains([2, 3])
    elems = L.elements()
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 4)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        chain = insertion_chain(L, f)
        assert chain.rows[-1] == order_statistics_tuple(L, f)


def test_chain_caches_table_embedding(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return birkhoff_embed(t)

    monkeypatch.setattr(semimod, "birkhoff_embed", counted)
    L = product_of_chains([2, 3])
    f = (5, 1, 3, 2)
    first = insertion_chain(L, f)
    second = insertion_chain(L, f)
    assert len(calls) == 1
    ambient, mapping, _ = birkhoff_embed(L)
    inverse = {v: key for key, v in mapping.items()}
    uncached = insertion_chain(ambient, tuple(mapping[a] for a in f))
    assert first.rows == second.rows == tuple(tuple(inverse[e] for e in row)
                                              for row in uncached.rows)
    m3 = build_m3()
    for _ in range(2):
        with pytest.raises(InputError):
            insertion_chain(m3, (1, 2, 3))
    assert len(calls) == 3


def test_chain_refuses_non_distributive():
    with pytest.raises(InputError):
        insertion_chain(build_m3(), (1, 2, 3))


def test_chain_step_relation_for_pair_window_functionals():
    rng = random.Random(17)
    for _ in range(4):
        L, lam = random_schur_functional(rng)
        if lam.arity > 4 or L.size > 9:
            continue
        elems = L.elements()
        for _ in range(20):
            f = tuple(elems[rng.randrange(len(elems))] for _ in range(lam.arity))
            chain = insertion_chain(L, f)
            for prev, cur in zip(chain.rows, chain.rows[1:]):
                assert lam.fn(prev) >= lam.fn(cur)


def test_eq_relation_for_symmetric_modular_functional():
    L = FnLattice.zero_to(2, 2)

    def lam(f):  # sum of coordinate sums: modular in each argument
        return sum(sum(x) for x in f)

    sym = TupleFunctional(arity=3, fn=lambda f: Fraction(lam(f)), tag="modular-sum")
    assert check_generalized_nk(L, sym, 2, EQ).holds
    assert check_generalized_n(L, sym, EQ).holds


# --- chain sortedness ---

def test_sortedness_holds_for_built_chains():
    L = FnLattice.zero_to(2, 3)
    elems = L.elements()
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 5)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        assert verify_chain_sortedness(insertion_chain(L, f)).holds


def test_sortedness_n2_single_assertion():
    L = FnLattice.zero_to(1, 3)
    chain = insertion_chain(L, ((2,), (1,)))
    report = verify_chain_sortedness(chain)
    assert report.holds
    assert report.instances_checked == 1


def test_sortedness_rejects_bogus_rows():
    bogus = InsertionChain(rows=(((2,), (1,)), ((2,), (1,))))
    report = verify_chain_sortedness(bogus)
    assert not report.holds
    k, j, s = report.witness.args
    assert (k, j, s) == (1, 1, 0)


def test_sortedness_compares_the_positions_around_the_moved_one():
    # row 1 is sorted at its adjacent pair (2, 3) but not at positions
    # 1 and 3, which the chain also guarantees
    rows = tuple(tuple((Fraction(v),) for v in row) for row in ((0, 0, 0), (2, 0, 1), (0, 1, 2)))
    report = verify_chain_sortedness(InsertionChain(rows))
    assert report.witness == Witness(args=(1, 1, 0), lhs=2, rhs=1,
                                     note="row 1: position 1 above position 3 at point 0")


def test_sortedness_input_validation():
    with pytest.raises(InputError):
        verify_chain_sortedness(InsertionChain(rows=(((1,), (2,)),)))
    with pytest.raises(InputError):
        verify_chain_sortedness(InsertionChain(rows=((1, 2), (3, 4))))


# --- the diamond demo ---

def test_run_counterexample_m3_numbers():
    demo = run_counterexample_m3()
    assert demo["value_at_234"] == 148
    assert demo["value_at_order_stats"] == 160
    assert demo["pair_inequalities"] == 250
    assert demo["order_stats_of_234"] == (1, 5, 5)
    assert demo["dual_order_stats_of_234"] == (1, 1, 5)
    assert demo["expected_violation_reproduced"]


# --- regression harness ---

def test_reduction_regression_on_generated_families():
    report = reduction_regression(
        lambda rng: random_schur_functional(rng), trials=8, seed=2)
    assert report.holds
    assert report.detail["precondition_failures"] == 0
    report = reduction_regression(
        lambda rng: random_multiadd_functional(rng), trials=8, seed=3)
    assert report.holds


def test_reduction_regression_reports_m3_as_falsification():
    # non-distributive carrier: the pair windows pass but the full check fails,
    # so the harness must flag it (this is exactly the diamond counterexample)
    L = build_m3()
    report = reduction_regression(lambda rng: (L, m3_quadratic(L)),
                                  trials=1, seed=0)
    assert not report.holds
    assert report.witness.lhs == 148
    assert report.witness.rhs == 160


def test_reduction_regression_flags_a_functional_failing_its_precondition():
    # -ab fails the M3 pair windows, so no trial reaches the full check
    L = build_m3()
    report = reduction_regression(lambda rng: (L, scalar_quadratic(L, [(-1, 1, 2)], 3)),
                                  trials=3, seed=0)
    assert report.holds
    assert report.instances_checked == 0
    assert report.detail == {"trials": 3, "precondition_failures": 3}


# --- modes, budgets, relations ---

def test_budget_exceeded():
    L = FnLattice.zero_to(2, 2)
    lam = TupleFunctional(arity=3, fn=lambda f: Fraction(0), tag="zero")
    with pytest.raises(BudgetExceededError):
        check_generalized_n(L, lam, GE, budget=10)


class UnlistedCarrier:
    """A lattice of `size` elements that refuses to list them."""

    def __init__(self, size):
        self.size = size

    def elements(self):
        raise AssertionError("listed the carrier before charging the budget")


@pytest.mark.parametrize("refuse", [
    lambda L, lam: check_generalized_n(L, lam, GE, budget=1000),
    lambda L, lam: check_generalized_nk(L, lam, 2, GE, budget=1000),
    lambda L, lam: check_relaxed_hypothesis(L, lam, GE, budget=1000),
    lambda L, lam: lattice.is_distributive(L, budget=1000),
    lambda L, lam: verify_schur_spec(SchurSpec(L, sum, MultisetCombiner("sum")), 3, budget=1000),
    lambda L, lam: schur_construct(SchurSpec(L, sum, MultisetCombiner("sum")), 3, budget=1000),
], ids=["full", "windowed", "relaxed", "distributive", "schur-spec", "schur-construct"])
def test_budget_refusals_are_decided_from_sizes(refuse):
    # 10^6 elements: every count is over budget, and listing them would raise
    lam = TupleFunctional(arity=3, fn=lambda f: Fraction(0), tag="zero")
    with pytest.raises(BudgetExceededError, match="exceed budget 1000$"):
        refuse(UnlistedCarrier(10 ** 6), lam)


def test_sampled_mode_deterministic():
    L = FnLattice.zero_to(2, 2)
    lam = TupleFunctional(arity=3, fn=lambda f: sum(sum(x) for x in f), tag="s")
    a = check_generalized_n(L, lam, EQ, mode="sampled", seed=42, trials=50)
    b = check_generalized_n(L, lam, EQ, mode="sampled", seed=42, trials=50)
    assert a == b
    assert a.mode == "sampled" and a.seed == 42 and a.instances_checked == 50
    with pytest.raises(InputError):
        check_generalized_n(L, lam, EQ, mode="sampled")


def test_sampled_check_indexes_only_the_pairs_it_draws():
    # 10 draws of a 3-tuple fill a few entries each of the carrier's shared
    # meet/join tables, from chain digits: no element of the 46,656 is
    # indexed, and the tables stay far from all m^2 pairs
    L = FnLattice.zero_to(6, 5)
    calls = []
    real = L.index
    L.index = lambda e: calls.append(e) or real(e)
    lam = TupleFunctional(arity=3, fn=lambda f: sum(sum(x) for x in f), tag="s")
    report = check_generalized_n(L, lam, EQ, mode="sampled", seed=1, trials=10)
    assert report.holds and report.instances_checked == 10
    tables = lattice._CompiledLattice.of(L)
    assert 0 < len(tables.meet) + len(tables.join) <= 300
    assert calls == []


def test_sampled_full_check_witness_draws_no_window():
    # the identity functional under EQ fails on every unsorted tuple, so the
    # witness is fixed by the first few trials' draws
    L = FnLattice.zero_to(2, 2)
    lam = TupleFunctional(arity=3, fn=lambda f: f, tag="identity")
    elems = L.elements()
    seed, trials = 9, 50
    report = check_generalized_n(L, lam, EQ, mode="sampled", seed=seed, trials=trials)
    expected = None
    for i in range(trials):
        rng = random.Random(_derive_seed(seed, i))
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(3))
        g = order_statistics_tuple(L, f)
        if expected is None and f != g:
            expected = Witness(args=f, lhs=f, rhs=g)
    assert expected is not None
    assert report.witness == expected
    assert report.instances_checked == trials


def test_parallel_scan_matches_sequential():
    L = build_m3()
    lam = m3_quadratic(L)
    seq = check_generalized_n(L, lam, GE, jobs=1)
    par = check_generalized_n(L, lam, GE, jobs=4, budget=10 ** 6)
    assert seq == par


def test_custom_relation_transitivity_check():
    L = FnLattice.zero_to(1, 1)
    lam = TupleFunctional(arity=2, fn=lambda f: f[0][0] + 2 * f[1][0], tag="aff")
    # "differs by at most 1" is reflexive and symmetric but not transitive
    close = TransitiveRelation.custom(lambda a, b: abs(a - b) <= 1, name="close")
    with pytest.raises(InputError):
        check_generalized_n(L, lam, close)


def test_custom_relation_filter_reads_values_after_the_first_violation():
    # the first violation is at ((1,), (0,)); only the values 30..33 of
    # later tuples show that "<=, or within 1 from 30 up" is not transitive
    L = FnLattice.zero_to(1, 3)
    lam = TupleFunctional(arity=2, fn=lambda f: 10 * f[0][0] + f[1][0], tag="digits")

    def pred(a, b):
        return abs(a - b) <= 1 if max(a, b) >= 30 else a <= b

    rel = TransitiveRelation.custom(pred, name="near-top")
    with pytest.raises(InputError, match="not transitive"):
        check_generalized_n(L, lam, rel)
    early = TransitiveRelation.custom(lambda a, b: a <= b, name="le")
    assert check_generalized_n(L, lam, early).witness.args == ((1,), (0,))


def test_relation_from_name():
    assert TransitiveRelation.from_name("GE").holds(Fraction(2), Fraction(1))
    assert TransitiveRelation.from_name("le").holds(Fraction(1), Fraction(2))
    with pytest.raises(InputError):
        TransitiveRelation.from_name("sideways")


# --- witness replay ---

def test_witness_replay_refuses_wrong_order_statistics(monkeypatch):
    # reversed order statistics make the M3 pair windows, which hold, fail
    real = lattice._CompiledLattice.order_statistics

    def reversed_stats(self):
        stats = real(self)
        return lambda w: stats(w)[::-1]

    L, lam = build_m3(), m3_quadratic()
    assert check_generalized_nk(L, lam, 2, GE).holds
    monkeypatch.setattr(lattice._CompiledLattice, "order_statistics", reversed_stats)
    with pytest.raises(InternalError, match="witness replay disagrees"):
        check_generalized_nk(L, lam, 2, GE)


@pytest.mark.parametrize("route", ["sampled", "multiset"])
def test_witness_replay_refuses_wrong_order_statistics_on_every_route(monkeypatch, route):
    # a window filled with its join changes the window's multiset, as a
    # reversal does not, so a symmetric functional sees it too; both
    # functionals are nondecreasing and hold, so it is a false violation
    real = lattice._CompiledLattice.order_statistics

    def join_filled(self):
        stats = real(self)
        return lambda w: (stats(w)[-1],) * len(w)

    if route == "sampled":
        L, lam = build_m3(), m3_quadratic()

        def check():
            return check_generalized_nk(L, lam, 2, GE, mode="sampled", seed=3, trials=50)
    else:  # a symmetric k = n check on a function lattice enumerates sorted multisets
        L = FnLattice.zero_to(2, 2)
        lam = TupleFunctional(arity=3, fn=lambda f: sum(sum(e) for e in f), symmetric=True)

        def check():
            return check_generalized_n(L, lam, GE)
    assert check().holds
    monkeypatch.setattr(lattice._CompiledLattice, "order_statistics", join_filled)
    with pytest.raises(InternalError, match="witness replay disagrees"):
        check()


def test_witness_replay_refuses_wrong_relaxed_swap(monkeypatch):
    # with strictly decreasing weights the meet must come first; swapped
    # meet and join tables turn every strict swap into a false violation
    L = FnLattice.zero_to(2, 1)
    lam = TupleFunctional(arity=3, fn=lambda f: sum((3 - i) * sum(e) for i, e in enumerate(f)))
    assert check_relaxed_hypothesis(L, lam, GE).holds
    real = lattice._CompiledLattice.whole

    def swapped(self):
        # the relaxed check reads every pair, so it fills the tables whole
        real(self)
        self.meet, self.join = self.join, self.meet
        return self

    monkeypatch.setattr(lattice._CompiledLattice, "whole", swapped)
    # L keeps the tables it filled above; a fresh carrier fills them anew
    with pytest.raises(InternalError, match="witness replay disagrees"):
        check_relaxed_hypothesis(FnLattice.zero_to(2, 1), lam, GE)


def negated_pair_terms(lam):
    """lam with every pair table of its pairwise route negated; its own
    enumeration and fn are untouched."""
    real = lam.on_ids

    def on_ids(elems, limit=None):
        evaluate, scale, terms = real(elems, limit)
        m = len(elems)
        return evaluate, scale, [([-table[key] for key in range(m ** len(places))], places)
                                 for table, places in terms]
    return dataclasses.replace(lam, on_ids=on_ids)


def test_witness_replay_refuses_corrupt_pair_tables():
    # the M3 pair windows hold; negated tables make the pairwise route
    # find a false violation, which the replay through fn refuses
    L, lam = build_m3(), m3_quadratic()
    assert check_generalized_nk(L, lam, 2, GE).holds
    with pytest.raises(InternalError, match="witness replay disagrees"):
        check_generalized_nk(L, negated_pair_terms(lam), 2, GE)


def test_witness_replay_refuses_wrong_values(monkeypatch):
    # a negated integer table makes the holding quadratic fail everywhere
    # it was strict; the replay through fn refuses the witness
    real = semimod.integer_scale

    def negated(values):
        scale, ints = real(values)
        return scale, [-v for v in ints]

    L, lam = build_m3(), m3_quadratic()
    monkeypatch.setattr(semimod, "integer_scale", negated)
    with pytest.raises(InternalError, match="witness replay disagrees"):
        check_generalized_nk(L, lam, 2, GE)


# --- sums of forms ---

def _forms(calls=None):
    """Forms of one, two and three places on 0..2 with denominators 2, 3
    and 1; the pair value is used twice."""
    def unary(a):
        return Fraction(a[0], 2)

    def pair(a, b):
        if calls is not None:
            calls.append((a, b))
        return Fraction(a[0] - 2 * b[0], 3)

    def triple(a, b, c):
        return a[0] * b[0] + c[0]
    return [(unary, (1,)), (pair, (0, 2)), (triple, (2, 0, 1)), (pair, (1, 1))]


def test_form_sum_fn_is_the_sum_of_its_forms():
    L = FnLattice.zero_to(1, 2)
    elems = L.elements()
    forms = _forms()
    lam = form_sum(3, forms, tag="forms", lattice=L, symmetric=False)
    assert (lam.arity, lam.tag, lam.lattice, lam.symmetric) == (3, "forms", L, False)
    evaluate, scale, terms = lam.on_ids(elems, 27)
    assert scale == 6 and terms is None  # a form of three places declares none
    for ids in product(range(3), repeat=3):
        f = tuple(elems[i] for i in ids)
        want = sum((value(*(f[i] for i in places)) for value, places in forms), Fraction(0))
        assert lam.fn(f) == want
        assert type(evaluate(ids)) is int and Fraction(evaluate(ids), 6) == want, ids


def test_form_sum_puts_tables_on_the_lcm_of_their_scales():
    L = FnLattice.zero_to(1, 2)
    elems = L.elements()
    calls = []
    forms = _forms(calls)
    forms = forms[:2] + forms[3:]  # one and two places only
    lam = form_sum(3, forms, tag="forms")
    evaluate, scale, terms = lam.on_ids(elems, 9)
    # scales 2 and 3 go onto 6; the pair value shared by two forms fills one table
    assert scale == 6 and len(calls) == 9
    # the terms come merged: the pair table as it is at (0, 2), and its
    # diagonal, read at (1, 1), added to the unary table at 1
    assert [places for _, places in terms] == [(0, 2), (1,)]
    assert terms[0][0] == [2 * (a - 2 * b) for a in range(3) for b in range(3)]
    assert terms[1][0] == [3 * a - 2 * a for a in range(3)]
    # each form's own table, before the merge, on its own scale
    assert semimod.id_table(forms[0][0], elems, 1, 9) == (2, [0, 1, 2])
    assert semimod.id_table(forms[1][0], elems, 2, 9) == \
        (3, [a - 2 * b for a in range(3) for b in range(3)])
    for ids in product(range(3), repeat=3):
        want = lam.fn(tuple(elems[i] for i in ids))
        assert Fraction(evaluate(ids), scale) == want, ids
    # one table of m^3 entries stays lazy at a limit of 26: no scale, and
    # the filled tables of one and two places hold fn's own values
    evaluate, scale, terms = form_sum(3, _forms(), tag="forms").on_ids(elems, 26)
    assert scale is None and terms is None
    for ids in product(range(3), repeat=3):
        assert evaluate(ids) == lam.fn(tuple(elems[i] for i in ids)) + \
            elems[ids[2]][0] * elems[ids[0]][0] + elems[ids[1]][0], ids


def test_form_sum_with_one_non_rational_table_has_no_scale():
    L = FnLattice.zero_to(1, 2)
    elems = L.elements()
    forms = _forms()[:2] + [(lambda a: float(a[0]) / 4, (2,))]
    lam = form_sum(3, forms, tag="floats")
    evaluate, scale, terms = lam.on_ids(elems, 10 ** 6)
    assert scale is None and terms is None
    for ids in product(range(3), repeat=3):
        got, want = evaluate(ids), lam.fn(tuple(elems[i] for i in ids))
        assert got == want and type(got) is type(want) is float, ids
    # the unary Fraction table holds fn's own values, not integers over 2
    evaluate = form_sum(3, forms[:1] + forms[2:], tag="floats").on_ids(elems, 10)[0]
    assert evaluate((0, 1, 0)) == 0.5


def test_every_form_sum_evaluates_to_fn_scaled_or_not():
    # the id evaluator splits its terms into pair terms and the rest once;
    # its sums must still be fn's, on integer tables and on fn's own values
    rng = random.Random(17)
    L1 = FnLattice.zero_to(1, 2)
    cases = [(build_m3(), m3_quadratic()),
             (L1, scalar_quadratic(L1, [(2, 1, 1), (-3, 2, 4), ("1/2", 4, 3)], 4)),
             (L1, form_sum(3, _forms(), tag="mixed")),
             (L1, form_sum(3, [_forms()[i] for i in (1, 3, 0, 2)], tag="pairs first")),
             (L1, form_sum(3, _forms()[::-1], tag="reversed"))]
    for curvature in ("convex", "concave"):
        spec = random_potential_spec(rng, curvature)
        cases.append((spec.carrier, potential_construct(spec, 4)))
    while len(cases) < 12:
        cases.append(random_multiadd_functional(rng))
    for L, lam in cases:
        elems = L.elements()
        for limit in (None, 10 ** 9):
            evaluate, scale, _ = lam.on_ids(elems, limit)
            assert (scale is None) == (limit is None), lam.tag
            for ids in product(range(len(elems)), repeat=min(lam.arity, 3)):
                ids = (ids * lam.arity)[:lam.arity]
                want = lam.fn(tuple(elems[i] for i in ids))
                got = evaluate(ids)
                assert (got if scale is None else Fraction(got, scale)) == want, (lam.tag, ids)
