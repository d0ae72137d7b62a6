import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from latstat import (
    BudgetExceededError,
    ConventionMode,
    ExplicitSublattice,
    InputError,
    LatticeWeight,
    Measure,
    aharoni_keich_check,
    corollary_ahke_check,
    corollary_fkg_check,
    fkg_check,
    is_log_supermodular,
    nonreversibility_demo,
    order_statistics_tuple,
    orderstat_family,
    pointwise_order_statistics,
    power_inequality_check,
)
from latstat.correlation import inf_weight, power_weight
from latstat.lattice import FnLattice, product_of_chains
from latstat.report import CheckReport, Witness
from latstat.scalars import (
    INF, as_scalar, ext_mul, ext_prod, ext_sum, is_inf, require_nonneg,
)
from latstat.generators import (
    rand_measure,
    random_families,
    random_monotone_func,
    random_sublattice,
)


def boolean_square():
    return ExplicitSublattice([(0, 0), (0, 1), (1, 0), (1, 1)])


# --- sublattice plumbing ---

def test_sublattice_requires_closure():
    with pytest.raises(InputError):
        ExplicitSublattice([(0, 1), (1, 0)])  # missing meet and join
    sub = ExplicitSublattice.closure([(0, 1), (1, 0)])
    assert sub.size == 4


def test_sublattice_contains():
    sub = boolean_square()
    assert sub.contains((0, 1)) and sub.contains([Fraction(1), Fraction(1)])
    assert not sub.contains((0, 2)) and not sub.contains((1,))


def test_sublattice_contains_never_raises():
    # a non-member is refused like on every other carrier, whatever its type
    sub = boolean_square()
    for bad in (5, None, ([0], 1), [[0], {}], "ab"):
        assert not sub.contains(bad)
    with pytest.raises(InputError, match=r"^element 5 is not in the lattice$"):
        order_statistics_tuple(sub, (5, (0, 1)))


def test_sublattice_closure_budget():
    with pytest.raises(BudgetExceededError):
        ExplicitSublattice.closure(
            [tuple(Fraction(v == i) for v in range(8)) for i in range(8)],
            max_size=10)


# --- log-supermodularity ---

def test_constant_weight_is_log_supermodular():
    sub = boolean_square()
    report = is_log_supermodular(lambda h: Fraction(1), sub)
    assert report.holds
    assert report.instances_checked == 16


def test_reciprocal_integral_weight_is_log_supermodular():
    rng = random.Random(1)
    for _ in range(20):
        sub = random_sublattice(rng)
        mu = rand_measure(rng, sub.width)
        report = is_log_supermodular(power_weight(mu, -1), sub, ConventionMode.INF)
        assert report.holds, report.witness


def test_inf_weight_is_log_supermodular():
    rng = random.Random(2)
    for _ in range(20):
        sub = random_sublattice(rng)
        report = is_log_supermodular(inf_weight(), sub, ConventionMode.INF)
        assert report.holds, report.witness


def test_log_supermodular_counterexample_detected():
    sub = boolean_square()
    # weight 1 everywhere except 0 at the top breaks the pair (01, 10)
    weights = {(0, 0): Fraction(1), (0, 1): Fraction(1),
               (1, 0): Fraction(1), (1, 1): Fraction(0)}
    report = is_log_supermodular(LatticeWeight(weights), sub)
    assert not report.holds
    f, g = report.witness.args
    assert {f, g} == {(0, 1), (1, 0)}


def test_multiplicative_matches_log_form_on_positive_weights():
    import math
    rng = random.Random(3)
    sub = random_sublattice(rng, positive=True)
    nu = {e: rand_fraction_positive(rng) for e in sub.elements()}
    report = is_log_supermodular(LatticeWeight(nu), sub)
    log_ok = all(
        math.log(nu[sub.meet(f, g)]) + math.log(nu[sub.join(f, g)])
        >= math.log(nu[f]) + math.log(nu[g]) - 1e-12
        for f in sub.elements() for g in sub.elements())
    assert report.holds == log_ok


def rand_fraction_positive(rng):
    return Fraction(rng.randint(1, 8), rng.randint(1, 8))


# --- FKG ---

def test_fkg_on_chains_any_weight():
    # totally ordered sublattices satisfy the hypothesis for every weight
    rng = random.Random(4)
    for _ in range(20):
        base = tuple(sorted(rng.randint(0, 3) for _ in range(3)))
        chain = {tuple(Fraction(v + k) for v in base) for k in range(3)}
        sub = ExplicitSublattice(sorted(chain))
        nu = {e: Fraction(rng.randint(0, 5)) for e in sub.elements()}
        F = random_monotone_func(rng, sub.width)
        G = random_monotone_func(rng, sub.width)
        report = fkg_check(sub, LatticeWeight(nu), F, G)
        assert report.holds, report.witness


def test_fkg_constant_factor_gives_equality():
    sub = boolean_square()
    nu = lambda h: Fraction(1)
    F = lambda h: Fraction(3)
    G = lambda h: Fraction(h[0]) + Fraction(h[1])
    report = fkg_check(sub, nu, F, G)
    assert report.holds
    lhs = report.detail["sum_FG"] * report.detail["sum_1"]
    rhs = report.detail["sum_F"] * report.detail["sum_G"]
    assert lhs == rhs


def test_fkg_boolean_square_against_enumeration_oracle():
    sub = boolean_square()
    rng = random.Random(5)
    for _ in range(30):
        # product weights are log-supermodular on the square
        a, b = rand_fraction_positive(rng), rand_fraction_positive(rng)

        def nu(h):
            return (a if h[0] else Fraction(1)) * (b if h[1] else Fraction(1))

        F = random_monotone_func(rng, 2)
        G = random_monotone_func(rng, 2)
        report = fkg_check(sub, nu, F, G)
        elems = sub.elements()
        lhs = sum(F(e) * G(e) * nu(e) for e in elems) * sum(nu(e) for e in elems)
        rhs = sum(F(e) * nu(e) for e in elems) * sum(G(e) * nu(e) for e in elems)
        assert report.holds == (lhs >= rhs)
        assert report.holds


def test_fkg_reports_precondition_failures():
    sub = boolean_square()
    bad_nu = {(0, 0): Fraction(1), (0, 1): Fraction(1),
              (1, 0): Fraction(1), (1, 1): Fraction(0)}
    report = fkg_check(sub, LatticeWeight(bad_nu), lambda h: Fraction(1),
                       lambda h: Fraction(1))
    assert not report.holds
    assert report.detail["precondition_failed"] == "log-supermodularity"

    def not_monotone(h):
        return -Fraction(h[0])

    report = fkg_check(sub, lambda h: Fraction(1), not_monotone,
                       lambda h: Fraction(1))
    assert not report.holds
    assert report.detail["precondition_failed"] == "monotonicity"


def test_corollary_fkg_power_and_inf_modes():
    rng = random.Random(6)
    for i in range(20):
        sub = random_sublattice(rng, positive=True)
        F = random_monotone_func(rng, sub.width)
        G = random_monotone_func(rng, sub.width)
        if i % 2:
            report = corollary_fkg_check(sub, F, G,
                                         measure=rand_measure(rng, sub.width), r=-1)
        else:
            report = corollary_fkg_check(sub, F, G, use_inf=True)
        assert report.holds, report.witness


# fkg and ahke share power_weight's one check of r, and its wording
BAD_R = "power weight needs a negative integer exponent, got"


def test_corollary_fkg_rejects_nonnegative_r():
    sub = boolean_square()
    with pytest.raises(InputError, match=f"{BAD_R} 1"):
        corollary_fkg_check(sub, lambda h: Fraction(1), lambda h: Fraction(1),
                            measure=Measure.counting(2), r=1)


# --- order-statistic families ---

def test_orderstat_family_singletons():
    f1, f2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))
    fams = orderstat_family([[f1], [f2]])
    stats = pointwise_order_statistics((f1, f2))
    assert fams == ([stats[0]], [stats[1]])


def test_orderstat_family_size_bound():
    rng = random.Random(7)
    fams_in = random_families(rng, n=3, width=2, max_family=3)
    fams = orderstat_family(fams_in)
    bound = 1
    for fam in fams_in:
        bound *= len(fam)
    for out in fams:
        assert 1 <= len(out) <= bound


def test_orderstat_family_budget():
    fam = [[(Fraction(v),) for v in range(10)]] * 7
    with pytest.raises(BudgetExceededError):
        orderstat_family(fam, budget=100)


# --- the n-family inequality ---

def test_ahke_with_unit_functions_counts_family_sizes():
    rng = random.Random(8)
    fams = random_families(rng, n=3, width=2, max_family=3)
    one = lambda h: Fraction(1)
    report = aharoni_keich_check([one] * 3, [one] * 3, fams)
    assert report.holds
    stat_sizes = report.detail["stat_family_sizes"]
    lhs = 1
    for fam in fams:
        lhs *= len(fam)
    rhs = 1
    for s in stat_sizes:
        rhs *= s
    assert report.detail["lhs"] == lhs
    assert report.detail["rhs"] == rhs
    assert lhs <= rhs


def test_ahke_singletons_hypothesis_equals_conclusion():
    f1, f2 = (Fraction(2), Fraction(0)), (Fraction(1), Fraction(3))
    mu = Measure.counting(2)
    report = corollary_ahke_check([[f1], [f2]], measure=mu, r=-1)
    assert report.holds
    inner = power_inequality_check(1, -1, mu, [f1, f2])
    assert inner.holds
    assert report.detail["lhs"] == inner.detail["lhs"]
    assert report.detail["rhs"] == inner.detail["rhs"]


def test_ahke_hypothesis_violation_reported_not_asserted():
    fams = [[(Fraction(1),)], [(Fraction(2),)]]
    big = lambda h: Fraction(10)
    small = lambda h: Fraction(1)
    report = aharoni_keich_check([big, big], [small, small], fams)
    assert not report.holds
    assert report.detail["hypothesis_violated"]
    assert report.witness.note == "pointwise hypothesis violated"
    assert "informational_lhs" in report.detail


def test_corollary_ahke_random_power_and_inf():
    rng = random.Random(9)
    for i in range(20):
        n = rng.randint(2, 3)
        width = rng.randint(1, 3)
        fams = random_families(rng, n=n, width=width)
        if i % 2:
            report = corollary_ahke_check(fams, measure=rand_measure(rng, width),
                                          r=-rng.randint(1, 2))
        else:
            report = corollary_ahke_check(fams, use_inf=True)
        assert report.holds, (fams, report.witness)


def test_corollary_ahke_rejects_bad_r():
    fams = [[(Fraction(1),)]]
    for r in (1, 0, Fraction(-1, 2)):
        with pytest.raises(InputError, match=BAD_R):
            corollary_ahke_check(fams, measure=Measure.counting(1), r=r)


def test_ahke_repeated_element_counts_once():
    one_two, three = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(3))
    repeated = corollary_ahke_check([[one_two, one_two], [three]], use_inf=True)
    single = corollary_ahke_check([[one_two], [three]], use_inf=True)
    assert repeated.holds and single.holds
    assert repeated.detail == single.detail
    assert (repeated.detail["lhs"], repeated.detail["rhs"]) == (3, 3)
    assert repeated.instances_checked == single.instances_checked == 2


def test_ahke_budget_bounds_the_loop_over_repeated_elements():
    # the product of the distinct elements is one tuple, not 300 ** 3
    e = (Fraction(1), Fraction(2))
    report = corollary_ahke_check([[e] * 300] * 3, use_inf=True)
    assert report.holds
    assert report.instances_checked == 2  # the one tuple and the conclusion


def test_fkg_never_fails_when_preconditions_pass_bulk():
    # falsification would mean an implementation bug, not new mathematics
    rng = random.Random(1009)
    verified = 0
    attempts = 0
    while verified < 1000 and attempts < 2500:
        attempts += 1
        sub = random_sublattice(rng, width=rng.randint(1, 2), chain_top=2,
                                positive=bool(attempts % 2), seeds=3)
        F = random_monotone_func(rng, sub.width)
        G = random_monotone_func(rng, sub.width)
        kind = attempts % 3
        if kind == 0:
            weights = LatticeWeight({e: Fraction(rng.randint(0, 4))
                                     for e in sub.elements()})
            report = fkg_check(sub, weights, F, G)
            if report.detail.get("precondition_failed"):
                continue
        elif kind == 1:
            report = corollary_fkg_check(sub, F, G,
                                         measure=rand_measure(rng, sub.width), r=-1)
        else:
            report = corollary_fkg_check(sub, F, G, use_inf=True)
        assert report.holds, report.witness
        verified += 1
    assert verified >= 1000


def test_two_family_case_specializes_to_four_sum_regime():
    # with two families and alpha = beta = a log-supermodular weight, the
    # family inequality sits in the classical four-function regime; both the
    # family check and the four-sum check must hold on the same data
    rng = random.Random(1013)
    for _ in range(50):
        sub = random_sublattice(rng, width=2, chain_top=2, positive=True)
        mu = rand_measure(rng, sub.width)
        nu = power_weight(mu, -1)
        elems = sub.elements()
        fam1 = sorted({elems[rng.randrange(len(elems))] for _ in range(2)})
        fam2 = sorted({elems[rng.randrange(len(elems))] for _ in range(2)})
        family_report = aharoni_keich_check([nu, nu], [nu, nu], [fam1, fam2],
                                            mode=ConventionMode.INF)
        assert family_report.holds, family_report.witness
        F = random_monotone_func(rng, sub.width)
        G = random_monotone_func(rng, sub.width)
        four_sum = corollary_fkg_check(sub, F, G, measure=mu, r=-1)
        assert four_sum.holds, four_sum.witness


# --- per-element memo against unmemoized reference copies ---

def _ref_log_supermodular(nu, L, mode=None):
    """`is_log_supermodular` on elements, without a memo: meet and join by
    L's element operations, and every lookup calls the weight again."""
    elems = L.elements()
    first = None
    for i, f in enumerate(elems):
        for g in elems[i:]:
            lhs = ext_mul(as_scalar(nu(L.meet(f, g))), as_scalar(nu(L.join(f, g))), mode)
            rhs = ext_mul(as_scalar(nu(f)), as_scalar(nu(g)), mode)
            if not lhs >= rhs and first is None:
                first = Witness(args=(f, g), lhs=lhs, rhs=rhs)
    return CheckReport(instances_checked=len(elems) ** 2, witness=first)


def _check_nondecreasing(func, name, L):
    """`fkg_check`'s monotonicity precondition on elements, without a memo."""
    elems = L.elements()
    for f in elems:
        for g in elems:
            if L.leq(f, g) and not as_scalar(func(f)) <= as_scalar(func(g)):
                return Witness(args=(f, g), lhs=func(f), rhs=func(g),
                               note=f"{name} is not nondecreasing")
    return None


def _ref_fkg_check(L, nu, F, G, mode=None):
    """The four-sum check as it reads without a memo: every lookup calls
    the function again."""
    elems = L.elements()
    logsup = _ref_log_supermodular(nu, L, mode)
    if not logsup.holds:
        return CheckReport(instances_checked=logsup.instances_checked,
                           witness=logsup.witness,
                           detail={"precondition_failed": "log-supermodularity"})
    for func, name in ((F, "F"), (G, "G")):
        w = _check_nondecreasing(func, name, L)
        if w is not None:
            return CheckReport(instances_checked=logsup.instances_checked,
                               witness=w, detail={"precondition_failed": "monotonicity"})
    if any(is_inf(as_scalar(nu(e))) for e in elems):
        for func, name in ((F, "F"), (G, "G")):
            for e in elems:
                require_nonneg(as_scalar(func(e)),
                               f"{name} value (required with infinite weights)")

    def agg(func):
        return ext_sum(ext_mul(as_scalar(func(e)), as_scalar(nu(e)), mode)
                       for e in elems)

    s_fg = agg(lambda e: as_scalar(F(e)) * as_scalar(G(e)))
    s_1 = agg(lambda e: Fraction(1))
    s_f, s_g = agg(F), agg(G)
    lhs, rhs = ext_mul(s_fg, s_1, mode), ext_mul(s_f, s_g, mode)
    detail = {"sum_FG": s_fg, "sum_1": s_1, "sum_F": s_f, "sum_G": s_g}
    checked = logsup.instances_checked + 1
    if lhs >= rhs:
        return CheckReport(instances_checked=checked, detail=detail)
    return CheckReport(instances_checked=checked,
                       witness=Witness(args=(), lhs=lhs, rhs=rhs, note="four-sum"),
                       detail=detail)


def _ref_ahke_check(alphas, betas, families, mode=None):
    """The family check as it reads without a memo."""
    n = len(families)
    fams = [[tuple(as_scalar(v) for v in e) for e in fam] for fam in families]
    stat_fams = orderstat_family(fams)

    def val(func, e, name):
        v = as_scalar(func(e))
        require_nonneg(v, f"{name} value")
        return v

    lhs = ext_prod((ext_sum(val(alphas[j], e, "alpha") for e in fams[j])
                    for j in range(n)), mode)
    rhs = ext_prod((ext_sum(val(betas[j], e, "beta") for e in stat_fams[j])
                    for j in range(n)), mode)
    checked = 0
    hyp_witness = None
    for f in product(*fams):
        checked += 1
        stats = pointwise_order_statistics(f)
        h_lhs = ext_prod((val(alphas[j], f[j], "alpha") for j in range(n)), mode)
        h_rhs = ext_prod((val(betas[j], stats[j], "beta") for j in range(n)), mode)
        if not h_lhs <= h_rhs and hyp_witness is None:
            hyp_witness = Witness(args=f, lhs=h_lhs, rhs=h_rhs,
                                  note="pointwise hypothesis violated")
    if hyp_witness is not None:
        return CheckReport(instances_checked=checked, witness=hyp_witness,
                           detail={"hypothesis_violated": True,
                                   "informational_lhs": lhs, "informational_rhs": rhs})
    detail = {"lhs": lhs, "rhs": rhs, "stat_family_sizes": [len(s) for s in stat_fams]}
    if lhs <= rhs:
        return CheckReport(instances_checked=checked + 1, detail=detail)
    return CheckReport(instances_checked=checked + 1,
                       witness=Witness(args=(), lhs=lhs, rhs=rhs, note="sum products"),
                       detail=detail)


def _outcome(check, *args, **kwargs):
    try:
        report = check(*args, **kwargs)
    except InputError as exc:
        return "error", str(exc)
    return report.holds, report.witness, report.detail, report.instances_checked


def _counted(func, calls):
    def counted(e):
        calls[e] += 1
        return func(e)
    return counted


def _random_table(rng, elems, values):
    table = {e: rng.choice(values) for e in elems}
    return lambda e: table[e]


_WEIGHT_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def test_log_supermodular_matches_element_reference_and_calls_once_per_element():
    rng = random.Random(1019)
    chains = product_of_chains([2, 3], labels=True)
    carriers = [random_sublattice(rng, width=rng.randint(1, 3), positive=bool(i % 2),
                                  seeds=rng.randint(2, 4)) for i in range(20)]
    carriers += [FnLattice.zero_to(2, 2), chains]
    seen = Counter()
    for L in carriers:
        elems = L.elements()
        # a table's ids read as the function elements its labels name
        as_fn = (lambda e: chains.labels[e]) if L is chains else (lambda e: e)
        width = len(as_fn(elems[0]))
        for kind in range(4):
            if kind == 0:
                weight = power_weight(rand_measure(rng, width, positive=False), -1)
            elif kind == 1:
                weight = inf_weight()
            else:
                weight = _random_table(rng, [as_fn(e) for e in elems],
                                       _WEIGHT_VALUES + (INF,) * (kind == 3))
            nu = (lambda e, w=weight: w(as_fn(e)))
            for mode in (None, ConventionMode.ZERO, ConventionMode.INF):
                calls = Counter()
                try:
                    got = is_log_supermodular(_counted(nu, calls), L, mode)
                except InputError as exc:
                    got = str(exc)
                try:
                    want = _ref_log_supermodular(nu, L, mode)
                except InputError as exc:
                    want = str(exc)
                assert all(count == 1 for count in calls.values())
                if isinstance(want, str):
                    assert got == want
                    seen["error"] += 1
                    continue
                assert (got.holds, got.witness, got.instances_checked) == \
                    (want.holds, want.witness, want.instances_checked)
                seen[got.holds, mode] += 1
    # both verdicts under every mode, and errors (0 * inf with no mode)
    for key in ["error"] + [(v, mode) for v in (True, False)
                            for mode in (None, ConventionMode.ZERO, ConventionMode.INF)]:
        assert seen[key] > 0, (key, seen)


def test_fkg_memo_matches_reference_and_calls_once_per_element():
    rng = random.Random(1021)
    seen = Counter()
    for i in range(300):
        sub = random_sublattice(rng, width=rng.randint(1, 3),
                                positive=bool(i % 2), seeds=rng.randint(2, 4))
        elems = sub.elements()
        weight_kind = i % 4
        if weight_kind == 0:
            nu = power_weight(rand_measure(rng, sub.width), -1)
        elif weight_kind == 1:
            nu = inf_weight()
        else:
            # random tables are mostly not log-supermodular; kind 3 adds inf
            values = _WEIGHT_VALUES + ((INF,) if weight_kind == 3 else ())
            nu = _random_table(rng, elems, values)
        F, G = (random_monotone_func(rng, sub.width) if rng.random() < 0.7
                else _random_table(rng, elems, (Fraction(-1),) + _WEIGHT_VALUES)
                for _ in range(2))
        mode = rng.choice((None, ConventionMode.ZERO, ConventionMode.INF))
        calls = [Counter() for _ in range(3)]
        got = _outcome(fkg_check, sub, *(_counted(f, c) for f, c in zip((nu, F, G), calls)),
                       mode)
        assert got == _outcome(_ref_fkg_check, sub, nu, F, G, mode)
        assert all(count == 1 for c in calls for count in c.values())
        if got[0] == "error":
            seen["error"] += 1
            continue
        if got[0]:
            seen["holds"] += 1
        else:
            seen[got[2].get("precondition_failed") or "four-sum"] += 1
            seen[got[1].note] += 1
        if "sum_1" in got[2] and any(is_inf(as_scalar(nu(e))) for e in elems):
            seen["inf weight summed", mode] += 1
    # every branch is exercised: each failed precondition (a non-monotone F
    # and a non-monotone G), errors, and four sums over infinite weights
    # under both modes
    for key in ("holds", "error", "log-supermodularity", "F is not nondecreasing",
                "G is not nondecreasing", ("inf weight summed", ConventionMode.ZERO),
                ("inf weight summed", ConventionMode.INF)):
        assert seen[key] > 0, (key, seen)


def test_ahke_memo_matches_reference_and_calls_once_per_element():
    rng = random.Random(1031)
    seen = Counter()
    for i in range(300):
        n = rng.randint(1, 3)
        families = random_families(rng, n=n, width=rng.randint(1, 2),
                                   positive=bool(i % 2))
        pool = sorted({e for fam in orderstat_family(families) for e in fam}
                      | {e for fam in families for e in fam})
        values = _WEIGHT_VALUES + ((INF,) if i % 3 == 0 else ()) \
            + ((Fraction(-1),) if i % 10 == 0 else ())
        alphas = [_random_table(rng, pool, values) for _ in range(n)]
        betas = [_random_table(rng, pool, values) for _ in range(n)]
        if i % 5 == 0:
            alphas = betas = [power_weight(rand_measure(rng, len(pool[0])), -1)] * n
        mode = rng.choice((None, ConventionMode.ZERO, ConventionMode.INF))
        # one counted wrapper per distinct function, so a weight serving
        # every alpha and beta role counts all of its calls together
        calls = {id(f): Counter() for f in alphas + betas}
        wrapped = {id(f): _counted(f, calls[id(f)]) for f in alphas + betas}
        counted = [wrapped[id(f)] for f in alphas + betas]
        got = _outcome(aharoni_keich_check, counted[:n], counted[n:], families, mode=mode)
        assert got == _outcome(_ref_ahke_check, alphas, betas, families, mode)
        assert all(count == 1 for c in calls.values() for count in c.values())
        if len(calls) == 1 and got[0] != "error":
            seen["one function in every role"] += 1
        if got[0] == "error":
            seen["error"] += 1
            continue
        seen["hypothesis violated" if "hypothesis_violated" in got[2] else got[0]] += 1
        if any(is_inf(as_scalar(f(e))) for f in alphas + betas for e in pool):
            seen["inf weight reported", mode] += 1
    # the conclusion never fails once the hypothesis holds (the theorem)
    for key in (True, "error", "hypothesis violated", "one function in every role",
                ("inf weight reported", ConventionMode.ZERO),
                ("inf weight reported", ConventionMode.INF)):
        assert seen[key] > 0, (key, seen)


# --- non-reversibility ---

def test_nonrev_exact_numbers():
    demo = nonreversibility_demo(3, Fraction(1, 1000), Fraction(1, 10000), 1)
    assert demo["stat_family_sizes"] == (9, 9)
    assert demo["lhs"] == 9
    assert abs(demo["ratio"] / 9 - 1) <= Fraction(1, 10)


def test_nonrev_single_element_families():
    # singleton families: sizes collapse to 1 = N^2 and the two sides agree
    # up to the exact defect delta^2/4 (ratio -> 1 as delta -> 0)
    delta = Fraction(1, 100)
    demo = nonreversibility_demo(1, delta, Fraction(1, 1000), 1)
    assert demo["stat_family_sizes"] == (1, 1)
    assert demo["ratio"] == 1 - delta ** 2 / 4
    tiny = Fraction(1, 10 ** 6)
    demo = nonreversibility_demo(1, tiny, Fraction(1, 10 ** 7), 1)
    assert abs(demo["ratio"] - 1) < Fraction(1, 10 ** 12)


def test_nonrev_parameter_validation():
    with pytest.raises(InputError):
        nonreversibility_demo(0, Fraction(1, 10), Fraction(1, 100), 1)
    with pytest.raises(InputError):
        nonreversibility_demo(3, Fraction(1, 1000), Fraction(1, 100), 1)  # eps > delta
    with pytest.raises(InputError):
        nonreversibility_demo(3, Fraction(2), Fraction(1, 100), 1)  # delta >= 1
