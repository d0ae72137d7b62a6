"""The acceptance suite: twelve exactly-specified criteria, each with a fixed
seed, an exact (or stated-tolerance) assertion set, and a wall-clock limit.
`run_all` prints one pass/fail line per criterion; pytest drives the same
functions from tests/test_acceptance.py.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .constructions import (
    MultisetCombiner,
    SchurSpec,
    elementary_symmetric,
    esym_orderstat_check,
    indep_association_check,
    majorizes,
    perm_orderstat_check,
    permanent,
    potential_construct,
    potential_pair_inequality_check,
    power_inequality_check,
    schur_construct,
    supinf_check,
)
from .correlation import (
    corollary_ahke_check,
    corollary_fkg_check,
    inf_weight,
    is_log_supermodular,
    nonreversibility_demo,
    power_weight,
)
from .generators import (
    rand_fraction,
    rand_measure,
    rand_nonneg_fn,
    random_families,
    random_monotone_func,
    random_potential_spec,
    random_sublattice,
    random_verified_functional,
)
from .lattice import (
    DEFAULT_BUDGET,
    FnLattice,
    build_m3,
    is_distributive,
    order_statistics_dual_tuple,
    order_statistics_tuple,
    pointwise_order_statistics,
    product_of_chains,
)
from .scalars import INF, ConventionMode
from .semimod import (
    TransitiveRelation,
    chain_point_multisets_conserved,
    check_generalized_n,
    check_generalized_nk,
    insertion_chain,
    reduction_regression,
    run_counterexample_m3,
    verify_chain_sortedness,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    limit: float
    info: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{status}] {self.elapsed:7.2f}s "
                f"(limit {self.limit:.0f}s) {self.name}: {self.info}")


def _require(cond, *message) -> None:
    """assert that survives `python -O`: an AssertionError with the same
    message when cond is false."""
    if not cond:
        raise AssertionError(*message)


def _criterion_1(budget: int) -> str:
    demo = run_counterexample_m3()
    _require(demo["pair_window_check"].holds, "pair-window check failed")
    _require(demo["pair_inequalities"] == 250, demo["pair_inequalities"])
    _require(demo["order_stats_of_234"] == (1, 5, 5))
    _require(demo["value_at_234"] == 148)
    _require(demo["value_at_order_stats"] == 160)
    _require(not demo["full_check"].holds, "3-ary check unexpectedly holds")
    _require(demo["expected_violation_reproduced"])
    return "250 pair inequalities hold; 148 vs 160 at labels (2,3,4)"


def _criterion_2(budget: int) -> str:
    lattices = []
    for width in (1, 2):
        for chain_len in (2, 3, 4):
            lattices.append(FnLattice.zero_to(width, chain_len - 1))
    for sizes in ([2], [3], [4], [5], [6], [2, 2], [2, 3], [2, 4], [3, 3],
                  [2, 2, 2], [2, 5], [3, 4], [2, 6], [2, 2, 3]):
        lattices.append(product_of_chains(sizes))
    agree = 0
    for L in lattices:
        _require(L.size <= 16, L)
        if not isinstance(L, FnLattice):
            _require(L.size <= 12)
            _require(is_distributive(L).holds, L)
        elems = L.elements()
        for n in (1, 2, 3):
            for f in product(elems, repeat=n):
                _require(order_statistics_tuple(L, f) == order_statistics_dual_tuple(L, f))
                agree += 1
    m3 = build_m3()
    dominated = 0
    for f in product(m3.elements(), repeat=3):
        primal = order_statistics_tuple(m3, f)
        dual = order_statistics_dual_tuple(m3, f)
        _require(all(m3.leq(d, p) for d, p in zip(dual, primal)), f)
        dominated += 1
    gap = tuple(m3.id_of(x) for x in (2, 3, 4))
    primal = tuple(m3.label_of(a) for a in order_statistics_tuple(m3, gap))
    dual = tuple(m3.label_of(a) for a in order_statistics_dual_tuple(m3, gap))
    _require(primal == (1, 5, 5) and dual == (1, 1, 5))
    return (f"{agree} tuples agree on {len(lattices)} distributive lattices; "
            f"M3 dual dominated on {dominated} tuples with gap (1,1,5) vs (1,5,5)")


def _criterion_3(budget: int) -> str:
    report = reduction_regression(random_verified_functional, trials=200,
                                  seed=20240601, budget=budget)
    _require(report.holds, f"falsification: {report.witness}")
    _require(report.detail["precondition_failures"] == 0)
    _require(report.instances_checked == 200)
    return "200 generated functionals pass pair-window and full checks"


def _criterion_4(budget: int) -> str:
    rng = random.Random(424242)
    trials = 10 ** 4
    for _ in range(trials):
        width = rng.randint(1, 3)
        top = rng.randint(1, 3)
        L = FnLattice.zero_to(width, top)
        elems = L.elements()
        n = rng.randint(1, 5)
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(n))
        chain = insertion_chain(L, f)
        _require(chain.rows[-1] == order_statistics_tuple(L, f), (f, chain.rows[-1]))
        _require(chain_point_multisets_conserved(chain), f)
        sorted_report = verify_chain_sortedness(chain)
        _require(sorted_report.holds, (f, sorted_report.witness))
    return f"{trials} random chains end at the order statistics, conserving multisets"


def _criterion_5(budget: int) -> str:
    rng = random.Random(55055)
    equalities = 0
    for _ in range(500):
        d = rng.randint(1, 5)
        p = rng.randint(1, 7)
        matrix = [[rand_fraction(rng, max_num=6, max_den=4) for _ in range(p)]
                  for _ in range(d)]
        report = perm_orderstat_check(matrix)
        _require(report.holds, report.witness)
        pre_sorted = pointwise_order_statistics(matrix)
        again = perm_orderstat_check(pre_sorted)
        _require(again.holds)
        _require(again.detail["rows_sorted"] == again.detail["permanent"])
        equalities += 1
    _require(permanent([[1, 2], [3, 0]]) == 6)
    return f"500 random matrices pass; {equalities} pre-sorted matrices give equality"


def _criterion_6(budget: int) -> str:
    rng = random.Random(66066)
    for _ in range(500):
        width = rng.randint(1, 3)
        n = rng.randint(2, 4)
        measure = rand_measure(rng, width)
        fs = [rand_nonneg_fn(rng, width, zero_prob=0.15) for _ in range(n)]
        for k in range(1, n + 1):
            report = esym_orderstat_check(measure, fs, k)
            _require(report.holds, (fs, k, report.witness))
            if k == 1:
                lhs = elementary_symmetric(1, report.detail["integrals"])
                rhs = elementary_symmetric(1, report.detail["stat_integrals"])
                _require(lhs == rhs, "k=1 must be an equality")
        sorted_fs = pointwise_order_statistics(tuple(fs))
        for k in range(1, n + 1):
            report = esym_orderstat_check(measure, sorted_fs, k)
            lhs = elementary_symmetric(k, report.detail["integrals"])
            rhs = elementary_symmetric(k, report.detail["stat_integrals"])
            _require(lhs == rhs, "chain-ordered tuples must give equality")
    return "500 instances pass for all k; k=1 and chain-ordered cases are equalities"


def _power_corners(width: int):
    zero = tuple(Fraction(0) for _ in range(width))
    inf_elem = tuple(INF for _ in range(width))
    mixed = tuple(Fraction(0) if i % 2 == 0 else INF for i in range(width))
    return [zero, inf_elem, mixed]


def _criterion_7(budget: int) -> str:
    rng = random.Random(77077)
    cases = 0
    for r in (1, 2, -1, -2):
        for i in range(500):
            width = rng.randint(1, 3)
            n = rng.randint(2, 3)
            p = rng.choice((-2, -1, 1, 2))
            measure = rand_measure(rng, width)
            fs = [rand_nonneg_fn(rng, width, inf_prob=0.15, zero_prob=0.2)
                  for _ in range(n)]
            if i < 3:  # pin a few all-corner instances into every batch
                fs = (_power_corners(width) + fs)[:max(n, 2)]
            report = power_inequality_check(p, r, measure, fs)
            _require(report.holds, (p, r, fs, report.witness))
            cases += 1
    for _ in range(500):
        width = rng.randint(1, 3)
        n = rng.randint(2, 4)
        fs = [rand_nonneg_fn(rng, width, inf_prob=0.2, zero_prob=0.25)
              for _ in range(n)]
        report = supinf_check(fs)
        _require(report.holds, (fs, report.witness))
        cases += 2  # the call verifies the sup product and the inf product
    return f"{cases} power/sup/inf inequalities hold, corners with 0 and inf included"


def _criterion_8(budget: int) -> str:
    fair = [[(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]] * 2
    report = indep_association_check(fair)
    _require(report.holds)
    _require(report.detail["mean_of_product"] == Fraction(1, 4))
    prod_means = report.detail["product_of_means"]
    _require(prod_means == Fraction(3, 16))
    rng = random.Random(88088)
    for _ in range(200):
        n = rng.randint(2, 3)
        marginals = []
        for _ in range(n):
            support = rng.randint(1, 3)
            values = [rand_fraction(rng, max_num=5) for _ in range(support)]
            cuts = sorted(rng.randint(1, 7) for _ in range(support - 1))
            probs = []
            prev = 0
            for c in cuts + [8]:
                probs.append(Fraction(c - prev, 8))
                prev = c
            marginals.append(list(zip(values, probs)))
        report = indep_association_check(marginals)
        _require(report.holds, (marginals, report.witness))
    return "fair-coin instance gives 1/4 >= 3/16 exactly; 200 random product spaces pass"


def _criterion_9(budget: int) -> str:
    rng = random.Random(99099)
    for i in range(100):
        sub = random_sublattice(rng, positive=bool(i % 2))
        mu = rand_measure(rng, sub.width)
        rep_inf = is_log_supermodular(inf_weight(), sub, ConventionMode.INF)
        _require(rep_inf.holds, rep_inf.witness)
        rep_pow = is_log_supermodular(power_weight(mu, -1), sub, ConventionMode.INF)
        _require(rep_pow.holds, rep_pow.witness)
    for i in range(100):
        sub = random_sublattice(rng, positive=True)
        mu = rand_measure(rng, sub.width)
        F = random_monotone_func(rng, sub.width)
        G = random_monotone_func(rng, sub.width)
        if i % 2:
            report = corollary_fkg_check(sub, F, G, measure=mu, r=-rng.randint(1, 2))
        else:
            report = corollary_fkg_check(sub, F, G, use_inf=True)
        _require(report.holds, report.witness)
    for i in range(100):
        n = rng.randint(2, 3)
        width = rng.randint(1, 3)
        fams = random_families(rng, n=n, width=width)
        if i % 2:
            report = corollary_ahke_check(fams, measure=rand_measure(rng, width),
                                          r=-rng.randint(1, 2))
        else:
            report = corollary_ahke_check(fams, use_inf=True)
        _require(report.holds, (fams, report.witness))
    return "100 lattices log-supermodular for inf and reciprocal weights; 100+100 instances pass"


def _criterion_10(budget: int) -> str:
    demo = nonreversibility_demo(3, Fraction(1, 1000), Fraction(1, 10000), 1)
    _require(demo["stat_family_sizes"] == (9, 9))
    _require(demo["sizes_are_n_squared"])
    ratio = demo["ratio"]
    _require(abs(ratio / Fraction(9) - 1) <= Fraction(1, 10), float(ratio))
    return f"order-statistic families have 9 elements each; ratio {float(ratio):.6f}"


def _criterion_11(budget: int) -> str:
    rng = random.Random(111111)
    realized = {"concave": set(), "convex": set()}
    for curvature, rel_name in (("concave", "ge"), ("convex", "le")):
        for _ in range(50):
            spec = random_potential_spec(rng, curvature)
            lam = potential_construct(spec, 3)
            expected = TransitiveRelation.from_name(rel_name)
            report = check_generalized_nk(spec.carrier, lam, 2, expected,
                                          budget=budget)
            _require(report.holds, (curvature, report.witness))
            other = TransitiveRelation.from_name("le" if rel_name == "ge" else "ge")
            flip = check_generalized_nk(spec.carrier, lam, 2, other, budget=budget)
            realized[curvature].add("both" if flip.holds else rel_name)
            pair = potential_pair_inequality_check(spec, seed=rng.randrange(2 ** 30),
                                                   samples=60)
            _require(pair.holds, (curvature, pair.witness))
    _require(realized["concave"] <= {"ge", "both"})
    _require(realized["convex"] <= {"le", "both"})
    return (f"50+50 specs: concave realizes >= ({sorted(realized['concave'])}), "
            f"convex realizes <= ({sorted(realized['convex'])}); "
            "pair-transform inequality holds under each curvature")


def _criterion_12(budget: int) -> str:
    """The Muirhead analogue on FN9 at n = 3, for seeded modular and capped
    modular lam: each (meet, join) swap of every tuple's insertion chain,
    the chains of its prefixes included, is a T-step on lam's values (the
    lower value falls to at most both, the upper rises to at least both,
    and their sum does not rise, nor fall for a modular lam); so every sum
    of the j smallest lam values of f* is at most f's, and a modular lam's
    values of f* majorize f's.  Schur compositions of each lam with each
    `MultisetCombiner` then hold under ge by theorem, and the theorem route
    reports what enumeration reports."""
    rng = random.Random(121212)
    L = FnLattice.zero_to(2, 2)
    n = 3
    elems = L.elements()
    maps = []
    for modular in (True, False) * 3:
        ws = [rng.randint(0 if modular else 1, 4) for _ in range(2)]
        cap = rng.randint(1, 6)
        maps.append((modular, {e: ws[0] * e[0] + ws[1] * e[1] if modular
                               else min(cap, ws[0] * e[0] + ws[1] * e[1]) for e in elems}))
    swaps = 0
    for f in product(elems, repeat=n):
        for t in range(2, n + 1):  # the chain of f[:t], with f[t:] fixed
            rows = insertion_chain(L, f[:t]).rows
            for i in range(t - 1):
                p = t - i - 2  # row i + 1 swaps positions p, p + 1
                a, b = rows[i][p:p + 2]
                low, high = L.meet(a, b), L.join(a, b)
                _require(rows[i + 1] == rows[i][:p] + (low, high) + rows[i][p + 2:], (f, t, i))
                for modular, lam in maps:
                    old, new = lam[a] + lam[b], lam[low] + lam[high]
                    _require(lam[low] <= min(lam[a], lam[b]) and lam[high] >= max(lam[a], lam[b])
                             and new <= old and (new == old or not modular), (f, t, i))
                swaps += 1
        stats = rows[-1]
        for modular, lam in maps:
            x, y = sorted(map(lam.__getitem__, f)), sorted(map(lam.__getitem__, stats))
            _require(all(sum(y[:j]) <= sum(x[:j]) for j in range(1, n + 1)), (f, x, y))
            _require(majorizes(x, y) or not modular, (f, x, y))
    ge = TransitiveRelation.ge()
    checks = 0
    for _, lam in maps:
        for combiner in (MultisetCombiner("min"), MultisetCombiner("sum"),
                         MultisetCombiner("sum_smallest", 2)):
            schur = schur_construct(SchurSpec(L, lam.__getitem__, combiner), n, budget=budget)
            enumerated = dataclasses.replace(schur, ge_by_theorem=False)
            for check in (lambda lam: check_generalized_nk(L, lam, 2, ge, budget=budget),
                          lambda lam: check_generalized_n(L, lam, ge, budget=budget)):
                report = check(schur)
                _require(report.holds and report == check(enumerated), (combiner, report))
                checks += 1
    return (f"{L.size ** n} tuples on FN9: {swaps} chain swaps are T-steps for "
            f"{len(maps)} maps; no sum of j smallest rises, modular totals kept; "
            f"the ge route matches enumeration in {checks} checks")


CRITERIA: list[tuple[int, str, float, Callable[[int], str]]] = [
    (1, "diamond counterexample reproduction", 1.0, _criterion_1),
    (2, "primal/dual order-statistic agreement", 30.0, _criterion_2),
    (3, "pair-window to full reduction on 200 functionals", 300.0, _criterion_3),
    (4, "rearrangement chain equals order statistics", 60.0, _criterion_4),
    (5, "permanent row/column inequalities", 60.0, _criterion_5),
    (6, "elementary symmetric inequalities", 60.0, _criterion_6),
    (7, "power/sup/inf products with conventions", 120.0, _criterion_7),
    (8, "association on independent product spaces", 60.0, _criterion_8),
    (9, "FKG and family correlation instances", 120.0, _criterion_9),
    (10, "non-reversibility demonstration", 1.0, _criterion_10),
    (11, "one-sided potential directions per curvature", 120.0, _criterion_11),
    (12, "Muirhead analogue along the insertion chain", 5.0, _criterion_12),
]


def run_criterion(number: int, budget: Optional[int] = None) -> CriterionResult:
    budget = DEFAULT_BUDGET if budget is None else budget
    for num, name, limit, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                info = fn(budget)
                elapsed = time.perf_counter() - start
                passed = elapsed < limit
                if not passed:
                    info = f"over time limit; {info}"
                return CriterionResult(num, name, passed, elapsed, limit, info)
            except AssertionError as exc:
                elapsed = time.perf_counter() - start
                return CriterionResult(num, name, False, elapsed, limit,
                                       f"assertion failed: {exc}")
    raise ValueError(f"no criterion {number}")


def run_all(budget: Optional[int] = None, stream=None,
            numbers: Optional[list] = None) -> list[CriterionResult]:
    results = []
    for num, _, _, _ in CRITERIA:
        if numbers and num not in numbers:
            continue
        result = run_criterion(num, budget)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    return results
