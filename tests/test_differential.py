"""Differential tests: the checkers against a reference scan written here.

The reference enumerates element tuples directly, takes order statistics
from the public subset formula `order_statistics_tuple` and evaluates each
functional through its own `fn`, with no memo; windows and sampled draws
follow the documented instance order.  Every checker must report the same
verdict, instance count and first witness.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from latstat import (
    FnLattice,
    TransitiveRelation,
    TupleFunctional,
    build_m3,
    check_generalized_n,
    check_generalized_nk,
    order_statistics_tuple,
    product_of_chains,
)
from latstat.constructions import SchurSpec, potential_construct, schur_construct
from latstat.generators import random_potential_spec
from latstat.report import Witness
from latstat.semimod import _derive_seed, m3_quadratic

RELATIONS = {name: TransitiveRelation.from_name(name) for name in ("ge", "le", "eq")}


def reference_scan(L, lam, rel, k, windowed, mode, seed=None, trials=0):
    """(holds, instances, first witness) of the k-window check, or of the
    full check when windowed is False."""
    elems = L.elements()
    n = lam.arity
    windows = n - k + 1

    def instance(j, f):
        note = f"window start {j}" if windowed else ""
        return f, f[:j] + order_statistics_tuple(L, f[j:j + k]) + f[j + k:], note

    if mode == "exhaustive":
        instances = [instance(j, f) for j in range(windows)
                     for f in product(elems, repeat=n)]
    else:
        instances = []
        for i in range(trials):
            rng = random.Random(_derive_seed(seed, i))
            j = rng.randrange(windows) if windowed else 0
            instances.append(instance(j, tuple(elems[rng.randrange(len(elems))]
                                               for _ in range(n))))
    first = None
    for f, g, note in instances:
        a, b = lam.fn(f), lam.fn(g)
        if first is None and not rel.holds(a, b):
            first = Witness(args=f, lhs=a, rhs=b, note=note)
    return first is None, len(instances), first


def _weight(L, e):
    return Fraction(sum(e)) if isinstance(L, FnLattice) else Fraction(e + 1)


def generic_functionals(L, n):
    """Functionals evaluated through plain `fn`: a quadratic form and a
    weighted sum."""
    def quadratic(f):
        return sum((c * _weight(L, f[i]) * _weight(L, f[j])
                    for c, i, j in ((12, 0, 1), (3, 1, 2), (5, 0, 2), (2, 0, n - 1))),
                   Fraction(0))

    def weighted(f):
        return sum((Fraction(i + 1) * _weight(L, a) for i, a in enumerate(f)), Fraction(0))

    return [TupleFunctional(arity=n, fn=quadratic, tag="quadratic"),
            TupleFunctional(arity=n, fn=weighted, tag="weighted")]


def _schur(L, n):
    spec = SchurSpec(L, lambda e: min(Fraction(3), Fraction(sum(e))),
                     lambda xs: sum(sorted(xs)[:2], Fraction(0)))
    return schur_construct(spec, n)


CARRIERS = {
    "fn_2x2": (lambda: FnLattice.zero_to(2, 2), 3),
    "chains_2x3": (lambda: product_of_chains([2, 3]), 3),
    "m3": (build_m3, 4),
}


def _functionals(name, L, n):
    lams = generic_functionals(L, n)
    if name == "fn_2x2":
        lams.append(_schur(L, n))
    if name == "m3":
        demo = m3_quadratic(L).fn
        lams.append(TupleFunctional(arity=n, fn=lambda f: demo(f[:3]), tag="m3-quadratic"))
    return lams


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_checkers_match_reference_scan(carrier, relation, mode):
    make, n = CARRIERS[carrier]
    L = make()
    rel = RELATIONS[relation]
    sampled = {"mode": "sampled", "seed": 13, "trials": 150} if mode == "sampled" else {}
    violated = 0
    for lam in _functionals(carrier, L, n):
        runs = [(n, False, check_generalized_n(L, lam, rel, **sampled))]
        for k in (2, 3):
            runs.append((k, True, check_generalized_nk(L, lam, k, rel, **sampled)))
        for k, windowed, report in runs:
            expected = reference_scan(L, lam, rel, k, windowed, mode, seed=13, trials=150)
            got = (report.holds, report.instances_checked, report.witness)
            assert got == expected, (lam.tag, k, windowed)
            violated += not report.holds
    assert violated  # every combination covers a violation and its witness


def test_m3_quadratic_violation_matches_reference():
    L = build_m3()
    lam = m3_quadratic(L)
    report = check_generalized_n(L, lam, RELATIONS["ge"])
    assert not report.holds
    assert (report.holds, report.instances_checked, report.witness) == reference_scan(
        L, lam, RELATIONS["ge"], 3, False, "exhaustive")


def _on_ids_agrees(lam, L):
    elems = L.elements()
    on_ids = getattr(lam, "on_ids", None)
    if on_ids is None:  # evaluated through fn only: nothing to compare
        return
    evaluate = on_ids(elems)
    for ids in product(range(len(elems)), repeat=lam.arity):
        assert evaluate(ids) == lam.fn(tuple(elems[i] for i in ids)), ids


def test_schur_on_ids_matches_fn():
    L = FnLattice.zero_to(2, 1)
    _on_ids_agrees(_schur(L, 3), L)


@pytest.mark.parametrize("curvature", ["concave", "convex"])
def test_potential_on_ids_matches_fn(curvature):
    spec = random_potential_spec(random.Random(3), curvature, width=2)
    _on_ids_agrees(potential_construct(spec, 3), spec.carrier)


@pytest.mark.parametrize("k", ["n", 3])
def test_sampled_scan_of_large_lattice_stays_fast(k):
    # 46,656 elements: work proportional to m^2 would take minutes
    L = FnLattice.zero_to(6, 5)
    lam = TupleFunctional(arity=4, fn=lambda f: sum(f[0]) - sum(f[3]), tag="ends")
    start = time.perf_counter()
    if k == "n":
        report = check_generalized_n(L, lam, RELATIONS["ge"], mode="sampled",
                                     seed=1, trials=300)
    else:
        report = check_generalized_nk(L, lam, k, RELATIONS["ge"], mode="sampled",
                                      seed=1, trials=300)
    assert time.perf_counter() - start < 2.0
    assert report.instances_checked == 300
