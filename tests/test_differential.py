"""Differential tests: the checkers against a reference scan written here.

The reference enumerates element tuples directly, takes order statistics
from the public subset formula `order_statistics_tuple` and evaluates each
functional through its own `fn`, with no memo; windows and sampled draws
follow the documented instance order.  Every checker must report the same
verdict, instance count and first witness.
"""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from latstat import (
    BudgetExceededError,
    FnLattice,
    TransitiveRelation,
    TupleFunctional,
    build_m3,
    check_generalized_n,
    check_generalized_nk,
    check_relaxed_hypothesis,
    constructions,
    jsonio,
    order_statistics_tuple,
    product_of_chains,
    semimod,
)
from latstat.constructions import (
    Measure,
    MultiadditiveFn,
    MultisetCombiner,
    SchurSpec,
    integral_of_product,
    multiadd_symmetric_sum,
    potential_construct,
    product_of_integrals,
    schur_construct,
    tensor_multiadditive,
)
from latstat.generators import (
    random_potential_spec,
    random_schur_functional,
    random_verified_functional,
)
from latstat.jsonio import dump_report, functional_from_json, lattice_from_json, make_report
from latstat.lattice import lattice_from_order
from latstat.report import CheckReport, Witness
from latstat.scalars import INF, InputError, integer_scale, is_inf
from latstat.semimod import _derive_seed, m3_quadratic, scalar_quadratic

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


def reference_relaxed(L, lam, rel):
    """(holds, instances, first witness) of the relaxed-hypothesis check:
    for each prefix length j, every tuple whose first j entries form a chain
    against its (j, j+1) meet/join swap."""
    n = lam.arity
    count, first = 0, None
    for j in range(1, n):
        for f in product(L.elements(), repeat=n):
            if not all(L.leq(f[i], f[i + 1]) for i in range(j - 1)):
                continue
            count += 1
            a, b = f[j - 1], f[j]
            g = f[:j - 1] + (L.meet(a, b), L.join(a, b)) + f[j + 1:]
            if first is None and not rel.holds(lam.fn(f), lam.fn(g)):
                first = Witness(args=f, lhs=lam.fn(f), rhs=lam.fn(g),
                                note=f"sorted prefix length {j}")
    return first is None, count, first


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
    "chains_2x3": (lambda: product_of_chains([2, 3]), 4),
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
        for k in range(2, n + 1):
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
    evaluate, scale, _ = lam.on_ids(elems)
    assert scale is None  # no limit: fn's own values
    for ids in product(range(len(elems)), repeat=lam.arity):
        assert evaluate(ids) == lam.fn(tuple(elems[i] for i in ids)), ids


def test_schur_on_ids_matches_fn():
    L = FnLattice.zero_to(2, 1)
    _on_ids_agrees(_schur(L, 3), L)


@pytest.mark.parametrize("curvature", ["concave", "convex"])
def test_potential_on_ids_matches_fn(curvature):
    spec = random_potential_spec(random.Random(3), curvature, width=2)
    _on_ids_agrees(potential_construct(spec, 3), spec.carrier)


def _multiadd_forms():
    """The three multiadditive forms of arity 2 on a ground set of 2 points."""
    return {
        "prod-integrals": product_of_integrals([Measure((1, 2)), Measure((3, 1))]),
        "integral-of-product": integral_of_product(Measure((2, 1)), 2),
        "tensor": tensor_multiadditive({(0, 1): 2, (1, 1): 1}, 2, 2),
    }


@pytest.mark.parametrize("form", ["prod-integrals", "integral-of-product", "tensor"])
def test_multiadd_on_ids_matches_fn(form):
    L = FnLattice.zero_to(2, 2)
    _on_ids_agrees(multiadd_symmetric_sum(_multiadd_forms()[form], 3, L), L)


def test_quadratic_on_ids_matches_fn():
    _on_ids_agrees(m3_quadratic(), build_m3())
    L = FnLattice.zero_to(1, 3)
    _on_ids_agrees(scalar_quadratic(L, ((2, 1, 2), (-3, 3, 3), (1, 2, 1)), 3), L)


def _odd_arity_forms(k):
    """The three multiadditive forms of arity k (1 or 3) on a ground set of
    2 points, with fractional data so that each scale exceeds 1."""
    measures = [Measure((Fraction(1, 2), 2)), Measure((3, Fraction(1, 3))), Measure((1, 1))]
    weights = {1: {(0,): Fraction(2, 7), (1,): 1},
               3: {(0, 1, 1): Fraction(2, 7), (1, 1, 0): 1}}[k]
    return {
        "prod-integrals": product_of_integrals(measures[:k]),
        "integral-of-product": integral_of_product(Measure((Fraction(2, 3), 1)), k),
        "tensor": tensor_multiadditive(weights, k, 2),
    }


def test_id_table_keys_ids_in_base_m_whether_eager_or_lazy():
    # symmetric sums cannot tell a key from its reversal; the table itself can
    elems = ["a", "b", "c"]
    for arity in (1, 2, 3):
        _, eager = semimod.id_table(lambda *args: args, elems, arity, 3 ** arity)
        _, lazy = semimod.id_table(lambda *args: args, elems, arity, 3 ** arity - 1)
        assert lazy == {}
        for key, args in enumerate(product(elems, repeat=arity)):
            assert eager[key] == lazy[key] == args, (arity, key)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("form", ["prod-integrals", "integral-of-product", "tensor"])
def test_multiadd_on_ids_of_form_arity_1_and_3_matches_fn(form, k):
    # a table of all m^k form values is scaled; one entry fewer keeps it
    # lazy.  Forms of arity 1 declare their unary terms, arity 3 none.
    L = FnLattice.zero_to(2, 2)
    elems = L.elements()
    lam = multiadd_symmetric_sum(_odd_arity_forms(k)[form], 3, L)
    size = len(elems) ** k
    (scaled, scale, terms), (lazy, no_scale, no_terms) = \
        lam.on_ids(elems, size), lam.on_ids(elems, size - 1)
    assert type(scale) is int and scale > 1 and (terms is None) == (k == 3)
    assert no_scale is None and no_terms is None
    for ids in product(range(len(elems)), repeat=3):
        want = lam.fn(tuple(elems[i] for i in ids))
        v = scaled(ids)
        assert type(v) is int and Fraction(v, scale) == want, ids
        assert lazy(ids) == want, ids


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("form", ["prod-integrals", "integral-of-product", "tensor"])
def test_multiadd_of_form_arity_1_and_3_matches_reference_scan(form, k):
    # n = 4 on 0/1 values: the full and --k 3 checks fill the scaled table,
    # 40 sampled trials keep it lazy
    L = FnLattice.zero_to(2, 1)
    lam = multiadd_symmetric_sum(_odd_arity_forms(k)[form], 4, L)
    sampled = {"seed": 13, "trials": 40}
    verdicts = set()
    for relation, rel in RELATIONS.items():
        runs = [(4, False, {}, check_generalized_n(L, lam, rel)),
                (3, True, {}, check_generalized_nk(L, lam, 3, rel)),
                (3, True, sampled, check_generalized_nk(L, lam, 3, rel, mode="sampled",
                                                        **sampled))]
        for width, windowed, draws, report in runs:
            mode = "sampled" if draws else "exhaustive"
            assert (report.holds, report.instances_checked, report.witness) == \
                reference_scan(L, lam, rel, width, windowed, mode, **draws), (relation, width)
            verdicts.add((relation, report.holds))
    # forms of arity 1 are modular, and integral-of-product sums are
    # unchanged by pointwise sorting: every relation holds; the others fail le
    if k == 1 or form == "integral-of-product":
        assert verdicts == {(relation, True) for relation in RELATIONS}
    else:
        assert ("ge", True) in verdicts and ("le", False) in verdicts


def _symmetric_families(n=3, carrier=None):
    """(name, carrier, functional of arity n, relations that fail): each
    family holds its own relation on these distributive carriers, so the
    others fail.  A given carrier replaces the default ones, values 0..2 on
    2 points and, for the potential, values -1..1 on 2 points."""
    L = carrier or FnLattice.zero_to(2, 2)
    schur = schur_construct(SchurSpec(L, lambda e: min(Fraction(3), Fraction(sum(e))),
                                      MultisetCombiner("sum_smallest", 2)), n)
    multiadd = multiadd_symmetric_sum(_multiadd_forms()["prod-integrals"], n, L)
    spec = random_potential_spec(random.Random(4), "convex", width=2)
    if carrier is not None:
        spec = dataclasses.replace(spec, carrier=carrier)
    return [("schur", L, schur, ("le", "eq")),
            ("multiadd", L, multiadd, ("le", "eq")),
            ("potential", spec.carrier, potential_construct(spec, n), ("ge", "eq"))]


@pytest.mark.parametrize("family", ["schur", "multiadd", "potential"])
def test_symmetric_scans_match_reference_scan(family):
    _, L, lam, failing = next(c for c in _symmetric_families() if c[0] == family)
    assert lam.symmetric
    sampled = {"mode": "sampled", "seed": 13, "trials": 150}
    for relation in failing:
        rel = RELATIONS[relation]
        runs = [
            (check_generalized_n(L, lam, rel), reference_scan(L, lam, rel, 3, False, "exhaustive")),
            (check_generalized_nk(L, lam, 2, rel),
             reference_scan(L, lam, rel, 2, True, "exhaustive")),
            (check_generalized_n(L, lam, rel, **sampled),
             reference_scan(L, lam, rel, 3, False, "sampled", seed=13, trials=150)),
            (check_generalized_nk(L, lam, 2, rel, **sampled),
             reference_scan(L, lam, rel, 2, True, "sampled", seed=13, trials=150)),
            (check_relaxed_hypothesis(L, lam, rel), reference_relaxed(L, lam, rel)),
        ]
        for i, (report, expected) in enumerate(runs):
            assert (report.holds, report.instances_checked, report.witness) == expected, \
                (relation, i)
            assert not report.holds, (relation, i)


@pytest.mark.parametrize("family", ["schur", "multiadd", "potential"])
def test_symmetric_windows_at_n4_match_reference_scan(family):
    # k < n enumerates window 0 as sorted window times sorted rest; 0/1
    # values keep the uncached reference scan short at n = 4
    families = _symmetric_families(4, FnLattice.zero_to(2, 1))
    _, L, lam, failing = next(c for c in families if c[0] == family)
    for relation in failing:
        rel = RELATIONS[relation]
        for k in (2, 3, 4):
            report = check_generalized_nk(L, lam, k, rel)
            assert (report.holds, report.instances_checked, report.witness) == \
                reference_scan(L, lam, rel, k, True, "exhaustive"), (relation, k)
            assert not report.holds, (relation, k)


def test_symmetric_is_set_by_the_three_symmetric_families():
    fn = lattice_from_json({"kind": "fn", "ground_size": 2, "chain_max": 1})
    lam = {"kind": "modular", "point_weights": [1, 2]}
    for F in ({"kind": "min"}, {"kind": "sum"}, {"kind": "sum_smallest", "k": 2}):
        assert functional_from_json({"family": "schur", "n": 3, "lambda": lam, "F": F},
                                    fn).symmetric
    multiadd = {"family": "multiadd", "n": 3, "k": 2,
                "m": {"kind": "integral_of_product", "weights": [1, 2]}}
    assert functional_from_json(multiadd, fn).symmetric
    assert random_schur_functional(random.Random(1))[1].symmetric
    for name, _, family_lam, _ in _symmetric_families():
        assert family_lam.symmetric, name
    # symmetric in fact, but built from a plain callable, so not declared
    spec = SchurSpec(fn, lambda e: Fraction(sum(e)), lambda xs: min(xs))
    assert not schur_construct(spec, 3).symmetric
    assert not m3_quadratic().symmetric
    quadratic = {"family": "quadratic", "coeffs": {"1": [1, 2]}, "n": 2}
    assert not functional_from_json(quadratic, lattice_from_json(
        {"kind": "fn", "ground_size": 1, "chain_max": 2})).symmetric
    assert not TupleFunctional(arity=2, fn=lambda f: Fraction(0)).symmetric


def test_custom_relation_ignores_symmetric():
    _, L, lam, _ = _symmetric_families()[1]
    plain = dataclasses.replace(lam, symmetric=False)
    le = TransitiveRelation.custom(lambda a, b: a <= b, name="le")
    for checker in (lambda f: check_generalized_n(L, f, le),
                    lambda f: check_generalized_nk(L, f, 2, le),
                    lambda f: check_relaxed_hypothesis(L, f, le)):
        on, off = checker(lam), checker(plain)
        assert not on.holds
        assert (on.holds, on.instances_checked, on.witness) == \
            (off.holds, off.instances_checked, off.witness)
    assert check_generalized_n(L, lam, le).witness == \
        reference_scan(L, lam, le, 3, False, "exhaustive")[2]
    # the transitivity filter subsamples the memo's values: the same values
    # in the same order, so the same refusal
    differs = TransitiveRelation.custom(lambda a, b: a != b, name="differs")
    messages = []
    for f in (lam, plain):
        with pytest.raises(InputError) as err:
            check_generalized_n(L, f, differs)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


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


# --- integer scales ---

def _scaled_families():
    """(name, carrier, functional of arity 3) for every family, with
    fractional data so that each scale exceeds 1."""
    L = FnLattice.zero_to(2, 2)
    half = FnLattice(1, [Fraction(v, 2) for v in range(4)])
    lam = lambda e: min(Fraction(5, 2), Fraction(1, 3) * e[0] + Fraction(1, 2) * e[1])
    out = [(f"schur-{kind}", L, schur_construct(SchurSpec(L, lam, MultisetCombiner(kind, 2)), 3))
           for kind in ("min", "sum", "sum_smallest")]
    out.append(("quadratic-m3", build_m3(),
                scalar_quadratic(build_m3(), ((Fraction(12, 5), 1, 2), (Fraction(3, 7), 2, 3),
                                              (1, 1, 3)), 3)))
    out.append(("quadratic-halves", half,
                scalar_quadratic(half, ((Fraction(2, 3), 1, 2), (-3, 3, 3), (1, 2, 1)), 3)))
    for curvature in ("concave", "convex"):
        spec = random_potential_spec(random.Random(3), curvature, width=2)
        spec = dataclasses.replace(spec, measure=Measure((Fraction(1, 3), Fraction(2, 5))))
        out.append((f"potential-{curvature}", spec.carrier, potential_construct(spec, 3)))
    forms = {
        "prod-integrals": product_of_integrals([Measure((Fraction(1, 2), 2)),
                                                Measure((3, Fraction(1, 3)))]),
        "integral-of-product": integral_of_product(Measure((Fraction(2, 3), 1)), 2),
        "tensor": tensor_multiadditive({(0, 1): Fraction(2, 7), (1, 1): 1}, 2, 2),
    }
    for name, form in forms.items():
        out.append((f"multiadd-{name}", L, multiadd_symmetric_sum(form, 3, L)))
    return out


@pytest.mark.parametrize("family", [name for name, _, _ in _scaled_families()])
def test_scaled_on_ids_matches_fn(family):
    _, L, lam = next(c for c in _scaled_families() if c[0] == family)
    elems = L.elements()
    tuples = list(product(range(len(elems)), repeat=3))
    evaluate, scale, _ = lam.on_ids(elems, len(tuples))
    assert type(scale) is int and scale > 1
    for ids in tuples:
        v = evaluate(ids)
        assert type(v) is int, ids
        assert Fraction(v, scale) == lam.fn(tuple(elems[i] for i in ids)), ids


def test_quadratic_scale_comes_from_id_table():
    # the lcm of the coefficient tables' scales, present when the limit
    # allows m^2 entries and absent one entry below, where the lazy
    # evaluator still gives fn's values
    for family, want in (("quadratic-m3", 35), ("quadratic-halves", 3 * 2 * 2)):
        _, L, lam = next(c for c in _scaled_families() if c[0] == family)
        elems = L.elements()
        m = len(elems)
        assert lam.on_ids(elems, m * m)[1] == want
        lazy, scale, terms = lam.on_ids(elems, m * m - 1)
        assert scale is None and terms is None
        for ids in product(range(m), repeat=3):
            assert lazy(ids) == lam.fn(tuple(elems[i] for i in ids)), ids


def _report_bytes(report):
    return dump_report(make_report("check", {}, report))


def _reference_bytes(L, lam, rel, k, windowed, **sampled):
    mode = "sampled" if sampled else "exhaustive"
    holds, count, witness = reference_scan(L, lam, rel, k, windowed, mode, **sampled)
    assert holds == (witness is None)
    return _report_bytes(CheckReport(instances_checked=count, witness=witness, mode=mode,
                                     seed=sampled.get("seed")))


def _fallback_runs(L, lam, rel):
    """(report bytes, reference bytes) of the full and k = 2 checks."""
    n = lam.arity
    return [(_report_bytes(check_generalized_n(L, lam, rel)),
             _reference_bytes(L, lam, rel, n, False)),
            (_report_bytes(check_generalized_nk(L, lam, 2, rel)),
             _reference_bytes(L, lam, rel, 2, True))]


def test_id_scan_matches_reference_on_acceptance_generators():
    # criterion 3's verified Schur and multiadditive draws and criterion
    # 11's potentials at n = 3, each under ge and le, at k = 2 and k = n
    rng = random.Random(3)
    cases = [random_verified_functional(rng) for _ in range(12)]
    for curvature in ("concave", "convex"):
        for _ in range(6):
            spec = random_potential_spec(rng, curvature)
            cases.append((spec.carrier, potential_construct(spec, 3)))
    notes = []
    for L, lam in cases:
        for rel in (RELATIONS["ge"], RELATIONS["le"]):
            for got, want in _fallback_runs(L, lam, rel):
                assert got == want, (lam.tag, rel.name)
                witness = json.loads(got)["result"]["witness"]
                notes += [witness["note"]] if witness else []
    assert len(notes) == 12 and sum(note.startswith("window start") for note in notes) == 6


def test_non_fraction_functionals_keep_fn_values():
    # float values declare no scale: the scan compares fn's own floats
    spec = random_potential_spec(random.Random(4), "convex", width=2)
    spec = dataclasses.replace(spec, psi=lambda u, psi=spec.psi: float(psi(u)))
    potential = potential_construct(spec, 3)
    form = MultiadditiveFn(2, lambda f, g: float(f[0] * g[1]) + 0.5, "float-form")
    L = FnLattice.zero_to(2, 1)
    multiadd = multiadd_symmetric_sum(form, 3, L)
    for carrier, lam in ((spec.carrier, potential), (L, multiadd)):
        elems = carrier.elements()
        assert lam.on_ids(elems, 10 ** 6)[1] is None
        witnesses = []
        for rel in RELATIONS.values():
            for got, want in _fallback_runs(carrier, lam, rel):
                assert got == want
            witnesses.append(check_generalized_n(carrier, lam, rel).witness)
        assert any(w is not None and type(w.lhs) is float for w in witnesses)


def test_integer_scale_refuses_non_finite_values():
    assert integer_scale([Fraction(1, 2), 3]) == (2, [1, 6])
    assert integer_scale([]) == (1, [])
    for values in ([Fraction(1), INF], [1, 0.5], [True, 1]):
        assert integer_scale(values) is None


def test_carrier_with_inf_values_matches_reference_scan():
    # lambda counts the infinite entries, so its values stay finite rationals
    L = FnLattice(2, [0, 1, INF])
    spec = SchurSpec(L, lambda e: Fraction(sum(1 for v in e if is_inf(v)), 3),
                     MultisetCombiner("sum_smallest", 2))
    lam = schur_construct(spec, 3)
    assert lam.on_ids(L.elements(), len(L.elements()))[1] == 3
    for relation in ("le", "eq"):
        for got, want in _fallback_runs(L, lam, RELATIONS[relation]):
            assert got == want
    # a quadratic over these values fails while its table is filled, as fn
    # does; one entry below m^2 its lazy evaluator fails only where fn does
    q = scalar_quadratic(FnLattice(1, [0, 1, INF]), ((1, 1, 2),), 2)
    with pytest.raises(TypeError) as filled:
        q.on_ids(q.lattice.elements(), 9)
    with pytest.raises(TypeError) as direct:
        q.fn(q.lattice.elements()[1:])
    assert str(filled.value) == str(direct.value)
    evaluate, scale, _ = q.on_ids(q.lattice.elements(), 8)
    assert scale is None and evaluate((0, 1)) == 0
    with pytest.raises(TypeError):
        evaluate((1, 2))


@pytest.mark.parametrize("family", ["schur-sum_smallest", "quadratic-m3", "potential-convex",
                                    "multiadd-tensor"])
def test_custom_relation_receives_fn_values(family):
    def pred(a, b):
        assert type(a) is Fraction and type(b) is Fraction
        return a >= b

    rel = TransitiveRelation.custom(pred, name="ge-of-fractions")
    _, L, lam = next(c for c in _scaled_families() if c[0] == family)
    for got, want in _fallback_runs(L, lam, rel):
        assert got == want
    report = check_relaxed_hypothesis(L, lam, rel)
    assert (report.holds, report.instances_checked, report.witness) == \
        reference_relaxed(L, lam, rel)


@pytest.mark.parametrize("family", ["potential", "multiadd", "multiadd-multilinear"])
def test_sampled_scan_with_more_table_than_trials_stays_lazy(family, monkeypatch):
    # the scan's one table, recorded as id_table returns it, holds only the
    # entries the drawn tuples read; a potential's entries are read by
    # difference code and a multilinear form's from digits, so neither
    # calls its element path (a callable form is called once per entry)
    tables, calls = [], []
    real_id_table = semimod.id_table

    def recorded(*args):
        scale, table = real_id_table(*args)
        tables.append(table)
        return scale, table

    monkeypatch.setattr(semimod, "id_table", recorded)
    real_transform = constructions._potential_transform

    def counted_transform(spec):
        transform = real_transform(spec)
        return lambda g: calls.append(g) or transform(g)

    monkeypatch.setattr(constructions, "_potential_transform", counted_transform)
    L = FnLattice.zero_to(2, 2)  # m = 9: 81 pair terms or 2-tuples

    def make():
        # the potential's transform memo lives in its functional: build afresh
        form = _multiadd_forms()["integral-of-product"]
        if family == "multiadd":
            lam = multiadd_symmetric_sum(
                MultiadditiveFn(2, lambda *a: calls.append(a) or form.fn(*a), "counted"), 3, L)
        elif family == "multiadd-multilinear":
            lam = multiadd_symmetric_sum(form, 3, L)
        else:
            spec = random_potential_spec(random.Random(4), "convex", width=2)
            lam = potential_construct(dataclasses.replace(spec, carrier=L), 3)
        calls.clear()
        tables.clear()
        return lam

    m = len(L.elements())
    elems = L.elements()
    assert make().on_ids(elems, m * m - 1)[1] is None
    assert make().on_ids(elems, m * m)[1] is not None
    lam = make()
    rel = RELATIONS["le" if family == "potential" else "ge"]
    report = check_generalized_n(L, lam, rel, mode="sampled", seed=5, trials=4)
    (table,) = tables
    filled = len(table)  # the pair entries the scan filled
    assert len(calls) == (filled if family == "multiadd" else 0)
    assert (report.holds, report.instances_checked, report.witness) == \
        reference_scan(L, lam, rel, 3, False, "sampled", seed=5, trials=4)
    assert report.holds
    # 4 trials meet at most 8 tuples of 6 placements each, far fewer than 81
    assert 0 < filled < m * m


def test_only_multiset_combiners_are_scaled():
    # a plain callable need not commute with a scale: it keeps fn's values
    L = FnLattice.zero_to(2, 1)
    lam = lambda e: Fraction(sum(e), 2)
    plain = schur_construct(SchurSpec(L, lam, lambda xs: min(xs) + 1), 3)
    assert plain.on_ids(L.elements(), 10 ** 6)[1] is None
    assert schur_construct(SchurSpec(L, lam, MultisetCombiner("min")), 3).on_ids(
        L.elements(), 10 ** 6)[1] == 2
    # an empty sum would be the int 0, not a Fraction
    with pytest.raises(InputError, match="sum_smallest needs k >= 1"):
        MultisetCombiner("sum_smallest")


# --- pair windows of pairwise-additive functionals ---

def _enumerating(lam):
    """lam without pair terms: its checks enumerate tuples, the oracle of
    the pairwise route."""
    real = lam.on_ids

    def on_ids(elems, limit=None):
        return real(elems, limit)[:2] + (None,)
    return dataclasses.replace(lam, on_ids=on_ids)


def _rank_cap(L, cap):
    """A submodular nondecreasing lambda: the element's rank, capped."""
    if isinstance(L, FnLattice):
        return lambda e: min(Fraction(cap), Fraction(sum(e)))
    if L.n == 5:  # M3: bottom 0, atoms 1..3, top 4
        return lambda e: min(Fraction(cap), Fraction((e > 0) + (e == 4)))
    return lambda e: min(Fraction(cap), Fraction(sum(divmod(e, 3))))  # product_of_chains([2, 3])


def _pairwise_cases(family, n, rng):
    """(carrier, functional of arity n with pair terms) for one family."""
    chain = FnLattice.zero_to(1, 3)
    if family == "quadratic":
        out = []
        for L in (chain, product_of_chains([2, 3]), build_m3()):
            for _ in range(4):
                terms = [(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                          rng.randint(1, n), rng.randint(1, n))
                         for _ in range(rng.randint(1, 4))]
                out.append((L, scalar_quadratic(L, terms, n)))
        return out
    if family == "schur-sum":
        return [(L, schur_construct(SchurSpec(L, _rank_cap(L, 1), MultisetCombiner("sum")), n))
                for L in (chain, product_of_chains([2, 3]), build_m3())]
    if family.startswith("potential"):
        specs = [random_potential_spec(rng, family.split("-")[1], width=w) for w in (1, 2)]
        return [(spec.carrier, potential_construct(spec, n)) for spec in specs]
    if family.startswith("multiadd1"):
        L = FnLattice.zero_to(2, 1)
        form = _odd_arity_forms(1)[family.split("-", 1)[1]]
        return [(L, multiadd_symmetric_sum(form, n, L))]
    if family == "form-sum":
        # unary forms, pairs on one position and pairs of two, with values
        # that are neither symmetric nor submodular
        def value():
            table = {}
            return lambda *args: table.setdefault(args, Fraction(rng.randint(-4, 4),
                                                                  rng.randint(1, 3)))
        out = []
        for L in (chain, build_m3()):
            values = [value(), value(), value()]
            forms = [(values[0], (rng.randrange(n),)), (values[1], (0, n - 1)),
                     (values[2], (rng.randrange(n),) * 2), (values[2], (n - 1, n - 2))]
            out.append((L, semimod.form_sum(n, forms, tag="form-sum", lattice=L)))
        constants = [(lambda a: Fraction(1, 2), (n - 1,)), (lambda a, b: Fraction(-1, 3), (0, 1))]
        return out + [(chain, semimod.form_sum(n, constants, tag="constant", lattice=chain))]
    one_point = {
        "prod-integrals": product_of_integrals([Measure((2,)), Measure((3,))]),
        "integral-of-product": integral_of_product(Measure((3,)), 2),
        "tensor": tensor_multiadditive({(0, 0): 2}, 2, 1),
    }
    form = family.split("-", 1)[1]
    return [(chain, multiadd_symmetric_sum(one_point[form], n, chain)),
            (FnLattice.zero_to(2, 1),
             multiadd_symmetric_sum(_multiadd_forms()[form], n, FnLattice.zero_to(2, 1)))]


@pytest.mark.parametrize("family", ["quadratic", "schur-sum", "potential-concave",
                                    "potential-convex", "multiadd-prod-integrals",
                                    "multiadd-integral-of-product", "multiadd-tensor",
                                    "multiadd1-prod-integrals", "multiadd1-integral-of-product",
                                    "multiadd1-tensor", "form-sum"])
def test_pair_windows_match_enumerating_scan(family):
    rng = random.Random(family)
    verdicts = set()
    for n in (2, 3, 4, 5):
        for L, lam in _pairwise_cases(family, n, rng):
            assert lam.on_ids(L.elements(), 10 ** 9)[2] is not None, lam.tag
            for relation, rel in RELATIONS.items():
                checks = [lambda f: check_generalized_nk(L, f, 2, rel)]
                if n == 2:  # the full check is the one pair window
                    checks.append(lambda f: check_generalized_n(L, f, rel))
                for check in checks:
                    report = check(lam)
                    assert report == check(_enumerating(lam)), (lam.tag, n, relation)
                    verdicts.add(report.holds)
    # integral-of-product sums are unchanged by every pair window, and sums
    # of forms of arity 1 are modular
    unchanged = family == "multiadd-integral-of-product" or family.startswith("multiadd1")
    assert verdicts == ({True} if unchanged else {True, False})


def _spied(lam, calls):
    """lam whose on_ids records, per call, whether it declared pair terms."""
    real = lam.on_ids

    def on_ids(elems, limit=None):
        form = real(elems, limit)
        calls.append(form[2] is not None)
        return form
    return dataclasses.replace(lam, on_ids=on_ids)


@pytest.fixture
def routes(monkeypatch):
    """One True per run of the pairwise route, `semimod._pair_windows`."""
    runs = []
    real = semimod._pair_windows

    def spy(*args):
        runs.append(True)
        return real(*args)
    monkeypatch.setattr(semimod, "_pair_windows", spy)
    return runs


def test_pair_route_runs_only_for_exhaustive_k2_with_a_scale(routes):
    calls = []
    L = build_m3()
    lam = _spied(scalar_quadratic(L, ((-1, 1, 2), (2, 2, 4), (1, 3, 3)), 4), calls)
    custom = TransitiveRelation.custom(lambda a, b: a >= b, name="ge")
    sampled = {"seed": 5, "trials": 200}
    runs = [
        (check_generalized_nk(L, lam, 2, custom), _reference_bytes(L, lam, custom, 2, True)),
        (check_generalized_nk(L, lam, 2, RELATIONS["ge"], mode="sampled", **sampled),
         _reference_bytes(L, lam, RELATIONS["ge"], 2, True, **sampled)),
        (check_generalized_nk(L, lam, 3, RELATIONS["ge"]),
         _reference_bytes(L, lam, RELATIONS["ge"], 3, True)),
    ]
    for report, want in runs:
        assert not report.holds
        assert _report_bytes(report) == want
    assert routes == []
    # a custom relation gets fn's own values, and so no terms
    assert calls == [False, True, True]
    # the route itself, for contrast
    report = check_generalized_nk(L, lam, 2, RELATIONS["ge"])
    assert routes == [True] and calls[3:] == [True] and not report.holds
    assert _report_bytes(report) == _reference_bytes(L, lam, RELATIONS["ge"], 2, True)


def test_pair_route_on_carriers_with_inf_values(routes):
    # lambda counts the infinite entries, so a Schur sum has a scale and
    # takes the route; a quadratic over the infinite values fails as fn
    # does, while its table is filled
    calls = []
    L = FnLattice(2, [0, 1, INF])
    spec = SchurSpec(L, lambda e: min(Fraction(1), Fraction(sum(1 for v in e if is_inf(v)), 2)),
                     MultisetCombiner("sum"))
    lam = _spied(schur_construct(spec, 3), calls)
    for relation in ("le", "eq"):
        for got, want in _fallback_runs(L, lam, RELATIONS[relation]):
            assert got == want
    # the full and k = 2 checks each get terms; only the k = 2 checks use them
    assert routes == [True, True] and calls == [True] * 4
    chain = FnLattice(1, [0, 1, INF])
    q = _spied(scalar_quadratic(chain, ((1, 1, 2),), 3), calls)
    with pytest.raises(TypeError) as got:
        check_generalized_nk(chain, q, 2, RELATIONS["ge"])
    with pytest.raises(TypeError) as want:
        reference_scan(chain, q, RELATIONS["ge"], 2, True, "exhaustive")
    assert str(got.value) == str(want.value)
    # the quadratic fails while on_ids fills its table: no form is returned
    assert routes == [True, True] and calls == [True] * 4


def test_each_check_calls_on_ids_once():
    # one id-level form per check, whichever route or scan uses it
    custom = TransitiveRelation.custom(lambda a, b: a >= b, name="ge")
    for name, L, lam in _scaled_families():
        calls = []
        spied = _spied(lam, calls)
        checks = [lambda f, rel: check_generalized_n(L, f, rel),
                  lambda f, rel: check_generalized_nk(L, f, 2, rel),
                  lambda f, rel: check_generalized_nk(L, f, 2, rel, mode="sampled",
                                                      seed=3, trials=20),
                  lambda f, rel: check_relaxed_hypothesis(L, f, rel)]
        for i, check in enumerate(checks):
            for rel in (RELATIONS["le"], custom):
                before = len(calls)
                check(spied, rel)
                assert len(calls) == before + 1, (name, i, rel.name)
    calls = []
    one = _spied(scalar_quadratic(build_m3(), ((1, 1, 1),), 1), calls)
    check_generalized_n(build_m3(), one, RELATIONS["ge"])
    assert calls == []  # the vacuous 1-ary check evaluates nothing


# --- multilinear forms by theorem, potentials by difference code ---

HALF_CHAIN = [Fraction(0), Fraction(1, 2), Fraction(3)]


def _json_forms(rng, k, width):
    """The three JSON m kinds of arity k on `width` ground points, with
    random rational weights."""
    def weight(low=0):
        return {"num": rng.randint(low, 4), "den": rng.randint(1, 3)}
    return [{"kind": "prod_integrals",
             "measures": [[weight() for _ in range(width)] for _ in range(k)]},
            {"kind": "integral_of_product", "weights": [weight() for _ in range(width)]},
            {"kind": "tensor", "weights": [[list(key), weight(1)]
                                           for key in product(range(width), repeat=k)
                                           if rng.random() < 0.6] or [[[0] * k, 1]]}]


def _unflagged(m):
    return MultiadditiveFn(m.arity, m.fn, m.tag)


def test_multilinear_json_forms_pass_by_theorem_and_keep_every_report():
    # on nonnegative finite chains the JSON kinds skip the 60 draws: the
    # sampler, run on an unflagged copy, never fails there, and the checks
    # report the same bytes whether the form's tables come from chain
    # digits or from the sampler's memo form on elements
    rng = random.Random(27)
    carriers = [FnLattice.zero_to(1, 2), FnLattice.zero_to(2, 1), FnLattice.zero_to(2, 2),
                FnLattice(1, HALF_CHAIN), FnLattice(2, HALF_CHAIN)]
    digit_routes = 0
    for L in carriers:
        for k in (1, 2, 3):
            for obj in _json_forms(rng, k, L.ground.size):
                m = jsonio._multiadditive_from_json(obj, k, L, "/m")
                assert m.multilinear and constructions.verify_multiadditive(m, L, seed=k) is m
                plain = constructions.verify_multiadditive(_unflagged(m), L, seed=k)
                calls = []
                counted = constructions._multilinear(
                    k, lambda *a, m=m: calls.append(a) or m.fn(*a), m.tag)
                theorem = multiadd_symmetric_sum(counted, 3, L)
                sampled = multiadd_symmetric_sum(plain, 3, L)
                calls.clear()  # the coefficients, read once at construction
                digits = L.ground.size ** k <= L.size
                for rel in (RELATIONS["ge"], RELATIONS["le"]):
                    for width in (2, 3):
                        got, want = (_report_bytes(check_generalized_nk(L, lam, width, rel))
                                     for lam in (theorem, sampled))
                        assert got == want, (L, k, obj["kind"], rel.kind, width)
                    if rel.kind == "ge":  # holds: no witness replays through fn
                        assert (not calls) == digits, (L, k, obj["kind"])
                digit_routes += digits
    assert digit_routes == 42  # all but k = 3 on the 4-element carrier


def test_multilinear_forms_on_negative_chains_keep_the_sampler():
    # a negative chain value voids the theorem: the same draws run, with the
    # same calls and the same first message as for an unflagged copy
    rng = random.Random(4)
    carriers = [FnLattice.symmetric(2, 1), FnLattice.symmetric(1, 2),
                lattice_from_json({"kind": "fn", "ground_size": 2, "chain_min": -1,
                                   "chain_max": 1})]
    messages = set()
    for L in carriers:
        for k in (1, 2, 3):
            for obj in _json_forms(rng, k, L.ground.size):
                m = jsonio._multiadditive_from_json(obj, k, L, "/m")
                outcomes = []
                for form in (m, _unflagged(m)):
                    calls = []
                    build = constructions._multilinear if form.multilinear else MultiadditiveFn
                    counted = build(k, lambda *a, f=form: calls.append(a) or f.fn(*a), form.tag)
                    try:
                        constructions.verify_multiadditive(counted, L, seed=k)
                        outcomes.append((None, calls))
                    except InputError as exc:
                        outcomes.append((str(exc), calls))
                assert outcomes[0] == outcomes[1] and outcomes[0][1], (L, k, obj["kind"])
                messages.add(outcomes[0][0] and outcomes[0][0].split()[1])
    assert messages == {None, "is"}  # some pass, some are "... is negative at ..."


def _pair_oracle(spec):
    """The potential's pair value computed from the spec alone, with no
    table: psi(measure(phi o (e - f))) - psi(measure(phi o 0))."""
    def transform(g):
        return spec.psi(spec.measure.integral(tuple(spec.phi(x) for x in g)))
    base = transform((Fraction(0),) * spec.carrier.ground.size)
    return lambda e, f: transform(tuple(a - b for a, b in zip(e, f))) - base


def _potential_specs():
    """Criterion 11's 100 draws, and specs on FN9, FN16, the {0, 1/2, 3}
    chain and symmetric chains."""
    rng = random.Random(111111)
    specs = []
    for curvature in ("concave", "convex"):
        for _ in range(50):
            specs.append(random_potential_spec(rng, curvature))
            rng.randrange(2 ** 30)  # the criterion's pair-check seed
    fn16 = lattice_from_json({"kind": "fn", "ground_size": 2, "chain_max": 3})
    specs.append(jsonio.potential_spec_from_json(
        {"measure": [2, 2], "phi": {"kind": "relu", "scale": 1, "shift": -1},
         "psi": {"kind": "min_affine", "pieces": [[4, -2], [1, 2]]}}, fn16))
    draw = random.Random(5)
    for carrier in (FnLattice.zero_to(2, 2), FnLattice(2, HALF_CHAIN), FnLattice(1, HALF_CHAIN),
                    FnLattice.symmetric(2, 1), FnLattice.symmetric(1, 2)):
        for curvature in ("concave", "convex"):
            spec = random_potential_spec(draw, curvature, width=carrier.ground.size)
            specs.append(dataclasses.replace(spec, carrier=carrier))
    return specs


def test_potential_pair_table_matches_the_spec_entry_by_entry(monkeypatch):
    # the pair value's own table, the merged table the scan reads, the
    # lazy evaluator, and the element transform that reads the same values
    # by code, against the pair value recomputed from the spec; a swap of
    # the two ids' digits or a dropped point weight fails
    seen = _spy_forms(monkeypatch, constructions)
    for spec in _potential_specs():
        lam = potential_construct(spec, 3)
        value = seen[-1][0][0]
        pair = _pair_oracle(spec)
        transform = constructions._potential_transform(spec)
        zero = transform((Fraction(0),) * spec.carrier.ground.size)
        elems = spec.carrier.elements()
        m = len(elems)
        own_scale, own = semimod.id_table(value, elems, 2, m * m)
        _, scale, terms = lam.on_ids(elems, m * m)
        lazy, no_scale, _ = lam.on_ids(elems, m * m - 1)
        # one table, pair(e, f) + pair(f, e), read at each of the C(3, 2) place pairs
        assert [places for _, places in terms] == [(0, 1), (0, 2), (1, 2)]
        assert len({id(table) for table, _ in terms}) == 1
        table = terms[0][0]
        assert no_scale is None
        for a, e in enumerate(elems):
            for b, f in enumerate(elems):
                want = pair(e, f)
                assert Fraction(own[a * m + b], own_scale) == want, (spec.carrier, e, f)
                assert Fraction(table[a * m + b], scale) == want + pair(f, e), \
                    (spec.carrier, e, f)
                assert transform(tuple(x - y for x, y in zip(e, f))) - zero == want
                assert lam.fn((e, f, e)) == lazy((a, b, a)) == 2 * want + 2 * pair(f, e), \
                    (spec.carrier, e, f)


def test_potential_sampled_scans_match_the_element_path():
    # a few trials read the lazy table by difference code; without on_ids
    # the same scan evaluates fn on elements
    for spec in _potential_specs()[::7]:
        lam = potential_construct(spec, 3)
        plain = dataclasses.replace(lam, on_ids=None)
        for rel in RELATIONS.values():
            for seed in (1, 2):
                got, want = (check_generalized_n(spec.carrier, f, rel, mode="sampled",
                                                 seed=seed, trials=6) for f in (lam, plain))
                assert _report_bytes(got) == _report_bytes(want)


# --- integer terms merged by place pair ---

def _merge_cases(n):
    """(name, carrier, functional of arity n with integer pair terms) for
    each family whose terms are merged: tables that are not symmetric,
    terms at (i, i), at (j, i) with j > i and at repeated places."""
    m3 = build_m3()
    chain = FnLattice.symmetric(1, 1)
    fn4 = FnLattice.zero_to(2, 1)
    # psi of a relu difference: the pair value is not symmetric
    potential = functional_from_json({
        "family": "potential", "n": n, "measure": [2, 1],
        "phi": {"kind": "relu", "scale": 1, "shift": 0},
        "psi": {"kind": "min_affine", "pieces": [[1, 0], [3, -2]]}}, fn4)
    # m(f, g) = mu_1(f) * mu_2(g): not symmetric in its two slots
    form = product_of_integrals([Measure((1, 2)), Measure((3, 1))])
    table = {}

    def pair(a, b):
        return table.setdefault((a, b), Fraction(3 * a[0] - 2 * b[0] * b[0] + a[0] * b[0], 2))

    def unary(a):
        return Fraction(a[0] - 1, 3)

    forms = [(unary, (1,)), (pair, (0, n - 1)), (pair, (n - 1, 0)), (pair, (1, 1)),
             (unary, (1,)), (pair, (0, n - 1)), (unary, (n - 1,)), (pair, (n - 1, 1))]
    return [
        ("quadratic-m3", m3, scalar_quadratic(m3, semimod.M3_QUADRATIC_TERMS, n)),
        # the last term reaches no position of window 0 for n >= 4
        ("quadratic-fn", chain, scalar_quadratic(
            chain, [(2, 1, 2), ("-3/2", 2, 1), (1, 3, 3), ("1/3", 1, 2), (1, n - 1, n)], n)),
        ("potential", fn4, potential),
        ("multiadd", fn4, multiadd_symmetric_sum(form, n, fn4)),
        ("form-sum", chain, semimod.form_sum(n, forms, tag="form-sum", lattice=chain)),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_merged_evaluator_equals_fn_on_every_tuple(n):
    for name, L, lam in _merge_cases(n):
        elems = L.elements()
        m = len(elems)
        evaluate, scale, terms = lam.on_ids(elems, 10 ** 9)
        assert type(scale) is int and terms is not None, name
        for ids in product(range(m), repeat=n):
            got = evaluate(ids)
            assert type(got) is int, (name, ids)
            assert Fraction(got, scale) == lam.fn(tuple(elems[i] for i in ids)), (name, ids)
        # the declared terms come merged, once
        places = [p for _, p in terms]
        assert len(set(places)) == len(places), name
        assert all(len(p) == 1 or p[0] < p[1] for p in places), name
        if name in ("potential", "multiadd"):
            # C(n, 2) lookups, all in one shared table
            assert sorted(places) == [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert len({id(t) for t, _ in terms}) == 1, name
    # unary terms, (i, i) terms and transposed terms land at their places
    _, _, lam = _merge_cases(4)[-1]
    _, _, terms = lam.on_ids(FnLattice.symmetric(1, 1).elements(), 10 ** 9)
    assert [p for _, p in terms] == [(0, 3), (1, 3), (1,), (3,)]


def test_pair_route_reads_the_terms_merged_once(monkeypatch):
    # on_ids merges the terms for its evaluator and declares the merged
    # terms; the pairwise route reads them as they are
    calls = []
    real = semimod._merged

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(semimod, "_merged", counted)
    for name, L, lam in _merge_cases(4):
        for rel in RELATIONS.values():
            before = len(calls)
            check_generalized_nk(L, lam, 2, rel)
            assert len(calls) == before + 1, (name, rel.name)


def _first_violations(L, lam, n):
    """The element-level reports of the exhaustive k = 2 check under each
    relation, as bytes: every value from lam.fn, every move from the public
    `order_statistics_tuple`, each tuple evaluated once."""
    value = {}
    firsts = dict.fromkeys(RELATIONS)
    for j in range(n - 1):
        for f in product(L.elements(), repeat=n):
            g = f[:j] + order_statistics_tuple(L, f[j:j + 2]) + f[j + 2:]
            a, b = (value[t] if t in value else value.setdefault(t, lam.fn(t)) for t in (f, g))
            for name, rel in RELATIONS.items():
                if firsts[name] is None and not rel.holds(a, b):
                    firsts[name] = Witness(args=f, lhs=a, rhs=b, note=f"window start {j}")
    count = (n - 1) * L.size ** n
    return {name: _report_bytes(CheckReport(instances_checked=count, witness=w,
                                            mode="exhaustive"))
            for name, w in firsts.items()}


def test_merged_pair_windows_match_the_enumerating_scan_byte_for_byte(routes):
    violated = set()
    for n in (3, 4, 5):
        for name, L, lam in _merge_cases(n):
            want = _first_violations(L, lam, n)
            for relation, rel in RELATIONS.items():
                runs = len(routes)
                got = _report_bytes(check_generalized_nk(L, lam, 2, rel))
                assert len(routes) == runs + 1, name  # the pairwise route ran
                assert got == _report_bytes(check_generalized_nk(L, _enumerating(lam), 2, rel))
                assert got == want[relation], (name, n, relation)
                if not json.loads(got)["result"]["holds"]:
                    violated.add(name)
    assert violated == {name for name, _, _ in _merge_cases(3)}
    # the fn quadratic's term at (n - 1, n) fails at a window after 0
    _, L, lam = _merge_cases(5)[1]
    witness = check_generalized_nk(L, lam, 2, RELATIONS["ge"]).witness
    assert witness.note != "window start 0"


# --- quadratic tables on integer labels ---

QUADRATIC_TERMS = ((Fraction(12, 5), 1, 2), (Fraction(-3, 7), 2, 3), (1, 1, 3), (2, 2, 2),
                   ("-1/3", 3, 1), (1, 2, 1))


def _quadratic_carriers():
    """(name, carrier, v): carriers whose quadratic tables are read on
    integers, with v the numeric value of an element."""
    labelled = [("int-labels", build_m3()),
                ("fractional-labels", lattice_from_order(
                    3, [[0, 1], [1, 2], [0, 2]], labels=[Fraction(-1, 2), Fraction(2, 3), 3])),
                ("negative-labels", lattice_from_order(
                    4, [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]], labels=[-3, -1, 2, 5])),
                ("unlabelled", product_of_chains([2, 3]))]
    out = [(name, L, L.element_value) for name, L in labelled]
    out.append(("negative-chain", FnLattice(1, [-2, Fraction(-1, 2), 0, 3]), lambda a: a[0]))
    return out


@pytest.mark.parametrize("carrier", [name for name, _, _ in _quadratic_carriers()])
def test_quadratic_tables_are_keyed_on_integer_labels(carrier, monkeypatch):
    _, L, v = next(c for c in _quadratic_carriers() if c[0] == carrier)
    seen = _spy_forms(monkeypatch)
    lam = scalar_quadratic(L, QUADRATIC_TERMS, 3)
    elems = L.elements()
    m = len(elems)
    coeffs = [Fraction(c) for c, _, _ in QUADRATIC_TERMS]
    products = [[c * v(a) * v(b) for a in elems for b in elems] for c in coeffs]
    for c, (value, _), want in zip(coeffs, seen[0], products):
        assert isinstance(value, semimod.KeyedValue) and value.lattice is L
        assert [Fraction(value.at(key), value.scale) for key in range(m * m)] == want, c
        assert [value(a, b) for a in elems for b in elems] == want, c
    # the tables scanned are today's Fraction products on the lcm of their
    # scales, merged by place pair: a (j, i) term transposed onto (i, j),
    # an (i, i) term's diagonal onto (i,)
    evaluate, scale, terms = lam.on_ids(semimod._CompiledLattice.of(L).elems, m ** 3)
    assert scale == math.lcm(*(integer_scale(p)[0] for p in products))
    merged = {}
    for (_, i, j), p in zip(QUADRATIC_TERMS, products):
        i, j = i - 1, j - 1
        if i == j:
            places, p = (i,), p[::m + 1]
        elif i > j:
            places, p = (j, i), [p[b * m + a] for a in range(m) for b in range(m)]
        else:
            places = (i, j)
        merged[places] = [x + y for x, y in zip(merged.get(places, [0] * len(p)), p)]
    assert len(terms) == len(merged)
    assert {places: [Fraction(x, scale) for x in table] for table, places in terms} == merged
    for ids in product(range(m), repeat=3):
        assert Fraction(evaluate(ids), scale) == lam.fn(tuple(elems[i] for i in ids)), ids


def _spy_forms(monkeypatch, module=semimod) -> list:
    """The forms list of every `form_sum` call made from module, in call
    order."""
    seen = []
    real = semimod.form_sum

    def spy(n, forms, **kw):
        seen.append(forms)
        return real(n, forms, **kw)
    monkeypatch.setattr(module, "form_sum", spy)
    return seen


def test_quadratic_on_other_carriers_calls_its_value_on_elements(monkeypatch):
    # an infinite chain value has no integer scale; several ground points
    # have no scalar value, and are refused when the value is first called
    seen = _spy_forms(monkeypatch)
    wide = FnLattice(2, [0, 1])
    lam = scalar_quadratic(wide, QUADRATIC_TERMS[:2], 3)
    scalar_quadratic(FnLattice(1, [0, 1, INF]), QUADRATIC_TERMS[:2], 3)
    assert not any(isinstance(value, semimod.KeyedValue) for forms in seen for value, _ in forms)
    with pytest.raises(InputError, match="quadratic functionals need scalar-valued elements"):
        check_generalized_nk(wide, lam, 2, RELATIONS["ge"])


# --- the ge theorem route of Schur compositions with a multiset combiner ---

SCHUR_LAMBDAS = {
    "modular": {"kind": "modular", "point_weights": [3, 1]},
    "capped_modular": {"kind": "capped_modular", "point_weights": [3, 2], "cap": 4},
    "max_value": {"kind": "max_value", "shift": 1},
    "relation_image": {"kind": "relation_image", "pairs": [[0, 0], [0, 1], [1, 1]],
                       "target_weights": [2, 1]},
}
SCHUR_COMBINERS = ({"kind": "min"}, {"kind": "sum"}, {"kind": "sum_smallest", "k": 2})


def _declared_off(lam):
    """lam with its ge theorem declaration cleared: its checks enumerate,
    the oracle of the theorem route."""
    return dataclasses.replace(lam, ge_by_theorem=False)


def _checks(L, lam, rel, **kw):
    """The report bytes of the full check and of the k = 2, 3 and n window
    checks."""
    n = lam.arity
    reports = [check_generalized_n(L, lam, rel, **kw)]
    reports += [check_generalized_nk(L, lam, k, rel, **kw) for k in sorted({2, 3, n})]
    return [_report_bytes(r) for r in reports]


def _refuse_enumeration(mp):
    """Make every enumerating route, and compiling the carrier, raise."""
    class Uncompiled:
        @classmethod
        def of(cls, L):
            raise AssertionError("the theorem route compiled the carrier")

    def refuse(*args, **kw):
        raise AssertionError("the theorem route enumerated")
    mp.setattr(semimod, "_scan", refuse)
    mp.setattr(semimod, "_pair_windows", refuse)
    mp.setattr(semimod, "_CompiledLattice", Uncompiled)


@pytest.fixture
def enumerations(monkeypatch):
    """One entry per run of an enumerating route, `_scan` or `_pair_windows`."""
    runs = []
    for name in ("_scan", "_pair_windows"):
        def spy(*args, real=getattr(semimod, name), name=name):
            runs.append(name)
            return real(*args)
        monkeypatch.setattr(semimod, name, spy)
    return runs


@pytest.mark.parametrize("chain_max", [2, 3])  # FN9 and FN16
def test_ge_theorem_route_matches_enumeration_byte_for_byte(chain_max, monkeypatch):
    L = FnLattice.zero_to(2, chain_max)
    for n in (3, 4):
        for kind, lam_json in SCHUR_LAMBDAS.items():
            for F in SCHUR_COMBINERS:
                config = {"family": "schur", "n": n, "lambda": lam_json, "F": F}
                lam = functional_from_json(config, L)
                assert lam.ge_by_theorem and lam.lattice is L, (kind, F)
                want = _checks(L, _declared_off(lam), RELATIONS["ge"])
                with monkeypatch.context() as mp:
                    _refuse_enumeration(mp)
                    got = _checks(L, lam, RELATIONS["ge"])
                assert got == want, (kind, F, n)
                assert all(json.loads(b)["result"]["holds"] for b in got), (kind, F, n)


def test_ge_theorem_route_keeps_budget_refusals_and_vacuous_checks(monkeypatch):
    L = FnLattice.zero_to(2, 3)
    lam = functional_from_json({"family": "schur", "n": 4, "lambda": SCHUR_LAMBDAS["modular"],
                                "F": {"kind": "sum"}}, L)
    with monkeypatch.context() as mp:
        _refuse_enumeration(mp)
        for check in (lambda lam: check_generalized_n(L, lam, RELATIONS["ge"], budget=10),
                      lambda lam: check_generalized_nk(L, lam, 2, RELATIONS["ge"], budget=10)):
            with pytest.raises(BudgetExceededError) as got:
                check(lam)
            with pytest.raises(BudgetExceededError) as want:
                check(_declared_off(lam))
            assert str(got.value) == str(want.value)
        vacuous = check_generalized_nk(L, lam, 1, RELATIONS["ge"])
    assert vacuous == check_generalized_nk(L, _declared_off(lam), 1, RELATIONS["ge"])
    assert vacuous.detail == {"vacuous": "1-wide windows equal their order statistics"}


def test_le_eq_custom_and_sampled_schur_checks_still_enumerate(enumerations):
    # a route that accepted le or eq would report a holding check here
    L = FnLattice.zero_to(2, 2)
    lam = functional_from_json({"family": "schur", "n": 3, "lambda": SCHUR_LAMBDAS["modular"],
                                "F": {"kind": "sum_smallest", "k": 2}}, L)
    custom = TransitiveRelation.custom(lambda a, b: a >= b, name="ge")
    runs = [(RELATIONS["le"], {}), (RELATIONS["eq"], {}), (custom, {}),
            (RELATIONS["ge"], {"mode": "sampled", "seed": 7, "trials": 40})]
    for rel, kw in runs:
        before = len(enumerations)
        got = _checks(L, lam, rel, **kw)
        assert len(enumerations) - before == len(got), rel.name  # every check enumerated
        assert got == _checks(L, _declared_off(lam), rel, **kw), rel.name
        if rel.kind in ("le", "eq"):
            assert not any(json.loads(b)["result"]["holds"] for b in got), rel.name
    want = [_reference_bytes(L, lam, RELATIONS["le"], 3, False),
            _reference_bytes(L, lam, RELATIONS["le"], 2, True)]
    assert _checks(L, lam, RELATIONS["le"])[:2] == want


def test_callable_combiners_declare_no_theorem_and_enumerate(enumerations):
    # a library callable is only spot-checked for Schur-concavity, so it
    # declares nothing and its ge checks enumerate, even when it is min
    L = FnLattice.zero_to(2, 2)
    lam = schur_construct(SchurSpec(L, lambda e: Fraction(sum(e)), lambda xs: min(xs)), 3)
    assert not lam.ge_by_theorem and lam.lattice is L
    got = _checks(L, lam, RELATIONS["ge"])
    assert len(enumerations) == len(got)
    assert got == [_reference_bytes(L, lam, RELATIONS["ge"], 3, False)] + [
        _reference_bytes(L, lam, RELATIONS["ge"], k, True) for k in (2, 3)]


def test_ge_theorem_route_needs_the_function_lattice_lam_was_verified_on(enumerations):
    # lam is verified on the 0/1 carrier, where it is modular; on the 0..2
    # carrier it jumps at the top, so the ge check fails there
    small, big = FnLattice.zero_to(2, 1), FnLattice.zero_to(2, 2)

    def lam(e):
        return Fraction(min(e[0], 1) + min(e[1], 1) + (3 if e == (2, 2) else 0))
    schur = schur_construct(SchurSpec(small, lam, MultisetCombiner("sum")), 2)
    assert schur.ge_by_theorem and schur.lattice is small
    report = check_generalized_n(big, schur, RELATIONS["ge"])
    assert len(enumerations) == 1
    assert _report_bytes(report) == _reference_bytes(big, schur, RELATIONS["ge"], 2, False)
    assert report.witness.args == ((0, 2), (2, 0))
    assert (report.witness.lhs, report.witness.rhs) == (2, 5)


def test_ge_theorem_route_needs_a_function_lattice(enumerations):
    # M3 with lam 0 on the bottom, 1 on the atoms and 2 on the top, which is
    # submodular and nondecreasing there; M3 is not distributive, and the
    # sum fails ge at n = 3 at labels (2, 3, 4)
    L = build_m3()
    spec = SchurSpec(L, lambda e: Fraction({0: 0, 4: 2}.get(e, 1)), MultisetCombiner("sum"))
    lam = schur_construct(spec, 3)
    assert lam.ge_by_theorem and lam.lattice is L
    report = check_generalized_n(L, lam, RELATIONS["ge"])
    assert enumerations == ["_scan"]
    assert report.witness.args == (1, 2, 3)
    assert tuple(L.label_of(a) for a in report.witness.args) == (2, 3, 4)
    assert (report.witness.lhs, report.witness.rhs) == (3, 4)
    assert _report_bytes(report) == _reference_bytes(L, lam, RELATIONS["ge"], 3, False)
    # a distributive table enumerates too, until a certificate says more
    chains = product_of_chains([2, 3])
    lam = schur_construct(SchurSpec(chains, _rank_cap(chains, 2), MultisetCombiner("min")), 3)
    before = len(enumerations)
    assert check_generalized_n(chains, lam, RELATIONS["ge"]).holds
    assert len(enumerations) == before + 1
