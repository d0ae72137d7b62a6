import dataclasses
import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from latstat import (
    ConventionMode,
    FnLattice,
    INF,
    InputError,
    Measure,
    MultiadditiveFn,
    SchurSpec,
    SetRelation,
    TransitiveRelation,
    check_generalized_n,
    check_generalized_nk,
    elementary_symmetric,
    esym_orderstat_check,
    indep_association_check,
    majorizes,
    multiadd_symmetric_sum,
    perm_orderstat_check,
    permanent,
    potential_construct,
    power_inequality_check,
    product_measure_check,
    psi_transform_check,
    relation_image_measure,
    schur_construct,
    supinf_check,
    symmetrize,
)
from latstat import constructions, jsonio
from latstat.constructions import (
    MultisetCombiner,
    PotentialSpec,
    integral_of_product,
    potential_pair_inequality_check,
    product_of_integrals,
    verify_multiadditive,
    verify_potential_spec,
    verify_schur_spec,
)
from latstat.generators import rand_fraction, random_potential_spec
from latstat.jsonio import functional_from_json
from latstat.lattice import (
    build_m3,
    fn_diff,
    fn_meet,
    lattice_from_order,
    pointwise_order_statistics,
    product_of_chains,
)
from latstat.scalars import InternalError, ext_pow

GE = TransitiveRelation.ge()
EQ = TransitiveRelation.eq()
LE = TransitiveRelation.le()


# --- majorization ---

def test_majorizes_basics():
    assert majorizes([Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)])
    assert majorizes([Fraction(1), Fraction(1)], [Fraction(2), Fraction(0)])
    assert not majorizes([Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)])
    assert not majorizes([Fraction(1)], [Fraction(2)])  # totals differ
    with pytest.raises(InputError):
        majorizes([Fraction(1)], [Fraction(1), Fraction(0)])


def test_majorizes_transitive_on_samples():
    # flat <= z <= fully-concentrated is a majorization chain for any z,
    # so transitivity can be checked on the outer pair
    rng = random.Random(8)
    for _ in range(100):
        z = [Fraction(rng.randint(0, 8)) for _ in range(3)]
        total = sum(z)
        flat = [Fraction(total, 3)] * 3
        spike = [Fraction(0), Fraction(0), total]
        assert majorizes(flat, z)
        assert majorizes(z, spike)
        assert majorizes(flat, spike)


# --- Schur composition ---

def test_schur_construct_min_of_cardinality():
    L = FnLattice.zero_to(2, 1)

    def cardinality(f):
        return Fraction(sum(1 for v in f if v != 0))

    spec = SchurSpec(L, cardinality, lambda xs: min(xs), "card", "min")
    lam = schur_construct(spec, 3)
    assert check_generalized_nk(L, lam, 2, GE).holds
    assert check_generalized_n(L, lam, GE).holds


def test_schur_sum_of_modular_is_modular():
    L = FnLattice.zero_to(2, 2)

    def modular(f):
        return Fraction(2) * f[0] + Fraction(3) * f[1]

    spec = SchurSpec(L, modular, lambda xs: sum(xs, Fraction(0)), "mod", "sum")
    lam = schur_construct(spec, 3)
    assert check_generalized_n(L, lam, EQ).holds


def counted(L, *names):
    """L with each named method wrapped to record its calls in the returned list."""
    calls = []
    for name in names:
        real = getattr(L, name)
        setattr(L, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def test_schur_check_fills_each_table_entry_once():
    # verify_schur_spec fills all m^2 = 64 pairs of the carrier's one set of
    # meet/join tables; the scan after it reads them and fills none again
    L = product_of_chains([2, 2, 2])
    calls = counted(L, "meet", "join")
    spec = SchurSpec(L, lambda a: Fraction(min(bin(a).count("1"), 2)),
                     MultisetCombiner("min"), "rank", "min")
    assert check_generalized_n(L, schur_construct(spec, 4), GE).holds
    assert calls.count("meet") <= 64 and calls.count("join") <= 64
    # an FnLattice fills the same tables from chain digits, with no call
    F = FnLattice.zero_to(3, 1)
    calls = counted(F, "meet", "join", "index")
    spec = SchurSpec(F, lambda e: Fraction(min(sum(e), 2)), MultisetCombiner("min"),
                     "rank", "min")
    assert check_generalized_n(F, schur_construct(spec, 4), GE).holds
    assert calls == []


def test_schur_refuses_bad_lambda():
    L = FnLattice.zero_to(2, 1)

    def supermodular(f):  # square of a modular map: not submodular
        return (Fraction(f[0]) + Fraction(f[1])) ** 2

    with pytest.raises(InputError) as err:
        schur_construct(SchurSpec(L, supermodular, min, "sq", "min"), 3)
    assert "submodular" in str(err.value)

    def decreasing(f):
        return -Fraction(f[0])

    with pytest.raises(InputError) as err:
        schur_construct(SchurSpec(L, decreasing, min, "neg", "min"), 3)
    assert "nondecreasing" in str(err.value)


@pytest.mark.parametrize("L, lam, message", [
    (FnLattice.zero_to(2, 1), lambda f: (Fraction(f[0]) + Fraction(f[1])) ** 2,
     "lam is not submodular: pair ((Fraction(0, 1), Fraction(1, 1)), "
     "(Fraction(1, 1), Fraction(0, 1))) gives 2 < 4"),
    (FnLattice.zero_to(2, 1), lambda f: -Fraction(f[0]),
     "lam is not nondecreasing: (Fraction(0, 1), Fraction(0, 1)) <= "
     "(Fraction(1, 1), Fraction(0, 1)) but 0 > -1"),
    (build_m3(), lambda e: Fraction([0, 1, 1, 1, 3][e]),
     "lam is not submodular: pair (1, 2) gives 2 < 3"),
    # ids against the order: 3 <= 2 <= 1 <= 0
    (lattice_from_order(4, [(3, 2), (2, 1), (1, 0), (3, 1), (3, 0), (2, 0)]), Fraction,
     "lam is not nondecreasing: 1 <= 0 but 1 > 0"),
], ids=["supermodular", "decreasing", "m3-supermodular", "table-decreasing"])
def test_schur_spec_first_failure_on_id_tables(L, lam, message):
    # the map is read on meet/join id tables, with f <= g when f meet g is f;
    # the first failing pair and its message are those of the element scan
    with pytest.raises(InputError) as err:
        verify_schur_spec(SchurSpec(L, lam, min), 3)
    assert str(err.value) == message


FN9 = FnLattice.zero_to(2, 2)
MU = Measure((Fraction(1, 2), Fraction(3)))


@pytest.mark.parametrize("build, message", [
    (lambda: schur_construct(SchurSpec(
        FN9, lambda e: (Fraction(e[0], 3) + Fraction(e[1], 2)) ** 2, MultisetCombiner("min")), 3),
     "lam is not submodular: pair ((Fraction(0, 1), Fraction(1, 1)), "
     "(Fraction(1, 1), Fraction(0, 1))) gives 13/36 < 25/36"),
    (lambda: schur_construct(SchurSpec(
        FN9, lambda e: Fraction(1, 7) - Fraction(e[1], 3), MultisetCombiner("sum")), 3),
     "lam is not nondecreasing: (Fraction(0, 1), Fraction(0, 1)) <= "
     "(Fraction(0, 1), Fraction(1, 1)) but 1/7 > -4/21"),
    (lambda: verify_multiadditive(MultiadditiveFn(
        2, lambda f, g: Fraction(f[0] ** 2, 3) * g[1] + Fraction(1, 2), "sq"), FN9, seed=7),
     "sq is not additive in slot 1: 1/2 != 1 at f=(Fraction(0, 1), Fraction(0, 1)), "
     "g=(Fraction(0, 1), Fraction(1, 1))"),
    (lambda: verify_multiadditive(MultiadditiveFn(
        2, lambda f, g: -Fraction(f[0], 3) * g[1] - Fraction(f[1], 5) * g[0], "neg"), FN9,
        seed=7),
     "neg is negative at [(Fraction(2, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(2, 1))]"),
    (lambda: potential_construct(PotentialSpec(FN9, MU, lambda d: abs(d) / 2, lambda u: u,
                                               "concave"), 3),
     "phi is not monotone on the difference range"),
    (lambda: potential_construct(PotentialSpec(
        FN9, MU, lambda d: max(d, Fraction(0)) / 3, lambda u: u * u / 2, "concave"), 3),
     "psi is not concave at (0,1/6,1/3)"),
    (lambda: potential_construct(PotentialSpec(
        FN9, MU, lambda d: max(d, Fraction(0)) / 3, lambda u: min(u, Fraction(1, 2)),
        "convex"), 3),
     "psi is not convex at (1/6,1/3,1)"),
], ids=["schur-not-submodular", "schur-not-monotone", "multiadd-not-additive",
        "multiadd-negative", "phi-not-monotone", "psi-not-concave", "psi-not-convex"])
def test_verification_messages_with_rational_values(build, message):
    # each family's first failure and its text, with rational values: sums
    # compared as integers on a common scale print as the Fractions they are
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def test_one_check_evaluates_each_value_once():
    # verification and one exhaustive check: m once per carrier tuple, and
    # phi once per difference and psi once per integral value
    calls = []
    form = integral_of_product(MU, 2)
    m = MultiadditiveFn(2, lambda *args: calls.append(args) or form.fn(*args), "counted")
    lam = multiadd_symmetric_sum(verify_multiadditive(m, FN9, seed=7), 3, FN9)
    assert 0 < len(calls) < 81  # the samples met some of the 81 pairs
    assert check_generalized_n(FN9, lam, GE).holds
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 81

    phis, psis = [], []
    spec = PotentialSpec(FN9, MU, lambda d: phis.append(d) or max(d, Fraction(0)),
                         lambda u: psis.append(u) or min(u, 2 + u / 2), "concave")
    lam = potential_construct(spec, 3)
    assert check_generalized_nk(FN9, lam, 2, GE).holds
    assert sorted(phis) == sorted(set(phis)) and len(phis) == 5  # differences -2..2
    assert sorted(psis) == sorted(set(psis)) and len(psis) == len(
        {MU.integral((max(a, 0), max(b, 0))) for a in range(-2, 3) for b in range(-2, 3)})

    # a Schur lam once per carrier element, whether the scan reads its
    # integer scale (ge) or fn's own values (a custom relation)
    for rel in (GE, TransitiveRelation.custom(lambda a, b: a >= b, "at-least")):
        seen = []
        spec = SchurSpec(FN9, lambda f: seen.append(f) or Fraction(sum(f)),
                         MultisetCombiner("min"))
        assert check_generalized_n(FN9, schur_construct(spec, 3), rel).holds
        assert sorted(seen) == sorted(set(seen)) and len(seen) == FN9.size


def test_functional_from_json_evaluates_each_multiadd_value_once(monkeypatch):
    # the decoded form as declared reads m only at the point-indicator
    # tuples, its coefficients, and a check that holds adds no call; an
    # unflagged copy is evaluated once per carrier tuple across the sampled
    # verification that functional_from_json runs and one exhaustive check
    calls = []
    decode = jsonio._multiadditive_from_json
    units = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    for multilinear in (True, False):
        def counted(obj, k, lattice, ptr, multilinear=multilinear):
            form = decode(obj, k, lattice, ptr)
            assert form.multilinear
            build = constructions._multilinear if multilinear else MultiadditiveFn
            return build(k, lambda *args: calls.append(args) or form.fn(*args), form.tag)

        monkeypatch.setattr(jsonio, "_multiadditive_from_json", counted)
        calls.clear()
        lam = functional_from_json({"family": "multiadd", "n": 3, "k": 2, "seed": 7, "m": {
            "kind": "prod_integrals", "measures": [[1, 2], [3, 1]]}}, FN9)
        if multilinear:
            assert calls == list(product(units, repeat=2))
        else:
            assert 0 < len(calls) < 81
        assert check_generalized_n(FN9, lam, GE).holds
        if multilinear:
            assert len(calls) == 4
        else:
            assert sorted(calls) == sorted(set(calls)) and len(calls) == 81
        assert lam(([0, 1], [1, 2], [2, 2])) == lam(((0, 1), (1, 2), (2, 2))) == 107


def test_schur_refuses_schur_convex_combiner():
    L = FnLattice.zero_to(1, 2)

    def modular(f):
        return Fraction(f[0])

    def sum_of_squares(xs):  # Schur-convex, must be filtered out
        return sum((x * x for x in xs), Fraction(0))

    with pytest.raises(InputError) as err:
        schur_construct(SchurSpec(L, modular, sum_of_squares, "mod", "sumsq"), 3)
    assert "Schur-concave" in str(err.value)


# --- relation-image set functions ---

def test_relation_image_identity_is_modular():
    rel = SetRelation(frozenset((s, s) for s in range(3)), 3, 3)
    lam = relation_image_measure(rel, [Fraction(1)] * 3)
    L = FnLattice.zero_to(3, 1, max_ground=6)
    for a in L.elements():
        for b in L.elements():
            assert lam(a) + lam(b) == lam(L.meet(a, b)) + lam(L.join(a, b))
    assert lam((1, 1, 0)) == 2


def test_relation_image_complete_relation():
    rel = SetRelation(frozenset((s, t) for s in range(2) for t in range(2)), 2, 2)
    lam = relation_image_measure(rel, [Fraction(1), Fraction(2)])
    assert lam((0, 0)) == 0
    assert lam((1, 0)) == 3
    assert lam((1, 1)) == 3
    L = FnLattice.zero_to(2, 1)
    for a in L.elements():
        for b in L.elements():
            assert lam(a) + lam(b) >= lam(L.meet(a, b)) + lam(L.join(a, b))


def test_relation_image_random_submodular():
    rng = random.Random(14)
    L = FnLattice.zero_to(4, 1, max_ground=6)
    for _ in range(10):
        pairs = frozenset((s, t) for s in range(4) for t in range(4)
                          if rng.random() < 0.5)
        lam = relation_image_measure(SetRelation(pairs, 4, 4), [Fraction(1)] * 4)
        for a in L.elements():
            for b in L.elements():
                assert lam(a) + lam(b) >= lam(L.meet(a, b)) + lam(L.join(a, b))


# --- one-sided potentials ---

def test_potential_arity_one_and_constant_tuples_are_zero():
    rng = random.Random(2)
    spec = random_potential_spec(rng, "concave")
    lam1 = potential_construct(spec, 1)
    for e in spec.carrier.elements():
        assert lam1.fn((e,)) == 0
    lam3 = potential_construct(spec, 3)
    for e in spec.carrier.elements():
        assert lam3.fn((e, e, e)) == 0


@pytest.mark.parametrize("kind", ["min", "sum", "sum_smallest"])
def test_multiset_combiners_pass_the_combiner_spot_check(kind, monkeypatch):
    # verify_schur_spec skips its spot check for a MultisetCombiner, whose
    # properties are theorems; wrapped in a plain callable, the same
    # combiner is spot-checked and passes
    L = FnLattice.zero_to(2, 2)

    def lam(e):
        return min(Fraction(3), e[0] + e[1] / 2)

    combiner = MultisetCombiner(kind, 2)
    for n in (2, 3, 5):
        for seed in range(4):
            verify_schur_spec(SchurSpec(L, lam, lambda xs: combiner(xs)), n, seed=seed,
                              spot_checks=200)
    with pytest.raises(InputError, match="is not Schur-concave"):
        verify_schur_spec(SchurSpec(L, lam, max), 3)
    monkeypatch.setattr(constructions, "majorizes", None)  # a spot check now fails
    verify_schur_spec(SchurSpec(L, lam, combiner), 3)
    with pytest.raises(TypeError):
        verify_schur_spec(SchurSpec(L, lam, lambda xs: combiner(xs)), 3)


def test_schur_and_potential_provide_id_evaluators():
    # the full agreement sweep is in test_differential; here: the factories
    # supply on_ids, including the pairless arity-1 potential
    L = FnLattice.zero_to(2, 1)
    schur = schur_construct(SchurSpec(L, lambda f: Fraction(sum(f)), min, "sum", "min"), 3)
    spec = random_potential_spec(random.Random(2), "concave")
    for lam, carrier in ((schur, L), (potential_construct(spec, 1), spec.carrier),
                         (potential_construct(spec, 3), spec.carrier)):
        assert lam.on_ids is not None
        elems = carrier.elements()
        evaluate, scale, _ = lam.on_ids(elems)
        assert scale is None  # no limit: fn's own values
        ids = tuple(range(len(elems)))[-lam.arity:]
        assert evaluate(ids) == lam.fn(tuple(elems[i] for i in ids))


def test_potential_directions_by_curvature():
    rng = random.Random(6)
    for curvature, rel in (("concave", GE), ("convex", TransitiveRelation.le())):
        spec = random_potential_spec(rng, curvature)
        lam = potential_construct(spec, 3)
        assert check_generalized_nk(spec.carrier, lam, 2, rel).holds


def test_potential_pair_transform_inequality():
    rng = random.Random(9)
    for curvature in ("concave", "convex"):
        spec = random_potential_spec(rng, curvature, width=2)
        report = potential_pair_inequality_check(spec, seed=1, samples=80)
        assert report.holds, report.witness


def test_potential_rejects_wrong_curvature_tag():
    rng = random.Random(3)
    spec = random_potential_spec(rng, "convex", width=1)
    # a genuinely convex outer map mislabeled as concave must be refused,
    # unless it is affine on the sampled domain (then both tags pass)
    probe = sorted({spec.measure.integral(tuple(spec.phi(d) for d in g))
                    for g in product([Fraction(-2), Fraction(0), Fraction(2)],
                                     repeat=spec.carrier.ground.size)})
    slopes = {(spec.psi(b) - spec.psi(a)) / (b - a)
              for a, b in zip(probe, probe[1:])}
    if len(slopes) > 1:
        spec.curvature = "concave"
        with pytest.raises(InputError):
            potential_construct(spec, 2)


@pytest.mark.parametrize("phi,psi,curvature,message", [
    (abs, lambda u: u, "concave", "phi is not monotone on the difference range"),
    (lambda d: max(d, 0), lambda u: u * u, "concave", r"psi is not concave at \(0,1,2\)"),
    (lambda d: max(d, 0), lambda u: -u * u, "convex", r"psi is not convex at \(0,1,2\)"),
], ids=["phi-not-monotone", "psi-not-concave", "psi-not-convex"])
def test_potential_spec_refuses_bad_maps(phi, psi, curvature, message):
    # differences -2..2 on one ground point; phi = max(d, 0) reaches integrals 0, 1, 2
    spec = PotentialSpec(carrier=FnLattice.zero_to(1, 2), measure=Measure.counting(1),
                         phi=phi, psi=psi, curvature=curvature)
    with pytest.raises(InputError, match=message):
        verify_potential_spec(spec)


FN16 = {"kind": "fn", "ground_size": 2, "chain_max": 3}
SCHUR6 = {"family": "schur", "n": 6, "seed": 202142728,
          "lambda": {"kind": "capped_modular", "point_weights": [3, 2], "cap": 4},
          "F": {"kind": "sum_smallest", "k": 2}}
POT6 = {"family": "potential", "n": 6, "measure": [2, 2],
        "phi": {"kind": "relu", "scale": 1, "shift": -1},
        "psi": {"kind": "min_affine", "pieces": [[4, -2], [1, 2]]}}


def _checks_on_corrupt_tables(monkeypatch, name, corrupt, config):
    # the verification's table reaches the scan only; fn computes the
    # family's formula, so the replay refuses the false witness the
    # corrupt table makes the scan find, at k = 2 and at k = n
    L = jsonio.lattice_from_json(FN16)
    config = dict(config, n=4)
    for check in (lambda lam: check_generalized_nk(L, lam, 2, GE),
                  lambda lam: check_generalized_n(L, lam, GE)):
        assert check(functional_from_json(config, L)).holds
    real = getattr(constructions, name)
    monkeypatch.setattr(constructions, name, lambda *a, **kw: corrupt(real(*a, **kw)))
    for check in (lambda lam: check_generalized_nk(L, lam, 2, GE),
                  lambda lam: check_generalized_n(L, lam, GE)):
        with pytest.raises(InternalError, match="witness replay disagrees"):
            check(functional_from_json(config, L))


def test_corrupt_potential_table_is_refused_by_the_replay(monkeypatch):
    def corrupt(verified):
        position, by_code = verified
        return position, [by_code[0] + 7] + by_code[1:]
    _checks_on_corrupt_tables(monkeypatch, "verify_potential_spec", corrupt, POT6)


def test_corrupt_schur_table_is_refused_by_the_replay(monkeypatch):
    # under le and eq the scan reads the verification's table and fn
    # computes the formula, so the replay refuses the false witness that a
    # corrupt entry (id 1, the element (0, 1)) makes the scan find, at
    # k = 2 and at k = n; under ge the check holds by theorem and reads no
    # table, corrupt or not
    L = jsonio.lattice_from_json(FN16)
    config = dict(SCHUR6, n=4)
    assert L.elements()[1] == (0, 1)
    checks = [lambda lam, rel: check_generalized_nk(L, lam, 2, rel),
              lambda lam, rel: check_generalized_n(L, lam, rel)]
    for check in checks:
        for rel in (LE, EQ):
            assert not check(functional_from_json(config, L), rel).holds
    real = constructions.verify_schur_spec

    def corrupt(*args, **kw):
        scale, ints = real(*args, **kw)
        return scale, ints[:1] + [ints[1] + 3 * scale] + ints[2:]
    monkeypatch.setattr(constructions, "verify_schur_spec", corrupt)
    for check in checks:
        for rel in (LE, EQ):
            with pytest.raises(InternalError, match="witness replay disagrees"):
                check(functional_from_json(config, L), rel)
    reads = []
    lam = functional_from_json(config, L)
    lam = dataclasses.replace(lam, on_ids=lambda *args: reads.append(args))
    for check in checks:
        assert check(lam, GE).holds
    assert reads == []


# --- multiadditive machinery ---

def make_counting_measure(width):
    return Measure.counting(width)


def test_symmetrize_fixes_symmetric_maps():
    L = FnLattice.zero_to(2, 1)
    m = integral_of_product(make_counting_measure(2), 2)
    sym = symmetrize(m)
    for f in L.elements():
        for g in L.elements():
            assert sym.fn(f, g) == m.fn(f, g)


def test_symmetrize_two_slot_average():
    mu = Measure((Fraction(1), Fraction(0)))
    nu = Measure((Fraction(0), Fraction(1)))
    m = product_of_integrals([mu, nu])
    sym = symmetrize(m)
    f, g = (2, 3), (5, 7)

    def muv(x):
        return Fraction(x[0])

    def nuv(x):
        return Fraction(x[1])

    assert sym.fn(f, g) == (muv(f) * nuv(g) + muv(g) * nuv(f)) / 2


def test_symmetrized_map_is_multiadditive():
    L = FnLattice.zero_to(2, 2)
    m = product_of_integrals([Measure((Fraction(1), Fraction(2))),
                              Measure((Fraction(3), Fraction(1)))])
    verify_multiadditive(symmetrize(m), L, seed=5, samples=40)


def test_multiadd_k1_is_modular():
    L = FnLattice.zero_to(2, 2)
    mu = Measure((Fraction(2), Fraction(1)))
    m = product_of_integrals([mu])
    lam = multiadd_symmetric_sum(m, 3, L)
    assert check_generalized_n(L, lam, EQ).holds


def test_multiadd_k_equals_n_product_of_integrals():
    L = FnLattice.zero_to(1, 2)
    mu = Measure((Fraction(1),))
    m = product_of_integrals([mu, mu, mu])
    lam = multiadd_symmetric_sum(m, 3, L)
    for f in product(L.elements(), repeat=3):
        expected = 6 * mu.integral(f[0]) * mu.integral(f[1]) * mu.integral(f[2])
        assert lam.fn(f) == expected


def multiadd_sum_via_symmetrized(m: MultiadditiveFn, n: int, f) -> Fraction:
    """The oracle of `multiadd_symmetric_sum`: k! times the sum of the
    symmetrized form over the k-subsets of argument positions."""
    k = m.arity
    sym = symmetrize(m)
    total = Fraction(0)
    for I in combinations(range(n), k):
        total += sym.fn(*(f[i] for i in I))
    return math.factorial(k) * total


def test_multiadd_direct_equals_symmetrized_form():
    L = FnLattice.zero_to(2, 1)
    m = integral_of_product(Measure((Fraction(1), Fraction(3))), 2)
    lam = multiadd_symmetric_sum(m, 4, L)
    rng = random.Random(12)
    elems = L.elements()
    for _ in range(25):
        f = tuple(elems[rng.randrange(len(elems))] for _ in range(4))
        assert lam.fn(f) == multiadd_sum_via_symmetrized(m, 4, f)


def test_multiadd_pair_window_exhaustive():
    L = FnLattice.zero_to(2, 1)
    m = integral_of_product(make_counting_measure(2), 2)
    lam = multiadd_symmetric_sum(m, 3, L)
    assert check_generalized_nk(L, lam, 2, GE).holds
    assert check_generalized_n(L, lam, GE).holds


def test_multiadd_rejects_k_above_n():
    m = integral_of_product(make_counting_measure(1), 3)
    with pytest.raises(InputError):
        multiadd_symmetric_sum(m, 2)


def test_verify_multiadditive_catches_non_additive():
    L = FnLattice.zero_to(1, 2)
    bad = MultiadditiveFn(arity=1, fn=lambda f: Fraction(f[0]) ** 2, tag="sq")
    with pytest.raises(InputError):
        verify_multiadditive(bad, L, seed=0, samples=60)


def test_verify_multiadditive_evaluates_each_argument_tuple_once():
    L = FnLattice.zero_to(2, 1)
    form = integral_of_product(Measure((Fraction(1), Fraction(3))), 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return form.fn(*args)

    verify_multiadditive(MultiadditiveFn(arity=2, fn=counted), L, seed=3)
    assert calls and len(calls) == len(set(calls))
    assert len(calls) < 3 * 60  # the 60 samples repeat argument tuples


@pytest.mark.parametrize("m, message", [
    (MultiadditiveFn(arity=2, fn=lambda f, g: Fraction(f[0]) ** 2 * g[1], tag="sq"),
     "sq is not additive in slot 0: 8 != 4 at f=(Fraction(2, 1), Fraction(1, 1)), "
     "g=(Fraction(1, 1), Fraction(0, 1))"),
    (MultiadditiveFn(arity=2, fn=lambda f, g: -f[0] * g[1] - f[1] * g[0], tag="neg"),
     "neg is negative at [(Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(2, 1))]"),
], ids=["non-additive", "negative"])
def test_verify_multiadditive_failure_messages(m, message):
    with pytest.raises(InputError) as info:
        verify_multiadditive(m, FnLattice.zero_to(2, 2), seed=3)
    assert str(info.value) == message


def element_keyed_verify(m, lattice, *, seed=0, samples=60):
    """The frozen reference of verify_multiadditive's sampler, the same
    algorithm on elements with its memo keyed by element tuples: the
    oracle of the differential test, which keeps the draws, the m calls
    and their order, and the messages from drifting."""
    rng = random.Random(seed)
    elems = lattice.elements()
    k = m.arity
    memo = {}

    def value(args):
        if args not in memo:
            memo[args] = m.fn(*args)
        return memo[args]

    def pick():
        return elems[rng.randrange(len(elems))]

    for _ in range(samples):
        slot = rng.randrange(k)
        fixed = [pick() for _ in range(k)]
        f, g = pick(), pick()
        with_f, with_meet, with_rest = list(fixed), list(fixed), list(fixed)
        with_f[slot], with_meet[slot], with_rest[slot] = f, fn_meet(f, g), fn_diff(f, g)
        lhs = value(tuple(with_f))
        rhs = value(tuple(with_meet)) + value(tuple(with_rest))
        if lhs != rhs:
            raise InputError(
                f"{m.tag or 'map'} is not additive in slot {slot}: "
                f"{lhs} != {rhs} at f={f}, g={g}")
        if lhs < 0:
            raise InputError(f"{m.tag or 'map'} is negative at {with_f}")


def verify_outcome(verify, m, lattice, seed):
    """(None or the InputError message, the m.fn calls in order)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return m.fn(*args)

    try:
        verify(MultiadditiveFn(arity=m.arity, fn=counted, tag=m.tag), lattice, seed=seed)
    except InputError as exc:
        return str(exc), calls
    return None, calls


def test_verify_multiadditive_matches_its_element_keyed_reference():
    rng = random.Random(23)
    lattices = [FnLattice.zero_to(2, 2), FnLattice.symmetric(2, 1),
                FnLattice(2, [Fraction(0), Fraction(1, 2), Fraction(3)]),
                FnLattice(1, [Fraction(0), Fraction(1, 2), Fraction(3)])]
    outcomes = set()
    for seed in range(8):
        L = lattices[seed % len(lattices)]
        width = L.ground.size
        for k in (1, 2, 3):
            measures = [Measure(tuple(Fraction(rng.randint(0, 3)) for _ in range(width)))
                        for _ in range(k)]
            additive = product_of_integrals(measures)
            maps = [additive,
                    integral_of_product(measures[0], k),
                    MultiadditiveFn(arity=k, fn=lambda *a, m=additive: m.fn(*a) ** 2, tag="sq"),
                    MultiadditiveFn(arity=k, fn=lambda *a, m=additive: -m.fn(*a), tag="neg")]
            for m in maps:
                want = verify_outcome(element_keyed_verify, m, L, seed)
                assert verify_outcome(verify_multiadditive, m, L, seed) == want, (seed, k, m.tag)
                outcomes.add(want[0] and want[0].split()[2])  # "not" (additive) or "negative"
    assert outcomes == {None, "not", "negative"}


def test_slot_additivity_identities():
    # additive one-slot map: value splits along f = (f meet g) + (f minus g)
    L = FnLattice.zero_to(2, 2)
    mu = Measure((Fraction(1), Fraction(2)))
    for f in L.elements():
        for g in L.elements():
            assert mu.integral(f) == mu.integral(
                L.meet(f, g)) + mu.integral(fn_diff(f, g))
    # symmetric two-slot map: swap identity with the exact correction term
    m = symmetrize(integral_of_product(mu, 2))
    for f in L.elements():
        for g in L.elements():
            lhs = m.fn(L.meet(f, g), L.join(f, g))
            rhs = m.fn(f, g) - m.fn(fn_diff(f, g), fn_diff(g, f))
            assert lhs == rhs
            assert lhs <= m.fn(f, g)


# --- permanents ---

def perm_bruteforce(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    d, p = len(rows), len(rows[0])
    if d > p:
        rows = [list(col) for col in zip(*rows)]
        d, p = p, d
    total = Fraction(0)
    for J in combinations(range(p), d):
        for perm in permutations(J):
            term = Fraction(1)
            for i, c in enumerate(perm):
                term *= rows[i][c]
            total += term
    return total


def test_permanent_hand_values():
    assert permanent([[1, 2], [3, 0]]) == 6
    assert permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert permanent([[2, 3, 5]]) == 10


def test_permanent_matches_bruteforce_and_transpose():
    rng = random.Random(10)
    for _ in range(40):
        d, p = rng.randint(1, 4), rng.randint(1, 5)
        matrix = [[rand_fraction(rng, max_num=5, max_den=3) for _ in range(p)]
                  for _ in range(d)]
        value = permanent(matrix)
        assert value == perm_bruteforce(matrix)
        transpose = [list(col) for col in zip(*matrix)]
        assert permanent(transpose) == value


def test_permanent_matches_bruteforce_every_shape_to_6x7():
    # signed fractions, zero entries, all-zero rows and columns; each matrix
    # is also checked transposed, so every d > p shape up to 7 x 6 is covered
    rng = random.Random(12)
    for d in range(1, 7):
        for p in range(1, 8):
            for _ in range(2):
                matrix = [[rng.choice((-1, 1)) * rand_fraction(rng, max_num=5, max_den=4)
                           if rng.random() < 0.7 else Fraction(0) for _ in range(p)]
                          for _ in range(d)]
                if rng.random() < 0.25:
                    matrix[rng.randrange(d)] = [0] * p
                if rng.random() < 0.25:
                    zero_col = rng.randrange(p)
                    for row in matrix:
                        row[zero_col] = 0
                transpose = [list(col) for col in zip(*matrix)]
                assert permanent(matrix) == perm_bruteforce(matrix)
                assert permanent(transpose) == perm_bruteforce(transpose)


def test_permanent_of_all_ones_counts_injections():
    for d in range(1, 9):
        for p in range(d, 10):
            injections = math.factorial(p) // math.factorial(p - d)
            assert permanent([[1] * p for _ in range(d)]) == injections
            assert permanent([[1] * d for _ in range(p)]) == injections


def test_perm_orderstat_12x12_all_ones_under_a_second():
    started = time.perf_counter()
    report = perm_orderstat_check([[1] * 12 for _ in range(12)])
    assert time.perf_counter() - started < 1.0
    assert report.holds
    assert report.detail == {"permanent": 479001600, "rows_sorted": 479001600,
                             "cols_sorted": 479001600}


def test_permanent_row_and_column_permutation_invariance():
    rng = random.Random(77)
    matrix = [[rand_fraction(rng) for _ in range(4)] for _ in range(3)]
    base = permanent(matrix)
    shuffled = [matrix[i] for i in (2, 0, 1)]
    assert permanent(shuffled) == base
    cols = [0, 3, 1, 2]
    assert permanent([[row[c] for c in cols] for row in matrix]) == base


def test_permanent_rejects_empty():
    with pytest.raises(InputError):
        permanent([])
    with pytest.raises(InputError):
        permanent([[1, 2], [3]])


def test_perm_orderstat_hand_example():
    report = perm_orderstat_check([[1, 2], [3, 0]])
    assert report.holds
    assert report.detail["permanent"] == 6
    assert report.detail["rows_sorted"] == 2  # permanent of [[1,0],[3,2]]
    assert permanent([[1, 0], [3, 2]]) == 2


def test_perm_orderstat_rejects_negative_entries():
    with pytest.raises(InputError):
        perm_orderstat_check([[1, -2], [3, 0]])


# --- elementary symmetric functions ---

def test_esym_hand_values():
    xs = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(1, xs) == 6
    assert elementary_symmetric(2, xs) == 11
    assert elementary_symmetric(3, xs) == 6
    ones = [Fraction(1)] * 5
    assert elementary_symmetric(2, ones) == 10  # C(5,2)


def test_esym_requires_mode_for_mixed_zero_inf():
    with pytest.raises(InputError):
        elementary_symmetric(2, [Fraction(0), INF])
    assert elementary_symmetric(2, [Fraction(0), INF], ConventionMode.ZERO) == 0
    assert elementary_symmetric(1, [Fraction(0), INF]) is INF


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=4),
       st.lists(st.fractions(min_value=0, max_value=8), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3),
       st.fractions(min_value=0, max_value=3))
def test_esym_nondecreasing_in_each_argument(k, xs, idx, bump):
    bumped = list(xs)
    bumped[idx] += bump
    assert elementary_symmetric(k, bumped) >= elementary_symmetric(k, xs)


def test_esym_orderstat_hand_example():
    mu = Measure.counting(2)
    report = esym_orderstat_check(mu, [(1, 0), (0, 1)], 2)
    assert report.holds
    assert report.detail["integrals"] == [1, 1]
    assert report.detail["stat_integrals"] == [0, 2]
    assert elementary_symmetric(2, report.detail["integrals"]) == 1
    assert elementary_symmetric(2, report.detail["stat_integrals"]) == 0


def test_esym_orderstat_k1_equality_and_sorted_equality():
    rng = random.Random(23)
    mu = Measure((Fraction(1), Fraction(2), Fraction(1, 2)))
    for _ in range(30):
        fs = [tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)]
        rep = esym_orderstat_check(mu, fs, 1)
        assert sum(rep.detail["integrals"]) == sum(rep.detail["stat_integrals"])
        sorted_fs = pointwise_order_statistics(tuple(fs))
        for k in (1, 2, 3):
            rep = esym_orderstat_check(mu, list(sorted_fs), k)
            lhs = elementary_symmetric(k, rep.detail["integrals"])
            rhs = elementary_symmetric(k, rep.detail["stat_integrals"])
            assert lhs == rhs


def test_esym_without_k_checks_every_order():
    rng = random.Random(29)
    mu = Measure((Fraction(1), Fraction(2), Fraction(1, 2)))
    for _ in range(30):
        fs = [tuple(rand_fraction(rng) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        by_order = [esym_orderstat_check(mu, fs, k) for k in range(1, len(fs) + 1)]
        assert all(r.holds for r in by_order)
        report = esym_orderstat_check(mu, fs)
        orders = list(range(1, len(fs) + 1))
        assert report.holds and report.instances_checked == len(fs)
        assert report.detail == dict(by_order[0].detail, orders=orders)
        assert all(r.instances_checked == 1 and "orders" not in r.detail for r in by_order)


def test_esym_without_k_reports_the_first_failing_order(monkeypatch):
    # negating e_2 and e_3 makes orders 2 and 3 fail: both sides are strict
    real, orders = constructions.elementary_symmetric, []

    def negated(k, xs, mode=None):
        orders.append(k)
        return -real(k, xs, mode) if k in (2, 3) else real(k, xs, mode)

    monkeypatch.setattr(constructions, "elementary_symmetric", negated)
    mu, fs = Measure.counting(2), [(1, 0), (0, 1), (2, 1)]
    report = esym_orderstat_check(mu, fs)
    assert orders == [1, 1, 2, 2, 3, 3]
    assert not report.holds and report.witness.note == "k=2"
    assert (report.witness.lhs, report.witness.rhs) == (-7, -6)
    assert (report.instances_checked, report.detail["orders"]) == (3, [1, 2, 3])
    assert report.witness == esym_orderstat_check(mu, fs, 2).witness


# --- association on product spaces ---

def test_indep_fair_coins():
    fair = [[(0, Fraction(1, 2)), (1, Fraction(1, 2))]] * 2
    report = indep_association_check(fair)
    assert report.holds
    assert report.detail["mean_of_product"] == Fraction(1, 4)
    assert report.detail["product_of_means"] == Fraction(3, 16)


def test_indep_degenerate_equalities():
    consts = [[(Fraction(3), Fraction(1))], [(Fraction(5), Fraction(1))]]
    report = indep_association_check(consts)
    assert report.holds
    assert report.detail["mean_of_product"] == report.detail["product_of_means"]


def test_indep_three_uniform_on_12():
    marg = [[(1, Fraction(1, 2)), (2, Fraction(1, 2))]] * 3
    report = indep_association_check(marg)
    # independent oracle: enumerate the 8 outcomes directly
    mean_prod = Fraction(0)
    means = [Fraction(0)] * 3
    for outcome in product((1, 2), repeat=3):
        w = Fraction(1, 8)
        vals = sorted(outcome)
        mean_prod += w * vals[0] * vals[1] * vals[2]
        for j, v in enumerate(vals):
            means[j] += w * v
    assert report.detail["mean_of_product"] == mean_prod
    assert report.detail["stat_means"] == means
    assert report.holds


def test_indep_rejects_non_probability():
    with pytest.raises(InputError):
        indep_association_check([[(1, Fraction(1, 3))]])


# --- monotone transforms ---

def test_psi_identity_reduces_to_product_inequality():
    mu = Measure.counting(2)
    fs = [(1, 0), (0, 1)]
    report = psi_transform_check(lambda x: x, "nondecreasing", mu, fs)
    assert report.holds
    assert report.detail["lhs"] == 1
    assert report.detail["rhs"] == 0


def test_psi_nonincreasing_reverses_order_statistics():
    def psi(x):
        return Fraction(1) / (1 + x)

    fs = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
    stats = pointwise_order_statistics(fs)
    composed_direct = pointwise_order_statistics(
        tuple(tuple(psi(v) for v in f) for f in fs))
    n = len(fs)
    reversed_compose = tuple(tuple(psi(v) for v in stats[n - 1 - j])
                             for j in range(n))
    assert composed_direct == reversed_compose
    report = psi_transform_check(psi, "nonincreasing", Measure.counting(2), fs)
    assert report.holds


def test_psi_square_random_tuples():
    rng = random.Random(31)
    mu = Measure((Fraction(1), Fraction(1, 2), Fraction(2)))
    for _ in range(50):
        fs = [tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)]
        report = psi_transform_check(lambda x: x * x, "nondecreasing", mu, fs)
        assert report.holds


def test_psi_rejects_non_monotone_declaration():
    fs = [(Fraction(0), Fraction(2))]
    with pytest.raises(InputError):
        psi_transform_check(lambda x: x, "nonincreasing", Measure.counting(2), fs)


# --- power products ---

def test_power_reduces_to_product_inequality_at_p1_r1():
    mu = Measure.counting(2)
    fs = [(1, 0), (0, 1)]
    report = power_inequality_check(1, 1, mu, fs)
    assert report.holds
    assert report.detail["lhs"] == 1
    assert report.detail["rhs"] == 0


def test_power_hand_example_with_infinity():
    mu = Measure.counting(2)
    fs = [(1, 0), (0, 1)]
    report = power_inequality_check(1, -1, mu, fs)
    assert report.holds
    assert report.detail["lhs"] == 1
    assert report.detail["rhs"] is INF  # 0**-1 * 2**-1 under the infinity rule


def test_power_random_directions():
    rng = random.Random(37)
    for _ in range(80):
        width = rng.randint(1, 3)
        mu = Measure(tuple(rand_fraction(rng, allow_zero=False)
                           for _ in range(width)))
        fs = [tuple(rand_fraction(rng) for _ in range(width))
              for _ in range(rng.randint(2, 3))]
        for p in (-2, -1, 1, 2):
            for r in (-1, 1):
                assert power_inequality_check(p, r, mu, fs).holds


def test_power_rejects_zero_exponents():
    mu = Measure.counting(1)
    with pytest.raises(InputError):
        power_inequality_check(0, 1, mu, [(1,)])
    with pytest.raises(InputError):
        power_inequality_check(1, Fraction(0), mu, [(1,)])


def test_power_float_mode_for_fractional_exponent():
    mu = Measure.counting(2)
    fs = [(Fraction(4), Fraction(1)), (Fraction(1), Fraction(9))]
    report = power_inequality_check(Fraction(1, 2), 1, mu, fs)
    assert report.holds
    assert report.detail["arithmetic"] == "float(tol=1e-9)"


@pytest.mark.parametrize("weights,fs,r,lhs,rhs", [
    # p = 1/2: 0 * inf is 0 when r > 0 and inf when r < 0, in integrals and products
    ((1, 0), [(0, INF), (4, 1)], Fraction(1, 2), 0, 0),
    ((1, 0), [(0, INF), (4, 1)], Fraction(-1, 2), 0, math.inf),
    ((1, 1), [(0, INF), (4, 1)], Fraction(1, 2), math.inf, math.inf),
    ((1, 1), [(0, INF), (4, 1), (0, 0)], Fraction(1, 2), 0, 0),
    ((1, 1), [(1, 4), (4, 1)], Fraction(1, 2), 3, math.sqrt(8)),
    ((1, 1), [(1, 4), (4, 1)], Fraction(-1, 2), 1 / 3, 1 / math.sqrt(8)),
])
def test_power_float_mode_with_zero_and_infinite_entries(weights, fs, r, lhs, rhs):
    report = power_inequality_check(Fraction(1, 2), r, Measure(weights), fs)
    assert report.holds
    assert report.detail == {"lhs": pytest.approx(lhs), "rhs": pytest.approx(rhs),
                             "arithmetic": "float(tol=1e-9)"}


def test_power_conventions_at_zero_and_infinity():
    for t in (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3), Fraction(-7, 3)):
        sign = 1 if t > 0 else -1
        assert constructions._power(Fraction(0), t) == ext_pow(Fraction(0), sign)
        assert constructions._power(INF, t) == ext_pow(INF, sign)
    assert constructions._power(Fraction(0), Fraction(-1, 2)) is INF
    assert constructions._power(INF, Fraction(-1, 2)) == 0
    for x in (Fraction(0), Fraction(3, 4), Fraction(5), INF):
        for t in (-3, -1, 1, 2):
            assert constructions._power(x, t) == ext_pow(x, t)
            assert constructions._power(x, Fraction(t)) == ext_pow(x, t)


def _mp_side(p, r, weights, elems):
    """Both sides of the power check for positive finite inputs, in 60-digit
    mpmath."""
    with mpmath.workdps(60):
        def mp(x):
            return mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator

        out = mpmath.mpf(1)
        for f in elems:
            out *= mpmath.fsum(mp(w) * mp(v) ** mp(p) for v, w in zip(f, weights)) ** mp(r)
        return float(out)


def test_power_float_mode_matches_high_precision_reference():
    rng = random.Random(43)
    exponents = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3),
                 Fraction(3, 2), 1, -1, 2)
    for _ in range(150):
        p, r = rng.choice(exponents), rng.choice(exponents)
        if p in (1, -1, 2) and r in (1, -1, 2):
            continue
        width = rng.randint(1, 3)
        weights = tuple(rand_fraction(rng, allow_zero=False) for _ in range(width))
        fs = [tuple(rand_fraction(rng, allow_zero=False) for _ in range(width))
              for _ in range(rng.randint(1, 3))]
        report = power_inequality_check(p, r, Measure(weights), fs)
        assert report.holds
        assert report.detail["arithmetic"] == "float(tol=1e-9)"
        stats = pointwise_order_statistics(tuple(fs))
        assert report.detail["lhs"] == pytest.approx(_mp_side(p, r, weights, fs), rel=1e-12)
        assert report.detail["rhs"] == pytest.approx(_mp_side(p, r, weights, stats),
                                                     rel=1e-12)


# --- sup / inf products ---

def test_supinf_hand_example():
    report = supinf_check([(1, 0), (0, 1)])
    assert report.holds
    assert report.detail["sup_lhs"] == 1
    assert report.detail["sup_rhs"] == 0
    assert report.detail["inf_lhs"] == 0
    assert report.detail["inf_rhs"] == 0


def test_supinf_equalities_on_sorted_tuples():
    fs = ((0, 1), (1, 2), (2, 2))
    report = supinf_check(fs)
    assert report.holds
    assert report.detail["sup_lhs"] == report.detail["sup_rhs"]
    assert report.detail["inf_lhs"] == report.detail["inf_rhs"]


def test_supinf_with_infinities():
    report = supinf_check([(Fraction(0), INF), (INF, Fraction(0))])
    assert report.holds
    rng = random.Random(41)
    for _ in range(60):
        fs = [tuple(INF if rng.random() < 0.2 else rand_fraction(rng)
                    for _ in range(2)) for _ in range(3)]
        assert supinf_check(fs).holds


# --- product measures of set tuples ---

def test_subset_order_statistics_rule():
    # on 0/1 indicators the pointwise sort puts a point in the j-th statistic
    # (ascending) exactly when at least n + 1 - j of the n sets contain it
    sets = [frozenset({0, 1}), frozenset({1}), frozenset({1, 2})]
    stats = pointwise_order_statistics(
        tuple(tuple(int(s in A) for s in range(3)) for A in sets))
    assert stats == ((0, 1, 0), (0, 1, 0), (1, 1, 1))
    rng = random.Random(23)
    for _ in range(100):
        universe, n = rng.randint(1, 5), rng.randint(1, 4)
        sets = [frozenset(s for s in range(universe) if rng.random() < 0.5)
                for _ in range(n)]
        stats = pointwise_order_statistics(
            tuple(tuple(int(s in A) for s in range(universe)) for A in sets))
        for j, g in enumerate(stats, start=1):
            assert g == tuple(int(sum(s in A for A in sets) >= n + 1 - j)
                              for s in range(universe))


def test_product_measure_nested_sets_equality():
    weights = {(0, 0): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(1)}
    nested = [frozenset({0}), frozenset({0, 1}), frozenset({0, 1})]
    report = product_measure_check(weights, nested, 2, 2)
    assert report.holds
    assert report.detail["original_sum"] == report.detail["orderstat_sum"]


def test_product_measure_k1_direction():
    weights = {(0,): Fraction(1), (1,): Fraction(3), (2,): Fraction(1, 2)}
    rng = random.Random(19)
    for _ in range(40):
        sets = [frozenset(s for s in range(3) if rng.random() < 0.5)
                for _ in range(3)]
        report = product_measure_check(weights, sets, 1, 3)
        assert report.holds


def test_product_measure_random_counting_on_relation():
    rng = random.Random(29)
    for _ in range(30):
        G = {(a, b) for a in range(4) for b in range(4) if rng.random() < 0.4}
        weights = {key: Fraction(1) for key in G}
        if not weights:
            continue
        sets = [frozenset(s for s in range(4) if rng.random() < 0.5)
                for _ in range(3)]
        report = product_measure_check(weights, sets, 2, 4)
        assert report.holds, report.witness


def test_product_measure_input_validation():
    with pytest.raises(InputError):
        product_measure_check({(0, 5): Fraction(1)}, [frozenset()], 2, 2)
    with pytest.raises(InputError):
        product_measure_check({(0, 0): Fraction(1)}, [frozenset()], 2, 2)
