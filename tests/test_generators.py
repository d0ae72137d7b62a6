"""Differential tests: the seeded generators against the closures they
replaced, kept here as the reference.

The generators draw JSON configs and build them through `jsonio`'s
decoders.  For each seed the result must take the reference's values on
every tuple of its small carrier, and leave the random state where the
reference leaves it, so the draws and their order are unchanged.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from latstat.constructions import (
    Measure,
    MultisetCombiner,
    PotentialSpec,
    SchurSpec,
    SetRelation,
    integral_of_product,
    multiadd_symmetric_sum,
    potential_construct,
    product_of_integrals,
    relation_image_measure,
    schur_construct,
    tensor_multiadditive,
    verify_multiadditive,
)
from latstat.generators import (
    rand_fraction,
    rand_measure,
    random_monotone_func,
    random_multiadd_functional,
    random_potential_spec,
    random_schur_functional,
    random_verified_functional,
)
from latstat.lattice import FnLattice

SEEDS = range(50)


# --- the reference: each family's formulas written as closures ---

def _modular_lam(rng, width):
    ws = [Fraction(rng.randint(0, 4)) for _ in range(width)]
    return lambda f: sum((w * v for w, v in zip(ws, f)), Fraction(0))


def _capped_modular_lam(rng, width):
    ws = [Fraction(rng.randint(1, 4)) for _ in range(width)]
    cap = Fraction(rng.randint(1, 6))
    return lambda f: min(cap, sum((w * v for w, v in zip(ws, f)), Fraction(0)))


def _max_value_lam(rng, width):
    shift = Fraction(rng.randint(0, 2))
    return lambda f: max(f) + shift


def _relation_image_lam(rng, width):
    target = rng.randint(1, 3)
    pairs = frozenset((s, t) for s in range(width) for t in range(target)
                      if rng.random() < 0.6)
    weights = tuple(Fraction(rng.randint(1, 4)) for _ in range(target))
    return relation_image_measure(SetRelation(pairs, width, target), weights)


def _random_carrier(rng):
    n = rng.choice((3, 4))
    return (n, *rng.choice(((1, 2), (1, 1), (2, 1)) if n == 4 else ((1, 2), (2, 1), (2, 2))))


def reference_schur_functional(rng):
    n, width, top = _random_carrier(rng)
    lattice = FnLattice.zero_to(width, top)
    if top == 1 and rng.random() < 0.4:
        lam = _relation_image_lam(rng, width)
    else:
        lam = rng.choice((_modular_lam, _capped_modular_lam, _max_value_lam))(rng, width)
    k = rng.randint(1, n)
    spec = SchurSpec(lattice, lam, MultisetCombiner("sum_smallest", k))
    return lattice, schur_construct(spec, n, seed=rng.randrange(2 ** 30))


def reference_multiadd_functional(rng):
    n, width, top = _random_carrier(rng)
    lattice = FnLattice.zero_to(width, top)
    k = rng.randint(1, min(n, 3))
    kind = rng.choice(("prod-integrals", "integral-of-product", "tensor"))
    if kind == "prod-integrals":
        m = product_of_integrals([rand_measure(rng, width) for _ in range(k)])
    elif kind == "integral-of-product":
        m = integral_of_product(rand_measure(rng, width), k)
    else:
        keys = set()
        for key in product(range(width), repeat=k):
            if rng.random() < 0.6:
                keys.add(key)
        weights = {key: rand_fraction(rng, allow_zero=False) for key in keys}
        m = tensor_multiadditive(weights, k, width) if weights else \
            integral_of_product(rand_measure(rng, width), k)
    verify_multiadditive(m, lattice, seed=rng.randrange(2 ** 30), samples=20)
    return lattice, multiadd_symmetric_sum(m, n, lattice)


def reference_verified_functional(rng):
    if rng.random() < 0.5:
        return reference_schur_functional(rng)
    return reference_multiadd_functional(rng)


def _affine(a, b):
    return lambda u: a * u + b


def reference_potential_spec(rng, curvature, width=None):
    if width is None:
        width = rng.choice((1, 2))
    carrier = FnLattice.symmetric(width, 1)
    measure = Measure(tuple(Fraction(rng.randint(1, 3)) for _ in range(width)))
    shift = Fraction(rng.randint(-1, 1))
    scale = Fraction(rng.randint(1, 3))
    if rng.choice(("relu", "step")) == "relu":
        def phi(u):
            return max(scale * (u - shift), Fraction(0))
    else:
        def phi(u):
            return Fraction(1) if u > shift else Fraction(0)
    slopes = sorted({Fraction(rng.randint(1, 5)) for _ in range(3)})
    while len(slopes) < 2:
        slopes.append(slopes[-1] + 1)
    anchor = Fraction(rng.randint(0, 3))
    pieces = [_affine(s, anchor - s * Fraction(rng.randint(0, 2))) for s in slopes]
    if curvature == "concave":
        def psi(u):
            return min(f(u) for f in pieces)
    else:
        def psi(u):
            return max(f(u) for f in pieces)
    return PotentialSpec(carrier=carrier, measure=measure, phi=phi, psi=psi,
                         curvature=curvature)


def reference_monotone_func(rng, width):
    coeffs = [Fraction(rng.randint(0, 3)) for _ in range(width)]
    const = Fraction(rng.randint(0, 2))
    return lambda h: sum((c * v for c, v in zip(coeffs, h)), const)


def _run_both(seed, generate, reference):
    """Each result on its own Random(seed), after asserting that both calls
    leave the random state at the same point."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got, want = generate(rng), reference(ref_rng)
    assert rng.getstate() == ref_rng.getstate(), seed
    return got, want


# --- the generators against the reference ---

@pytest.mark.parametrize("generate, reference", [
    (random_schur_functional, reference_schur_functional),
    (random_multiadd_functional, reference_multiadd_functional),
    (random_verified_functional, reference_verified_functional),
], ids=["schur", "multiadd", "verified"])
def test_functional_generators_match_reference(generate, reference):
    for seed in SEEDS:
        (L, lam), (ref_L, ref_lam) = _run_both(seed, generate, reference)
        assert L.chain == ref_L.chain and L.ground.size == ref_L.ground.size, seed
        assert (lam.arity, lam.symmetric) == (ref_lam.arity, ref_lam.symmetric), seed
        for f in product(L.elements(), repeat=lam.arity):
            assert lam.fn(f) == ref_lam.fn(f), (seed, f)


@pytest.mark.parametrize("curvature", ["concave", "convex"])
@pytest.mark.parametrize("width", [None, 2])
def test_potential_spec_generator_matches_reference(curvature, width):
    for seed in SEEDS:
        spec, ref = _run_both(seed, lambda rng: random_potential_spec(rng, curvature, width=width),
                              lambda rng: reference_potential_spec(rng, curvature, width))
        assert spec.carrier.chain == ref.carrier.chain, seed
        assert spec.carrier.ground.size == ref.carrier.ground.size, seed
        assert (spec.measure, spec.curvature) == (ref.measure, ref.curvature), seed
        for u in (Fraction(v, 2) for v in range(-8, 9)):
            assert (spec.phi(u), spec.psi(u)) == (ref.phi(u), ref.psi(u)), (seed, u)
        pair, ref_pair = potential_construct(spec, 2), potential_construct(ref, 2)
        for f in product(spec.carrier.elements(), repeat=2):
            assert pair.fn(f) == ref_pair.fn(f), (seed, f)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_monotone_func_generator_matches_reference(width):
    for seed in SEEDS:
        func, ref = _run_both(seed, lambda rng: random_monotone_func(rng, width),
                              lambda rng: reference_monotone_func(rng, width))
        for h in FnLattice.zero_to(width, 3).elements():
            assert func(h) == ref(h), (seed, h)
