"""Seeded random instances for property suites and regressions.

Numerators and denominators stay small (<= 8) so exact arithmetic stays
fast across thousands of instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .constructions import (
    Measure,
    MultisetCombiner,
    PotentialSpec,
    SchurSpec,
    SetRelation,
    integral_of_product,
    product_of_integrals,
    relation_image_measure,
    schur_construct,
    tensor_multiadditive,
    multiadd_symmetric_sum,
    perm_orderstat_check,
    verify_multiadditive,
)
from .correlation import ExplicitSublattice
from .lattice import FnLattice
from .report import CheckReport
from .scalars import INF
from .semimod import TupleFunctional


def rand_fraction(rng: random.Random, max_num: int = 8, max_den: int = 8,
                  allow_zero: bool = True) -> Fraction:
    lo = 0 if allow_zero else 1
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def rand_measure(rng: random.Random, size: int, positive: bool = True) -> Measure:
    return Measure(tuple(rand_fraction(rng, allow_zero=not positive)
                         for _ in range(size)))


def rand_nonneg_fn(rng: random.Random, width: int, *, max_num: int = 6,
                   inf_prob: float = 0.0, zero_prob: float = 0.0) -> tuple:
    out = []
    for _ in range(width):
        roll = rng.random()
        if roll < inf_prob:
            out.append(INF)
        elif roll < inf_prob + zero_prob:
            out.append(Fraction(0))
        else:
            out.append(rand_fraction(rng, max_num=max_num, allow_zero=False))
    return tuple(out)


# --- one-argument maps for Schur compositions ---

def _modular_lam(rng: random.Random, width: int) -> tuple[Callable, str]:
    ws = [Fraction(rng.randint(0, 4)) for _ in range(width)]

    def lam(f):
        return sum((w * v for w, v in zip(ws, f)), Fraction(0))

    return lam, f"modular{ws}"


def _capped_modular_lam(rng: random.Random, width: int) -> tuple[Callable, str]:
    ws = [Fraction(rng.randint(1, 4)) for _ in range(width)]
    cap = Fraction(rng.randint(1, 6))

    def lam(f):
        return min(cap, sum((w * v for w, v in zip(ws, f)), Fraction(0)))

    return lam, f"capped{ws}@{cap}"


def _max_value_lam(rng: random.Random, width: int) -> tuple[Callable, str]:
    shift = Fraction(rng.randint(0, 2))

    def lam(f):
        return max(f) + shift

    return lam, f"max+{shift}"


def _relation_image_lam(rng: random.Random, width: int) -> tuple[Callable, str]:
    target = rng.randint(1, 3)
    pairs = frozenset((s, t) for s in range(width) for t in range(target)
                      if rng.random() < 0.6)
    rel = SetRelation(pairs, width, target)
    weights = tuple(Fraction(rng.randint(1, 4)) for _ in range(target))
    return relation_image_measure(rel, weights), f"image({sorted(pairs)})"


def _random_carrier(rng: random.Random) -> tuple[int, int, int]:
    """(n, width, top): an arity and a `FnLattice.zero_to(width, top)` carrier."""
    n = rng.choice((3, 4))
    # n = 4 keeps |L|^4 scans at desk scale
    return (n, *rng.choice(((1, 2), (1, 1), (2, 1)) if n == 4 else ((1, 2), (2, 1), (2, 2))))


def random_schur_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """A random verified Schur composition on a small function lattice."""
    n, width, top = _random_carrier(rng)
    lattice = FnLattice.zero_to(width, top)
    if top == 1 and rng.random() < 0.4:
        lam, lam_name = _relation_image_lam(rng, width)
    else:
        lam, lam_name = rng.choice((_modular_lam, _capped_modular_lam, _max_value_lam))(
            rng, width)
    k = rng.randint(1, n)
    spec = SchurSpec(lattice, lam, MultisetCombiner("sum_smallest", k),
                     lam_name=lam_name, combiner_name=f"sum_of_{k}_smallest")
    return lattice, schur_construct(spec, n, seed=rng.randrange(2 ** 30))


def random_multiadd_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """A random verified symmetric sum of a nonnegative multiadditive form."""
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


def random_verified_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """Alternate between the two verified families."""
    if rng.random() < 0.5:
        return random_schur_functional(rng)
    return random_multiadd_functional(rng)


# --- potentials ---

def _affine(a: Fraction, b: Fraction) -> Callable:
    return lambda u: a * u + b


def random_potential_spec(rng: random.Random, curvature: str,
                          *, width: Optional[int] = None) -> PotentialSpec:
    """Random monotone inner map and strictly curved piecewise-affine outer
    map on a symmetric-chain carrier."""
    if width is None:
        width = rng.choice((1, 2))
    carrier = FnLattice.symmetric(width, 1)
    measure = Measure(tuple(Fraction(rng.randint(1, 3)) for _ in range(width)))
    shift = Fraction(rng.randint(-1, 1))
    scale = Fraction(rng.randint(1, 3))
    phi_kind = rng.choice(("relu", "step"))
    if phi_kind == "relu":
        def phi(u, _s=shift, _c=scale):
            return max(_c * (u - _s), Fraction(0))
        phi_name = f"relu(scale={scale},shift={shift})"
    else:
        def phi(u, _s=shift):
            return Fraction(1) if u > _s else Fraction(0)
        phi_name = f"step(shift={shift})"
    slopes = sorted({Fraction(rng.randint(1, 5)) for _ in range(3)})
    while len(slopes) < 2:
        slopes.append(slopes[-1] + 1)
    pieces = []
    anchor = Fraction(rng.randint(0, 3))
    for s in slopes:
        pieces.append(_affine(s, anchor - s * Fraction(rng.randint(0, 2))))
    if curvature == "concave":
        def psi(u, _p=tuple(pieces)):
            return min(f(u) for f in _p)
    else:
        def psi(u, _p=tuple(pieces)):
            return max(f(u) for f in _p)
    return PotentialSpec(carrier=carrier, measure=measure, phi=phi, psi=psi,
                         curvature=curvature, phi_name=phi_name,
                         psi_name=f"{curvature}-pl{slopes}")


# --- sublattices and families for correlation suites ---

def random_sublattice(rng: random.Random, *, width: int = None,
                      chain_top: int = 2, positive: bool = False,
                      seeds: int = 4) -> ExplicitSublattice:
    if width is None:
        width = rng.randint(1, 3)
    lo = 1 if positive else 0
    vals = [Fraction(v) for v in range(lo, chain_top + 1)]
    pool = [tuple(rng.choice(vals) for _ in range(width)) for _ in range(seeds)]
    return ExplicitSublattice.closure(pool)


def random_monotone_func(rng: random.Random, width: int) -> Callable:
    """Nonnegative coefficients on coordinates plus a constant; nondecreasing
    on any function lattice."""
    coeffs = [Fraction(rng.randint(0, 3)) for _ in range(width)]
    const = Fraction(rng.randint(0, 2))

    def func(h):
        return sum((c * v for c, v in zip(coeffs, h)), const)

    return func


def random_families(rng: random.Random, *, n: int, width: int,
                    max_family: int = 3, max_val: int = 3,
                    positive: bool = True) -> list:
    lo = 1 if positive else 0
    vals = [Fraction(v) for v in range(lo, max_val + 1)]
    fams = []
    for _ in range(n):
        size = rng.randint(1, max_family)
        fam = {tuple(rng.choice(vals) for _ in range(width)) for _ in range(size)}
        fams.append(sorted(fam))
    return fams


def perm_orderstat_batch(count: int, seed: int, max_rows: int,
                         max_cols: int) -> CheckReport:
    """Run `perm_orderstat_check` on `count` seeded random matrices (rows of
    random lengths, padded with zeros); returns the first failing report,
    else the last, with the batch size in its detail."""
    rng = random.Random(seed)
    failed = None
    for _ in range(count):
        matrix = [[rand_fraction(rng, max_num=6, max_den=4)
                   for _ in range(rng.randint(1, max_cols))]
                  for _ in range(rng.randint(1, max_rows))]
        width = max(len(r) for r in matrix)
        matrix = [r + [Fraction(0)] * (width - len(r)) for r in matrix]
        one = perm_orderstat_check(matrix)
        if not one.holds and failed is None:
            failed = one
    report = failed if failed is not None else one
    report.detail["batch"] = count
    return report
