"""Seeded random instances for property suites and regressions.

Numerators and denominators stay small (<= 8) so exact arithmetic stays
fast across thousands of instances.  Functionals and their maps are drawn
as configs in the CLI's JSON schema and built by `jsonio`'s decoders, so
each family's formulas are written once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .constructions import Measure, PotentialSpec
from .correlation import ExplicitSublattice
from .jsonio import (
    function_from_json,
    functional_from_json,
    lattice_from_json,
    potential_spec_from_json,
)
from .lattice import FnLattice
from .scalars import INF, scalar_to_json
from .semimod import TupleFunctional


def rand_fraction(rng: random.Random, max_num: int = 8, max_den: int = 8,
                  allow_zero: bool = True) -> Fraction:
    lo = 0 if allow_zero else 1
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def rand_measure(rng: random.Random, size: int, positive: bool = True) -> Measure:
    return Measure(tuple(rand_fraction(rng, allow_zero=not positive)
                         for _ in range(size)))


def _measure_json(rng: random.Random, size: int) -> list:
    return [scalar_to_json(w) for w in rand_measure(rng, size).weights]


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


def _random_carrier(rng: random.Random) -> tuple[int, dict]:
    """An arity n and a small function-lattice carrier config."""
    n = rng.choice((3, 4))
    # n = 4 keeps |L|^4 scans at desk scale
    width, top = rng.choice(((1, 2), (1, 1), (2, 1)) if n == 4 else ((1, 2), (2, 1), (2, 2)))
    return n, {"kind": "fn", "ground_size": width, "chain_max": top}


def _schur_lambda(rng: random.Random, width: int, top: int) -> dict:
    """A one-argument map config: on a 0/1 carrier, a relation image with
    probability 0.4; else a modular, capped modular or max-value map."""
    if top == 1 and rng.random() < 0.4:
        target = rng.randint(1, 3)
        return {"kind": "relation_image",
                "pairs": [[s, t] for s in range(width) for t in range(target)
                          if rng.random() < 0.6],
                "target_weights": [rng.randint(1, 4) for _ in range(target)]}
    kind = rng.choice(("modular", "capped_modular", "max_value"))
    if kind == "modular":
        return {"kind": kind, "point_weights": [rng.randint(0, 4) for _ in range(width)]}
    if kind == "capped_modular":
        return {"kind": kind, "point_weights": [rng.randint(1, 4) for _ in range(width)],
                "cap": rng.randint(1, 6)}
    return {"kind": kind, "shift": rng.randint(0, 2)}


def random_schur_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """A random verified Schur composition on a small function lattice."""
    n, carrier = _random_carrier(rng)
    lam = _schur_lambda(rng, carrier["ground_size"], carrier["chain_max"])
    config = {"family": "schur", "n": n, "lambda": lam,
              "F": {"kind": "sum_smallest", "k": rng.randint(1, n)},
              "seed": rng.randrange(2 ** 30)}
    lattice = lattice_from_json(carrier)
    return lattice, functional_from_json(config, lattice)


def random_multiadd_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """A random verified symmetric sum of a nonnegative multiadditive form."""
    n, carrier = _random_carrier(rng)
    width = carrier["ground_size"]
    k = rng.randint(1, min(n, 3))
    kind = rng.choice(("prod_integrals", "integral_of_product", "tensor"))
    m = None
    if kind == "prod_integrals":
        m = {"kind": kind, "measures": [_measure_json(rng, width) for _ in range(k)]}
    elif kind == "tensor":
        keys = {key for key in product(range(width), repeat=k) if rng.random() < 0.6}
        if keys:  # weights are drawn in the set's iteration order
            m = {"kind": kind, "weights": [
                [list(key), scalar_to_json(rand_fraction(rng, allow_zero=False))]
                for key in keys]}
    if m is None:
        m = {"kind": "integral_of_product", "weights": _measure_json(rng, width)}
    config = {"family": "multiadd", "n": n, "k": k, "m": m, "seed": rng.randrange(2 ** 30)}
    lattice = lattice_from_json(carrier)
    return lattice, functional_from_json(config, lattice)


def random_verified_functional(rng: random.Random) -> tuple[FnLattice, TupleFunctional]:
    """Alternate between the two verified families."""
    if rng.random() < 0.5:
        return random_schur_functional(rng)
    return random_multiadd_functional(rng)


def random_potential_spec(rng: random.Random, curvature: str,
                          *, width: Optional[int] = None) -> PotentialSpec:
    """Random monotone inner map and strictly curved piecewise-affine outer
    map (min of affine pieces when concave, max when convex) on a
    symmetric-chain carrier."""
    if width is None:
        width = rng.choice((1, 2))
    measure = [rng.randint(1, 3) for _ in range(width)]
    shift, scale = rng.randint(-1, 1), rng.randint(1, 3)
    if rng.choice(("relu", "step")) == "relu":
        phi = {"kind": "relu", "scale": scale, "shift": shift}
    else:
        phi = {"kind": "step", "shift": shift}
    slopes = sorted({rng.randint(1, 5) for _ in range(3)})
    while len(slopes) < 2:
        slopes.append(slopes[-1] + 1)
    anchor = rng.randint(0, 3)
    psi = {"kind": {"concave": "min_affine", "convex": "max_affine"}.get(curvature),
           "pieces": [[s, anchor - s * rng.randint(0, 2)] for s in slopes]}
    carrier = lattice_from_json({"kind": "fn", "ground_size": width,
                                 "chain_min": -1, "chain_max": 1})
    return potential_spec_from_json({"measure": measure, "phi": phi, "psi": psi}, carrier)


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
    coeffs = [rng.randint(0, 3) for _ in range(width)]
    return function_from_json({"kind": "linear", "coeffs": coeffs,
                               "const": rng.randint(0, 2)}, width)


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
