"""Correlation inequalities on finite function lattices: multiplicative
log-supermodularity, the FKG inequality with verified preconditions, the
n-family extension with order-statistic set families, and the demonstration
that the negative-power / infimum instances do not reverse.

Log-supermodularity is checked multiplicatively (products, never logs) so
zero weights stay exact; infinite weights are resolved by the infinity rule
that the negative-power instances carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from .constructions import Measure
from .lattice import (_CompiledLattice, _Memo, fn_join, fn_leq, fn_meet,
                      pointwise_order_statistics)
from .report import CheckReport, Witness
from .scalars import (
    ConventionMode,
    InputError,
    Scalar,
    as_scalar,
    charge,
    ext_mul,
    ext_pow,
    ext_prod,
    ext_sum,
    is_inf,
    parse_rational,
    require_nonneg,
)

DEFAULT_FAMILY_BUDGET = 10 ** 6


class ExplicitSublattice:
    """A finite set of function elements verified closed under pointwise
    min and max; the check keeps each pair's meet and join ids as rows.
    Closed under the meet and join of a product of chains, it is a
    distributive lattice (`certified`, see `lattice`)."""

    certified = "distributive"

    def __init__(self, elements: Sequence[tuple]):
        elems = []
        seen: dict = {}
        for e in elements:
            e = tuple(as_scalar(v) for v in e)
            if e not in seen:
                seen[e] = len(elems)
                elems.append(e)
        if not elems:
            raise InputError("sublattice must be nonempty")
        width = len(elems[0])
        if any(len(e) != width for e in elems):
            raise InputError("sublattice elements must share one ground set")
        self._meet, self._join = [], []  # every pair's meet and join, as id rows
        for a in elems:
            meets, joins = [], []
            for b in elems:
                for c, ids, op in ((fn_meet(a, b), meets, "meet"), (fn_join(a, b), joins, "join")):
                    i = seen.get(c)
                    if i is None:
                        raise InputError(f"not {op}-closed: {a} {op} {b} = {c} is missing")
                    ids.append(i)
            self._meet.append(meets)
            self._join.append(joins)
        self._elems = elems
        self._index = seen
        self.width = width

    @classmethod
    def closure(cls, seeds: Sequence[tuple], max_size: int = 64) -> "ExplicitSublattice":
        """Close a seed set under pointwise min and max."""
        current = {tuple(as_scalar(v) for v in e) for e in seeds}
        while True:
            new = set()
            for a in current:
                for b in current:
                    for c in (fn_meet(a, b), fn_join(a, b)):
                        if c not in current:
                            new.add(c)
            if not new:
                break
            current |= new
            charge(len(current), max_size, "closure elements")
        return cls(sorted(current))

    @property
    def size(self) -> int:
        return len(self._elems)

    def elements(self) -> list:
        return list(self._elems)

    def index(self, a) -> int:
        return self._index[a]

    def contains(self, a) -> bool:
        try:
            return tuple(a) in self._index
        except TypeError:  # not iterable, or holds unhashable values
            return False

    def meet(self, a, b):
        return fn_meet(a, b)

    def join(self, a, b):
        return fn_join(a, b)

    def leq(self, a, b) -> bool:
        return fn_leq(a, b)


@dataclass(frozen=True)
class LatticeWeight:
    """Nonnegative weights on lattice elements, called as a weight function."""

    weights: dict

    def __post_init__(self):
        clean = {}
        for e, w in self.weights.items():
            w = as_scalar(w)
            require_nonneg(w, "lattice weight")
            clean[tuple(e)] = w
        object.__setattr__(self, "weights", clean)

    def __call__(self, e) -> Scalar:
        return self.weights[tuple(e)]


def is_log_supermodular(nu, L, mode: Optional[ConventionMode] = None) -> CheckReport:
    """All pairs satisfy weight(meet) * weight(join) >= weight(f) * weight(g).

    (f, g) and (g, f) give the same products, so only the pairs with f at or
    before g in element order are tested; `instances_checked` counts the
    |L|^2 ordered pairs they cover.  The first violation in row order has f
    at or before g, so the witness is that of the full scan, and row 0 meets
    every element as g, in the same order.  The weight is evaluated once
    per element id, in the order the pairs first read it, and meet and
    join are read from L's id tables by `_log_supermodular`, the executor
    that `fkg_check` also runs."""
    compiled = _CompiledLattice.of(L).whole()
    elems = compiled.elems
    return _log_supermodular(compiled, _Memo(lambda i: nu(elems[i])), mode)


def _log_supermodular(compiled, nu: _Memo, mode) -> CheckReport:
    """`is_log_supermodular` on a whole compiled carrier and the weight by id."""
    elems, meet, join, m = compiled.elems, compiled.meet, compiled.join, compiled.m
    first = None
    for i, f in enumerate(elems):
        for j in range(i, m):
            key = i * m + j
            lhs = ext_mul(as_scalar(nu[meet[key]]), as_scalar(nu[join[key]]), mode)
            rhs = ext_mul(as_scalar(nu[i]), as_scalar(nu[j]), mode)
            if not lhs >= rhs and first is None:
                first = Witness(args=(f, elems[j]), lhs=lhs, rhs=rhs)
    return CheckReport(instances_checked=m ** 2, witness=first)


def _first_decrease(compiled, func: _Memo, name: str) -> Optional[Witness]:
    """The first pair f <= g with func(f) > func(g), on a whole compiled
    carrier and func by id: f <= g exactly when the meet of f and g is f."""
    elems, meet, m = compiled.elems, compiled.meet, compiled.m
    for i in range(m):
        for j in range(m):
            if meet[i * m + j] == i and not as_scalar(func[i]) <= as_scalar(func[j]):
                return Witness(args=(elems[i], elems[j]), lhs=func[i], rhs=func[j],
                               note=f"{name} is not nondecreasing")
    return None


def fkg_check(L, nu, F, G, mode: Optional[ConventionMode] = None) -> CheckReport:
    """The four-sum correlation inequality: with a log-supermodular weight
    and nondecreasing F and G,
    sum(F*G*w) * sum(w) >= sum(F*w) * sum(G*w).
    Precondition failures are reported with their witnesses rather than
    asserted away.  The weight, F and G are each evaluated once per element
    id, in the order the checks first read them, and the checks read meet
    and join from L's id tables, so no lookup hashes an element."""
    compiled = _CompiledLattice.of(L).whole()
    elems = compiled.elems
    nu, F, G = (_Memo(lambda i, func=func: func(elems[i])) for func in (nu, F, G))
    logsup = _log_supermodular(compiled, nu, mode)
    if not logsup.holds:
        return CheckReport(instances_checked=logsup.instances_checked,
                           witness=logsup.witness,
                           detail={"precondition_failed": "log-supermodularity"})
    for func, name in ((F, "F"), (G, "G")):
        w = _first_decrease(compiled, func, name)
        if w is not None:
            return CheckReport(instances_checked=logsup.instances_checked, witness=w,
                               detail={"precondition_failed": "monotonicity"})
    ids = range(compiled.m)  # each is in all three memos by now
    nu = [as_scalar(nu[i]) for i in ids]
    fs, gs = [as_scalar(F[i]) for i in ids], [as_scalar(G[i]) for i in ids]
    if any(is_inf(w) for w in nu):
        for values, name in ((fs, "F"), (gs, "G")):
            for v in values:
                require_nonneg(v, f"{name} value (required with infinite weights)")

    def agg(values):
        return ext_sum(ext_mul(v, w, mode) for v, w in zip(values, nu))

    s_fg = agg(f * g for f, g in zip(fs, gs))
    s_1 = agg([Fraction(1)] * len(nu))
    s_f = agg(fs)
    s_g = agg(gs)
    lhs = ext_mul(s_fg, s_1, mode)
    rhs = ext_mul(s_f, s_g, mode)
    detail = {"sum_FG": s_fg, "sum_1": s_1, "sum_F": s_f, "sum_G": s_g}
    checked = logsup.instances_checked + 1
    witness = None
    if not lhs >= rhs:
        witness = Witness(args=(), lhs=lhs, rhs=rhs, note="four-sum")
    return CheckReport(instances_checked=checked, witness=witness, detail=detail)


def power_weight(measure: Measure, r: int) -> Callable:
    """h -> integral(h) ** r for a negative integer r (zero integrals map to
    infinity)."""
    if not isinstance(r, int) or r >= 0:
        raise InputError(f"power weight needs a negative integer exponent, got {r!r}")

    def nu(h):
        return ext_pow(measure.integral(h, ConventionMode.INF), r)

    return nu


def inf_weight() -> Callable:
    """h -> pointwise infimum of h."""
    return lambda h: min(as_scalar(v) for v in h)


def _corollary_weight(measure: Optional[Measure], r, use_inf: bool) -> tuple:
    """(weight, tag) of the fkg and ahke corollaries: the pointwise infimum,
    or `power_weight(measure, r)`."""
    if use_inf:
        return inf_weight(), "inf"
    if measure is None:
        raise InputError("power mode needs a measure and a negative integer r")
    return power_weight(measure, r), f"power(r={r})"


def corollary_fkg_check(L, F, G, *, measure: Optional[Measure] = None,
                        r: Optional[int] = None, use_inf: bool = False) -> CheckReport:
    """FKG instance with the negative-power-of-the-integral weight or the
    pointwise-infimum weight."""
    nu, tag = _corollary_weight(measure, r, use_inf)
    out = fkg_check(L, nu, F, G, ConventionMode.INF)
    out.detail["weight"] = tag
    return out


def _distinct(families: Sequence[Sequence[tuple]]) -> list:
    """Each family as a list of its distinct elements, in exact scalars, in
    order of first occurrence: families are sets."""
    return [list(dict.fromkeys(tuple(as_scalar(v) for v in e) for e in fam))
            for fam in families]


def orderstat_family(families: Sequence[Sequence[tuple]], *,
                     budget: int = DEFAULT_FAMILY_BUDGET) -> tuple:
    """The j-th output collects the j-th order statistic of every tuple in
    the product of the input families, deduplicated.  The budget bounds the
    product of the deduplicated families."""
    fams = _distinct(families)
    if not fams or any(not fam for fam in fams):
        raise InputError("families must be nonempty")
    width = len(fams[0][0])
    for fam in fams:
        if any(len(e) != width for e in fam):
            raise InputError("family elements must share one ground set")
    charge(math.prod(len(fam) for fam in fams), budget, "tuples of the family product")
    n = len(fams)
    out = [set() for _ in range(n)]
    for f in product(*fams):
        stats = pointwise_order_statistics(f)
        for j in range(n):
            out[j].add(stats[j])
    return tuple(sorted(s) for s in out)


def aharoni_keich_check(alphas: Sequence, betas: Sequence,
                        families: Sequence[Sequence[tuple]], *,
                        mode: Optional[ConventionMode] = None,
                        budget: int = DEFAULT_FAMILY_BUDGET) -> CheckReport:
    """n-family four-function extension.  First verifies the pointwise
    hypothesis prod(alpha_j(f_j)) <= prod(beta_j(stats_j)) over the family
    product; when it fails the conclusion is not asserted (both sides are
    still reported as informational).  When it holds, verifies
    prod_j sum(alpha_j over family_j) <= prod_j sum(beta_j over stat family_j).
    Families are sets: a repeated element counts once in the sums, the
    hypothesis loop and the budget.
    """
    n = len(families)
    if len(alphas) != n or len(betas) != n:
        raise InputError("need one alpha and one beta per family")
    funcs = {"alpha": alphas, "beta": betas}
    fams = _distinct(families)
    stat_fams = orderstat_family(fams, budget=budget)

    # one evaluation per (function, element): the product loop repeats
    # lookups, and one function may serve several roles; the lookup that
    # evaluates names its role in a nonnegativity error
    memo: dict = {}

    def val(name, j, e):
        func = funcs[name][j]
        v = memo.get((id(func), e))
        if v is None:
            v = as_scalar(func(e))
            require_nonneg(v, f"{name} value")
            memo[id(func), e] = v
        return v

    lhs = ext_prod((ext_sum(val("alpha", j, e) for e in fams[j])
                    for j in range(n)), mode)
    rhs = ext_prod((ext_sum(val("beta", j, e) for e in stat_fams[j])
                    for j in range(n)), mode)

    checked = 0
    hyp_witness = None
    for f in product(*fams):
        checked += 1
        stats = pointwise_order_statistics(f)
        h_lhs = ext_prod((val("alpha", j, f[j]) for j in range(n)), mode)
        h_rhs = ext_prod((val("beta", j, stats[j]) for j in range(n)), mode)
        if not h_lhs <= h_rhs and hyp_witness is None:
            hyp_witness = Witness(args=f, lhs=h_lhs, rhs=h_rhs,
                                  note="pointwise hypothesis violated")
    if hyp_witness is not None:
        return CheckReport(instances_checked=checked, witness=hyp_witness,
                           detail={"hypothesis_violated": True,
                                   "informational_lhs": lhs,
                                   "informational_rhs": rhs})
    detail = {"lhs": lhs, "rhs": rhs,
              "stat_family_sizes": [len(s) for s in stat_fams]}
    witness = None
    if not lhs <= rhs:
        witness = Witness(args=(), lhs=lhs, rhs=rhs, note="sum products")
    return CheckReport(instances_checked=checked + 1, witness=witness, detail=detail)


def corollary_ahke_check(families: Sequence[Sequence[tuple]], *,
                         measure: Optional[Measure] = None,
                         r: Optional[int] = None, use_inf: bool = False,
                         budget: int = DEFAULT_FAMILY_BUDGET) -> CheckReport:
    """Family inequality with alpha = beta = the negative-power-of-integral
    weight, or the pointwise-infimum weight."""
    nu, tag = _corollary_weight(measure, r, use_inf)
    n = len(families)
    out = aharoni_keich_check([nu] * n, [nu] * n, families,
                              mode=ConventionMode.INF, budget=budget)
    out.detail["weight"] = tag
    return out


def nonreversibility_demo(N: int, delta, eps, r: int = 1, *,
                          budget: int = DEFAULT_FAMILY_BUDGET) -> dict:
    """Two families on an (N+1)-point grid under the uniform probability
    measure: N near-one constants against N two-level step functions.  Both
    order-statistic families blow up to N^2 elements, so the sum-product on
    the order-statistic side scales like N^4 against N^2 on the original
    side; the exact ratio is reported.  The budget bounds the N^2 tuples
    of the family product (`orderstat_family`).
    """
    delta = parse_rational(delta) if not isinstance(delta, Fraction) else delta
    eps = parse_rational(eps) if not isinstance(eps, Fraction) else eps
    if N < 1:
        raise InputError("N must be at least 1")
    if not 0 < eps < delta < 1:
        raise InputError("parameters must satisfy 0 < eps < delta < 1")
    if not isinstance(r, int):
        raise InputError("r must be an integer for exact evaluation")
    points = N + 1
    mu = Measure.uniform(points)
    one = Fraction(1)
    constants = [tuple(one + eps * Fraction(2 * i - N - 1, 2 * N) for _ in range(points))
                 for i in range(1, N + 1)]
    steps = [tuple((one - delta) if s <= j else (one + delta)
                   for s in range(1, points + 1))
             for j in range(1, N + 1)]
    fam1, fam2 = orderstat_family([constants, steps], budget=budget)

    def weight_sum(elems):
        return ext_sum(ext_pow(mu.integral(e), r) for e in elems)

    lhs = ext_mul(weight_sum(constants), weight_sum(steps), ConventionMode.INF)
    rhs = ext_mul(weight_sum(fam1), weight_sum(fam2), ConventionMode.INF)
    ratio = None
    if not is_inf(lhs) and not is_inf(rhs) and lhs != 0:
        ratio = rhs / lhs
    return {
        "N": N,
        "delta": delta,
        "eps": eps,
        "r": r,
        "grid_points": points,
        "family_sizes": (len(constants), len(steps)),
        "stat_family_sizes": (len(fam1), len(fam2)),
        "expected_stat_size": N * N,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
        "ratio_float": float(ratio) if ratio is not None else None,
        "sizes_are_n_squared": len(fam1) == N * N and len(fam2) == N * N,
    }
