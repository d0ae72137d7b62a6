"""Exact extended-rational scalars: nonnegative-or-signed rationals plus +inf.

All arithmetic is exact.  The product 0 * inf is undefined unless the caller
supplies a ConventionMode, because different inequalities resolve it
differently (to 0 or to +inf).  Operations that would hit an undefined
combination raise InputError rather than guessing.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union


class InputError(ValueError):
    """Malformed or out-of-contract input; maps to CLI exit code 2."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the evaluation budget; CLI exit 3."""


def charge(units: int, budget: int, what: str) -> None:
    """The one budget gate: refuse `units` of work, counted as `what`, over
    `budget`.  Callers count units from sizes, before they list anything."""
    if units > budget:
        raise BudgetExceededError(f"{units} {what} exceed budget {budget}")


class InternalError(RuntimeError):
    """A fast path disagreed with its exact oracle; CLI exit 4, never a verdict."""


class Infinity:
    """The single +inf scalar.  Compares above every rational; no bare arithmetic."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __ne__(self, other):
        return not isinstance(other, Infinity)

    def __hash__(self):
        return hash("latstat.scalars.INF")

    def __lt__(self, other):
        if isinstance(other, (Infinity, Rational)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Infinity):
            return True
        if isinstance(other, Rational):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Infinity):
            return False
        if isinstance(other, Rational):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (Infinity, Rational)):
            return True
        return NotImplemented


INF = Infinity()

#: A scalar value: an exact Fraction or +inf.
Scalar = Union[Fraction, Infinity]


class ConventionMode(Enum):
    """Resolution rule for the product 0 * inf, fixed per inequality."""

    ZERO = "zero"
    INF = "inf"


def is_inf(x) -> bool:
    return isinstance(x, Infinity)


def as_scalar(x) -> Scalar:
    """Coerce ints/Fractions to Fraction; pass INF through."""
    if isinstance(x, Infinity):
        return INF
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"not an exact scalar: {x!r}")


def integer_scale(values: Iterable):
    """(D, [v * D for v in values]) for the least positive integer D that
    makes every value an integer, when every value is a finite rational (an
    int or a Fraction, not a bool); else None.  Positive D keeps every
    comparison, and sums of scaled values are the scaled sums."""
    values = list(values)
    for v in values:
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            return None
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def require_nonneg(x: Scalar, what: str = "value") -> Scalar:
    if not is_inf(x) and x < 0:
        raise InputError(f"{what} must be nonnegative, got {x}")
    return x


def ext_sum(xs: Iterable[Scalar]) -> Scalar:
    total = Fraction(0)
    for x in xs:
        if is_inf(x):
            return INF
        total += x
    return total


def ext_mul(a: Scalar, b: Scalar, mode: ConventionMode | None = None) -> Scalar:
    if is_inf(a) or is_inf(b):
        fin = b if is_inf(a) else a
        if is_inf(fin):
            return INF
        if fin == 0:
            if mode is ConventionMode.ZERO:
                return Fraction(0)
            if mode is ConventionMode.INF:
                return INF
            raise InputError("0 * inf is undefined without a ConventionMode")
        if fin < 0:
            raise InputError("negative * inf is not representable")
        return INF
    return a * b


def ext_prod(xs: Iterable[Scalar], mode: ConventionMode | None = None) -> Scalar:
    """Product of scalars under the given 0*inf rule.

    The result is independent of grouping: with ZERO any zero factor wins,
    with INF any infinite factor wins.
    """
    vals = list(xs)
    has_inf = any(is_inf(x) for x in vals)
    has_zero = any(not is_inf(x) and x == 0 for x in vals)
    if has_inf and has_zero:
        if mode is ConventionMode.ZERO:
            return Fraction(0)
        if mode is ConventionMode.INF:
            return INF
        raise InputError("0 * inf is undefined without a ConventionMode")
    if has_inf:
        for x in vals:
            if not is_inf(x) and x < 0:
                raise InputError("negative * inf is not representable")
        return INF
    out = Fraction(1)
    for x in vals:
        out *= x
    return out


def ext_pow(x: Scalar, t: int) -> Scalar:
    """x**t for integer t, with 0**t = inf and inf**t = 0 when t < 0."""
    if not isinstance(t, int):
        raise InputError(f"exact powers need an integer exponent, got {t!r}")
    if t == 0:
        return Fraction(1)
    if is_inf(x):
        return INF if t > 0 else Fraction(0)
    if x == 0:
        return Fraction(0) if t > 0 else INF
    return x ** t


def parse_rational(text) -> Fraction:
    """Parse '3', '-3/2', '1/1000' into an exact Fraction."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {text!r} ({exc})")


def scalar_from_json(obj, ptr: str = "") -> Scalar:
    """Decode 'inf', a bare int, or {'num': p, 'den': q}."""
    if obj == "inf":
        return INF
    if isinstance(obj, bool):
        raise InputError(f"{ptr}: booleans are not scalars")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra:
            raise InputError(f"{ptr}/{sorted(extra)[0]}: unknown field in rational")
        if "num" not in obj:
            raise InputError(f"{ptr}/num: missing")
        num = obj["num"]
        den = obj.get("den", 1)
        if not isinstance(num, int) or isinstance(num, bool):
            raise InputError(f"{ptr}/num: must be an integer")
        if not isinstance(den, int) or isinstance(den, bool):
            raise InputError(f"{ptr}/den: must be an integer")
        if den == 0:
            raise InputError(f"{ptr}/den: denominator must be nonzero")
        return Fraction(num, den)
    raise InputError(f"{ptr}: expected 'inf', integer, or {{num,den}} object")


def scalar_to_json(x: Scalar):
    if is_inf(x):
        return "inf"
    frac = as_scalar(x)
    return {"num": frac.numerator, "den": frac.denominator}
