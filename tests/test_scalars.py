from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latstat.scalars import (
    INF,
    ConventionMode,
    InputError,
    as_scalar,
    ext_mul,
    ext_pow,
    ext_prod,
    ext_sum,
    is_inf,
    parse_rational,
    scalar_from_json,
    scalar_to_json,
)

ZERO = ConventionMode.ZERO
INFM = ConventionMode.INF


def test_infinity_total_order():
    assert INF == INF
    assert not INF < INF
    assert INF <= INF
    assert Fraction(10 ** 9) < INF
    assert INF > Fraction(-5)
    assert max(Fraction(3), INF) is INF
    assert min(INF, Fraction(1, 2)) == Fraction(1, 2)
    assert sorted([INF, Fraction(2), Fraction(-1)]) == [Fraction(-1), Fraction(2), INF]


def test_infinity_has_no_bare_arithmetic():
    with pytest.raises(TypeError):
        Fraction(1) + INF  # noqa: B018 - arithmetic must go through ext_*


def test_ext_sum():
    assert ext_sum([Fraction(1), Fraction(2), Fraction(3)]) == 6
    assert is_inf(ext_sum([Fraction(1), INF, Fraction(2)]))


def test_zero_times_inf_requires_mode():
    with pytest.raises(InputError):
        ext_mul(Fraction(0), INF)
    assert ext_mul(Fraction(0), INF, ZERO) == 0
    assert is_inf(ext_mul(Fraction(0), INF, INFM))
    assert is_inf(ext_mul(INF, Fraction(2)))
    with pytest.raises(InputError):
        ext_mul(Fraction(-1), INF)


def test_ext_prod_closed_form_matches_pairwise_fold():
    vals = [Fraction(0), INF, Fraction(3), Fraction(0)]
    for mode in (ZERO, INFM):
        folded = vals[0]
        for v in vals[1:]:
            folded = ext_mul(folded, v, mode)
        assert ext_prod(vals, mode) == folded
    assert ext_prod([Fraction(2), Fraction(3)]) == 6
    assert is_inf(ext_prod([Fraction(2), INF]))
    with pytest.raises(InputError):
        ext_prod([Fraction(0), INF])


def test_ext_pow_conventions():
    assert ext_pow(Fraction(2, 3), 2) == Fraction(4, 9)
    assert ext_pow(Fraction(2), -2) == Fraction(1, 4)
    assert is_inf(ext_pow(Fraction(0), -1))
    assert ext_pow(INF, -3) == 0
    assert is_inf(ext_pow(INF, 2))
    assert ext_pow(Fraction(0), 3) == 0
    with pytest.raises(InputError):
        ext_pow(Fraction(2), Fraction(1, 2))


def test_parse_rational():
    assert parse_rational("1/1000") == Fraction(1, 1000)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(7) == 7
    with pytest.raises(InputError):
        parse_rational("not-a-number")


def test_scalar_json_round_trip():
    for val in (Fraction(3, 7), Fraction(-2), Fraction(0), INF):
        assert scalar_from_json(scalar_to_json(val)) == val
    assert scalar_from_json(5) == 5
    with pytest.raises(InputError) as err:
        scalar_from_json({"num": 1, "den": 0}, "/x")
    assert "/x/den" in str(err.value)
    with pytest.raises(InputError):
        scalar_from_json({"num": 1, "bogus": 2}, "/x")
    with pytest.raises(InputError):
        scalar_from_json("infty")


@given(st.fractions(), st.fractions(), st.fractions())
def test_ext_sum_matches_plain_sum_on_finite(a, b, c):
    assert ext_sum([a, b, c]) == a + b + c


@given(st.lists(st.fractions(min_value=0, max_value=9), min_size=1, max_size=5),
       st.booleans())
def test_ext_prod_on_finite_matches_plain_product(vals, use_zero_mode):
    mode = ZERO if use_zero_mode else INFM
    expected = Fraction(1)
    for v in vals:
        expected *= v
    assert ext_prod(vals, mode) == expected


def test_as_scalar_rejects_floats():
    with pytest.raises(InputError):
        as_scalar(0.5)
