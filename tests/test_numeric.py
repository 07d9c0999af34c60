import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from taxisect.numeric import RationalParseError, as_rational, parse_rational

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def test_known_sums():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_zero_product_case():
    n, l = 3, 5
    assert (3 - n) * Fraction(l) == 0


def test_division_examples():
    l, n = Fraction(3), 4
    assert l / (n - 1) == 1


def test_comparisons():
    assert Fraction(1, 2) == Fraction(2, 4)
    assert Fraction(-1, 3) < 0
    assert Fraction(8, 7) > 1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/2", Fraction(1, 2)),
        ("-7/3", Fraction(-7, 3)),
        ("+4", Fraction(4)),
        ("4", Fraction(4)),
        ("0", Fraction(0)),
        ("0.25", Fraction(1, 4)),
        ("-0.5", Fraction(-1, 2)),
        ("  3/9 ", Fraction(1, 3)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1/", "/2", "1.5.2", "1e3", "1 / 2", "--3", ".5", "2.", "nan", "inf"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@given(rationals)
def test_format_parse_round_trip(r):
    assert parse_rational(str(r)) == r


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9).filter(lambda d: d != 0))
def test_canonical_form(num, den):
    r = Fraction(num, den)
    assert r.denominator > 0
    assert math.gcd(abs(r.numerator), r.denominator) == 1
    if r == 0:
        assert (r.numerator, r.denominator) == (0, 1)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals)
def test_order_consistent_with_arithmetic(a, b):
    if a < b:
        assert b - a > 0
    assert (a < b) == (not b <= a)


def test_as_rational_rejects_inexact_types():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    assert as_rational(3) == Fraction(3)
    assert as_rational("2/6") == Fraction(1, 3)
