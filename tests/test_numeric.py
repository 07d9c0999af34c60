import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taxisect.numeric import RationalParseError, as_rational, is_digit_limit, parse_rational, ratio_text

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


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() converts any number of digits")
@pytest.mark.parametrize("form", ["{}", "-{}", "{}/3", "3/{}", "1.{}"])
def test_parse_rational_refuses_an_integer_past_the_int_limit(form):
    """Without echoing the literal; an integer at the limit parses."""
    assert parse_rational("7" * INT_DIGITS) == int("7" * INT_DIGITS)
    text = form.format("7" * (INT_DIGITS + 1))
    with pytest.raises(RationalParseError) as err:
        parse_rational(text)
    assert str(err.value) == f"rational literal has an integer of more than {INT_DIGITS} digits"


# The literal grammar as first written, two patterns and Fraction's own
# string parser, kept to check the one-pattern int parser against.
_REFERENCE_FRACTION_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_REFERENCE_DECIMAL_RE = re.compile(r"^[+-]?\d+\.\d+$")


def reference_parse_rational(text: str) -> Fraction:
    stripped = text.strip()
    if _REFERENCE_FRACTION_RE.match(stripped) or _REFERENCE_DECIMAL_RE.match(stripped):
        return Fraction(stripped)
    raise RationalParseError(f"invalid rational literal: {text!r}")


def parse_outcome(parse, text: str):
    try:
        value = parse(text)
    except (RationalParseError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


_LITERAL_PIECES = st.sampled_from([
    "0", "1", "7", "00", "12", "305", "+", "-", "/", ".", "_", " ", "\t", "\n", "\u00a0", "e", "1/0", "0/0",
    "\u0663", "\u0660", "\U0001d7d5", "\uff19", "\u00b2",
])


@pytest.mark.parametrize("text", [
    "1/0", "-1/0", "0/0", " +3/6 ", "1_000", "1_0/2", "1/2_0", "\u0663.\u0665", "-0.0", "007", "+0.50",
    "\u00a03/4\n", "-\uff19/\u0663", "\u00b2", "1/-2", "+-1", "1.5/2",
])
def test_parse_rational_matches_the_reference_on_examples(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(reference_parse_rational, text)


@given(st.lists(_LITERAL_PIECES, max_size=8).map("".join))
def test_parse_rational_matches_the_reference(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(reference_parse_rational, text)


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


# Numerators and denominators from small to about 600 bits, with zero, one
# and denominators both below and above the numerator's size.
wide_ints = st.one_of(
    st.integers(-10, 10),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**600), 2**600),
)
wide_denominators = st.one_of(
    st.just(1),
    st.integers(1, 12),
    st.integers(1, 2**64),
    st.integers(2**500, 2**600),
)


@settings(max_examples=500)
@given(wide_ints, wide_denominators, st.integers(1, 2**40))
def test_ratio_text_prints_what_fraction_prints(n, d, k):
    """Also over a common factor k, and when d divides n."""
    assert ratio_text(n, d) == str(Fraction(n, d))
    assert ratio_text(n * k, d * k) == str(Fraction(n, d))
    assert ratio_text(n * d, d) == str(n)


@pytest.mark.skipif(not INT_DIGITS, reason="str() converts any number of digits")
@pytest.mark.parametrize(
    "ratio",
    [lambda big: (big, 3), lambda big: (-big, 7), lambda big: (3, big + 1), lambda big: (6 * big, 2)],
    ids=["numerator", "negative", "denominator", "reduced"],
)
def test_ratio_text_refuses_past_the_int_limit_as_fraction_does(ratio):
    """An integer in lowest terms one digit past the limit; at the limit,
    both print."""
    for big, past in ((10**INT_DIGITS, True), (10 ** (INT_DIGITS - 1), False)):
        n, d = ratio(big)
        if not past:
            assert ratio_text(n, d) == str(Fraction(n, d))
            continue
        for text in (lambda: ratio_text(n, d), lambda: str(Fraction(n, d))):
            with pytest.raises(ValueError) as err:
                text()
            assert is_digit_limit(err.value)
