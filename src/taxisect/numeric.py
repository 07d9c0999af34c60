"""Exact rational scalars shared by every geometry module.

All kernel arithmetic is exact: values are arbitrary-precision rationals,
the standard library ``fractions.Fraction`` at the API, and floating point
never enters a computation.  The kernel stores each point, direction and
line in an int form, with a positive denominator and no common factor, and
computes on those ints, so a Fraction is built only at the API edge: for a
coordinate or component read back, a distance or a radius.
This module defines the accepted literal grammar ("p/q", a plain integer,
or a decimal, which converts exactly), in one pattern that the script
front end and the CLI both parse with, and exact conversion to Fraction:
the Fraction is built from the literal's ints, not by parsing the text
again.  Values are written back as ``str(Fraction)`` writes them: "p/q",
or "p" for an integer.  ``ratio_text`` writes that text straight from a
numerator and a denominator, so a value held in an int form is printed
without building a Fraction.  Both ways go through CPython's limit on
int-string conversion, ``sys.get_int_max_str_digits()``, so an exact result
past it cannot be printed, and the CLI and the script front end report that
as an error.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

# "p", "p/q" or "p.f": a signed integer p, then a denominator q or digits f.
_LITERAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+)|\.(\d+))?")


class RationalParseError(ValueError):
    """Text does not match the accepted rational grammar."""


def parse_rational(text: str) -> Fraction:
    """Parse exact rational text: "p/q", a plain integer, or a decimal.

    Decimal literals convert exactly ("0.25" -> 1/4); no binary float is
    involved.  A zero denominator raises :class:`ZeroDivisionError` rather
    than a parse error: the text is well-formed but names no number.
    """
    match = _LITERAL_RE.fullmatch(text.strip())
    if match is None:
        raise RationalParseError(f"invalid rational literal: {text!r}")
    whole, denominator, digits = match.groups()
    try:
        if denominator is not None:
            return Fraction(int(whole), int(denominator))
        if digits is not None:
            # "-0.5" is -05 tenths: the sign stays with the digits.
            return Fraction(int(whole + digits), 10 ** len(digits))
        return Fraction(int(whole))
    except ValueError:  # int() converts at most sys.get_int_max_str_digits() digits
        raise RationalParseError(too_many_digits("rational literal")) from None


def ratio_text(n: int, d: int) -> str:
    """The text of n/d, for d > 0, as ``str(Fraction(n, d))`` prints it: "p/q"
    in lowest terms, or "p" when d divides n.  Raises the same ValueError
    past the int-string limit."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def too_many_digits(what: str) -> str:
    """The message for a number whose integer is past CPython's limit on
    int-string conversion: such a value can be neither read nor printed."""
    return f"{what} has an integer of more than {sys.get_int_max_str_digits()} digits"


def is_digit_limit(exc: ValueError) -> bool:
    """Whether ``exc`` is CPython's refusal to convert an int past that
    limit to or from a string."""
    return "integer string conversion" in str(exc)


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational, rejecting floats outright."""
    if isinstance(value, bool):
        raise TypeError("cannot interpret bool as a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a rational exactly")
