"""Exact rational scalars shared by every geometry module.

All kernel arithmetic happens over arbitrary-precision rationals; floating
point never enters a computation.  ``Rational`` is the standard library
``fractions.Fraction``, which already maintains the invariants the kernel
relies on: positive denominators, lowest-terms storage, and a unique zero.
The kernel's hot paths compute on the integer numerators over a common
denominator and build a Fraction only for each value they return.
This module pins down the interchange text format ("p/q", with "/q" dropped
for integers) and exact conversion of decimal literals.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

_FRACTION_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?\d+\.\d+$")


class RationalParseError(ValueError):
    """Text does not match the accepted rational grammar."""


def parse_rational(text: str) -> Fraction:
    """Parse exact rational text: "p/q", a plain integer, or a decimal.

    Decimal literals convert exactly ("0.25" -> 1/4); no binary float is
    involved.  A zero denominator raises :class:`ZeroDivisionError` rather
    than a parse error: the text is well-formed but names no number.
    """
    stripped = text.strip()
    if _FRACTION_RE.match(stripped) or _DECIMAL_RE.match(stripped):
        return Fraction(stripped)
    raise RationalParseError(f"invalid rational literal: {text!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text form; inverse of :func:`parse_rational`."""
    return str(value)


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
