"""Angle measure in t-radians on the taxicab unit circle.

An angle of one t-radian subtends an arc of taxicab length 1 on the unit
circle about its vertex, so a full turn measures 8 (the unit circle's
taxicab circumference) and a straight angle measures 4.  Directions are
located on the unit circle by an arc-length parameter t in [0, 8), measured
counterclockwise from the east vertex (1, 0).  On the upper half of the
diamond the parameter is t = 2 - 2x and on the lower half t = 6 + 2x, both
linear in x, which keeps every conversion exact; ``_param_ints`` gives t
as a ratio of ints, which the sectioning code computes on.

Angles here are undirected: measures live in [0, 4] and a reflex measure is
never produced.  The sectioning code sweeps the shorter way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import Direction, GeometryError, Point


@dataclass(frozen=True)
class Angle:
    vertex: Point
    side1: Direction
    side2: Direction

    def __post_init__(self) -> None:
        if not (isinstance(self.vertex, Point) and isinstance(self.side1, Direction)
                and isinstance(self.side2, Direction)):
            raise GeometryError("an angle needs a point vertex and two directions")


def _param_ints(d: Direction) -> tuple[int, int]:
    """The arc parameter t = T/L of d, for (X, Y, D) its int form and L = |X| + |Y|."""
    x, y, _ = d._ints
    length = abs(x) + abs(y)
    if y >= 0:
        return 2 * (length - x), length  # t = 2 - 2x
    return 2 * (3 * length + x), length  # t = 6 + 2x


def direction_to_param(d: Direction) -> Fraction:
    """Arc parameter in [0, 8) of the unit-circle point with direction d."""
    return Fraction(*_param_ints(d))


def param_to_ints(n: int, d: int) -> tuple[int, int, int]:
    """The unit-circle point at arc parameter t = n/d, 0 <= n < 8d, as
    ints (x, y, 2d): both coordinates over 2d.  The inverse of
    :func:`direction_to_param` up to direction scaling."""
    den = 2 * d
    if n <= 4 * d:
        x = den - n  # x = 1 - t/2
        return x, den - abs(x), den
    x = n - 6 * d  # x = (t - 6)/2
    return x, abs(x) - den, den


def _sweep_ints(d1: Direction, d2: Direction) -> tuple[int, int, int, bool]:
    """The non-reflex sweep between d1 and d2 as (start, sweep, D, swapped):
    counterclockwise from t = start/D through sweep/D <= 4, starting at d2
    when swapped.  A straight angle starts at d1."""
    (t1, l1), (t2, l2) = _param_ints(d1), _param_ints(d2)
    den = l1 * l2
    start, turn = t1 * l2, 8 * den
    sweep = (t2 * l1 - start) % turn
    if 2 * sweep > turn:
        return (start + sweep) % turn, turn - sweep, den, True
    return start, sweep, den, False


def measure_between(d1: Direction, d2: Direction) -> Fraction:
    _, sweep, den, _ = _sweep_ints(d1, d2)
    return Fraction(sweep, den)


def measure_angle(angle: Angle) -> Fraction:
    """Undirected t-radian measure, in [0, 4]."""
    return measure_between(angle.side1, angle.side2)
