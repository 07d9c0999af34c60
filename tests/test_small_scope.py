"""Every construction on a small integer grid, each held to its reference.

Random inputs reach wide rationals but seldom the small cases, where most
edge and corner coincidences live.  These loops try them all: every segment
n-section between two points of [-2, 2]^2, and every angle sectioning at the
origin between two directions of [-3, 3]^2.
"""

from fractions import Fraction as F
from itertools import product

import pytest

from taxisect.angles import Angle
from taxisect.constructions import ConstructionError, VerificationReport, nsect_segment, section_angle, verify_trace
from taxisect.kernel import Direction, Point
from test_angles import _reference_param, reference_param_to_point
from test_constructions import parametric

ORIGIN = Point(0, 0)


def test_every_nsect_on_the_grid_verifies_and_lands_at_the_reference():
    grid = [Point(x, y) for x, y in product(range(-2, 3), repeat=2)]
    built = 0
    for a, b, n in product(grid, grid, range(2, 7)):
        if a == b:
            continue
        c, trace = nsect_segment(a, b, n)
        assert verify_trace(trace) == VerificationReport(True, len(trace.steps))
        assert c == parametric(a, b, n)
        built += 1
    assert built == 3000


def test_every_angle_on_the_grid_sections_at_the_reference():
    """Ray k sits at k/n of the non-reflex sweep, which for a straight
    angle starts at side1, and every chord mark is where its ray crosses
    the unit circle."""
    sides = [Direction(x, y) for x, y in product(range(-3, 4), repeat=2) if (x, y) != (0, 0)]
    sectioned = chords = 0
    for d1, d2, n in product(sides, sides, range(2, 6)):
        t1, t2 = _reference_param(d1), _reference_param(d2)
        turn = (t2 - t1) % 8
        if turn == 0:
            with pytest.raises(ConstructionError):
                section_angle(Angle(ORIGIN, d1, d2), n)
            continue
        start, sweep = (t1, turn) if turn <= 4 else (t2, 8 - turn)
        params = [(start + sweep * F(k, n)) % 8 for k in range(1, n)]
        rays, trace = section_angle(Angle(ORIGIN, d1, d2), n)
        assert [ray.origin for ray in rays] == [ORIGIN] * (n - 1)
        assert [_reference_param(ray.direction) for ray in rays] == params
        sectioned += 1
        if trace is None:
            continue
        assert verify_trace(trace) == VerificationReport(True, len(trace.steps))
        assert list(trace.marked_points()) == [reference_param_to_point(t) for t in params]
        chords += 1
    assert (sectioned, chords) == (8832, 3072)
