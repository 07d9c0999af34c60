from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taxisect.angles import (
    Angle,
    direction_to_param,
    measure_angle,
    measure_between,
    param_to_ints,
)
from taxisect.kernel import (
    CircleVertex,
    Direction,
    GeometryError,
    Point,
    TaxicabCircle,
    circle_vertex,
    taxicab_distance,
)
from taxisect.numeric import as_rational
from test_kernel import wide_directions

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=48)
directions = (
    st.tuples(rationals, rationals)
    .filter(lambda t: t != (0, 0))
    .map(lambda t: Direction(t[0], t[1]))
)
params = st.fractions(min_value=0, max_value=8, max_denominator=600).filter(lambda t: t < 8)
positive = st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100)

ORIGIN = Point(F(0), F(0))


def d(dx, dy) -> Direction:
    return Direction(F(dx), F(dy))


def unit_point(t) -> Point:
    """The unit-circle point at arc parameter t in [0, 8), from
    param_to_ints."""
    x, y, den = param_to_ints(*as_rational(t).as_integer_ratio())
    return Point(F(x, den), F(y, den))


def perimeter(circle: TaxicabCircle) -> F:
    """Taxicab length of the circle's boundary, vertex to vertex."""
    n, w, s, e = (circle_vertex(circle, CircleVertex(v)) for v in "NWSE")
    return sum(taxicab_distance(p, q) for p, q in ((e, n), (n, w), (w, s), (s, e)))


def test_constants():
    """A full turn measures 8 t-radians, the unit circle's perimeter, and a
    straight angle measures 4."""
    assert perimeter(TaxicabCircle(ORIGIN, F(1))) == 8
    # The counterclockwise sweep from east to south is 6, and the angle
    # between them is the 2 of the other way round.
    assert measure_angle(Angle(ORIGIN, d(1, 0), d(0, -1))) == 2
    assert measure_angle(Angle(ORIGIN, d(1, 0), d(-1, 0))) == 4


@pytest.mark.parametrize(
    "direction,param",
    [
        ((1, 0), 0),
        ((1, 1), 1),
        ((0, 1), 2),
        ((-1, 1), 3),
        ((-1, 0), 4),
        ((-1, -1), 5),
        ((0, -1), 6),
        ((1, -1), 7),
        ((3, 4), F(8, 7)),
        ((4, 3), F(6, 7)),
        ((2, 2), 1),
    ],
)
def test_direction_to_param(direction, param):
    assert direction_to_param(d(*direction)) == param


def test_param_from_arc_length():
    """The parameter of (3,4) equals the taxicab arc run from (1,0)."""
    t = direction_to_param(d(3, 4))
    unit_point = Point(F(3, 7), F(4, 7))
    assert t == taxicab_distance(Point(F(1), F(0)), unit_point) == F(8, 7)


@pytest.mark.parametrize(
    "t,point",
    [
        (0, (1, 0)),
        (1, (F(1, 2), F(1, 2))),
        (F(1, 2), (F(3, 4), F(1, 4))),
        (2, (0, 1)),
        (4, (-1, 0)),
        (6, (0, -1)),
        (F(15, 2), (F(3, 4), F(-1, 4))),
    ],
)
def test_param_to_point(t, point):
    assert unit_point(F(t)) == Point(F(point[0]), F(point[1]))


def reference_param_to_point(t) -> Point:
    """The unit-circle point at arc parameter t in [0, 8), in Fraction
    arithmetic: the reference for param_to_ints."""
    t = as_rational(t)
    if t <= 4:
        x = 1 - t / 2
        return Point(x, 1 - abs(x))
    x = (t - 6) / 2
    return Point(x, abs(x) - 1)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("t", [0, 2, 4, 6, 7, "0", "2", "4", "6", "15/2", "0.25", F(0), F(4), F(11, 3)])
def test_param_to_point_matches_reference_at_corners_and_on_every_input_type(t):
    assert_same(unit_point(t), reference_param_to_point(t))


# Parameters over denominators up to 2**200, anywhere in [0, 8).
wide_params = st.integers(1, 2**200).flatmap(lambda d: st.integers(0, 8 * d - 1).map(lambda n: F(n, d)))


@given(st.one_of(params, wide_params))
def test_param_to_point_matches_reference(t):
    assert_same(unit_point(t), reference_param_to_point(t))


@given(params)
def test_param_round_trip(t):
    p = unit_point(t)
    assert abs(p.x) + abs(p.y) == 1
    assert direction_to_param(Direction(p.x, p.y)) == t


@given(directions)
def test_param_in_range(direction):
    t = direction_to_param(direction)
    assert 0 <= t < 8


def test_measure_unit_angle():
    angle = Angle(ORIGIN, d(1, 0), d(1, 1))
    assert measure_angle(angle) == 1


def test_measure_straight_angle():
    assert measure_angle(Angle(ORIGIN, d(1, 0), d(-1, 0))) == 4
    assert measure_angle(Angle(ORIGIN, d(2, 5), d(-2, -5))) == 4


def test_measure_skew_angle():
    assert measure_angle(Angle(ORIGIN, d(1, 0), d(3, 4))) == F(8, 7)


def test_measure_degenerate():
    assert measure_angle(Angle(ORIGIN, d(2, 3), d(4, 6))) == 0


@pytest.mark.parametrize(
    "vertex, side1, side2",
    [(ORIGIN, (1, 0), d(1, 1)), (ORIGIN, d(1, 0), (1, 1)), ((0, 0), d(1, 0), d(1, 1)), (0.5, (1, 0), (0, 1))],
    ids=["tuple-side1", "tuple-side2", "tuple-vertex", "float-vertex"],
)
def test_angle_needs_a_point_vertex_and_two_directions(vertex, side1, side2):
    with pytest.raises(GeometryError, match="^an angle needs a point vertex and two directions$"):
        Angle(vertex, side1, side2)


@given(directions, directions)
def test_measure_range_and_symmetry(d1, d2):
    m = measure_between(d1, d2)
    assert 0 <= m <= 4
    assert m == measure_between(d2, d1)


def _reference_param(w: Direction) -> F:
    """Arc parameter of w in Fractions: t = 2 - 2x above the x axis and
    6 + 2x below it, for x = dx / (|dx| + |dy|)."""
    x = w.dx / (abs(w.dx) + abs(w.dy))
    return 2 - 2 * x if w.dy >= 0 else 6 + 2 * x


@settings(max_examples=300)
@given(wide_directions, wide_directions)
def test_measure_matches_fraction_reference(d1, d2):
    delta = abs(_reference_param(d1) - _reference_param(d2))
    assert measure_between(d1, d2) == min(delta, 8 - delta)


@given(directions, positive)
def test_measure_scale_invariance(d1, scale):
    d2 = d(1, 3)
    base = measure_between(d1, d2)
    assert measure_between(Direction(d1.dx * scale, d1.dy * scale), d2) == base
    assert measure_between(d1, Direction(d2.dx * scale, d2.dy * scale)) == base


DIHEDRAL = [
    lambda v: (v.dx, v.dy),
    lambda v: (-v.dy, v.dx),
    lambda v: (-v.dx, -v.dy),
    lambda v: (v.dy, -v.dx),
    lambda v: (v.dx, -v.dy),
    lambda v: (-v.dx, v.dy),
    lambda v: (v.dy, v.dx),
    lambda v: (-v.dy, -v.dx),
]


@given(directions, directions, st.integers(0, 7))
def test_measure_dihedral_invariance(d1, d2, i):
    """Quarter-turn rotations and axis flips preserve t-radian measure."""
    sym = DIHEDRAL[i]
    mapped1 = Direction(*[F(c) for c in sym(d1)])
    mapped2 = Direction(*[F(c) for c in sym(d2)])
    assert measure_between(mapped1, mapped2) == measure_between(d1, d2)


@given(params, st.fractions(min_value=0, max_value=4, max_denominator=64),
       st.fractions(min_value=0, max_value=4, max_denominator=64))
def test_measure_additivity(t, s1, s2):
    if s1 + s2 > 4 or s1 == 0 or s2 == 0:
        return
    r1 = unit_point(t)
    r2 = unit_point((t + s1) % 8)
    r3 = unit_point((t + s1 + s2) % 8)
    as_dir = lambda p: Direction(p.x, p.y)
    total = measure_between(as_dir(r1), as_dir(r3))
    assert total == measure_between(as_dir(r1), as_dir(r2)) + measure_between(
        as_dir(r2), as_dir(r3)
    )


def test_circumference_examples():
    assert perimeter(TaxicabCircle(ORIGIN, F(1))) == 8
    assert perimeter(TaxicabCircle(ORIGIN, F(1, 2))) == 4
    assert perimeter(TaxicabCircle(Point(F(2), F(-1, 3)), F(6))) == 48


def test_straight_angle_is_half_circumference():
    half = perimeter(TaxicabCircle(ORIGIN, F(1))) / 2
    assert measure_angle(Angle(ORIGIN, d(1, 0), d(-1, 0))) == half == 4
