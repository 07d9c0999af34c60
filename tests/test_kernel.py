import copy
import dataclasses
import pickle
import random
from decimal import Context, Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from taxisect.kernel import (
    CircleVertex,
    CoincidentLinesError,
    Direction,
    GeometryError,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    at_taxicab_distance,
    circle_point_toward,
    circle_vertex,
    euclidean_distance_squared,
    intersect_line_circle,
    intersect_lines,
    intersect_ray_circle,
    line_through,
    point_between,
    taxicab_distance,
)
from taxisect.angles import Angle
from taxisect.constructions import StepKind, TraceStep, nsect_segment, section_angle

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
points = st.builds(Point, rationals, rationals)
radii = st.fractions(min_value=F(1, 4), max_value=10, max_denominator=40)
directions = (
    st.tuples(rationals, rationals)
    .filter(lambda t: t != (0, 0))
    .map(lambda t: Direction(t[0], t[1]))
)


def pt(x, y) -> Point:
    return Point(F(x), F(y))


def along(p: Point, w: Direction, t=1) -> Point:
    """p + t*w in Fraction arithmetic: the reference the tests hold the
    kernel's int forms to."""
    return Point(p.x + t * w.dx, p.y + t * w.dy)


def line_from_slope(m, intercept) -> Line:
    """The line y = m*x + intercept."""
    return line_through(pt(0, intercept), Point(F(1), F(m) + F(intercept)))


def on_line(m: Line, p: Point) -> bool:
    return m.contains(p)


def slope(m: Line) -> F:
    """The slope -a/b of a line that is not vertical."""
    return -m.a / m.b


def points_of(result) -> tuple[Point, ...]:
    """The isolated crossings of an intersection result: none for an overlap."""
    return () if isinstance(result, Segment) else result


def outcome(result) -> str:
    """Which of the four intersection cases a result is."""
    if isinstance(result, Segment):
        return "overlap"
    return ("empty", "one point", "two points")[len(result)]


# ---------------------------------------------------------------- distances


def test_distance_flat_segment():
    assert taxicab_distance(pt(0, 0), pt(4, 0)) == 4
    assert euclidean_distance_squared(pt(0, 0), pt(4, 0)) == 16


def test_distance_identity():
    assert taxicab_distance(pt(0, 0), pt(0, 0)) == 0
    assert euclidean_distance_squared(pt(0, 0), pt(0, 0)) == 0


def test_distance_diagonal_segment():
    """Same taxicab length as the flat segment, half the squared Euclidean."""
    assert taxicab_distance(pt(0, 0), pt(2, 2)) == 4
    assert euclidean_distance_squared(pt(0, 0), pt(2, 2)) == 8


@given(points, points)
def test_metric_symmetry_and_positivity(p, q):
    d = taxicab_distance(p, q)
    assert d == taxicab_distance(q, p)
    assert d >= 0
    assert (d == 0) == (p == q)


@given(points, points, points)
def test_triangle_inequality(p, q, r):
    assert taxicab_distance(p, r) <= taxicab_distance(p, q) + taxicab_distance(q, r)


@given(points, points)
def test_euclidean_taxicab_sandwich(p, q):
    dt2 = taxicab_distance(p, q) ** 2
    de2 = euclidean_distance_squared(p, q)
    assert de2 <= dt2 <= 2 * de2
    dx, dy = abs(q.x - p.x), abs(q.y - p.y)
    assert (dt2 == 2 * de2) == (dx == dy)
    assert (de2 == dt2) == (dx == 0 or dy == 0)


# ------------------------------------------------------------------- shapes


def test_direction_must_be_nonzero():
    with pytest.raises(GeometryError):
        Direction(F(0), F(0))


def test_segment_must_be_nondegenerate():
    with pytest.raises(GeometryError):
        Segment(pt(1, 1), pt(1, 1))


def test_circle_radius_must_be_positive():
    with pytest.raises(GeometryError):
        TaxicabCircle(pt(0, 0), F(0))
    with pytest.raises(GeometryError):
        TaxicabCircle(pt(0, 0), F(-1))


@pytest.mark.parametrize("center", ["foo", (0, 0), None, Direction(F(1), F(0))])
def test_circle_center_must_be_a_point(center):
    with pytest.raises(GeometryError, match="center must be a point"):
        TaxicabCircle(center, F(1))


@pytest.mark.parametrize("p, q", [(0.5, 1.5), (pt(0, 0), (1, 1)), ((0, 0), pt(1, 1)), (pt(0, 0), None)])
def test_segment_endpoints_must_be_points(p, q):
    with pytest.raises(GeometryError, match="endpoints must be points"):
        Segment(p, q)


@pytest.mark.parametrize(
    "origin, direction",
    [((0.5, 0), Direction(F(1), F(0))), (pt(0, 0), (1, 0)), (pt(0, 0), pt(1, 0)), (None, Direction(F(1), F(0)))],
)
def test_ray_needs_a_point_origin_and_a_direction(origin, direction):
    with pytest.raises(GeometryError, match="point origin and a direction"):
        Ray(origin, direction)


# The constructors coerce exactly what ``as_rational`` accepts, and keep a
# Fraction as it is.
_BUILDERS = {
    "point-x": lambda v: Point(v, F(1)).x,
    "point-y": lambda v: Point(F(1), v).y,
    "direction-dx": lambda v: Direction(v, F(1)).dx,
    "direction-dy": lambda v: Direction(F(1), v).dy,
    "line-b": lambda v: Line(F(1), v, F(1)).b,
    "line-c": lambda v: Line(F(0), F(1), v).c,
    "circle-radius": lambda v: TaxicabCircle(pt(0, 0), v).radius,
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
@pytest.mark.parametrize(
    "value, want", [(3, F(3)), ("7/2", F(7, 2)), ("0.25", F(1, 4)), (F(2, 3), F(2, 3))]
)
def test_constructors_coerce_int_and_str_to_fraction(build, value, want):
    got = build(value)
    assert type(got) is F
    assert got == want


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
@pytest.mark.parametrize("value", [True, False, 1.0, 0.5])
def test_constructors_reject_bool_and_float(build, value):
    with pytest.raises(TypeError):
        build(value)


def test_line_coerces_every_coefficient_before_canonicalising():
    for line in (Line(3, "0", "6/1"), Line("3", 0, 6), Line(F(3), F(0), 6)):
        assert line == Line(F(1), F(0), F(2))
        assert all(type(v) is F for v in (line.a, line.b, line.c))


@pytest.mark.parametrize("value", [True, 1.0])
def test_line_rejects_bool_and_float_in_any_coefficient(value):
    for coefficients in ((value, F(1), F(1)), (F(1), value, F(1)), (F(1), F(1), value)):
        with pytest.raises(TypeError):
            Line(*coefficients)


# -------------------------------------------------------------------- lines


def test_line_through_examples():
    m = line_through(pt(0, -2), pt(1, 3))
    assert slope(m) == 5
    assert on_line(m, pt(0, -2)) and on_line(m, pt(1, 3))

    diagonal = line_through(pt(0, 0), pt(1, 1))
    assert slope(diagonal) == 1
    assert on_line(diagonal, pt(F(1, 2), F(1, 2)))

    # n = 3, l = 1: through ((3-n)l, (1-n)l) and (l, l)
    hook = line_through(pt(0, -2), pt(1, 1))
    assert slope(hook) == 3
    assert on_line(hook, pt(F(2, 3), F(0)))


def test_line_through_coincident_points():
    with pytest.raises(GeometryError):
        line_through(pt(1, 2), pt(1, 2))


def test_line_canonical_scale():
    assert Line(F(2), F(2), F(4)) == Line(F(1), F(1), F(2))
    assert Line(F(0), F(-3), F(6)) == Line(F(0), F(1), F(-2))
    assert line_through(pt(0, 0), pt(2, 2)) == line_through(pt(-1, -1), pt(5, 5))


@given(points, points)
def test_line_through_contains_both(p, q):
    if p == q:
        return
    m = line_through(p, q)
    assert on_line(m, p) and on_line(m, q)


def test_intersect_lines_single_point():
    got = intersect_lines(line_from_slope(3, -2), line_from_slope(-1, 0))
    assert got == (pt(F(1, 2), F(-1, 2)),)


def test_intersect_lines_parallel():
    assert intersect_lines(line_from_slope(1, 0), line_from_slope(1, 1)) == ()


def test_intersect_lines_proof_case():
    # y = (1-2n)x + 2l at n=3, l=1 against y = x
    got = intersect_lines(line_from_slope(-5, 2), line_from_slope(1, 0))
    assert got == (pt(F(1, 3), F(1, 3)),)


def test_intersect_lines_coincident_is_distinct_error():
    m = line_from_slope(2, 1)
    with pytest.raises(CoincidentLinesError):
        intersect_lines(m, line_through(pt(1, 3), pt(2, 5)))


@given(points, points, points, points)
def test_intersect_lines_point_is_on_both(a, b, c, d):
    if a == b or c == d:
        return
    m, n = line_through(a, b), line_through(c, d)
    try:
        got = intersect_lines(m, n)
    except CoincidentLinesError:
        assert m == n
        return
    for p in points_of(got):
        assert on_line(m, p) and on_line(n, p)


# ------------------------------------------------------------ line x circle


def test_line_circle_two_points_ordered():
    got = intersect_line_circle(line_from_slope(0, 0), TaxicabCircle(pt(0, 0), F(2)))
    assert got == (pt(-2, 0), pt(2, 0))


def test_line_circle_edge_overlap():
    circle = TaxicabCircle(pt(0, 0), F(2))
    got = intersect_line_circle(line_from_slope(1, -2), circle)
    assert isinstance(got, Segment)
    ends = {got.p, got.q}
    assert ends == {pt(0, -2), pt(2, 0)}
    for e in ends:
        assert _reference_point_on_circle(circle, e)


def test_line_circle_proof_point():
    got = intersect_line_circle(line_from_slope(3, -2), TaxicabCircle(pt(1, 1), F(2)))
    assert pt(F(1, 2), F(-1, 2)) in points_of(got)


def test_line_circle_vertex_touch():
    got = intersect_line_circle(line_from_slope(0, 2), TaxicabCircle(pt(0, 0), F(2)))
    assert got == (pt(0, 2),)


def test_line_circle_miss():
    got = intersect_line_circle(line_from_slope(0, 3), TaxicabCircle(pt(0, 0), F(2)))
    assert got == ()


def test_line_circle_two_points_lexicographic():
    circle = TaxicabCircle(pt(0, 0), F(2))
    got = intersect_line_circle(line_through(pt(0, -2), pt(0, 2)), circle)
    assert got == (pt(0, -2), pt(0, 2))
    got = intersect_line_circle(line_from_slope(3, -2), TaxicabCircle(pt(1, 1), F(2)))
    assert outcome(got) == "two points"
    first, second = got
    assert (first.x, first.y) < (second.x, second.y)


def test_slope_one_sweep_taxonomy():
    """A slope-1 line against a fixed diamond: miss, cross, or full edge."""
    circle = TaxicabCircle(pt(0, 0), F(2))
    seen = set()
    for k in range(-28, 29):
        c = F(k, 8)
        got = intersect_line_circle(line_from_slope(1, c), circle)
        if abs(c) > 2:
            assert got == ()
        elif abs(c) == 2:
            assert isinstance(got, Segment)
        else:
            assert outcome(got) == "two points"
        seen.add(outcome(got))
    assert seen == {"empty", "overlap", "two points"}


@given(points, points, points, radii)
def test_line_circle_points_on_both_loci(a, b, center, radius):
    if a == b:
        return
    m = line_through(a, b)
    circle = TaxicabCircle(center, radius)
    got = intersect_line_circle(m, circle)
    for p in points_of(got):
        assert on_line(m, p)
        assert _reference_point_on_circle(circle, p)
    # Crossings are distinct, in strictly increasing (x, y) order.
    keys = [(p.x, p.y) for p in points_of(got)]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    if isinstance(got, Segment):
        corners = {circle_vertex(circle, which) for which in CircleVertex}
        assert got.p != got.q
        for e in (got.p, got.q):
            assert e in corners
            assert on_line(m, e)
            assert _reference_point_on_circle(circle, e)


def _reference_line_contains(a: F, b: F, c: F, p: Point) -> bool:
    """Line membership in Fraction arithmetic: a*x + b*y == c."""
    return a * p.x + b * p.y == c


def _reference_circle_vertex(circle: TaxicabCircle, which: CircleVertex) -> Point:
    """A corner in Fraction arithmetic: the center moved by one radius."""
    ox, oy = {
        CircleVertex.NORTH: (0, 1),
        CircleVertex.SOUTH: (0, -1),
        CircleVertex.EAST: (1, 0),
        CircleVertex.WEST: (-1, 0),
    }[which]
    return Point(circle.center.x + ox * circle.radius, circle.center.y + oy * circle.radius)


def _reference_point_on_circle(circle: TaxicabCircle, p: Point) -> bool:
    return abs(p.x - circle.center.x) + abs(p.y - circle.center.y) == circle.radius


def _reference_segment_contains(p: Point, q: Point, x: Point) -> bool:
    """Segment membership in Fraction arithmetic: on the line through p and
    q, and inside the bounding box of p and q."""
    if not _reference_line_contains(*_reference_line_through(p, q), x):
        return False
    return min(p.x, q.x) <= x.x <= max(p.x, q.x) and min(p.y, q.y) <= x.y <= max(p.y, q.y)


def _reference_line_circle(line: Line, circle: TaxicabCircle):
    """The edge walk: build each edge of the diamond as a line through its
    corners, counterclockwise from east, intersect it with the query line and
    keep the hits that lie on the edge."""
    e, n, w, s = (
        _reference_circle_vertex(circle, CircleVertex.EAST),
        _reference_circle_vertex(circle, CircleVertex.NORTH),
        _reference_circle_vertex(circle, CircleVertex.WEST),
        _reference_circle_vertex(circle, CircleVertex.SOUTH),
    )
    found = []
    for start, end in ((e, n), (n, w), (w, s), (s, e)):
        edge_line = line_through(start, end)
        if edge_line == line:
            return Segment(start, end)
        for hit in intersect_lines(line, edge_line):
            if _reference_segment_contains(start, end, hit) and hit not in found:
                found.append(hit)
    found.sort(key=lambda p: (p.x, p.y))
    return tuple(found)


@st.composite
def lines_and_circles(draw):
    """A circle and a line that is random, or through a corner, or parallel
    to an edge at offset -1, 0 or +1, or axis-parallel through a corner or
    the center, or through the center."""
    center = draw(points)
    circle = TaxicabCircle(center, draw(radii))
    corner = circle_vertex(circle, draw(st.sampled_from(list(CircleVertex))))
    kind = draw(st.sampled_from(["random", "corner", "edge", "axis", "center"]))
    if kind == "random":
        p, q = draw(points), draw(points)
        assume(p != q)
        return line_through(p, q), circle
    if kind == "edge":
        su, sv = draw(st.sampled_from([(1, 1), (-1, 1), (-1, -1), (1, -1)]))
        offset = draw(st.sampled_from([-1, 0, 1]))
        return Line(su, sv, su * center.x + sv * center.y + circle.radius + offset), circle
    anchor = center if kind == "center" else corner
    if kind == "axis":
        anchor = draw(st.sampled_from([corner, center]))
        step = draw(st.sampled_from([Direction(F(1), F(0)), Direction(F(0), F(1))]))
    else:
        step = draw(directions)
    return line_through(anchor, along(anchor, step)), circle


@settings(max_examples=400)
@given(lines_and_circles())
def test_line_circle_matches_edge_walk(case):
    line, circle = case
    got = intersect_line_circle(line, circle)
    want = _reference_line_circle(line, circle)
    assert type(got) is type(want)
    assert got == want


@given(points, points, points, st.fractions(min_value=-1, max_value=2, max_denominator=20))
def test_segment_contains_matches_line_and_box(p, q, x, t):
    assume(p != q)
    along = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    for candidate in (x, along, p, q):
        assert point_between(p, q, candidate) == _reference_segment_contains(p, q, candidate)


# ------------------------------------------- integer kernel vs Fraction formulas

# Distinct primes, so coordinates drawn with them have coprime denominators;
# all but the small ones have 127 to 607 bits.
PRIME_DENOMINATORS = [1, 3, 7, 2**127 - 1, 2**255 - 19, 2**521 - 1, 2**607 - 1]
wide_rationals = st.one_of(
    st.just(F(0)),
    rationals,
    st.builds(F, st.integers(-(2**300), 2**300), st.sampled_from(PRIME_DENOMINATORS)),
    st.builds(F, st.integers(-(2**300), 2**300), st.integers(2**200, 2**260)),
)
wide_points = st.builds(Point, wide_rationals, wide_rationals)


@st.composite
def point_pairs(draw):
    """Two points, sharing the x or the y coordinate a third of the time each."""
    p, q = draw(wide_points), draw(wide_points)
    share = draw(st.sampled_from(["none", "x", "y"]))
    if share == "x":
        q = Point(p.x, q.y)
    elif share == "y":
        q = Point(q.x, p.y)
    return p, q


def _reference_canonical(a, b, c) -> tuple[F, F, F]:
    """Line canonicalisation in Fraction arithmetic: divide through by the
    first nonzero of (a, b)."""
    a, b, c = F(a), F(b), F(c)
    scale = a if a != 0 else b
    return a / scale, b / scale, c / scale


def _reference_line_through(p: Point, q: Point) -> tuple[F, F, F]:
    dx = q.x - p.x
    dy = q.y - p.y
    return _reference_canonical(dy, -dx, dy * p.x - dx * p.y)


def _reference_intersect_lines(m: Line, n: Line):
    if m == n:
        raise CoincidentLinesError("lines coincide; intersection is the whole line")
    det = m.a * n.b - n.a * m.b
    if det == 0:
        return ()
    x = (m.c * n.b - n.c * m.b) / det
    y = (m.a * n.c - n.a * m.c) / det
    return (Point(x, y),)


def _reference_taxicab_distance(p: Point, q: Point) -> F:
    return abs(q.x - p.x) + abs(q.y - p.y)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


def coefficients(m: Line) -> tuple[F, F, F]:
    return m.a, m.b, m.c


@settings(max_examples=300)
@given(point_pairs())
def test_line_through_matches_fraction_formula(pair):
    p, q = pair
    assume(p != q)
    assert_same(coefficients(line_through(p, q)), _reference_line_through(p, q))


@settings(max_examples=300)
@given(
    st.one_of(wide_rationals, st.integers(-5, 5)),
    st.one_of(wide_rationals, st.integers(-5, 5)),
    wide_rationals,
)
def test_line_canonical_form_matches_fraction_formula(a, b, c):
    if a == 0 and b == 0:
        with pytest.raises(GeometryError):
            Line(a, b, c)
        return
    assert_same(coefficients(Line(a, b, c)), _reference_canonical(a, b, c))
    # Negative scales, and the a = 0 form, on the same coefficients.
    assert_same(coefficients(Line(-a, -b, -c)), _reference_canonical(-a, -b, -c))
    if b != 0:
        assert_same(coefficients(Line(0, -b, c)), _reference_canonical(0, -b, c))


@settings(max_examples=300)
@given(
    st.one_of(wide_rationals, st.integers(-5, 5)),
    st.one_of(wide_rationals, st.integers(-5, 5)),
    wide_rationals,
    wide_rationals,
    wide_rationals,
)
def test_line_is_the_line_through_two_of_its_points(a, b, c, s, t):
    """A line stored as ints reads back the Fraction canonical form, prints
    the repr that form printed, and is the line through any two of its
    points."""
    assume((a != 0 or b != 0) and s != t)
    line = Line(a, b, c)
    want = _reference_canonical(a, b, c)
    assert_same(coefficients(line), want)
    assert repr(line) == "Line(a={!r}, b={!r}, c={!r})".format(*want)
    # Points at s and t along the direction (b, -a) from one point of the line.
    ra, rb, rc = want
    base = Point(rc / ra, F(0)) if ra else Point(F(0), rc / rb)
    p, q = (Point(base.x + rb * u, base.y - ra * u) for u in (s, t))
    through = line_through(p, q)
    assert through == line and hash(through) == hash(line)
    assert repr(through) == repr(line)


# A point as it was stored before its int form: two Fraction fields.  Its
# class is named Point, so its repr is the one a Point must print.
FractionPoint = dataclasses.make_dataclass("Point", [("x", F), ("y", F)], frozen=True)


exact_values = st.one_of(
    wide_rationals,
    st.integers(-(10**9), 10**9).map(F),
    st.builds(lambda n, k: F(n, 10**k), st.integers(-(10**9), 10**9), st.integers(0, 9)),
)


def spellings(value: F) -> list:
    """The ways of writing ``value`` that ``Point`` takes: a Fraction, "p/q"
    text, an int when it is one, decimal text when it has one."""
    out = [value, f"{value.numerator}/{value.denominator}"]
    if value.denominator == 1:
        out.append(value.numerator)
    places = next((k for k in range(10) if 10**k % value.denominator == 0), None)
    if places is not None:
        exact = Context(prec=1000)
        out.append(format(Decimal(int(value * 10**places)).scaleb(-places, exact), "f"))
    return out


@settings(max_examples=300)
@given(exact_values, exact_values, st.data())
def test_point_int_form_matches_two_fractions(xv, yv, data):
    """A point is stored as (X, Y, D) with D > 0 and gcd 1, reads back its
    coordinates, and compares, hashes and prints as a frozen dataclass of
    two Fractions does."""
    x_text, y_text = (data.draw(st.sampled_from(spellings(v))) for v in (xv, yv))
    p = Point(x_text, y_text)
    big_x, big_y, d = p._ints
    assert d > 0 and gcd(big_x, big_y, d) == 1
    assert type(p.x) is F and type(p.y) is F
    assert (p.x, p.y) == (xv, yv)
    want = FractionPoint(xv, yv)
    assert hash(p) == hash(want)
    assert repr(p) == repr(want)
    assert str(p) == f"({want.x}, {want.y})"
    # A second point, often at the same coordinates written another way.
    uv, vv = (data.draw(st.sampled_from([xv, yv]) | exact_values) for _ in range(2))
    q = Point(*(data.draw(st.sampled_from(spellings(v))) for v in (uv, vv)))
    assert (p == q) == (want == FractionPoint(uv, vv))
    for name in ("x", "y", "_ints"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
    inexact = data.draw(st.one_of(st.floats(allow_nan=False), st.booleans()))
    with pytest.raises(TypeError):
        Point(inexact, y_text) if data.draw(st.booleans()) else Point(x_text, inexact)


# A direction as it was stored before its int form: two Fraction fields.
FractionDirection = dataclasses.make_dataclass("Direction", [("dx", F), ("dy", F)], frozen=True)


@settings(max_examples=300)
@given(exact_values, exact_values, st.data())
def test_direction_int_form_matches_two_fractions(xv, yv, data):
    """A direction is stored as (X, Y, D) with D > 0 and gcd 1, as a point
    is, reads back its components, and compares, hashes and prints as a
    frozen dataclass of two Fractions does: equal only componentwise."""
    zero = (data.draw(st.sampled_from(spellings(F(0)))) for _ in range(2))
    with pytest.raises(GeometryError, match="^zero direction$"):
        Direction(*zero)
    assume(xv or yv)
    x_text, y_text = (data.draw(st.sampled_from(spellings(v))) for v in (xv, yv))
    w = Direction(x_text, y_text) if data.draw(st.booleans()) else Direction(dx=x_text, dy=y_text)
    big_x, big_y, d = w._ints
    assert d > 0 and gcd(big_x, big_y, d) == 1
    assert type(w.dx) is F and type(w.dy) is F
    assert (w.dx, w.dy) == (xv, yv)
    want = FractionDirection(xv, yv)
    assert hash(w) == hash(want)
    assert repr(w) == repr(want)
    assert str(w) == f"({want.dx}, {want.dy})"
    # A second direction: often the same one written another way, or a
    # positive multiple of it, which is a different direction.
    scale = data.draw(st.sampled_from([1, 2, F(1, 3)]))
    uv, vv = (data.draw(st.sampled_from([xv * scale, yv * scale]) | exact_values) for _ in range(2))
    assume(uv or vv)
    other = Direction(*(data.draw(st.sampled_from(spellings(v))) for v in (uv, vv)))
    assert (w == other) == (want == FractionDirection(uv, vv))
    for name in ("dx", "dy", "_ints"):
        with pytest.raises(AttributeError):
            setattr(w, name, getattr(w, name))
    inexact = data.draw(st.one_of(st.floats(allow_nan=False), st.booleans()))
    with pytest.raises(TypeError):
        Direction(inexact, y_text) if data.draw(st.booleans()) else Direction(x_text, inexact)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Point(F(1, 3), -2),
        lambda: Line(F(1, 2), 3, F(-5, 7)),
        lambda: TaxicabCircle(Point(F(-4, 9), 5), F(3, 4)),
        lambda: Direction(F(-3, 4), 2),
        lambda: Ray(Point(F(1, 3), -2), Direction(F(5, 6), F(-1, 4))),
        lambda: nsect_segment(Point(F(1, 3), -2), Point(5, F(7, 2)), 7)[1],
        lambda: section_angle(Angle(Point(0, 0), Direction(1, 0), Direction(1, 1)), 6)[1],
    ],
    ids=["point", "line", "circle", "direction", "ray", "nsect-trace", "chord-trace"],
)
def test_copy_and_pickle_keep_the_value(build):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


# A trace step as it was declared before it was slotted: a frozen dataclass
# of the same fields and defaults.  Its class is named TraceStep, so its
# repr is the one a step must print.
FrozenStep = dataclasses.make_dataclass(
    "TraceStep",
    [
        ("kind", StepKind),
        ("inputs", tuple),
        ("output", object),
        ("claims", tuple, dataclasses.field(default=())),
        ("label", object, dataclasses.field(default=None)),
        ("pick", object, dataclasses.field(default=None)),
        ("vertex", object, dataclasses.field(default=None)),
        ("radius", object, dataclasses.field(default=None)),
    ],
    frozen=True,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nsect_segment(Point(F(1, 3), -2), Point(5, F(7, 2)), 2)[1],
        lambda: section_angle(Angle(Point(0, 0), Direction(1, 0), Direction(1, 1)), 6)[1],
    ],
    ids=["nsect-trace", "chord-trace"],
)
def test_trace_step_keeps_the_frozen_record_contract(build):
    """A step is a slotted record, with no __dict__, that declares the
    fields and defaults of the frozen dataclass it was, and compares,
    hashes, prints and is replaced as that dataclass does."""
    fields = [(f.name, f.default) for f in dataclasses.fields(TraceStep)]
    assert fields == [(f.name, f.default) for f in dataclasses.fields(FrozenStep)]
    steps = build().steps
    again = build().steps
    twins = [FrozenStep(*(getattr(step, name) for name, _ in fields)) for step in steps]
    for step, twin, rebuilt in zip(steps, twins, again):
        assert not hasattr(step, "__dict__")
        assert repr(step) == repr(twin)
        assert hash(step) == hash(twin) == hash(rebuilt)
        assert step == rebuilt and step is not rebuilt
        assert [step == other for other in steps] == [twin == other for other in twins]
        relabelled = dataclasses.replace(step, label="Z")
        assert type(relabelled) is TraceStep and relabelled != step
        assert repr(relabelled) == repr(dataclasses.replace(twin, label="Z"))
        assert dataclasses.replace(relabelled, label=step.label) == step


@st.composite
def line_pairs(draw):
    """Two lines: through random points, parallel, or the same line."""
    p, q = draw(point_pairs())
    assume(p != q)
    m = line_through(p, q)
    kind = draw(st.sampled_from(["random", "parallel", "same"]))
    if kind == "random":
        r, s = draw(point_pairs())
        assume(r != s)
        return m, line_through(r, s)
    if kind == "parallel":
        return m, Line(-m.a, -m.b, draw(wide_rationals))
    return m, Line(m.a * 3, m.b * 3, m.c * 3)


@settings(max_examples=300)
@given(line_pairs())
def test_intersect_lines_matches_fraction_formula(pair):
    m, n = pair
    try:
        want = _reference_intersect_lines(m, n)
    except CoincidentLinesError:
        with pytest.raises(CoincidentLinesError):
            intersect_lines(m, n)
        return
    assert_same(intersect_lines(m, n), want)


@settings(max_examples=300)
@given(point_pairs())
def test_taxicab_distance_matches_fraction_formula(pair):
    p, q = pair
    assert_same(taxicab_distance(p, q), _reference_taxicab_distance(p, q))
    assert_same(taxicab_distance(q, p), _reference_taxicab_distance(q, p))


wide_radii = wide_rationals.filter(lambda r: r != 0).map(abs)
# Parameters along a line: anywhere, or between its two defining points.
wide_params = st.one_of(wide_rationals, st.fractions(min_value=0, max_value=1))


@settings(max_examples=300)
@given(point_pairs(), wide_points, wide_params)
def test_line_contains_matches_fraction_formula(pair, x, t):
    p, q = pair
    assume(p != q)
    along = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    m = line_through(p, q)
    for candidate in (x, p, q, along):
        assert m.contains(candidate) == _reference_line_contains(m.a, m.b, m.c, candidate)
    for on in (p, q, along):
        assert m.contains(on)


@settings(max_examples=300)
@given(point_pairs(), wide_points, wide_params)
def test_segment_contains_matches_fraction_formula(pair, x, t):
    p, q = pair
    assume(p != q)
    along = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    for candidate in (x, p, q, along):
        assert point_between(p, q, candidate) == _reference_segment_contains(p, q, candidate)
    assert point_between(p, q, p) and point_between(p, q, q)
    assert point_between(p, q, along) == (0 <= t <= 1)


@settings(max_examples=300)
@given(
    wide_points,
    wide_radii,
    wide_points,
    st.fractions(min_value=0, max_value=1),
    st.sampled_from([(1, 1), (-1, 1), (-1, -1), (1, -1)]),
)
def test_point_on_circle_matches_fraction_formula(center, radius, x, t, signs):
    """A point is on a circle when it is at the radius from the center:
    ``at_taxicab_distance`` against the Fraction formula."""
    circle = TaxicabCircle(center, radius)
    su, sv = signs
    on_edge = Point(center.x + su * t * radius, center.y + sv * (1 - t) * radius)
    corners = [_reference_circle_vertex(circle, which) for which in CircleVertex]
    for candidate in (x, center, on_edge, *corners):
        expected = _reference_point_on_circle(circle, candidate)
        assert at_taxicab_distance(center, candidate, radius) == expected
    for on in (on_edge, *corners):
        assert at_taxicab_distance(center, on, radius)


@settings(max_examples=300)
@given(wide_points, wide_radii)
def test_circle_vertex_matches_fraction_formula(center, radius):
    circle = TaxicabCircle(center, radius)
    for which in CircleVertex:
        assert_same(circle_vertex(circle, which), _reference_circle_vertex(circle, which))


def _harvested_line_circle_calls() -> list[tuple[Line, TaxicabCircle]]:
    """Every line-circle step of 110 segment n-sections (n = 2..12) and of
    60 angle sections at n = 16, with random rational inputs."""
    rng = random.Random(6)

    def rational() -> F:
        return F(rng.randint(-1000, 1000), rng.randint(1, 1000))

    traces = []
    for i in range(110):
        a, b = Point(rational(), rational()), Point(rational(), rational())
        if a != b:
            traces.append(nsect_segment(a, b, 2 + i % 11)[1])
    for i in range(60):
        # Two directions into the open first quadrant cross the same edge;
        # quarter-turns carry them to the other three edges.
        sides = [(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(2)]
        for _ in range(i % 4):
            sides = [(-dy, dx) for dx, dy in sides]
        (x1, y1), (x2, y2) = sides
        if x1 * y2 == x2 * y1:
            continue
        angle = Angle(Point(rational(), rational()), Direction(x1, y1), Direction(x2, y2))
        radius = abs(rational()) or F(1)
        traces.append(section_angle(angle, 16, radius)[1])
    calls = []
    for trace in traces:
        outputs = [step.output for step in trace.steps]
        calls.extend(
            (outputs[step.inputs[0]], outputs[step.inputs[1]])
            for step in trace.steps
            if step.kind is StepKind.INTERSECT_LINE_CIRCLE
        )
    return calls


def test_line_circle_matches_edge_walk_on_construction_calls():
    calls = _harvested_line_circle_calls()
    assert len(calls) >= 2000
    for line, circle in calls:
        assert_same(intersect_line_circle(line, circle), _reference_line_circle(line, circle))


# Any direction, axis-parallel ones, and those of slope +1 or -1, which run
# parallel to two of the diamond's edges.
wide_directions = (
    st.one_of(
        st.tuples(wide_rationals, wide_rationals),
        st.tuples(wide_rationals, st.just(F(0))),
        st.tuples(st.just(F(0)), wide_rationals),
        wide_rationals.map(lambda t: (t, t)),
        wide_rationals.map(lambda t: (t, -t)),
    )
    .filter(lambda t: t != (0, 0))
    .map(lambda t: Direction(*t))
)


@settings(max_examples=300)
@given(wide_points, wide_radii, wide_directions)
def test_line_through_center_crosses_toward_w_second_when_w_is_positive(center, radius, w):
    """The trace builder's pick rule: a line through the center along w
    crosses at c - s*w and c + s*w, s = r / |w|, in (x, y) order."""
    s = radius / (abs(w.dx) + abs(w.dy))
    behind, ahead = along(center, w, -s), along(center, w, s)
    want = (behind, ahead) if (w.dx, w.dy) > (0, 0) else (ahead, behind)
    got = intersect_line_circle(line_through(center, along(center, w)), TaxicabCircle(center, radius))
    assert_same(got, want)


def _reference_circle_point_toward(circle: TaxicabCircle, w: Direction) -> Point:
    return along(circle.center, w, circle.radius / (abs(w.dx) + abs(w.dy)))


@settings(max_examples=300)
@given(wide_points, wide_radii, wide_directions, st.integers(1, 9))
def test_circle_point_toward_matches_fraction_formula(center, radius, w, scale):
    circle = TaxicabCircle(center, radius)
    want = _reference_circle_point_toward(circle, w)
    assert_same(circle_point_toward(circle, w), want)
    # Only w's direction counts, not its length.
    assert_same(circle_point_toward(circle, Direction(w.dx * scale, w.dy * scale)), want)
    assert_same(circle_point_toward(circle, Direction(w.dx / scale, w.dy / scale)), want)
    # It is the crossing of the line along w that the solve picks for w.
    crossings = points_of(intersect_line_circle(line_through(center, along(center, w)), circle))
    assert_same(crossings[1 if (w.dx, w.dy) > (0, 0) else 0], want)



@settings(max_examples=300)
@given(point_pairs())
def test_euclidean_distance_squared_matches_fraction_formula(pair):
    p, q = pair
    want = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    assert_same(euclidean_distance_squared(p, q), want)
    assert_same(euclidean_distance_squared(q, p), want)


@settings(max_examples=300)
@given(wide_points, wide_directions, st.one_of(wide_params, st.integers(-5, 5)))
def test_ray_point_at_matches_fraction_formula(origin, w, t):
    ray = Ray(origin, w)
    assert_same(ray.point_at(t), along(origin, w, t))
    assert_same(ray.point_at(ray.param_of(along(origin, w, t))), along(origin, w, t))
    with pytest.raises(TypeError):
        ray.point_at(float(t))


_AXIS_VERTICES = {
    (1, 0): CircleVertex.EAST,
    (0, 1): CircleVertex.NORTH,
    (-1, 0): CircleVertex.WEST,
    (0, -1): CircleVertex.SOUTH,
}


@settings(max_examples=100)
@given(wide_points, wide_radii, wide_radii)
def test_circle_point_toward_an_axis_is_a_vertex(center, radius, length):
    circle = TaxicabCircle(center, radius)
    for (dx, dy), which in _AXIS_VERTICES.items():
        toward = Direction(dx * length, dy * length)
        assert_same(circle_point_toward(circle, toward), circle_vertex(circle, which))


def test_circle_point_toward_examples():
    circle = TaxicabCircle(pt(1, 1), F(2))
    assert circle_point_toward(circle, Direction(F(1), F(1))) == pt(2, 2)
    assert circle_point_toward(circle, Direction(F(-3), F(1))) == pt(F(-1, 2), F(3, 2))
    assert circle_point_toward(circle, Direction(F(0), F(-5))) == pt(1, -1)


# ------------------------------------------------------------- ray x circle


def test_ray_circle_extension_hit():
    ray = Ray(pt(0, 0), Direction(F(-1), F(-1)))
    got = intersect_ray_circle(ray, TaxicabCircle(pt(0, 0), F(2)))
    assert got == (pt(-1, -1),)


def test_ray_circle_two_hits_ordered_by_param():
    ray = Ray(pt(0, 0), Direction(F(1), F(0)))
    got = intersect_ray_circle(ray, TaxicabCircle(pt(5, 0), F(1)))
    assert got == (pt(4, 0), pt(6, 0))


def test_ray_circle_pointing_away():
    ray = Ray(pt(3, 3), Direction(F(1), F(1)))
    got = intersect_ray_circle(ray, TaxicabCircle(pt(0, 0), F(2)))
    assert got == ()


@pytest.mark.parametrize(
    "origin, want",
    [
        ((3, -1), Segment(pt(2, 0), pt(0, 2))),
        ((1, 1), Segment(pt(1, 1), pt(0, 2))),
        ((0, 2), (pt(0, 2),)),
        ((-1, 3), ()),
    ],
    ids=["whole-edge", "from-inside-the-edge", "from-its-end", "past-it"],
)
def test_ray_along_a_circle_edge(origin, want):
    """A ray up the line x + y = 2, which supports the circle's edge from
    (2, 0) to (0, 2): the part of the edge ahead of its origin."""
    ray = Ray(pt(*origin), Direction(F(-1), F(1)))
    assert intersect_ray_circle(ray, TaxicabCircle(pt(0, 0), F(2))) == want


@given(points, directions, points, radii)
def test_ray_circle_hits_are_forward_and_ordered(origin, direction, center, radius):
    ray = Ray(origin, direction)
    circle = TaxicabCircle(center, radius)
    got = intersect_ray_circle(ray, circle)
    hits = points_of(got)
    params = [ray.param_of(p) for p in hits]
    for p, t in zip(hits, params):
        assert t >= 0
        assert _reference_point_on_circle(circle, p)
        assert_on_ray(ray, p)
    assert params == sorted(params)
    if isinstance(got, Segment):
        for e in (got.p, got.q):
            assert_on_ray(ray, e)
            assert _reference_point_on_circle(circle, e)


def _reference_ray_circle(ray: Ray, circle: TaxicabCircle):
    """The edge walk on the ray's supporting line, in Fraction arithmetic,
    cut to the ray: the crossings at parameter t >= 0 in order of t, or an
    overlap clipped at the origin, which leaves a segment, its end, or
    nothing."""
    o, d = ray.origin, ray.direction
    whole = _reference_line_circle(Line(*_reference_line_through(o, along(o, d))), circle)

    def param(p: Point) -> F:
        return ((p.x - o.x) * d.dx + (p.y - o.y) * d.dy) / (d.dx**2 + d.dy**2)

    if isinstance(whole, Segment):
        (t0, p0), (t1, p1) = sorted(((param(e), e) for e in (whole.p, whole.q)), key=lambda te: te[0])
        if t1 < 0:
            return ()
        if t1 == 0:
            return (p1,)
        return Segment(o if t0 < 0 else p0, p1)
    return tuple(sorted((p for p in whole if param(p) >= 0), key=param))


@st.composite
def rays_and_circles(draw):
    """A ray along a line of ``lines_and_circles``, either way, from a point
    of that line: one drawn at random, a corner of the circle, or a
    crossing."""
    line, circle = draw(lines_and_circles())
    a, b, c = line.a, line.b, line.c
    s = draw(rationals)
    origins = [Point(s, (c - a * s) / b) if b else Point(c / a, s)]
    corners = [circle_vertex(circle, which) for which in CircleVertex]
    origins += [corner for corner in corners if on_line(line, corner)]
    origins += points_of(_reference_line_circle(line, circle))
    origin = draw(st.sampled_from(origins))
    scale = draw(st.sampled_from([1, -1])) * draw(radii)
    return Ray(origin, Direction(scale * b, -scale * a)), circle


@settings(max_examples=400)
@given(rays_and_circles())
def test_ray_circle_matches_clipped_edge_walk(case):
    """No crossing ahead of the origin is dropped, and an overlap is cut at
    the origin."""
    ray, circle = case
    assert_same(intersect_ray_circle(ray, circle), _reference_ray_circle(ray, circle))


def assert_on_ray(ray: Ray, p: Point) -> None:
    """p is on the ray's supporting line and not behind its origin."""
    u, v = p.x - ray.origin.x, p.y - ray.origin.y
    d = ray.direction
    assert u * d.dy == v * d.dx
    assert u * d.dx + v * d.dy >= 0


# ------------------------------------------------------------------ circles


def test_circle_vertices():
    circle = TaxicabCircle(pt(0, 0), F(2))
    assert circle_vertex(circle, CircleVertex.NORTH) == pt(0, 2)
    assert circle_vertex(circle, CircleVertex.SOUTH) == pt(0, -2)
    assert circle_vertex(circle, CircleVertex.EAST) == pt(2, 0)
    assert circle_vertex(circle, CircleVertex.WEST) == pt(-2, 0)


def test_circle_vertex_chained_case():
    # center ((3-n)l, (3-n)l), radius 2l, South, with n=4, l=1
    circle = TaxicabCircle(pt(-1, -1), F(2))
    assert circle_vertex(circle, CircleVertex.SOUTH) == pt(-1, -3)


@given(points, radii)
def test_all_vertices_lie_on_circle(center, radius):
    circle = TaxicabCircle(center, radius)
    for which in CircleVertex:
        assert _reference_point_on_circle(circle, circle_vertex(circle, which))


def test_point_on_circle_examples():
    assert at_taxicab_distance(pt(0, 0), pt(1, 1), F(2))
    assert not at_taxicab_distance(pt(0, 0), pt(0, 0), F(2))
    assert at_taxicab_distance(pt(1, 1), pt(F(1, 2), F(-1, 2)), F(2))
