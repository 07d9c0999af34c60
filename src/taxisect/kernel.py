"""Exact planar primitives for the taxicab plane.

Points, directions, lines, rays, segments, and taxicab circles over rational
coordinates, plus the distance and intersection operations everything else is
built from.  A taxicab circle of radius r about (cx, cy) is the locus
|x - cx| + |y - cy| = r: a square rotated 45 degrees whose edges have slope
+1 or -1.  Because of those straight edges a line can meet a circle in a full
segment, so the intersection result type enumerates that case explicitly
instead of treating it as an error.

A line meets the circle where it meets one of the four edges.  Shifted to
the center, (u, v) = (x - cx, y - cy), the edges are the lines
su*u + sv*v = r with signs (su, sv) in {+1, -1}, each cut off to its quadrant
su*u >= 0, sv*v >= 0, so ``intersect_line_circle`` solves the line against
each edge in closed form rather than building the edge lines.

Line canonicalisation, ``line_through``, ``intersect_lines``,
``intersect_line_circle`` and ``taxicab_distance`` compute in plain ints:
each line, circle or coordinate pair is taken over its common denominator,
and a ``Fraction`` is built only for each value returned.  So do the
incidence predicates ``Line.contains``, ``point_between`` (which
``Segment.contains`` uses), ``at_taxicab_distance`` and ``point_on_circle``,
which compare ints and build no ``Fraction`` at all, and ``circle_vertex``,
which builds one for the coordinate it moves.  ``circle_point_toward``
builds one per coordinate: it is the point c + w*r/|w| at which a line
through the center c along w crosses the circle in direction w, which the
trace builder records for each such crossing instead of solving the
line against the circle.

The predicates exist so that a trace step can be checked by its incidences
without solving it again; ``constructions._check_step`` is the one
definition of what each step kind checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .numeric import as_rational


_ZERO = Fraction(0)
_ONE = Fraction(1)


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class CoincidentLinesError(GeometryError):
    """Line-line intersection where both operands are the same line."""


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", as_rational(self.x))
        if type(self.y) is not Fraction:
            object.__setattr__(self, "y", as_rational(self.y))

    def __add__(self, move: Direction) -> Point:
        if not isinstance(move, Direction):
            return NotImplemented
        return Point(self.x + move.dx, self.y + move.dy)

    def __sub__(self, other: Point) -> Direction:
        if not isinstance(other, Point):
            return NotImplemented
        return Direction(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class Direction:
    """A nonzero displacement; two directions are equal only componentwise."""

    dx: Fraction
    dy: Fraction

    def __post_init__(self) -> None:
        if type(self.dx) is not Fraction:
            object.__setattr__(self, "dx", as_rational(self.dx))
        if type(self.dy) is not Fraction:
            object.__setattr__(self, "dy", as_rational(self.dy))
        if self.dx == 0 and self.dy == 0:
            raise GeometryError("zero direction")

    def scaled(self, factor: Fraction | int) -> Direction:
        return Direction(self.dx * factor, self.dy * factor)

    def taxicab_length(self) -> Fraction:
        return abs(self.dx) + abs(self.dy)

    def __str__(self) -> str:
        return f"({self.dx}, {self.dy})"


@dataclass(frozen=True)
class Line:
    """The locus a*x + b*y = c, stored in canonical form.

    Canonical means the first nonzero coefficient of (a, b) equals 1, so two
    Line values describe the same locus exactly when they compare equal.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        exact = type(a) is Fraction and type(b) is Fraction and type(c) is Fraction
        if not exact:
            a, b, c = as_rational(a), as_rational(b), as_rational(c)
        if a == 1 or (a == 0 and b == 1):  # already canonical
            if exact:
                return
        else:
            an, bn, cn, _ = _common3(a, b, c)
            scale = an or bn
            if not scale:
                raise GeometryError("line requires (a, b) != (0, 0)")
            a, b, c = Fraction(an, scale), Fraction(bn, scale), Fraction(cn, scale)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def contains(self, p: Point) -> bool:
        # a*x + b*y = c, with (a, b, c) over d and (x, y) over e.
        a, b, c, _ = _common3(self.a, self.b, self.c)
        x, y, e = _common2(p.x, p.y)
        return a * x + b * y == c * e

    def slope(self) -> Fraction | None:
        """Slope of the line, or None when vertical."""
        if self.b == 0:
            return None
        return -self.a / self.b

    def direction(self) -> Direction:
        return Direction(self.b, -self.a)

    def some_point(self) -> Point:
        if self.a != 0:
            return Point(self.c / self.a, Fraction(0))
        return Point(Fraction(0), self.c / self.b)


@dataclass(frozen=True)
class Ray:
    origin: Point
    direction: Direction

    def point_at(self, t: Fraction | int) -> Point:
        return Point(self.origin.x + self.direction.dx * t, self.origin.y + self.direction.dy * t)

    def param_of(self, p: Point) -> Fraction:
        """Parameter t with p == origin + t * direction; p must be on the
        supporting line."""
        if self.direction.dx != 0:
            return (p.x - self.origin.x) / self.direction.dx
        return (p.y - self.origin.y) / self.direction.dy

    def supporting_line(self) -> Line:
        return line_through(self.origin, self.point_at(1))

    def contains(self, p: Point) -> bool:
        dxp = p.x - self.origin.x
        dyp = p.y - self.origin.y
        if dxp * self.direction.dy != dyp * self.direction.dx:
            return False
        return self.param_of(p) >= 0


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise GeometryError("degenerate segment")

    def contains(self, x: Point) -> bool:
        return point_between(self.p, self.q, x)


@dataclass(frozen=True)
class TaxicabCircle:
    center: Point
    radius: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.center, Point):
            raise GeometryError("circle center must be a point")
        if type(self.radius) is not Fraction:
            object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius <= 0:
            raise GeometryError("circle radius must be positive")


class CircleVertex(Enum):
    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"


# Whether a corner moves the center's x (else its y), and which way.
_VERTEX_MOVES = {
    CircleVertex.NORTH: (False, 1),
    CircleVertex.SOUTH: (False, -1),
    CircleVertex.EAST: (True, 1),
    CircleVertex.WEST: (True, -1),
}


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class OnePoint:
    point: Point


@dataclass(frozen=True)
class TwoPoints:
    first: Point
    second: Point

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise GeometryError("TwoPoints requires distinct points")


@dataclass(frozen=True)
class OverlapSegment:
    segment: Segment


Intersection = Empty | OnePoint | TwoPoints | OverlapSegment


def points_of(result: Intersection) -> tuple[Point, ...]:
    """The isolated points of an intersection result, in its stored order."""
    if isinstance(result, OnePoint):
        return (result.point,)
    if isinstance(result, TwoPoints):
        return (result.first, result.second)
    return ()


def _common2(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(x*d, y*d, d) as ints, for d the least common denominator."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    den = lcm(xd, yd)
    return xn * (den // xd), yn * (den // yd), den


def _common3(x: Fraction, y: Fraction, z: Fraction) -> tuple[int, int, int, int]:
    """(x*d, y*d, z*d, d) as ints, for d the least common denominator."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    den = lcm(xd, yd, zd)
    return xn * (den // xd), yn * (den // yd), zn * (den // zd), den


def taxicab_distance(p: Point, q: Point) -> Fraction:
    px, qx, xden = _common2(p.x, q.x)
    py, qy, yden = _common2(p.y, q.y)
    return Fraction(abs(qx - px) * yden + abs(qy - py) * xden, xden * yden)


def euclidean_distance_squared(p: Point, q: Point) -> Fraction:
    return (q.x - p.x) ** 2 + (q.y - p.y) ** 2


def line_through(p: Point, q: Point) -> Line:
    # The normal of (dx, dy) is (dy, -dx): dy*x - dx*y = dy*px - dx*py,
    # divided by dy, or by -dx when dy = 0.  x ints over xden, y over yden.
    px, qx, xden = _common2(p.x, q.x)
    py, qy, yden = _common2(p.y, q.y)
    dx, dy = qx - px, qy - py
    if dy:
        den = xden * dy
        return Line(_ONE, Fraction(-dx * yden, den), Fraction(px * dy - dx * py, den))
    if dx:
        return Line(_ZERO, _ONE, p.y)
    raise GeometryError("line through coincident points is undefined")


def intersect_lines(m: Line, n: Line) -> Intersection:
    ma, mb, mc, _ = _common3(m.a, m.b, m.c)
    na, nb, nc, _ = _common3(n.a, n.b, n.c)
    det = ma * nb - na * mb
    if det == 0:
        if ma * nc == na * mc and mb * nc == nb * mc:
            raise CoincidentLinesError("lines coincide; intersection is the whole line")
        return Empty()
    return OnePoint(Point(Fraction(mc * nb - nc * mb, det), Fraction(ma * nc - na * mc, det)))


def intersect_line_circle(line: Line, circle: TaxicabCircle) -> Intersection:
    """Meet a line with the boundary diamond of a taxicab circle.

    In center coordinates (u, v) = (x - cx, y - cy) the line a*x + b*y = c
    reads a*u + b*v = c' with c' = c - a*cx - b*cy, and each edge of the
    diamond reads su*u + sv*v = r for its signs (su, sv).  Cramer's rule
    gives the crossing with each edge line as numerators over
    det = a*sv - b*su, and the crossing lies on the edge itself when
    su*u >= 0 and sv*v >= 0.  Those signs are read off the numerators with
    det made positive, so an edge the line misses costs no division.

    Isolated crossing points come back sorted lexicographically by (x, y).
    A line of slope +1 or -1 that supports one of the diamond's edges
    (det = 0 and both numerators zero) yields that entire edge as an
    OverlapSegment, with endpoints in the edge's counterclockwise order.

    The solve runs in ints: the line over its common denominator, and the
    circle over its own, m, so (U, V) = m*(u, v) and edges su*U + sv*V = R.
    """
    a, b, c, _ = _common3(line.a, line.b, line.c)
    cx, cy, r, m = _common3(circle.center.x, circle.center.y, circle.radius)
    c = c * m - a * cx - b * cy
    # The numerator of U depends only on sv (north or south edge), that of
    # V only on su (east or west edge).
    ar, br = a * r, b * r
    u_north, u_south = c - br, -c - br
    v_east, v_west = ar - c, ar + c
    found: list[tuple[int, int, int]] = []
    # Edges counterclockwise from the east corner: su, sv, det, the
    # numerators of U and V, and the edge's start and end corners in radii.
    for su, sv, det, nu, nv, start, end in (
        (1, 1, a - b, u_north, v_east, (1, 0), (0, 1)),
        (-1, 1, a + b, u_north, v_west, (0, 1), (-1, 0)),
        (-1, -1, b - a, u_south, v_west, (-1, 0), (0, -1)),
        (1, -1, -a - b, u_south, v_east, (0, -1), (1, 0)),
    ):
        if det == 0:
            if nu == 0 and nv == 0:
                ends = [Point(Fraction(cx + i * r, m), Fraction(cy + j * r, m)) for i, j in (start, end)]
                return OverlapSegment(Segment(*ends))
            continue
        if det < 0:
            det, nu, nv = -det, -nu, -nv
        # A crossing at the edge's end corner (U = 0 or V = 0 there) is
        # left to the next edge, which starts at that corner.
        if su * nu >= 0 and sv * nv >= 0 and (nv if end[0] else nu):
            found.append((nu, nv, det))
    if len(found) == 2:
        (nu1, nv1, det1), (nu2, nv2, det2) = found
        if (nu2 * det1, nv2 * det1) < (nu1 * det2, nv1 * det2):
            found.reverse()
    points = [Point(Fraction(cx * det + nu, m * det), Fraction(cy * det + nv, m * det))
              for nu, nv, det in found]
    if not points:
        return Empty()
    if len(points) == 1:
        return OnePoint(points[0])
    return TwoPoints(*points)


def intersect_ray_circle(ray: Ray, circle: TaxicabCircle) -> Intersection:
    """Meet a ray with a circle boundary; points ordered by ray parameter."""
    whole = intersect_line_circle(ray.supporting_line(), circle)
    if isinstance(whole, Empty):
        return Empty()
    if isinstance(whole, OverlapSegment):
        t0 = ray.param_of(whole.segment.p)
        t1 = ray.param_of(whole.segment.q)
        lo, hi = sorted((t0, t1))
        lo = max(lo, Fraction(0))
        if hi < lo:
            return Empty()
        if hi == lo:
            return OnePoint(ray.point_at(hi))
        return OverlapSegment(Segment(ray.point_at(lo), ray.point_at(hi)))
    ahead = [p for p in points_of(whole) if ray.param_of(p) >= 0]
    ahead.sort(key=ray.param_of)
    if not ahead:
        return Empty()
    if len(ahead) == 1:
        return OnePoint(ahead[0])
    return TwoPoints(ahead[0], ahead[1])


def circle_vertex(circle: TaxicabCircle, which: CircleVertex) -> Point:
    moves_x, sign = _VERTEX_MOVES[which]
    center = circle.center
    if moves_x:
        cx, r, den = _common2(center.x, circle.radius)
        return Point(Fraction(cx + sign * r, den), center.y)
    cy, r, den = _common2(center.y, circle.radius)
    return Point(center.x, Fraction(cy + sign * r, den))


def circle_point_toward(circle: TaxicabCircle, w: Direction) -> Point:
    """The point c + w*r/|w| of the circle, where |w| is w's taxicab length:
    the crossing in direction w of a line through the center c along w."""
    # The center and radius over one denominator m, w over another; with
    # L = |wx| + |wy| in w's numerators, the point is (c*L + w*r) / (m*L).
    cx, cy, r, m = _common3(circle.center.x, circle.center.y, circle.radius)
    wx, wy, _ = _common2(w.dx, w.dy)
    length = abs(wx) + abs(wy)
    den = m * length
    return Point(Fraction(cx * length + wx * r, den), Fraction(cy * length + wy * r, den))


def at_taxicab_distance(p: Point, q: Point, r: Fraction | int) -> bool:
    """Whether d_t(p, q) == r, compared in ints: no Fraction is built."""
    # |qx - px| + |qy - py| = r, with x and r over one denominator, y over
    # another, multiplied through by the y denominator.
    px, qx, r, xden = _common3(p.x, q.x, r)
    py, qy, yden = _common2(p.y, q.y)
    return abs(qx - px) * yden + abs(qy - py) * xden == r * yden


def point_on_circle(circle: TaxicabCircle, p: Point) -> bool:
    return at_taxicab_distance(circle.center, p, circle.radius)


def point_between(p: Point, q: Point, x: Point) -> bool:
    """Whether x lies on the closed segment pq, compared in ints; when
    p == q that is x == p."""
    # The three x coordinates over one denominator, the three y over
    # another: both sides of the cross product carry the same scale.
    px, qx, xx, _ = _common3(p.x, q.x, x.x)
    py, qy, xy, _ = _common3(p.y, q.y, x.y)
    if (xx - px) * (qy - py) != (xy - py) * (qx - px):
        return False
    return min(px, qx) <= xx <= max(px, qx) and min(py, qy) <= xy <= max(py, qy)
