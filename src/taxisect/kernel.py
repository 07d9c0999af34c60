"""Exact planar primitives for the taxicab plane.

Points, directions, lines, rays, segments, and taxicab circles over rational
coordinates, plus the distance and intersection operations everything else is
built from.  A taxicab circle of radius r about (cx, cy) is the locus
|x - cx| + |y - cy| = r: a square rotated 45 degrees whose edges have slope
+1 or -1.  Because of those straight edges a line can meet a circle in a full
segment.  An intersection therefore returns either the tuple of its
isolated crossings (empty for none) or, for such an overlap, the
``Segment`` itself, instead of treating that case as an error.

A line meets the circle where it meets one of the four edges.  Shifted to
the center, (u, v) = (x - cx, y - cy), the edges are the lines
su*u + sv*v = r with signs (su, sv) in {+1, -1}, each cut off to its quadrant
su*u >= 0, sv*v >= 0, so ``intersect_line_circle`` solves the line against
each edge in closed form rather than building the edge lines.

A point is stored once, as its int form (X, Y, D): both coordinates over
their least common denominator D > 0.  A direction is stored the same way,
its two components over their least common denominator, and a line as its
primitive int form (A, B, C).  Line canonicalisation, ``line_through``,
``intersect_lines``, ``intersect_line_circle``, ``circle_vertex``,
``circle_point_toward``, ``Ray.point_at`` and both distances compute on
those ints, a circle taken over one common denominator; each point they
return is put in its int form by one gcd (``_point``), as is each direction
that the trace builder computes (``_direction``).  ``taxicab_distance``,
``euclidean_distance_squared`` and ``Ray.param_of`` each build one
``Fraction``, their result.  The incidence predicates
``Line.contains``, ``point_between`` and ``at_taxicab_distance``
compare ints and build no ``Fraction`` at all.
``circle_point_toward`` is the point c + w*r/|w| at which a line through
the center c along w crosses the circle in direction w, which the trace
builder records for such a crossing whose point it does not already know,
instead of solving the line against the circle.  A ``Fraction`` is built
only at the API edge: ``Point(x, y)`` and ``Direction(dx, dy)`` take
rationals, ``x``, ``y``, ``dx``, ``dy`` and a line's ``a``, ``b``, ``c``
read them back, and a distance or a ray parameter is returned as one.
``str`` of a point or a direction writes each coordinate or component
from the ints with ``numeric.ratio_text`` and builds no ``Fraction``.

The predicates state the incidences by which a trace step is checked
without solving it again.  ``constructions._check_step`` is the one
definition of what each step kind checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .numeric import as_rational, ratio_text


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class CoincidentLinesError(GeometryError):
    """Line-line intersection where both operands are the same line."""


@dataclass(frozen=True, init=False, repr=False)
class Point:
    """The point (X/D, Y/D), stored as its one field ``_ints`` = (X, Y, D):
    ints with D > 0 and gcd(X, Y, D) = 1, so D is the least common
    denominator of the two coordinates.  That form is unique, so two Point
    values are the same point exactly when they compare equal.  ``x`` and
    ``y`` are X/D and Y/D: the coordinates, in Fractions.  A point hashes
    as the pair (x, y) does."""

    _ints: tuple[int, int, int]

    def __init__(self, x: Fraction | int | str, y: Fraction | int | str) -> None:
        object.__setattr__(self, "_ints", _common2(as_rational(x), as_rational(y)))

    @property
    def x(self) -> Fraction:
        x, _, d = self._ints
        return Fraction(x, d)

    @property
    def y(self) -> Fraction:
        _, y, d = self._ints
        return Fraction(y, d)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __str__(self) -> str:
        x, y, d = self._ints
        return f"({ratio_text(x, d)}, {ratio_text(y, d)})"


def _lowest(x: int, y: int, d: int) -> tuple[int, int, int]:
    """(x, y, d) over their gcd, signed so that d > 0; d != 0."""
    g = gcd(x, y, d)
    if d < 0:
        g = -g
    return x // g, y // g, d // g


def _point(x: int, y: int, d: int) -> Point:
    """The point (x/d, y/d), for d != 0, in its int form."""
    point = object.__new__(Point)
    object.__setattr__(point, "_ints", _lowest(x, y, d))
    return point


@dataclass(frozen=True, init=False, repr=False)
class Direction:
    """The nonzero displacement (X/D, Y/D), stored as a Point is, as its one
    field ``_ints`` = (X, Y, D): ints with D > 0 and gcd(X, Y, D) = 1.  Two
    directions are equal only componentwise, not when one is a positive
    multiple of the other.  ``dx`` and ``dy`` are X/D and Y/D: the
    components, in Fractions.  A direction hashes as the pair (dx, dy)
    does."""

    _ints: tuple[int, int, int]

    def __init__(self, dx: Fraction | int | str, dy: Fraction | int | str) -> None:
        x, y, d = _common2(as_rational(dx), as_rational(dy))
        if not x and not y:
            raise GeometryError("zero direction")
        object.__setattr__(self, "_ints", (x, y, d))

    @property
    def dx(self) -> Fraction:
        x, _, d = self._ints
        return Fraction(x, d)

    @property
    def dy(self) -> Fraction:
        _, y, d = self._ints
        return Fraction(y, d)

    def __hash__(self) -> int:
        return hash((self.dx, self.dy))

    def __repr__(self) -> str:
        return f"Direction(dx={self.dx!r}, dy={self.dy!r})"

    def __str__(self) -> str:
        x, y, d = self._ints
        return f"({ratio_text(x, d)}, {ratio_text(y, d)})"


def _direction(x: int, y: int, d: int) -> Direction:
    """The direction (x/d, y/d), for d != 0 and (x, y) != (0, 0), in its int
    form."""
    direction = object.__new__(Direction)
    object.__setattr__(direction, "_ints", _lowest(x, y, d))
    return direction


@dataclass(frozen=True, init=False, repr=False)
class Line:
    """The locus a*x + b*y = c, stored as its one field ``_ints`` = (A, B, C):
    ints with gcd 1 and the first nonzero of A, B positive.  That form is
    unique, so two Line values describe the same locus exactly when they
    compare equal.  ``a``, ``b`` and ``c`` are A, B and C over that first
    nonzero: the canonical form, in Fractions."""

    _ints: tuple[int, int, int]

    def __init__(self, a: Fraction | int | str, b: Fraction | int | str, c: Fraction | int | str) -> None:
        (an, ad), (bn, bd), (cn, cd) = (as_rational(v).as_integer_ratio() for v in (a, b, c))
        if not an and not bn:
            raise GeometryError("line requires (a, b) != (0, 0)")
        object.__setattr__(self, "_ints", _primitive(an * bd * cd, bn * ad * cd, cn * ad * bd))

    @property
    def a(self) -> Fraction:
        a, b, _ = self._ints
        return Fraction(a, a or b)

    @property
    def b(self) -> Fraction:
        a, b, _ = self._ints
        return Fraction(b, a or b)

    @property
    def c(self) -> Fraction:
        a, b, c = self._ints
        return Fraction(c, a or b)

    def __repr__(self) -> str:
        return f"Line(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def contains(self, p: Point) -> bool:
        # A*x + B*y = C, with (x, y) over e.
        a, b, c = self._ints
        x, y, e = p._ints
        return a * x + b * y == c * e


@dataclass(frozen=True)
class Ray:
    origin: Point
    direction: Direction

    def __post_init__(self) -> None:
        if not (isinstance(self.origin, Point) and isinstance(self.direction, Direction)):
            raise GeometryError("a ray needs a point origin and a direction")

    def point_at(self, t: Fraction | int) -> Point:
        # o + w*t, with o over f, w over d and t = tn/td, over f*d*td.
        ox, oy, f = self.origin._ints
        wx, wy, d = self.direction._ints
        tn, td = as_rational(t).as_integer_ratio()
        return _point(ox * d * td + wx * f * tn, oy * d * td + wy * f * tn, f * d * td)

    def param_of(self, p: Point) -> Fraction:
        """Parameter t with p == origin + t * direction; p must be on the
        supporting line."""
        # t = (p - o)/w on an axis where w is nonzero, with p over e, o
        # over f and w over d.
        ox, oy, f = self.origin._ints
        wx, wy, d = self.direction._ints
        px, py, e = p._ints
        if wx:
            return Fraction((px * f - ox * e) * d, e * f * wx)
        return Fraction((py * f - oy * e) * d, e * f * wy)

    def supporting_line(self) -> Line:
        # Through the origin o and o + w, that point over f*d.
        ox, oy, f = self.origin._ints
        wx, wy, d = self.direction._ints
        return line_through(self.origin, _point(ox * d + wx * f, oy * d + wy * f, f * d))


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self) -> None:
        if not (isinstance(self.p, Point) and isinstance(self.q, Point)):
            raise GeometryError("segment endpoints must be points")
        if self.p == self.q:
            raise GeometryError("degenerate segment")


@dataclass(frozen=True)
class TaxicabCircle:
    center: Point
    radius: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.center, Point):
            raise GeometryError("circle center must be a point")
        if type(self.radius) is not Fraction:
            object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius.numerator <= 0:
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


def _common2(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(x*d, y*d, d) as ints, for d the least common denominator."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    den = lcm(xd, yd)
    return xn * (den // xd), yn * (den // yd), den


def _circle_ints(circle: TaxicabCircle) -> tuple[int, int, int, int]:
    """(cx*m, cy*m, r*m, m) as ints, for m the least common denominator of
    the circle's center and radius."""
    cx, cy, cd = circle.center._ints
    rn, rd = circle.radius.as_integer_ratio()
    m = lcm(cd, rd)
    scale = m // cd
    return cx * scale, cy * scale, rn * (m // rd), m


def _distance_ints(p: Point, q: Point) -> tuple[int, int]:
    """d_t(p, q) as ints (n, d), d > 0, not in lowest terms."""
    px, py, pd = p._ints
    qx, qy, qd = q._ints
    return abs(qx * pd - px * qd) + abs(qy * pd - py * qd), pd * qd


def taxicab_distance(p: Point, q: Point) -> Fraction:
    return Fraction(*_distance_ints(p, q))


def euclidean_distance_squared(p: Point, q: Point) -> Fraction:
    # q - p over pd*qd, squared.
    px, py, pd = p._ints
    qx, qy, qd = q._ints
    dx, dy = qx * pd - px * qd, qy * pd - py * qd
    return Fraction(dx * dx + dy * dy, (pd * qd) ** 2)


def _primitive(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(a, b, c) over their gcd, signed so that the first nonzero of a, b
    is positive; (a, b) != (0, 0)."""
    g = gcd(a, b, c)
    if (a or b) < 0:
        g = -g
    return a // g, b // g, c // g


def line_through(p: Point, q: Point) -> Line:
    # The normal of (dx, dy) is (dy, -dx): dy*x - dx*y = dy*px - dx*py,
    # with (dx, dy) = q - p over pd*qd, multiplied through by pd.
    px, py, pd = p._ints
    qx, qy, qd = q._ints
    dx, dy = qx * pd - px * qd, qy * pd - py * qd
    if not dx and not dy:
        raise GeometryError("line through coincident points is undefined")
    line = object.__new__(Line)
    object.__setattr__(line, "_ints", _primitive(dy * pd, -dx * pd, dy * px - dx * py))
    return line


def intersect_lines(m: Line, n: Line) -> tuple[Point, ...]:
    """The crossing of two lines as a 1-tuple, or () when they are parallel."""
    ma, mb, mc = m._ints
    na, nb, nc = n._ints
    det = ma * nb - na * mb
    if det == 0:
        if m == n:
            raise CoincidentLinesError("lines coincide; intersection is the whole line")
        return ()
    return (_point(mc * nb - nc * mb, ma * nc - na * mc, det),)


def intersect_line_circle(line: Line, circle: TaxicabCircle) -> tuple[Point, ...] | Segment:
    """Meet a line with the boundary diamond of a taxicab circle.

    In center coordinates (u, v) = (x - cx, y - cy) the line a*x + b*y = c
    reads a*u + b*v = c' with c' = c - a*cx - b*cy, and each edge of the
    diamond reads su*u + sv*v = r for its signs (su, sv).  Cramer's rule
    gives the crossing with each edge line as numerators over
    det = a*sv - b*su, and the crossing lies on the edge itself when
    su*u >= 0 and sv*v >= 0.  Those signs are read off the numerators with
    det made positive, so an edge the line misses costs no division.

    Isolated crossing points come back as a tuple sorted lexicographically
    by (x, y).  A line of slope +1 or -1 that supports one of the diamond's
    edges (det = 0 and both numerators zero) yields that entire edge as a
    Segment, with endpoints in the edge's counterclockwise order.

    The solve runs in ints: the line's int form, and the circle over one
    denominator m, so (U, V) = m*(u, v) and edges su*U + sv*V = R.
    """
    a, b, c = line._ints
    cx, cy, r, m = _circle_ints(circle)
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
                ends = [_point(cx + i * r, cy + j * r, m) for i, j in (start, end)]
                return Segment(*ends)
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
    return tuple(_point(cx * det + nu, cy * det + nv, m * det) for nu, nv, det in found)


def intersect_ray_circle(ray: Ray, circle: TaxicabCircle) -> tuple[Point, ...] | Segment:
    """Meet a ray with a circle boundary: the crossings ahead of the origin
    ordered by ray parameter, or an overlap clipped at the origin, which
    may leave a Segment, one point, or none."""
    whole = intersect_line_circle(ray.supporting_line(), circle)
    if isinstance(whole, Segment):
        lo, hi = sorted((ray.param_of(whole.p), ray.param_of(whole.q)))
        lo = max(lo, Fraction(0))
        if hi < lo:
            return ()
        if hi == lo:
            return (ray.point_at(hi),)
        return Segment(ray.point_at(lo), ray.point_at(hi))
    return tuple(sorted((p for p in whole if ray.param_of(p) >= 0), key=ray.param_of))


def circle_vertex(circle: TaxicabCircle, which: CircleVertex) -> Point:
    moves_x, sign = _VERTEX_MOVES[which]
    cx, cy, r, m = _circle_ints(circle)
    if moves_x:
        return _point(cx + sign * r, cy, m)
    return _point(cx, cy + sign * r, m)


def circle_point_toward(circle: TaxicabCircle, w: Direction) -> Point:
    """The point c + w*r/|w| of the circle, where |w| is w's taxicab length:
    the crossing in direction w of a line through the center c along w."""
    # The center and radius over one denominator m, w over another; with
    # L = |wx| + |wy| in w's numerators, the point is (c*L + w*r) / (m*L).
    cx, cy, r, m = _circle_ints(circle)
    wx, wy, _ = w._ints
    length = abs(wx) + abs(wy)
    return _point(cx * length + wx * r, cy * length + wy * r, m * length)


def at_taxicab_distance(p: Point, q: Point, r: Fraction | int) -> bool:
    """Whether d_t(p, q) == r, compared in ints: no Fraction is built."""
    distance, den = _distance_ints(p, q)
    rn, rd = r.as_integer_ratio()
    return distance * rd == rn * den


def point_between(p: Point, q: Point, x: Point) -> bool:
    """Whether x lies on the closed segment pq, compared in ints; when
    p == q that is x == p."""
    # u = x - p and v = q - x, each scaled by a positive int: x lies on pq
    # when u and v are parallel and do not point apart.
    px, py, pd = p._ints
    qx, qy, qd = q._ints
    xx, xy, xd = x._ints
    ux, uy = xx * pd - px * xd, xy * pd - py * xd
    vx, vy = qx * xd - xx * qd, qy * xd - xy * qd
    return ux * vy == uy * vx and ux * vx + uy * vy >= 0
