"""Compass-and-straightedge n-section in the taxicab plane.

The segment splitter divides AB into n equal taxicab parts using only circles
and straight lines.  For n >= 3:

  1. open the compass to the taxicab length L of AB and draw circles of
     radius L about B and about A;
  2. walk the compass down the extension of AB beyond A, drawing n - 3 more
     circles of radius L, each centered where the previous circle crosses
     the extension;
  3. join the bottom corner of the last circle to B; it crosses the circle
     about B first at a point P;
  4. join P to the top corner of the circle about A; it crosses line AB at
     the answer C, the point with d_t(A, C) = L / n.

For n == 2 the chain above degenerates, and instead the bottom corner of the
circle about A is joined straight to the top corner of the circle about B;
that line crosses AB at the midpoint.

"Bottom" and "top" corners as written assume the segment direction points
into the closed upper half-plane with a nonzero x-component.  Any other
direction is handled by renaming the corners through the dihedral symmetry
that carries it there: reflect across the x-axis when dy < 0, quarter-turn
when dx = 0.  Those symmetries preserve taxicab distance and map circle
corners to circle corners, so the construction transfers unchanged.

Every construction returns a trace: the full list of compass and straightedge
steps, each recording its inputs and its produced primitive, and each mark
the claims that place it on the segment at its distance.  ``verify_trace``
checks each step against one definition of its kind, a drawn figure or a
crossing by its incidences in exact int arithmetic and a corner or a mark by
computing it, and checks every claim, so a trace is a machine-checkable
certificate independent of the choices that built it: which corner, which
crossing, how far the chain walks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .angles import Angle, _param_ints, param_to_ints
from .kernel import (
    CircleVertex,
    Direction,
    GeometryError,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    _direction,
    _point,
    at_taxicab_distance,
    circle_point_toward,
    circle_vertex,
    intersect_line_circle,
    intersect_lines,
    line_through,
    point_between,
    point_on_circle,
    taxicab_distance,
)
from .numeric import as_rational


class ConstructionError(GeometryError):
    """Invalid construction request (bad n, degenerate input, ...)."""


class PostconditionError(ConstructionError):
    """The construction finished but its result failed the exactness check.

    Carries the offending trace for inspection; seeing this means the builder
    chose a wrong corner or crossing for the given directions, not that the
    input was invalid.
    """

    def __init__(self, message: str, trace: ConstructionTrace) -> None:
        super().__init__(message)
        self.trace = trace


class MalformedTraceError(Exception):
    """A trace is structurally broken (bad references or input kinds).

    Distinct from a verification failure: a malformed trace cannot even be
    checked, while a well-formed trace may merely fail its checks.
    """


class StepKind(Enum):
    PLACE_POINT = "place-point"
    DRAW_CIRCLE = "draw-circle"
    DRAW_LINE = "draw-line"
    INTERSECT_LINE_CIRCLE = "intersect-line-circle"
    INTERSECT_LINES = "intersect-lines"
    TAKE_CIRCLE_VERTEX = "take-circle-vertex"
    MARK_RESULT = "mark-result"


# The kinds as module names: in CPython 3.11, reading a member off the Enum
# class takes about 0.1 us, and reading a global a few ns.
_PLACE_POINT = StepKind.PLACE_POINT
_DRAW_CIRCLE = StepKind.DRAW_CIRCLE
_DRAW_LINE = StepKind.DRAW_LINE
_INTERSECT_LINE_CIRCLE = StepKind.INTERSECT_LINE_CIRCLE
_INTERSECT_LINES = StepKind.INTERSECT_LINES
_TAKE_CIRCLE_VERTEX = StepKind.TAKE_CIRCLE_VERTEX
_MARK_RESULT = StepKind.MARK_RESULT


@dataclass(frozen=True)
class OnLineClaim:
    line_step: int

    def refs(self) -> tuple[int, ...]:
        return (self.line_step,)

    def holds(self, subject: Point, outputs: Sequence[Primitive]) -> bool:
        line = outputs[self.line_step]
        return isinstance(line, Line) and line.contains(subject)


@dataclass(frozen=True)
class OnCircleClaim:
    circle_step: int

    def refs(self) -> tuple[int, ...]:
        return (self.circle_step,)

    def holds(self, subject: Point, outputs: Sequence[Primitive]) -> bool:
        circle = outputs[self.circle_step]
        return isinstance(circle, TaxicabCircle) and point_on_circle(circle, subject)


@dataclass(frozen=True)
class BetweenClaim:
    p_step: int
    q_step: int

    def refs(self) -> tuple[int, ...]:
        return (self.p_step, self.q_step)

    def holds(self, subject: Point, outputs: Sequence[Primitive]) -> bool:
        p = outputs[self.p_step]
        q = outputs[self.q_step]
        if not (isinstance(p, Point) and isinstance(q, Point)):
            return False
        return point_between(p, q, subject)


@dataclass(frozen=True)
class DistanceClaim:
    from_step: int
    value: Fraction

    def refs(self) -> tuple[int, ...]:
        return (self.from_step,)

    def holds(self, subject: Point, outputs: Sequence[Primitive]) -> bool:
        anchor = outputs[self.from_step]
        return isinstance(anchor, Point) and at_taxicab_distance(anchor, subject, self.value)


Claim = OnLineClaim | OnCircleClaim | BetweenClaim | DistanceClaim
_CLAIM_TYPES = Claim.__args__

Primitive = Point | Line | TaxicabCircle


@dataclass(slots=True, unsafe_hash=True)
class TraceStep:
    """One compass or straightedge action.

    ``inputs`` reference earlier steps by index.  ``claims`` state facts
    about a point output that its step does not imply; the builder writes
    them only on marks.  ``pick`` selects one point of a two-point
    intersection (index into the kernel's canonical ordering),
    ``vertex`` names a circle corner, and ``radius`` records a literal compass
    opening for circles not spanned between two drawn points.  Each of these
    three belongs to one kind of step, and is None on every other:
    ``pick`` to intersect-line-circle, ``vertex`` to take-circle-vertex, and
    ``radius`` to a draw-circle with one input.  ``label`` only names the
    output for rendering: the checker ignores it.

    A step is slotted and not frozen, since a frozen ``__init__`` stores
    each field through ``object.__setattr__`` at about five times the cost.
    It compares, hashes and prints by its fields all the same.  Nothing
    assigns to a step: ``dataclasses.replace`` derives a changed one, as
    for the frozen :class:`ConstructionTrace`.
    """

    kind: StepKind
    inputs: tuple[int, ...]
    output: Primitive
    claims: tuple[Claim, ...] = ()
    label: str | None = None
    pick: int | None = None
    vertex: CircleVertex | None = None
    radius: Fraction | None = None


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]
    result: int

    def result_point(self) -> Point:
        out = self.steps[self.result].output
        assert isinstance(out, Point)
        return out

    def marked_points(self) -> tuple[Point, ...]:
        """Outputs of all MARK_RESULT steps, in order."""
        return tuple(
            step.output
            for step in self.steps
            if step.kind is _MARK_RESULT and isinstance(step.output, Point)
        )


@dataclass(frozen=True)
class StepFailure:
    step: int
    message: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    steps_checked: int
    failure: StepFailure | None = None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedTraceError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_exact(value: object) -> bool:
    return _is_int(value) or isinstance(value, Fraction)


def _not_a(ref: int, name: str):
    raise MalformedTraceError(f"step input {ref} is not a {name}")


def _input(outputs: Sequence[Primitive], ref: int, want: type, name: str) -> Primitive:
    out = outputs[ref]
    if not isinstance(out, want):
        _not_a(ref, name)
    return out


_DOES_NOT_REPLAY = "step does not replay"
_DIFFERS = "recorded output differs from replay"


def _check_step(step: TraceStep, outputs: Sequence[Primitive]) -> str | None:
    """None if a step's recorded output is the one its kind produces from
    the outputs of the steps before it, else why not: the one definition of
    each step kind.  A drawn figure and a crossing are checked by their
    incidences, in exact int arithmetic:

    - draw-line: p != q, and the line contains both;
    - draw-circle: the center is the input, and the radius is the recorded
      radius or the spanned distance;
    - intersect-lines: the normals (A, B) are not parallel, and both lines
      contain the point, which is then their one crossing;
    - intersect-line-circle, when the line contains the circle's center c:
      the point is on the line and the circle, so it is c + w or c - w for
      w along the line (see :class:`_TraceBuilder`).  The kernel orders the
      two by (x, y), so the point is crossing ``pick`` exactly when ``pick``
      is in ``range(-2, 2)`` and ``pick % 2`` says whether the point lies
      after c.

    A corner and a mark are computed.  Only a crossing of a line that
    misses the center, which no builder records, is solved, and ``pick``
    indexes its crossings in the kernel's order.

    The kinds that fill a construction's trace, the spanned draw-circle,
    intersect-line-circle through the center and mark-result, read their
    inputs' int forms and write out their incidence arithmetic here, the
    same sums as ``Line.contains`` and ``at_taxicab_distance``, rather than
    call a kernel predicate.  A point is compared as a Point compares: the
    same class and the same int form.  The other kinds call the kernel.

    A step that cannot be carried out (a line through one point, a radius
    that is not positive, lines that do not cross, a ``pick`` outside the
    crossings) "does not replay"; any other mismatch "differs from
    replay".  A wrong number or kind of inputs, or a ``pick``, ``radius`` or
    ``vertex`` of the wrong type, raises :class:`MalformedTraceError`, and
    the checks run in that order.  The references are already checked to
    be earlier steps.
    """
    kind, inputs, output = step.kind, step.inputs, step.output
    if kind is _DRAW_CIRCLE:
        count = len(inputs)
        if count not in (1, 3):
            raise MalformedTraceError("draw-circle takes 1 or 3 inputs")
        ref = inputs[0]
        center = outputs[ref]
        if type(center) is not Point and not isinstance(center, Point):
            _not_a(ref, "point")
        if count == 3:
            ref = inputs[1]
            p = outputs[ref]
            if type(p) is not Point and not isinstance(p, Point):
                _not_a(ref, "point")
            ref = inputs[2]
            q = outputs[ref]
            if type(q) is not Point and not isinstance(q, Point):
                _not_a(ref, "point")
            # The radius is d_t(p, q), the sum below over pd*qd; a circle's
            # radius is positive, so a circle that fits has p != q.
            if type(output) is TaxicabCircle:
                (px, py, pd), (qx, qy, qd) = p._ints, q._ints
                rn, rd = output.radius.as_integer_ratio()
                if (abs(qx * pd - px * qd) + abs(qy * pd - py * qd)) * rd == rn * pd * qd:
                    given = output.center
                    if type(given) is type(center) and given._ints == center._ints:
                        return None
            return _DOES_NOT_REPLAY if p == q else _DIFFERS
        radius = step.radius
        _expect(_is_exact(radius), "draw-circle needs an integer or Fraction radius")
        if radius <= 0:
            return _DOES_NOT_REPLAY
        fits = type(output) is TaxicabCircle and output.radius == radius and center == output.center
        return None if fits else _DIFFERS
    if kind is _INTERSECT_LINE_CIRCLE:
        if len(inputs) != 2:
            raise MalformedTraceError("intersect-line-circle takes 2 inputs")
        ref = inputs[0]
        line = outputs[ref]
        if type(line) is not Line and not isinstance(line, Line):
            _not_a(ref, "line")
        ref = inputs[1]
        circle = outputs[ref]
        if type(circle) is not TaxicabCircle and not isinstance(circle, TaxicabCircle):
            _not_a(ref, "circle")
        pick = step.pick
        if type(pick) is not int and not _is_int(pick):
            raise MalformedTraceError("intersect-line-circle needs an integer pick index")
        a, b, c = line._ints
        cx, cy, cd = circle.center._ints
        if a * cx + b * cy == c * cd:
            if not -2 <= pick < 2:
                return _DOES_NOT_REPLAY
            if type(output) is not Point:
                return _DIFFERS
            # On the line, then on the circle: w = (wx, wy)/(od*cd) from c
            # has taxicab length r, and the point lies after c when w is
            # lexicographically positive.
            ox, oy, od = output._ints
            if a * ox + b * oy != c * od:
                return _DIFFERS
            wx, wy = ox * cd - cx * od, oy * cd - cy * od
            rn, rd = circle.radius.as_integer_ratio()
            if (abs(wx) + abs(wy)) * rd != rn * od * cd:
                return _DIFFERS
            return None if pick % 2 == ((wx, wy) > (0, 0)) else _DIFFERS
        crossings = intersect_line_circle(line, circle)
        if isinstance(crossings, Segment) or not -len(crossings) <= pick < len(crossings):
            return _DOES_NOT_REPLAY
        return None if crossings[pick] == output else _DIFFERS
    if kind is _MARK_RESULT:
        if len(inputs) != 1:
            raise MalformedTraceError("mark-result takes 1 input")
        ref = inputs[0]
        point = outputs[ref]
        if type(point) is not Point and not isinstance(point, Point):
            _not_a(ref, "point")
        return None if type(output) is type(point) and output._ints == point._ints else _DIFFERS
    if kind is _DRAW_LINE:
        _expect(len(inputs) == 2, "draw-line takes 2 inputs")
        p = _input(outputs, inputs[0], Point, "point")
        q = _input(outputs, inputs[1], Point, "point")
        if p == q:
            return _DOES_NOT_REPLAY
        return None if type(output) is Line and output.contains(p) and output.contains(q) else _DIFFERS
    if kind is _INTERSECT_LINES:
        _expect(len(inputs) == 2, "intersect-lines takes 2 inputs")
        m = _input(outputs, inputs[0], Line, "line")
        n = _input(outputs, inputs[1], Line, "line")
        ma, mb, _ = m._ints
        na, nb, _ = n._ints
        if ma * nb == na * mb:
            return _DOES_NOT_REPLAY
        return None if type(output) is Point and m.contains(output) and n.contains(output) else _DIFFERS
    if kind is _TAKE_CIRCLE_VERTEX:
        _expect(len(inputs) == 1, "take-circle-vertex takes 1 input")
        _expect(isinstance(step.vertex, CircleVertex), "take-circle-vertex needs a vertex name")
        corner = circle_vertex(_input(outputs, inputs[0], TaxicabCircle, "circle"), step.vertex)
        return None if corner == output else _DIFFERS
    if kind is _PLACE_POINT:
        _expect(not inputs, "place-point takes no inputs")
        return None
    raise MalformedTraceError(f"unknown step kind {kind!r}")


def verify_trace(trace: ConstructionTrace) -> VerificationReport:
    """Check every recorded output and claim of a trace exactly.

    Each step is checked by :func:`_check_step`, the one definition of its
    kind: a drawn figure or a crossing by its incidences, a corner or a mark
    by computing it.  The steps of a construction's trace cost a few int
    products each: exact types are tested before ``isinstance``, and the
    references of the claims are gathered only on a step that has claims,
    which only marks do.

    Structural problems (a trace that is not a :class:`ConstructionTrace`,
    steps that are not a sequence of :class:`TraceStep`, forward or
    out-of-range references, inputs of the wrong kind, a ``pick``,
    ``vertex`` or ``radius`` on a step whose kind does not use it) raise
    :class:`MalformedTraceError`.  Semantic problems, such as a recorded
    output that does not replay or a claim that does not hold, produce a
    report whose ``failure`` names the first offending step.
    """
    if not isinstance(trace, ConstructionTrace):
        raise MalformedTraceError("trace is not a ConstructionTrace")
    steps = trace.steps
    if not isinstance(steps, (tuple, list)):
        raise MalformedTraceError("trace steps are not a sequence")
    outputs: list[Primitive] = []
    for index, step in enumerate(steps):
        # Raised directly, not through _expect, so that a step that passes
        # formats no message.
        if type(step) is not TraceStep and not isinstance(step, TraceStep):
            raise MalformedTraceError(f"step {index} is not a TraceStep")
        kind, inputs, claims = step.kind, step.inputs, step.claims
        if type(inputs) is not tuple and not isinstance(inputs, (tuple, list)):
            raise MalformedTraceError(f"step {index} inputs are not a sequence")
        if type(claims) is not tuple and not isinstance(claims, (tuple, list)):
            raise MalformedTraceError(f"step {index} claims are not a sequence")
        refs = inputs
        if claims:
            refs = list(inputs)
            for claim in claims:
                if not isinstance(claim, _CLAIM_TYPES):
                    raise MalformedTraceError(f"unknown claim {claim!r}")
                if isinstance(claim, DistanceClaim) and not _is_exact(claim.value):
                    raise MalformedTraceError(f"step {index} claims a distance that is not exact")
                refs += claim.refs()
        for ref in refs:
            # Nearly every reference is a plain int, which needs no isinstance test.
            if type(ref) is not int and not _is_int(ref):
                raise MalformedTraceError(f"step {index} has a non-integer reference {ref!r}")
            if not 0 <= ref < index:
                raise MalformedTraceError(f"step {index} references step {ref}")
        if step.pick is not None and kind is not _INTERSECT_LINE_CIRCLE:
            raise MalformedTraceError(f"step {index} has a pick, which only intersect-line-circle takes")
        if step.vertex is not None and kind is not _TAKE_CIRCLE_VERTEX:
            raise MalformedTraceError(f"step {index} has a vertex, which only take-circle-vertex takes")
        if step.radius is not None and (kind is not _DRAW_CIRCLE or len(inputs) != 1):
            raise MalformedTraceError(f"step {index} has a radius, which only a one-input draw-circle takes")
        failure = _check_step(step, outputs)
        if failure is not None:
            return VerificationReport(False, index, StepFailure(index, failure))
        output = step.output
        for claim in claims:
            # Claims are only defined on points; a claim on any other output
            # is not yet reported as a malformed trace.
            assert isinstance(output, Point), "claims attach to point outputs"
            if not claim.holds(output, outputs):
                return VerificationReport(
                    False, index, StepFailure(index, f"claim {claim!r} does not hold")
                )
        outputs.append(output)
    _expect(
        _is_int(trace.result) and 0 <= trace.result < len(steps),
        "result reference out of range",
    )
    _expect(
        steps[trace.result].kind is _MARK_RESULT,
        "result must reference a mark-result step",
    )
    return VerificationReport(True, len(steps))


class _TraceBuilder:
    """Records the steps of a construction; the builder itself makes only
    the choices: which corner, which crossing.  It writes claims only on
    marks; the incidences of every other step are the verifier's to check.

    Every line that the constructions meet with a circle passes through the
    circle's center c, so it crosses the diamond at c - w and c + w, where w
    runs along the line and has taxicab length r.  Each crossing is
    therefore named by the direction w it lies in from the center, and is
    never solved: the n-section computes a crossing on line AB in closed
    form (see :func:`_append_nsect`), and any other is c + w from
    :func:`circle_point_toward`.  The kernel's solve returns the two
    crossings in (x, y) order, so c + w comes second exactly when w is
    lexicographically positive, and the step's ``pick`` follows from the
    signs of w's (dx, dy).
    """

    def __init__(self) -> None:
        self._steps: list[TraceStep] = []

    def output(self, ref: int) -> Primitive:
        return self._steps[ref].output

    def _add(self, step: TraceStep) -> int:
        self._steps.append(step)
        return len(self._steps) - 1

    def place_point(self, p: Point, label: str | None = None) -> int:
        return self._add(TraceStep(_PLACE_POINT, (), p, (), label))

    def draw_line(self, p_ref: int, q_ref: int) -> int:
        line = line_through(self.output(p_ref), self.output(q_ref))
        return self._add(TraceStep(_DRAW_LINE, (p_ref, q_ref), line))

    def draw_circle(self, center_ref: int, radius: Fraction, span: tuple[int, int] | None = None) -> int:
        """The circle of this radius about a point: spanned by the two
        points ``span``, which lie that far apart, or else with the radius
        recorded as a fixed compass opening."""
        circle = TaxicabCircle(self.output(center_ref), radius)
        if span is None:
            return self._add(TraceStep(_DRAW_CIRCLE, (center_ref,), circle, (), None, None, None, radius))
        return self._add(TraceStep(_DRAW_CIRCLE, (center_ref, *span), circle))

    def take_vertex(self, circle_ref: int, which: CircleVertex) -> int:
        corner = circle_vertex(self.output(circle_ref), which)
        return self._add(TraceStep(_TAKE_CIRCLE_VERTEX, (circle_ref,), corner, (), None, None, which))

    def intersect_with_circle(
        self, line_ref: int, circle_ref: int, crossing: Point, toward: tuple, label: str | None = None
    ) -> int:
        """Record ``crossing``, where a line through the circle's center
        crosses it in direction ``toward`` = (dx, dy) from the center (see
        the class docstring)."""
        pick = 1 if toward > (0, 0) else 0
        inputs = (line_ref, circle_ref)
        return self._add(TraceStep(_INTERSECT_LINE_CIRCLE, inputs, crossing, (), label, pick))

    def cross_toward(self, line_ref: int, circle_ref: int, w: Direction, label: str | None = None) -> int:
        """The crossing of a line through the circle's center that lies in
        direction w from the center."""
        crossing = circle_point_toward(self.output(circle_ref), w)
        return self.intersect_with_circle(line_ref, circle_ref, crossing, w._ints[:2], label)

    def intersect_two_lines(self, first_ref: int, second_ref: int) -> int:
        # The constructions meet only lines that cross in one point.
        (crossing,) = intersect_lines(self.output(first_ref), self.output(second_ref))
        return self._add(TraceStep(_INTERSECT_LINES, (first_ref, second_ref), crossing))

    def mark_result(self, point_ref: int, claims: tuple[Claim, ...], label: str | None = None) -> int:
        return self._add(TraceStep(_MARK_RESULT, (point_ref,), self.output(point_ref), claims, label))

    def build(self) -> ConstructionTrace:
        """The trace so far, with its last step as the result."""
        return ConstructionTrace(tuple(self._steps), len(self._steps) - 1)


def _corner_pair(dx: Fraction | int, dy: Fraction | int) -> tuple[CircleVertex, CircleVertex]:
    """Corner names (low side of the chain, high side of the circle about a)
    for the segment direction of signs (dx, dy); see the module docstring."""
    if dx == 0:
        return (CircleVertex.EAST, CircleVertex.WEST)
    if dy < 0:
        return (CircleVertex.NORTH, CircleVertex.SOUTH)
    return (CircleVertex.SOUTH, CircleVertex.NORTH)


def _append_nsect(builder: _TraceBuilder, a_ref: int, b_ref: int, n: int, every: bool = False) -> None:
    """Append the n-section steps for the segment AB between two already
    placed points.  They mark C at d_t(A, C) = L / n, labelled "C" with its
    helper crossing labelled "P"; with ``every`` they go on to mark each
    division point, labelled M1 (= C) to M(n-1), and label no crossing.

    After M1 the compass keeps that opening and walks along line AB: the
    circle about M(k-1) spanned by A and M1 crosses the line at M(k-2) and
    at M(k), the crossing farther from A.  The line passes through the
    circle's center, so it never runs along an edge and each walk step has
    two crossings.  That is three steps per further mark.  The length L is
    measured once: each circle is drawn with the opening it spans, L, or
    L / n for the walk.

    Every crossing on line AB is a point a + t(b - a) that the builder
    already knows, so it is computed in closed form from the int forms of
    A and B, not solved, and builds no ``Fraction``.  A circle of radius
    L = |b - a|_1 about a point c of the line meets it at c - (b - a) and
    c + (b - a), so the chain centers are a - k(b - a); the walk circle of
    radius L / n about M(k-1) meets it at M(k-1) -/+ (b - a)/n, so the walk
    marks are a + k(b - a)/n.  Only P, on the line from the low corner to
    B, is computed by :func:`circle_point_toward`.
    """
    a = builder.output(a_ref)
    b = builder.output(b_ref)
    # A and B as ints over one denominator e, and b - a = (dx, dy)/e.
    (ax, ay, ad), (bx, by, bd) = a._ints, b._ints
    e = ad * bd
    ax, ay, bx, by = ax * bd, ay * bd, bx * ad, by * ad
    dx, dy = bx - ax, by - ay
    low_corner, high_corner = _corner_pair(dx, dy)
    length = taxicab_distance(a, b)
    ln, ld = length.as_integer_ratio()

    base_ref = builder.draw_line(a_ref, b_ref)
    circle_b = builder.draw_circle(b_ref, length, span=(a_ref, b_ref))
    circle_a = builder.draw_circle(a_ref, length, span=(a_ref, b_ref))

    if n == 2:
        low = builder.take_vertex(circle_a, low_corner)
        high = builder.take_vertex(circle_b, high_corner)
        cross_ref = builder.draw_line(low, high)
        c_ref = builder.intersect_two_lines(cross_ref, base_ref)
    else:
        last_circle = circle_a
        for k in range(1, n - 2):
            center = _point(ax - k * dx, ay - k * dy, e)
            next_center = builder.intersect_with_circle(base_ref, last_circle, center, (-dx, -dy))
            last_circle = builder.draw_circle(next_center, length, span=(a_ref, b_ref))
        low = builder.take_vertex(last_circle, low_corner)
        toward_b = builder.draw_line(low, b_ref)
        # The line from the low corner meets the circle about B first on
        # the corner's side of B: toward low - b, here scaled by cd*e > 0.
        cx, cy, cd = builder.output(low)._ints
        toward_low = _direction(cx * e - bx * cd, cy * e - by * cd, 1)
        p_label = None if every else "P"
        p_ref = builder.cross_toward(toward_b, circle_b, toward_low, label=p_label)
        high = builder.take_vertex(circle_a, high_corner)
        back_ref = builder.draw_line(p_ref, high)
        c_ref = builder.intersect_two_lines(back_ref, base_ref)

    part = Fraction(ln, ld * n)
    between = BetweenClaim(a_ref, b_ref)
    m1_ref = builder.mark_result(c_ref, (between, DistanceClaim(a_ref, part)), "M1" if every else "C")
    if not every:
        return
    mark_ref = m1_ref
    # M(k) = a + k(b - a)/n, over n*e.
    nax, nay, ne = n * ax, n * ay, n * e
    for k in range(2, n):
        step_circle = builder.draw_circle(mark_ref, part, span=(a_ref, m1_ref))
        mark = _point(nax + k * dx, nay + k * dy, ne)
        next_ref = builder.intersect_with_circle(base_ref, step_circle, mark, (dx, dy))
        distance = DistanceClaim(a_ref, Fraction(k * ln, n * ld))
        mark_ref = builder.mark_result(next_ref, (between, distance), f"M{k}")


def _check_part_count(n: int, what: str) -> None:
    if not _is_int(n):
        raise ConstructionError(f"{what} needs an integer n, got n = {n!r}")
    if n < 2:
        raise ConstructionError(f"{what} needs n >= 2, got n = {n}")


def nsect_segment(a: Point, b: Point, n: int) -> tuple[Point, ConstructionTrace]:
    """Split segment AB at taxicab distance d_t(A, B) / n from A.

    Returns the division point C = a + (b - a) / n together with the full
    compass-and-straightedge trace that produced it.  The point is read off
    the construction, then checked against the parametric form; a mismatch
    raises :class:`PostconditionError` with the trace attached.
    """
    _check_part_count(n, "segment sectioning")
    for name, end in (("a", a), ("b", b)):
        if not isinstance(end, Point):
            raise ConstructionError(f"segment sectioning needs a Point {name}, got {name} = {end!r}")
    if a == b:
        raise ConstructionError("cannot section a degenerate segment")
    builder = _TraceBuilder()
    a_ref = builder.place_point(a, label="A")
    b_ref = builder.place_point(b, label="B")
    _append_nsect(builder, a_ref, b_ref, n)
    trace = builder.build()
    constructed = trace.result_point()
    # a + (b - a)/n = ((n - 1)a + b)/n
    (ax, ay, ad), (bx, by, bd) = a._ints, b._ints
    expected = _point((n - 1) * ax * bd + bx * ad, (n - 1) * ay * bd + by * ad, n * ad * bd)
    if constructed != expected:
        raise PostconditionError(f"construction produced {constructed}, expected {expected}", trace)
    return constructed, trace


def section_angle(
    angle: Angle, n: int, radius: Fraction | int = 1
) -> tuple[tuple[Ray, ...], ConstructionTrace | None]:
    """Split an angle into n sub-angles of equal t-radian measure.

    Returns the n - 1 interior rays, ordered along the sweep from one side to
    the other (the non-reflex way around; for a straight angle the sweep
    starts at side1).  When both sides cross the same edge of the taxicab
    circle of the given radius about the vertex, the chord between the
    crossings runs along that edge, and the second return value is a trace
    whose one segment n-section of the chord marks every division point
    (see :func:`_chord_trace`); otherwise it is None.  Each mark is checked
    against the crossing of its ray with that circle; a mismatch raises
    :class:`PostconditionError` with the trace attached.

    The sweep, its reflex swap, the corner test and the mark checks run in
    ints over one denominator (see :func:`angles._param_ints`), and build
    no ``Fraction``.
    """
    _check_part_count(n, "angle sectioning")
    if not (
        isinstance(angle, Angle)
        and isinstance(angle.vertex, Point)
        and isinstance(angle.side1, Direction)
        and isinstance(angle.side2, Direction)
    ):
        raise ConstructionError(f"angle sectioning needs an Angle of a Point and two Directions, got {angle!r}")
    radius = as_rational(radius)
    if radius <= 0:
        raise ConstructionError("sectioning circle radius must be positive")

    # Both side parameters over D = L1*L2: start/D, sweep/D and a turn 8D.
    first, second = angle.side1, angle.side2
    (t1, l1), (t2, l2) = _param_ints(first), _param_ints(second)
    den = l1 * l2
    turn = 8 * den
    start = t1 * l2
    sweep = (t2 * l1 - start) % turn
    if sweep == 0:
        raise ConstructionError("cannot section a zero angle")
    if 2 * sweep > turn:
        # Sweep the other way round, from where the forward sweep ended.
        first, second = second, first
        start, sweep = (start + sweep) % turn, turn - sweep

    # t_k = (start + sweep*k/n)/D mod 8, every t_k an int over nD, and each
    # ray's direction the unit-circle point at t_k.
    first_t, part_den = start * n, den * n
    units = [param_to_ints((first_t + sweep * k) % (8 * part_den), part_den) for k in range(1, n)]
    rays = tuple(Ray(angle.vertex, _direction(x, y, u)) for x, y, u in units)

    # The sweep passes a corner when it ends past the next even parameter.
    if start + sweep > 2 * den * (start // (2 * den) + 1):
        return rays, None
    trace = _chord_trace(angle.vertex, first, second, n, radius)
    # Mark k must be vertex + (rn/rd)(x/u, y/u), the ints (ex, ey) over ed.
    vx, vy, vd = angle.vertex._ints
    rn, rd = radius.as_integer_ratio()
    for k, ((x, y, u), mark) in enumerate(zip(units, trace.marked_points()), start=1):
        ex, ey, ed = vx * rd * u + rn * x * vd, vy * rd * u + rn * y * vd, vd * rd * u
        mx, my, md = mark._ints
        if mx * ed != ex * md or my * ed != ey * md:
            raise PostconditionError(f"chord mark M{k} is {mark}, expected {_point(ex, ey, ed)}", trace)
    return rays, trace


def _chord_trace(
    vertex: Point, first_side: Direction, second_side: Direction, n: int, radius: Fraction
) -> ConstructionTrace:
    """Trace that cuts the chord Q1Q2 between the two side crossings into n
    equal parts: the side lines, their crossings with the circle, and one
    segment n-section of Q1Q2 that marks every division point in sweep
    order (see :func:`_append_nsect`).  That is 5n + 6 steps for n >= 3.
    """
    builder = _TraceBuilder()
    v_ref = builder.place_point(vertex, label="A")
    # Helper points just fix each side's line; push them past the circle so
    # the rendered sides read as full angle arms.
    reach = TaxicabCircle(vertex, 2 * radius)
    h1_ref = builder.place_point(circle_point_toward(reach, first_side))
    h2_ref = builder.place_point(circle_point_toward(reach, second_side))
    circle_ref = builder.draw_circle(v_ref, radius)

    side1_line = builder.draw_line(v_ref, h1_ref)
    q1_ref = builder.cross_toward(side1_line, circle_ref, first_side, label="B")
    side2_line = builder.draw_line(v_ref, h2_ref)
    q2_ref = builder.cross_toward(side2_line, circle_ref, second_side, label="C")
    _append_nsect(builder, q1_ref, q2_ref, n, every=True)
    return builder.build()
