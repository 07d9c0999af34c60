import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taxisect.angles import Angle, direction_to_param, measure_angle, measure_between
import taxisect.constructions as constructions
from taxisect.constructions import (
    BetweenClaim,
    ConstructionError,
    ConstructionTrace,
    DistanceClaim,
    MalformedTraceError,
    OnLineClaim,
    PostconditionError,
    StepFailure,
    StepKind,
    TraceStep,
    VerificationReport,
    nsect_segment,
    section_angle,
    verify_trace,
)
from taxisect.kernel import (
    CircleVertex,
    CoincidentLinesError,
    Direction,
    GeometryError,
    Line,
    Point,
    Ray,
    TaxicabCircle,
    circle_vertex,
    intersect_line_circle,
    intersect_lines,
    line_through,
    taxicab_distance,
)
from test_export import fractions_built
from test_kernel import along, points_of, slope, wide_directions, wide_radii

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
points = st.builds(Point, rationals, rationals)
small_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
wide_points = st.builds(Point, small_rationals, small_rationals)


def pt(x, y) -> Point:
    return Point(F(x), F(y))


def parametric(a: Point, b: Point, n: int) -> Point:
    return Point(a.x + (b.x - a.x) / n, a.y + (b.y - a.y) / n)


def labeled_point(trace: ConstructionTrace, label: str) -> Point:
    for step in trace.steps:
        if step.label == label and isinstance(step.output, Point):
            return step.output
    raise AssertionError(f"no step labeled {label}")


def drawn_lines(trace: ConstructionTrace) -> list[Line]:
    return [s.output for s in trace.steps if s.kind is StepKind.DRAW_LINE]


def drawn_circles(trace: ConstructionTrace) -> list[TaxicabCircle]:
    return [s.output for s in trace.steps if s.kind is StepKind.DRAW_CIRCLE]


# ---------------------------------------------------------- worked examples


def test_nsect_slope_one_thirds():
    c, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    assert c == pt(1, 1)
    assert labeled_point(trace, "P") == pt(F(3, 2), F(-3, 2))
    assert taxicab_distance(pt(0, 0), c) == 2
    assert verify_trace(trace).ok


def test_nsect_bisection():
    c, trace = nsect_segment(pt(0, 0), pt(1, 1), 2)
    assert c == pt(F(1, 2), F(1, 2))
    assert verify_trace(trace).ok


def test_nsect_general_quarter():
    c, trace = nsect_segment(pt(0, 0), pt(2, 1), 4)
    assert c == pt(F(1, 2), F(1, 4))
    assert labeled_point(trace, "P") == pt(F(2, 3), F(-2, 3))
    # one chained circle, centered one segment-length beyond the start
    circles = drawn_circles(trace)
    assert len(circles) == 3
    assert circles[-1].center == pt(-2, -1)
    assert verify_trace(trace).ok


def test_nsect_rejects_bad_input():
    with pytest.raises(ConstructionError):
        nsect_segment(pt(0, 0), pt(1, 1), 1)
    with pytest.raises(ConstructionError):
        nsect_segment(pt(2, 2), pt(2, 2), 3)


@pytest.mark.parametrize(
    "a, b, message",
    [
        ((0, 0), (1, 1), "segment sectioning needs a Point a, got a = (0, 0)"),
        (pt(0, 0), (1, 1), "segment sectioning needs a Point b, got b = (1, 1)"),
        (pt(0, 0), "b", "segment sectioning needs a Point b, got b = 'b'"),
    ],
)
def test_nsect_rejects_an_end_that_is_not_a_point(a, b, message):
    with pytest.raises(ConstructionError) as caught:
        nsect_segment(a, b, 3)
    assert str(caught.value) == message


@pytest.mark.parametrize("n", [F(5, 2), 3.0, True, "3"])
def test_nsect_rejects_non_integer_parts(n):
    with pytest.raises(ConstructionError):
        nsect_segment(pt(0, 0), pt(3, 3), n)


def test_circle_count_grows_with_n():
    for n, expected in [(3, 2), (4, 3), (5, 4), (7, 6)]:
        _, trace = nsect_segment(pt(0, 0), pt(3, 3), n)
        assert len(drawn_circles(trace)) == expected


def chain_corner(a: Point, b: Point, n: int) -> TraceStep:
    """The first take-circle-vertex step of the n-section of AB, n >= 3,
    checked against where the chain walks: the circle it takes a corner of
    has radius d_t(A, B) and center A - (n - 3)(B - A), and the corner is
    the low one that ``_corner_pair`` names."""
    _, trace = nsect_segment(a, b, n)
    corner = next(s for s in trace.steps if s.kind is StepKind.TAKE_CIRCLE_VERTEX)
    circle = trace.steps[corner.inputs[0]].output
    center = Point(a.x - (n - 3) * (b.x - a.x), a.y - (n - 3) * (b.y - a.y))
    assert circle == TaxicabCircle(center, taxicab_distance(a, b))
    assert corner.vertex is constructions._corner_pair(b.x - a.x, b.y - a.y)[0]
    assert corner.output == circle_vertex(circle, corner.vertex)
    return corner


def test_chain_corner_examples():
    for b, n, south in [((1, 1), 3, (0, -2)), ((1, 1), 5, (-2, -4)), ((2, 1), 4, (-2, -4))]:
        corner = chain_corner(pt(0, 0), pt(*b), n)
        assert (corner.vertex, corner.output) == (CircleVertex.SOUTH, pt(*south))


@given(
    wide_points,
    st.one_of(
        st.tuples(small_rationals, small_rationals).filter(any).map(lambda t: Direction(*t)),
        small_rationals.filter(lambda l: l > 0).map(lambda l: Direction(l, l)),
    ),
    st.integers(3, 12),
)
@settings(max_examples=60, deadline=None)
def test_chain_corner_sits_behind_a(a, move, n):
    corner = chain_corner(a, along(a, move), n)
    if move.dx == move.dy > 0:
        assert corner.vertex is CircleVertex.SOUTH


def test_slope_one_intermediate_formulas():
    """For a=(0,0), b=(l,l): P=(l/(n-1), -l/(n-1)) and the two construction
    lines have slopes n/(n-2) and 1-2n."""
    for l in (F(1), F(2), F(5), F(7, 3)):
        b = Point(l, l)
        for n in range(3, 13):
            c, trace = nsect_segment(pt(0, 0), b, n)
            assert c == Point(l / n, l / n)
            assert taxicab_distance(pt(0, 0), c) == 2 * l / n
            p = labeled_point(trace, "P")
            assert p == Point(l / (n - 1), -l / (n - 1))
            lines = drawn_lines(trace)
            assert len(lines) == 3
            assert slope(lines[1]) == F(n, n - 2)
            assert slope(lines[2]) == 1 - 2 * n


# -------------------------------------------------------------- the oracle


@given(wide_points, wide_points, st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_construction_matches_parametric_division(a, b, n):
    if a == b:
        return
    c, trace = nsect_segment(a, b, n)
    assert c == parametric(a, b, n)
    assert verify_trace(trace).ok


HOSTILE_DIRECTIONS = [
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
    (3, 1), (1, 3), (-3, 1), (-1, 3), (-3, -1), (-1, -3), (3, -1), (1, -3),
]


def test_every_octant_and_axis():
    a = pt(F(1, 3), F(-2, 7))
    for dx, dy in HOSTILE_DIRECTIONS:
        b = along(a, Direction(F(dx), F(dy)))
        for n in (2, 3, 4, 5, 7):
            c, trace = nsect_segment(a, b, n)
            assert c == parametric(a, b, n)
            assert verify_trace(trace).ok


def test_bisect_twice_equals_quarter():
    a, b = pt(F(1, 2), F(-3)), pt(7, 2)
    half, _ = nsect_segment(a, b, 2)
    quarter_by_halves, _ = nsect_segment(a, half, 2)
    quarter, _ = nsect_segment(a, b, 4)
    assert quarter_by_halves == quarter


DIHEDRAL = [
    lambda p: (p.x, p.y),
    lambda p: (-p.y, p.x),
    lambda p: (-p.x, -p.y),
    lambda p: (p.y, -p.x),
    lambda p: (p.x, -p.y),
    lambda p: (-p.x, p.y),
    lambda p: (p.y, p.x),
    lambda p: (-p.y, -p.x),
]


@given(points, points, st.integers(2, 8), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_symmetry_commutes_with_construction(a, b, n, i):
    if a == b:
        return
    sym = DIHEDRAL[i]
    mapped = lambda p: Point(*[F(c) for c in sym(p)])
    direct, _ = nsect_segment(mapped(a), mapped(b), n)
    routed, _ = nsect_segment(a, b, n)
    assert direct == mapped(routed)


# ------------------------------------------------------------ verification


def test_verify_reports_every_step():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    report = verify_trace(trace)
    assert report.ok
    assert report.failure is None
    assert report.steps_checked == len(trace.steps)


def test_tampered_result_fails_at_the_mark():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    steps = list(trace.steps)
    steps[trace.result] = dataclasses.replace(steps[trace.result], output=pt(1, 2))
    tampered = dataclasses.replace(trace, steps=tuple(steps))
    report = verify_trace(tampered)
    assert not report.ok
    assert report.failure is not None
    assert report.failure.step == trace.result
    assert tampered.steps[report.failure.step].kind is StepKind.MARK_RESULT


def test_tampered_intermediate_fails_early():
    _, trace = nsect_segment(pt(0, 0), pt(2, 1), 4)
    index = next(i for i, s in enumerate(trace.steps) if s.label == "P")
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], output=pt(F(2, 3), F(-1, 3)))
    report = verify_trace(dataclasses.replace(trace, steps=tuple(steps)))
    assert not report.ok
    assert report.failure.step == index


def test_forward_reference_is_malformed():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    index = next(i for i, s in enumerate(trace.steps) if s.inputs)
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], inputs=(len(trace.steps) - 1,))
    with pytest.raises(MalformedTraceError):
        verify_trace(dataclasses.replace(trace, steps=tuple(steps)))


def test_result_must_be_a_mark():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    with pytest.raises(MalformedTraceError):
        verify_trace(dataclasses.replace(trace, result=0))


@pytest.mark.parametrize(
    "result, message",
    [
        # -1 would index the last step, the genuine mark, from the end
        (-1, "result reference out of range"),
        ("len", "result reference out of range"),
        (0, "result must reference a mark-result step"),
    ],
)
def test_result_reference_must_be_in_range(result, message):
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    if result == "len":
        result = len(trace.steps)
    with pytest.raises(MalformedTraceError) as caught:
        verify_trace(dataclasses.replace(trace, result=result))
    assert str(caught.value) == message


def test_coincident_lines_do_not_replay():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 2)
    assert trace.steps[8].kind is StepKind.INTERSECT_LINES
    steps = list(trace.steps)
    steps[8] = dataclasses.replace(steps[8], inputs=(7, 7))
    report = verify_trace(dataclasses.replace(trace, steps=tuple(steps)))
    assert not report.ok
    assert report.failure == StepFailure(8, "step does not replay")


@pytest.mark.parametrize("ends, ok", [((0, 0), False), ((1, 1), False), ((0, 1), True)])
def test_between_claim_on_one_point(ends, ok):
    """Between a point and itself lies only that point, and checking it
    builds no degenerate segment."""
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    mark = trace.steps[trace.result]
    steps = list(trace.steps)
    steps[trace.result] = dataclasses.replace(mark, claims=(BetweenClaim(*ends),))
    report = verify_trace(dataclasses.replace(trace, steps=tuple(steps)))
    assert report.ok is ok
    if not ok:
        assert report.failure == StepFailure(trace.result, f"claim {BetweenClaim(*ends)!r} does not hold")


@pytest.mark.parametrize("pick", [-3, 2])
def test_pick_out_of_range_does_not_replay(pick):
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    index = next(i for i, s in enumerate(trace.steps) if s.kind is StepKind.INTERSECT_LINE_CIRCLE)
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], pick=pick)
    report = verify_trace(dataclasses.replace(trace, steps=tuple(steps)))
    assert not report.ok
    assert report.failure == StepFailure(index, "step does not replay")


# Genuine traces to tamper with: segment n-sections with and without the
# circle chain, and an angle-section chord trace.
TAMPER_TRACES = {
    "nsect2": nsect_segment(pt(0, 0), pt(3, 3), 2)[1],
    "nsect3": nsect_segment(pt(F(-1, 2), 1), pt(2, F(-3, 4)), 3)[1],
    "nsect5": nsect_segment(pt(1, 1), pt(1, 4), 5)[1],
    "chord": section_angle(Angle(pt(2, -1), Direction(F(1), F(0)), Direction(F(1), F(1))), 3)[1],
}

_OPPOSITE = {
    CircleVertex.NORTH: CircleVertex.SOUTH,
    CircleVertex.SOUTH: CircleVertex.NORTH,
    CircleVertex.EAST: CircleVertex.WEST,
    CircleVertex.WEST: CircleVertex.EAST,
}


def _change_distance(step, change):
    claims = tuple(
        dataclasses.replace(c, value=change(c.value)) if isinstance(c, DistanceClaim) else c
        for c in step.claims
    )
    return dataclasses.replace(step, claims=claims)


def spanned_circle(step: TraceStep) -> bool:
    return step.kind is StepKind.DRAW_CIRCLE and len(step.inputs) == 3


def _matches(step: TraceStep, kind) -> bool:
    """Whether a step is of the kind, a StepKind or a predicate on steps."""
    return kind(step) if callable(kind) else step.kind is kind


# name -> (kind of the first step it changes, change(step, index, steps))
TAMPERS = {
    "shift-output": (
        StepKind.INTERSECT_LINES,
        lambda s, i, steps: dataclasses.replace(s, output=Point(s.output.x + 1, s.output.y)),
    ),
    "flip-pick": (
        StepKind.INTERSECT_LINE_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, pick=1 - s.pick),
    ),
    "swap-vertex": (
        StepKind.TAKE_CIRCLE_VERTEX,
        lambda s, i, steps: dataclasses.replace(s, vertex=_OPPOSITE[s.vertex]),
    ),
    "bump-distance-claim": (StepKind.MARK_RESULT, lambda s, i, steps: _change_distance(s, lambda v: v + 1)),
    "self-reference": (
        StepKind.DRAW_LINE,
        lambda s, i, steps: dataclasses.replace(s, inputs=(s.inputs[0], i)),
    ),
    "grow-circle": (
        StepKind.DRAW_CIRCLE,
        lambda s, i, steps: dataclasses.replace(
            s, output=TaxicabCircle(s.output.center, s.output.radius + 1)
        ),
    ),
    "move-mark": (StepKind.MARK_RESULT, lambda s, i, steps: dataclasses.replace(s, output=steps[0].output)),
    "line-as-crossing": (
        StepKind.DRAW_LINE,
        lambda s, i, steps: dataclasses.replace(s, kind=StepKind.INTERSECT_LINES),
    ),
    "line-with-itself": (
        StepKind.INTERSECT_LINES,
        lambda s, i, steps: dataclasses.replace(s, inputs=(s.inputs[0], s.inputs[0])),
    ),
    "pick-below-range": (
        StepKind.INTERSECT_LINE_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, pick=-3),
    ),
    "pick-as-text": (
        StepKind.INTERSECT_LINE_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, pick=str(s.pick)),
    ),
    "vertex-as-text": (
        StepKind.TAKE_CIRCLE_VERTEX,
        lambda s, i, steps: dataclasses.replace(s, vertex=s.vertex.value),
    ),
    "float-input": (
        StepKind.DRAW_LINE,
        lambda s, i, steps: dataclasses.replace(s, inputs=(s.inputs[0], float(s.inputs[1]))),
    ),
    "float-radius": (
        StepKind.DRAW_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, inputs=s.inputs[:1], radius=0.5),
    ),
    "inputs-as-int": (StepKind.DRAW_LINE, lambda s, i, steps: dataclasses.replace(s, inputs=5)),
    "claims-as-none": (StepKind.MARK_RESULT, lambda s, i, steps: dataclasses.replace(s, claims=None)),
    "float-claim": (StepKind.MARK_RESULT, lambda s, i, steps: _change_distance(s, float)),
    "bool-claim": (StepKind.MARK_RESULT, lambda s, i, steps: _change_distance(s, bool)),
    # Fields that the changed step's kind does not use.
    "pick-on-line": (StepKind.DRAW_LINE, lambda s, i, steps: dataclasses.replace(s, pick=0)),
    "radius-on-spanned-circle": (
        spanned_circle,
        lambda s, i, steps: dataclasses.replace(s, radius=s.output.radius),
    ),
    "vertex-on-mark": (
        StepKind.MARK_RESULT,
        lambda s, i, steps: dataclasses.replace(s, vertex=CircleVertex.NORTH),
    ),
}

# Forgeries the verifier does not catch yet; strict, so a fix shows up here.
OPEN_FORGERIES = {
    "place-circle": (
        StepKind.DRAW_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, kind=StepKind.PLACE_POINT, inputs=(), radius=None),
    ),
    "pick-alias": (
        StepKind.INTERSECT_LINE_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, pick=s.pick - 2),
    ),
    "claim-on-circle": (
        StepKind.DRAW_CIRCLE,
        lambda s, i, steps: dataclasses.replace(s, claims=(OnLineClaim(i - 1),)),
    ),
}


def _tamper_cases(tampers, marks=()):
    return [
        pytest.param(trace_name, name, id=f"{trace_name}-{name}", marks=marks)
        for trace_name, trace in TAMPER_TRACES.items()
        for name, (kind, _) in tampers.items()
        if any(_matches(step, kind) for step in trace.steps)
    ]


def _tampered(trace: ConstructionTrace, kind, change) -> ConstructionTrace:
    """The trace with its first step of the kind changed."""
    index = next(i for i, step in enumerate(trace.steps) if _matches(step, kind))
    steps = list(trace.steps)
    steps[index] = change(steps[index], index, steps)
    return ConstructionTrace(tuple(steps), trace.result)


def _assert_tamper_caught(trace: ConstructionTrace, kind, change) -> None:
    try:
        report = verify_trace(_tampered(trace, kind, change))
    except MalformedTraceError:
        return
    assert not report.ok


@pytest.mark.parametrize("trace_name, tamper", _tamper_cases(TAMPERS))
def test_tampered_trace_is_caught(trace_name, tamper):
    _assert_tamper_caught(TAMPER_TRACES[trace_name], *TAMPERS[tamper])


@pytest.mark.parametrize(
    "trace_name, tamper",
    _tamper_cases(OPEN_FORGERIES, pytest.mark.xfail(strict=True, reason="verifier does not catch it yet")),
)
def test_open_forgery_is_caught(trace_name, tamper):
    _assert_tamper_caught(TAMPER_TRACES[trace_name], *OPEN_FORGERIES[tamper])


@dataclasses.dataclass(frozen=True)
class CircleClaim:
    """The shape of an on-circle claim, which no builder writes and the
    checker does not take."""

    circle_step: int


# Step 3 of this trace is the circle about B, spanned by A and B.  Fields
# that are not a dict are passed to verify_trace in place of the trace.
HEADER_ERRORS = {
    "not-a-trace-none": (None, "trace is not a ConstructionTrace"),
    "not-a-trace-int": (5, "trace is not a ConstructionTrace"),
    "not-a-trace-str": ("trace", "trace is not a ConstructionTrace"),
    "inputs-not-sequence": ({"inputs": 5}, "step 3 inputs are not a sequence"),
    "claims-not-sequence": ({"claims": None}, "step 3 claims are not a sequence"),
    "unknown-claim": ({"claims": ("on",)}, "unknown claim 'on'"),
    "circle-claim": ({"claims": (CircleClaim(0),)}, "unknown claim CircleClaim(circle_step=0)"),
    "inexact-distance": (
        {"claims": (DistanceClaim(0, 0.5),)},
        "step 3 claims a distance that is not exact",
    ),
    "non-integer-reference": ({"inputs": (1, 1.0, 1)}, "step 3 has a non-integer reference 1.0"),
    "forward-reference": ({"inputs": (1, 0, 7)}, "step 3 references step 7"),
    "radius-on-spanned-circle": (
        {"radius": F(99)},
        "step 3 has a radius, which only a one-input draw-circle takes",
    ),
    "pick-on-circle": ({"pick": 0}, "step 3 has a pick, which only intersect-line-circle takes"),
    "vertex-on-circle": (
        {"vertex": CircleVertex.EAST},
        "step 3 has a vertex, which only take-circle-vertex takes",
    ),
}


@pytest.mark.parametrize("case", HEADER_ERRORS)
def test_header_error_message(case):
    fields, message = HEADER_ERRORS[case]
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    assert spanned_circle(trace.steps[3])
    subject = fields
    if isinstance(fields, dict):
        steps = list(trace.steps)
        steps[3] = dataclasses.replace(steps[3], **fields)
        subject = dataclasses.replace(trace, steps=tuple(steps))
    with pytest.raises(MalformedTraceError) as caught:
        verify_trace(subject)
    assert str(caught.value) == message


# Step 4 of the same trace is the circle about A, after points A and B, line
# AB and the circle about B.  Each entry changes it into a step that
# _check_step refuses as malformed.
_LC, _LL = StepKind.INTERSECT_LINE_CIRCLE, StepKind.INTERSECT_LINES
_VERTEX, _MARK = StepKind.TAKE_CIRCLE_VERTEX, StepKind.MARK_RESULT
STEP_ERRORS = {
    "draw-circle-count": ({"inputs": (3, 0)}, "draw-circle takes 1 or 3 inputs"),
    "draw-line-count": ({"kind": StepKind.DRAW_LINE, "inputs": (0,)}, "draw-line takes 2 inputs"),
    "line-circle-count": ({"kind": _LC, "inputs": (2,), "pick": 0}, "intersect-line-circle takes 2 inputs"),
    "lines-count": ({"kind": _LL, "inputs": (2, 2, 2)}, "intersect-lines takes 2 inputs"),
    "vertex-count": (
        {"kind": _VERTEX, "inputs": (), "vertex": CircleVertex.NORTH},
        "take-circle-vertex takes 1 input",
    ),
    "mark-count": ({"kind": _MARK, "inputs": (0, 1)}, "mark-result takes 1 input"),
    "place-count": ({"kind": StepKind.PLACE_POINT, "inputs": (0,)}, "place-point takes no inputs"),
    "center-not-a-point": ({"inputs": (2, 0, 1)}, "step input 2 is not a point"),
    "span-not-a-point": ({"inputs": (0, 0, 3)}, "step input 3 is not a point"),
    "fixed-center-not-a-point": ({"inputs": (3,), "radius": F(1)}, "step input 3 is not a point"),
    "line-end-not-a-point": ({"kind": StepKind.DRAW_LINE, "inputs": (0, 2)}, "step input 2 is not a point"),
    "mark-not-a-point": ({"kind": _MARK, "inputs": (3,)}, "step input 3 is not a point"),
    "crossing-line-not-a-line": ({"kind": _LC, "inputs": (0, 3), "pick": 0}, "step input 0 is not a line"),
    "second-line-not-a-line": ({"kind": _LL, "inputs": (2, 3)}, "step input 3 is not a line"),
    "crossing-circle-not-a-circle": (
        {"kind": _LC, "inputs": (2, 1), "pick": 0},
        "step input 1 is not a circle",
    ),
    "corner-of-a-line": (
        {"kind": _VERTEX, "inputs": (2,), "vertex": CircleVertex.EAST},
        "step input 2 is not a circle",
    ),
    "pick-as-text": (
        {"kind": _LC, "inputs": (2, 3), "pick": "0"},
        "intersect-line-circle needs an integer pick index",
    ),
    "pick-as-bool": (
        {"kind": _LC, "inputs": (2, 3), "pick": True},
        "intersect-line-circle needs an integer pick index",
    ),
    "pick-missing": ({"kind": _LC, "inputs": (2, 3)}, "intersect-line-circle needs an integer pick index"),
    "vertex-missing": ({"kind": _VERTEX, "inputs": (3,)}, "take-circle-vertex needs a vertex name"),
    "vertex-as-text": (
        {"kind": _VERTEX, "inputs": (3,), "vertex": "N"},
        "take-circle-vertex needs a vertex name",
    ),
    "radius-missing": ({"inputs": (0,)}, "draw-circle needs an integer or Fraction radius"),
    "radius-as-float": ({"inputs": (0,), "radius": 0.5}, "draw-circle needs an integer or Fraction radius"),
    "kind-unhashable": ({"kind": []}, "unknown step kind []"),
    "kind-as-text": ({"kind": "draw-circle"}, "unknown step kind 'draw-circle'"),
    "kind-none": ({"kind": None}, "unknown step kind None"),
}


@pytest.mark.parametrize("case", STEP_ERRORS)
def test_step_error_message(case):
    fields, message = STEP_ERRORS[case]
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    assert spanned_circle(trace.steps[4]) and trace.steps[4].inputs == (0, 0, 1)
    with pytest.raises(MalformedTraceError) as caught:
        verify_trace(_replaced(trace, 4, **fields))
    assert str(caught.value) == message


def test_steps_that_are_not_a_sequence_are_malformed():
    with pytest.raises(MalformedTraceError) as caught:
        verify_trace(ConstructionTrace(None, 0))
    assert str(caught.value) == "trace steps are not a sequence"


def test_step_that_is_not_a_trace_step_is_malformed():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    with pytest.raises(MalformedTraceError) as caught:
        verify_trace(dataclasses.replace(trace, steps=(5, *trace.steps[1:])))
    assert str(caught.value) == "step 0 is not a TraceStep"


@pytest.mark.parametrize(
    "b, n, value",
    [(pt(3, 3), 3, 2.0), (pt(1, 1), 2, True)],
    ids=["float", "bool"],
)
def test_inexact_distance_claim_is_malformed(b, n, value):
    """The claim value equals the exact distance, so only its type is wrong."""
    _, trace = nsect_segment(pt(0, 0), b, n)
    mark = trace.steps[trace.result]
    assert DistanceClaim(0, value) in mark.claims
    claims = (BetweenClaim(0, 1), DistanceClaim(0, value))
    steps = list(trace.steps)
    steps[trace.result] = dataclasses.replace(mark, claims=claims)
    with pytest.raises(MalformedTraceError):
        verify_trace(dataclasses.replace(trace, steps=tuple(steps)))


# --------------------------------------------------------- angle sectioning


ORIGIN = pt(0, 0)


def d(dx, dy) -> Direction:
    return Direction(F(dx), F(dy))


def crossing_points(vertex, rays, radius):
    """Where each returned ray pierces the circle of that radius."""
    out = []
    for ray in rays:
        w = ray.direction
        out.append(along(vertex, w, radius / (abs(w.dx) + abs(w.dy))))
    return tuple(out)


def test_bisect_edge_angle():
    angle = Angle(ORIGIN, d(1, 0), d(1, 1))
    rays, trace = section_angle(angle, 2)
    assert len(rays) == 1
    # the ray from the vertex through (3/4, 1/4)
    assert rays[0].origin == ORIGIN and rays[0].direction.dx == 3 * rays[0].direction.dy > 0
    assert measure_between(d(1, 0), rays[0].direction) == F(1, 2)
    assert measure_between(rays[0].direction, d(1, 1)) == F(1, 2)
    assert trace is not None
    assert verify_trace(trace).ok
    assert trace.marked_points() == (pt(F(3, 4), F(1, 4)),)


def test_bisect_quadrant():
    angle = Angle(ORIGIN, d(1, 0), d(0, 1))
    rays, trace = section_angle(angle, 2)
    # the ray from the vertex through (1/2, 1/2)
    assert rays[0].origin == ORIGIN and rays[0].direction.dx == rays[0].direction.dy > 0
    assert measure_between(d(1, 0), rays[0].direction) == 1
    # both sides meet the same (closed) edge, so the chord trace exists
    assert trace is not None and verify_trace(trace).ok


def test_quarter_straight_angle():
    angle = Angle(ORIGIN, d(1, 0), d(-1, 0))
    rays, trace = section_angle(angle, 4)
    assert trace is None
    hits = crossing_points(ORIGIN, rays, F(1))
    assert hits == (pt(F(1, 2), F(1, 2)), pt(0, 1), pt(F(-1, 2), F(1, 2)))


@pytest.mark.parametrize("angle", ["x", (ORIGIN, d(1, 0), d(1, 1))], ids=["text", "tuple-angle"])
def test_section_rejects_an_angle_that_is_not_an_angle(angle):
    with pytest.raises(ConstructionError) as caught:
        section_angle(angle, 3)
    assert str(caught.value) == f"angle sectioning needs an Angle of a Point and two Directions, got {angle!r}"


def test_section_rejects_bad_input():
    with pytest.raises(ConstructionError):
        section_angle(Angle(ORIGIN, d(1, 0), d(2, 0)), 3)
    with pytest.raises(ConstructionError):
        section_angle(Angle(ORIGIN, d(1, 0), d(0, 1)), 1)
    with pytest.raises(ConstructionError):
        section_angle(Angle(ORIGIN, d(1, 0), d(0, 1)), 2, radius=0)


@pytest.mark.parametrize("n", [F(5, 2), 3.0, True, "3"])
def test_section_rejects_non_integer_parts(n):
    with pytest.raises(ConstructionError):
        section_angle(Angle(ORIGIN, d(1, 0), d(0, 1)), n)


def test_section_radius_is_exact():
    angle = Angle(ORIGIN, d(1, 0), d(1, 1))
    with pytest.raises(TypeError):
        section_angle(angle, 2, radius=0.1)
    _, trace = section_angle(angle, 2, radius="1/10")
    assert trace is not None
    assert drawn_circles(trace)[0].radius == F(1, 10)


def test_section_radius_does_not_change_rays():
    angle = Angle(pt(2, -1), d(1, 0), d(1, 1))
    for radius in (F(1), F(3), F(2, 7)):
        rays, trace = section_angle(angle, 3, radius=radius)
        assert [r.direction for r in rays] == [
            r.direction for r in section_angle(angle, 3)[0]
        ]
        assert trace is not None and verify_trace(trace).ok


directions_st = (
    st.tuples(rationals, rationals)
    .filter(lambda t: t != (0, 0))
    .map(lambda t: Direction(t[0], t[1]))
)


@given(points, directions_st, directions_st, st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_section_splits_measure_exactly(vertex, d1, d2, n):
    angle = Angle(vertex, d1, d2)
    total = measure_angle(angle)
    if total == 0:
        return
    rays, trace = section_angle(angle, n)
    assert len(rays) == n - 1
    chain = [Ray(vertex, d1), *rays, Ray(vertex, d2)]
    # the sweep starts at whichever side gives the non-reflex turn; accept
    # either orientation when checking consecutive sub-angles
    subs = [
        measure_between(x.direction, y.direction) for x, y in zip(chain, chain[1:])
    ]
    if subs[0] != total / n:
        chain = [Ray(vertex, d2), *rays, Ray(vertex, d1)]
        subs = [
            measure_between(x.direction, y.direction) for x, y in zip(chain, chain[1:])
        ]
    assert all(s == total / n for s in subs)
    assert sum(subs) == total


@given(points, directions_st, directions_st, st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_section_rays_strictly_ordered(vertex, d1, d2, n):
    angle = Angle(vertex, d1, d2)
    if measure_angle(angle) == 0:
        return
    rays, _ = section_angle(angle, n)
    t1, t2 = direction_to_param(d1), direction_to_param(d2)
    start = t1 if (t2 - t1) % 8 <= 4 else t2
    relative = [(direction_to_param(r.direction) - start) % 8 for r in rays]
    assert relative == sorted(relative)
    assert len(set(relative)) == len(relative)


def reference_param(w: Direction) -> F:
    """The arc parameter in Fraction arithmetic: t = 2 - 2x, or 6 + 2x when
    dy < 0, for the unit-circle point (x, y) in direction w."""
    x = w.dx / (abs(w.dx) + abs(w.dy))
    return 6 + 2 * x if w.dy < 0 else 2 - 2 * x


def reference_sweep(angle: Angle) -> tuple[F, F]:
    """Start and sweep of the non-reflex turn between the sides, in
    Fraction arithmetic: the counterclockwise sweep from side1 mod 8, taken
    the other way round from where it ended when it is past 4."""
    start = reference_param(angle.side1)
    sweep = (reference_param(angle.side2) - start) % 8
    if sweep > 4:
        start, sweep = (start + sweep) % 8, 8 - sweep
    return start, sweep


def reference_section_rays(angle: Angle, n: int) -> tuple[Ray, ...]:
    """The interior rays in Fraction arithmetic: t_k = start + sweep*k/n
    mod 8, swept the non-reflex way round."""
    start, sweep = reference_sweep(angle)
    return tuple(Ray(angle.vertex, unit_direction((start + sweep * k / n) % 8)) for k in range(1, n))


def unit_direction(t: F) -> Direction:
    """The direction to the unit-circle point at arc parameter t in [0, 8),
    in Fraction arithmetic."""
    if t <= 4:
        x = 1 - t / 2
        return Direction(x, 1 - abs(x))
    x = (t - 6) / 2
    return Direction(x, abs(x) - 1)


wide_directions_st = st.one_of(
    st.tuples(small_rationals, small_rationals).filter(lambda t: t != (0, 0)).map(lambda t: Direction(*t)),
    st.sampled_from(HOSTILE_DIRECTIONS).map(lambda t: d(*t)),
)


sides_st = st.one_of(wide_directions_st, wide_directions)


@given(wide_points, sides_st, sides_st, st.integers(2, 20), st.sampled_from([F(1), F(5, 3)]), st.data())
@settings(max_examples=300, deadline=None)
def test_section_rays_match_the_fraction_formula(vertex, d1, d2, n, radius, data):
    """``section_angle`` takes its start, sweep, reflex swap and corner test
    in ints over one denominator.  They agree with the Fraction arithmetic
    of :func:`reference_sweep`: the same rays, no trace exactly when the
    sweep passes a corner, and a zero angle refused, here for a side and a
    multiple of it as well as for any two sides of equal parameter."""
    if data.draw(st.integers(0, 4)) == 0:
        scale = data.draw(st.sampled_from([F(2), F(1, 3), F(2**127 - 1, 7)]))
        d2 = Direction(d1.dx * scale, d1.dy * scale)
    for side in (d1, d2):
        assert direction_to_param(side) == reference_param(side)
    angle = Angle(vertex, d1, d2)
    start, sweep = reference_sweep(angle)
    if sweep == 0:
        with pytest.raises(ConstructionError, match="cannot section a zero angle"):
            section_angle(angle, n, radius)
        return
    rays, trace = section_angle(angle, n, radius)
    want = reference_section_rays(angle, n)
    assert rays == want
    assert repr(rays) == repr(want)
    assert (trace is None) == (start + sweep > 2 * (start // 2 + 1))


@given(
    st.fractions(min_value=0, max_value=8, max_denominator=16).filter(lambda t: t < 8),
    st.integers(2, 8),
    st.integers(1, 8),
    st.sampled_from([F(1), F(5, 3), F(2)]),
)
@settings(max_examples=80, deadline=None)
def test_same_edge_sections_carry_matching_traces(start, n, eighths, radius):
    """Both sides on one circle edge: the chord trace must verify and its
    marks must sit exactly where the rays pierce the circle."""
    edge_end = 2 * (start // 2 + 1)
    sweep = (edge_end - start) * eighths / 8
    if sweep == 0:
        return
    vertex = pt(F(1, 3), F(-2, 7))
    d1 = unit_direction(start)
    d2 = unit_direction((start + sweep) % 8)
    angle = Angle(vertex, d1, d2)
    rays, trace = section_angle(angle, n, radius=radius)
    assert trace is not None
    assert verify_trace(trace).ok
    assert trace.marked_points() == crossing_points(vertex, rays, radius)


# ------------------------------------------------------ chord trace length

EDGE_ANGLE = Angle(ORIGIN, d(1, 0), d(1, 1))


def test_chord_trace_bisection_is_pinned():
    """n = 2 is one segment bisection of the chord, step for step.  Only
    the mark carries claims: the verifier checks each crossing by its
    incidences and replays each corner."""
    P, K = pt, StepKind
    circle = lambda x, y, r: TaxicabCircle(pt(x, y), F(r))
    line = lambda a, b, c: Line(F(a), F(b), F(c))
    expected = (
        TraceStep(K.PLACE_POINT, (), P(0, 0), label="A"),
        TraceStep(K.PLACE_POINT, (), P(2, 0)),
        TraceStep(K.PLACE_POINT, (), P(1, 1)),
        TraceStep(K.DRAW_CIRCLE, (0,), circle(0, 0, 1), radius=F(1)),
        TraceStep(K.DRAW_LINE, (0, 1), line(0, 1, 0)),
        TraceStep(K.INTERSECT_LINE_CIRCLE, (4, 3), P(1, 0), label="B", pick=1),
        TraceStep(K.DRAW_LINE, (0, 2), line(1, -1, 0)),
        TraceStep(K.INTERSECT_LINE_CIRCLE, (6, 3), P(F(1, 2), F(1, 2)), label="C", pick=1),
        TraceStep(K.DRAW_LINE, (5, 7), line(1, 1, 1)),
        TraceStep(K.DRAW_CIRCLE, (7, 5, 7), circle(F(1, 2), F(1, 2), 1)),
        TraceStep(K.DRAW_CIRCLE, (5, 5, 7), circle(1, 0, 1)),
        TraceStep(K.TAKE_CIRCLE_VERTEX, (10,), P(1, -1), vertex=CircleVertex.SOUTH),
        TraceStep(K.TAKE_CIRCLE_VERTEX, (9,), P(F(1, 2), F(3, 2)), vertex=CircleVertex.NORTH),
        TraceStep(K.DRAW_LINE, (11, 12), line(1, F(1, 5), F(4, 5))),
        TraceStep(K.INTERSECT_LINES, (13, 8), P(F(3, 4), F(1, 4))),
        TraceStep(
            K.MARK_RESULT, (14,), P(F(3, 4), F(1, 4)), (BetweenClaim(5, 7), DistanceClaim(5, F(1, 2))),
            label="M1",
        ),
    )
    _, trace = section_angle(EDGE_ANGLE, 2)
    assert trace == ConstructionTrace(expected, 15)


@pytest.mark.parametrize("n", [2, 3, 4, 16, 60, 120])
def test_chord_trace_is_linear_in_n(n):
    _, trace = section_angle(EDGE_ANGLE, n)
    assert len(trace.steps) == (16 if n == 2 else 5 * n + 6)


def _shifted(step: TraceStep, index_map) -> TraceStep:
    def remap(claim):
        fields = {f.name: index_map(getattr(claim, f.name)) for f in dataclasses.fields(claim) if f.name != "value"}
        return dataclasses.replace(claim, **fields)

    inputs = tuple(index_map(i) for i in step.inputs)
    return dataclasses.replace(step, inputs=inputs, claims=tuple(remap(c) for c in step.claims))


@given(
    st.fractions(min_value=0, max_value=8, max_denominator=16).filter(lambda t: t < 8),
    st.integers(2, 16),
    st.integers(1, 8),
    st.sampled_from([F(1), F(5, 3), F(2)]),
)
@settings(max_examples=40, deadline=None)
def test_chord_trace_marks_m1_by_one_segment_nsection(start, n, eighths, radius):
    """Through M1 the chord trace is the segment n-section of the chord Q1Q2
    (steps 5 and 7), relabelled; the rest is the compass walk."""
    edge_end = 2 * (start // 2 + 1)
    sweep = (edge_end - start) * eighths / 8
    if sweep == 0:
        return
    vertex = pt(F(1, 3), F(-2, 7))
    d1 = unit_direction(start)
    d2 = unit_direction((start + sweep) % 8)
    _, trace = section_angle(Angle(vertex, d1, d2), n, radius=radius)
    q1, q2 = trace.steps[5].output, trace.steps[7].output
    _, segment = nsect_segment(q1, q2, n)
    index_map = lambda i: {0: 5, 1: 7}.get(i, i + 6)
    relabel = {"C": "M1", "P": None}
    expected = [
        dataclasses.replace(_shifted(step, index_map), label=relabel.get(step.label, step.label))
        for step in segment.steps[2:]
    ]
    assert list(trace.steps[8 : 2 * n + 12]) == expected
    walk_step = [StepKind.DRAW_CIRCLE, StepKind.INTERSECT_LINE_CIRCLE, StepKind.MARK_RESULT]
    assert [s.kind for s in trace.steps[2 * n + 12 :]] == walk_step * (n - 2)


def test_chord_trace_at_sixty_marks_the_ray_crossings():
    vertex, radius = pt(F(1, 3), F(-2, 7)), F(5, 3)
    angle = Angle(vertex, d(1, F(1, 7)), d(F(2, 9), 1))
    rays, trace = section_angle(angle, 60, radius=radius)
    assert trace.marked_points() == crossing_points(vertex, rays, radius)
    assert verify_trace(trace).ok


def test_chord_trace_runs_one_segment_nsection(monkeypatch):
    calls = []
    original = constructions._append_nsect

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(constructions, "_append_nsect", counted)
    section_angle(EDGE_ANGLE, 16)
    assert calls == [16]


@pytest.mark.parametrize(
    "build",
    [lambda: nsect_segment(pt(F(1, 3), -2), pt(5, F(7, 2)), 16), lambda: section_angle(EDGE_ANGLE, 16)],
    ids=["nsect", "chord"],
)
def test_build_measures_the_segment_once(monkeypatch, build):
    """Every circle is drawn with the opening it spans, L or L / n, so the
    length L is the one distance a build computes."""
    calls = []
    original = constructions.taxicab_distance

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(constructions, "taxicab_distance", counted)
    build()
    assert len(calls) == 1


class AliasRef(int):
    """A step reference that hashes and compares like another one."""

    def __new__(cls, value, alias):
        ref = super().__new__(cls, value)
        ref.alias = alias
        return ref

    def __hash__(self):
        return hash(self.alias)

    def __eq__(self, other):
        return other == self.alias


def test_a_span_is_not_taken_from_a_reference_that_compares_like_another():
    """The circle about A spanned by A and C has radius 1, not the 2 that
    A and B span, even when the references to A and C hash and compare like
    those to A and B."""
    K = StepKind
    steps = (
        TraceStep(K.PLACE_POINT, (), pt(0, 0)),
        TraceStep(K.PLACE_POINT, (), pt(2, 0)),
        TraceStep(K.PLACE_POINT, (), pt(1, 0)),
        TraceStep(K.DRAW_CIRCLE, (0, 0, 1), TaxicabCircle(pt(0, 0), F(2))),
        TraceStep(K.DRAW_CIRCLE, (0, AliasRef(0, 0), AliasRef(2, 1)), TaxicabCircle(pt(0, 0), F(2))),
        TraceStep(K.MARK_RESULT, (0,), pt(0, 0)),
    )
    report = verify_trace(ConstructionTrace(steps, 5))
    assert not report.ok and report.failure.step == 4


@pytest.mark.parametrize(
    "build, solved",
    [(lambda: nsect_segment(pt(F(1, 3), -2), pt(5, F(7, 2)), 16), 1), (lambda: section_angle(EDGE_ANGLE, 16), 5)],
    ids=["nsect", "chord"],
)
def test_build_computes_crossings_on_the_segment_in_closed_form(monkeypatch, build, solved):
    """Only P and, in a chord trace, the two helper points and the two side
    crossings are computed by ``circle_point_toward``: the chain centers and
    the walk marks on line AB are written down from A and B."""
    calls = []
    original = constructions.circle_point_toward

    def counted(circle, w):
        calls.append(w)
        return original(circle, w)

    monkeypatch.setattr(constructions, "circle_point_toward", counted)
    build()
    assert len(calls) == solved


@pytest.mark.parametrize(
    "build",
    [
        *(lambda n=n: nsect_segment(pt(F(1, 3), -2), pt(5, F(7, 2)), n) for n in (2, 3, 12)),
        lambda: section_angle(EDGE_ANGLE, 16),
    ],
    ids=["nsect-2", "nsect-3", "nsect-12", "chord-16"],
)
def test_verify_builds_no_fraction(build):
    """Points and lines are stored in int form and every check compares
    ints, so verifying a trace builds no Fraction: no line or point is ever
    taken over a common denominator."""
    _, trace = build()
    assert fractions_built(lambda: verify_trace(trace)) == 0
    assert verify_trace(trace).ok


def test_build_fraction_counts():
    """The builder computes its points and directions from the int forms.
    An n-section builds 2 Fractions: the length L and the part L/n.  A
    chord sectioning takes its sweep, its rays and its mark checks in ints.
    Past the 2 of its one n-section it builds the radius, the doubled
    radius that places the helper points, and the distance claim of each
    further mark: 2 + 2 + 14 = 18."""
    a, b = pt(F(1, 3), -2), pt(5, F(7, 2))
    assert fractions_built(lambda: nsect_segment(a, b, 12)) == 2
    assert fractions_built(lambda: section_angle(EDGE_ANGLE, 16)) == 18


def test_chord_mark_off_its_ray_is_refused(monkeypatch):
    original = constructions._chord_trace

    def moved_m3(*args):
        trace = original(*args)
        steps = list(trace.steps)
        index = next(i for i, step in enumerate(steps) if step.label == "M3")
        steps[index] = dataclasses.replace(steps[index], output=along(steps[index].output, d(0, F(1, 9))))
        return dataclasses.replace(trace, steps=tuple(steps))

    monkeypatch.setattr(constructions, "_chord_trace", moved_m3)
    with pytest.raises(PostconditionError) as caught:
        section_angle(EDGE_ANGLE, 5)
    assert str(caught.value) == "chord mark M3 is (7/10, 37/90), expected (7/10, 3/10)"
    assert not verify_trace(caught.value.trace).ok


def test_nsect_from_swapped_corners_is_refused(monkeypatch):
    original = constructions._corner_pair
    monkeypatch.setattr(constructions, "_corner_pair", lambda dx, dy: original(dx, dy)[::-1])
    with pytest.raises(PostconditionError) as caught:
        nsect_segment(pt(1, 2), pt(-3, 7), 5)
    assert str(caught.value) == "construction produced (7/3, 1/3), expected (1/5, 3)"
    assert not verify_trace(caught.value.trace).ok


# ------------------------------------------ crossings named by direction


def assert_lines_pass_through_centers(trace: ConstructionTrace) -> None:
    """The condition of the builder's pick rule: every line met with a
    circle passes through the circle's center.  And the crossing that the
    builder recorded from its direction is the kernel's solve of the line
    and the circle at the recorded ``pick``, field for field."""
    outputs = [step.output for step in trace.steps]
    crossings = [step for step in trace.steps if step.kind is StepKind.INTERSECT_LINE_CIRCLE]
    for step in crossings:
        line, circle = outputs[step.inputs[0]], outputs[step.inputs[1]]
        assert line.contains(circle.center)
        solved = points_of(intersect_line_circle(line, circle))[step.pick]
        assert solved == step.output
        assert repr(solved) == repr(step.output)


@given(
    wide_points,
    st.one_of(st.sampled_from(HOSTILE_DIRECTIONS).map(lambda t: d(*t)), directions_st),
    st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
    st.integers(2, 12),
)
@settings(max_examples=80, deadline=None)
def test_nsect_meets_circles_through_their_centers(a, direction, scale, n):
    _, trace = nsect_segment(a, along(a, direction, scale), n)
    assert_lines_pass_through_centers(trace)


@given(
    st.fractions(min_value=0, max_value=8, max_denominator=16).filter(lambda t: t < 8),
    st.integers(2, 16),
    st.integers(1, 8),
    st.sampled_from([F(1), F(5, 3), F(2)]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_chord_trace_meets_circles_through_their_centers(start, n, eighths, radius, swap):
    sweep = (2 * (start // 2 + 1) - start) * eighths / 8
    d1 = unit_direction(start)
    d2 = unit_direction((start + sweep) % 8)
    if swap:
        d1, d2 = d2, d1
    _, trace = section_angle(Angle(pt(F(1, 3), F(-2, 7)), d1, d2), n, radius=radius)
    assert_lines_pass_through_centers(trace)


# ------------------------------------- incidence checks against the replay


def _fraction_claim_holds(claim, subject: Point, outputs) -> bool:
    """The claims as the replay checked them, in Fraction arithmetic."""
    if isinstance(claim, OnLineClaim):
        line = outputs[claim.line_step]
        return isinstance(line, Line) and line.a * subject.x + line.b * subject.y == line.c
    if isinstance(claim, BetweenClaim):
        p, q = outputs[claim.p_step], outputs[claim.q_step]
        if not (isinstance(p, Point) and isinstance(q, Point)):
            return False
        if subject in (p, q):
            return True
        if p == q or (subject.x - p.x) * (q.y - p.y) != (subject.y - p.y) * (q.x - p.x):
            return False
        return min(p.x, q.x) <= subject.x <= max(p.x, q.x) and min(p.y, q.y) <= subject.y <= max(p.y, q.y)
    anchor = outputs[claim.from_step]
    return isinstance(anchor, Point) and taxicab_distance(anchor, subject) == claim.value


def _step_output(kind, inputs, outputs, pick=None, radius=None, vertex=None):
    """The one output of a computed step, replayed with the kernel's solvers
    from the outputs of the steps before it, or None when the step cannot
    be carried out, as when a line meets a circle off its center.  A wrong
    number or kind of inputs, or a ``pick`` that is not an int, raises
    :class:`MalformedTraceError`."""
    expect, take = constructions._expect, constructions._input
    if kind is StepKind.DRAW_CIRCLE:
        expect(len(inputs) in (1, 3), "draw-circle takes 1 or 3 inputs")
        center = take(outputs, inputs[0], Point, "point")
        if len(inputs) == 3:
            p, q = take(outputs, inputs[1], Point, "point"), take(outputs, inputs[2], Point, "point")
            radius = taxicab_distance(p, q)
        else:
            expect(constructions._is_exact(radius), "draw-circle needs an integer or Fraction radius")
        try:
            return TaxicabCircle(center, radius)
        except GeometryError:  # the radius is not positive
            return None
    if kind is StepKind.DRAW_LINE:
        expect(len(inputs) == 2, "draw-line takes 2 inputs")
        p = take(outputs, inputs[0], Point, "point")
        q = take(outputs, inputs[1], Point, "point")
        return line_through(p, q) if p != q else None
    if kind is StepKind.INTERSECT_LINE_CIRCLE:
        expect(len(inputs) == 2, "intersect-line-circle takes 2 inputs")
        line = take(outputs, inputs[0], Line, "line")
        circle = take(outputs, inputs[1], TaxicabCircle, "circle")
        expect(constructions._is_int(pick), "intersect-line-circle needs an integer pick index")
        if not line.contains(circle.center):
            return None
        crossings = points_of(intersect_line_circle(line, circle))
        return crossings[pick] if -len(crossings) <= pick < len(crossings) else None
    if kind is StepKind.INTERSECT_LINES:
        expect(len(inputs) == 2, "intersect-lines takes 2 inputs")
        first = take(outputs, inputs[0], Line, "line")
        second = take(outputs, inputs[1], Line, "line")
        try:
            hit = intersect_lines(first, second)
        except CoincidentLinesError:
            return None
        return hit[0] if hit else None
    if kind is StepKind.TAKE_CIRCLE_VERTEX:
        expect(len(inputs) == 1, "take-circle-vertex takes 1 input")
        expect(isinstance(vertex, CircleVertex), "take-circle-vertex needs a vertex name")
        return circle_vertex(take(outputs, inputs[0], TaxicabCircle, "circle"), vertex)
    if kind is StepKind.MARK_RESULT:
        expect(len(inputs) == 1, "mark-result takes 1 input")
        return take(outputs, inputs[0], Point, "point")
    raise MalformedTraceError(f"unknown step kind {kind!r}")


def replay_verify_trace(trace):
    """The verifier as it was before steps were checked by their
    incidences: every computed step replayed through ``_step_output`` and
    compared, then every claim checked.  The reference for the verdicts."""
    if not isinstance(trace, ConstructionTrace):
        raise MalformedTraceError("trace is not a ConstructionTrace")
    steps = trace.steps
    if not isinstance(steps, (tuple, list)):
        raise MalformedTraceError("trace steps are not a sequence")
    outputs = []
    for index, step in enumerate(steps):
        if not isinstance(step, TraceStep):
            raise MalformedTraceError(f"step {index} is not a TraceStep")
        kind, inputs, claims = step.kind, step.inputs, step.claims
        if not isinstance(inputs, (tuple, list)):
            raise MalformedTraceError(f"step {index} inputs are not a sequence")
        if not isinstance(claims, (tuple, list)):
            raise MalformedTraceError(f"step {index} claims are not a sequence")
        refs = list(inputs)
        for claim in claims:
            if not isinstance(claim, constructions._CLAIM_TYPES):
                raise MalformedTraceError(f"unknown claim {claim!r}")
            if isinstance(claim, DistanceClaim) and not constructions._is_exact(claim.value):
                raise MalformedTraceError(f"step {index} claims a distance that is not exact")
            refs += claim.refs()
        for ref in refs:
            if not constructions._is_int(ref):
                raise MalformedTraceError(f"step {index} has a non-integer reference {ref!r}")
            if not 0 <= ref < index:
                raise MalformedTraceError(f"step {index} references step {ref}")
        if step.pick is not None and kind is not StepKind.INTERSECT_LINE_CIRCLE:
            raise MalformedTraceError(f"step {index} has a pick, which only intersect-line-circle takes")
        if step.vertex is not None and kind is not StepKind.TAKE_CIRCLE_VERTEX:
            raise MalformedTraceError(f"step {index} has a vertex, which only take-circle-vertex takes")
        if step.radius is not None and (kind is not StepKind.DRAW_CIRCLE or len(inputs) != 1):
            raise MalformedTraceError(f"step {index} has a radius, which only a one-input draw-circle takes")
        if kind is StepKind.PLACE_POINT:
            if inputs:
                raise MalformedTraceError("place-point takes no inputs")
            replayed = step.output
        else:
            replayed = _step_output(kind, inputs, outputs, step.pick, step.radius, step.vertex)
        if replayed is None:
            return VerificationReport(False, index, StepFailure(index, "step does not replay"))
        if replayed != step.output:
            return VerificationReport(False, index, StepFailure(index, "recorded output differs from replay"))
        for claim in claims:
            if not isinstance(step.output, Point):  # the verifier's assert, unrewritten
                raise AssertionError("claims attach to point outputs")
            if not _fraction_claim_holds(claim, step.output, outputs):
                return VerificationReport(False, index, StepFailure(index, f"claim {claim!r} does not hold"))
        outputs.append(step.output)
    if not (constructions._is_int(trace.result) and 0 <= trace.result < len(steps)):
        raise MalformedTraceError("result reference out of range")
    if steps[trace.result].kind is not StepKind.MARK_RESULT:
        raise MalformedTraceError("result must reference a mark-result step")
    return VerificationReport(True, len(steps))


def _verdict(verify, trace):
    """A report, or the type and message of what was raised."""
    try:
        return verify(trace)
    except Exception as exc:  # the reference may raise anything the verifier does
        return (type(exc), str(exc))


def assert_same_verdict(trace) -> VerificationReport | tuple:
    verdict = _verdict(verify_trace, trace)
    assert verdict == _verdict(replay_verify_trace, trace)
    return verdict


def _replaced(trace: ConstructionTrace, index: int, **fields) -> ConstructionTrace:
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], **fields)
    return ConstructionTrace(tuple(steps), trace.result)


@given(wide_points, wide_points, st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_genuine_nsect_trace_gets_the_replay_verdict(a, b, n):
    if a == b:
        return
    assert assert_same_verdict(nsect_segment(a, b, n)[1]).ok


def _edge_angle(start, eighths, swap) -> Angle:
    """An angle whose sides cross one edge of the circle about its vertex."""
    sweep = (2 * (start // 2 + 1) - start) * eighths / 8
    d1 = unit_direction(start)
    d2 = unit_direction((start + sweep) % 8)
    return Angle(pt(F(1, 3), F(-2, 7)), *((d2, d1) if swap else (d1, d2)))


edge_angles = st.builds(
    _edge_angle,
    st.fractions(min_value=0, max_value=8, max_denominator=16).filter(lambda t: t < 8),
    st.integers(1, 8),
    st.booleans(),
)


@given(edge_angles, st.integers(2, 16), st.sampled_from([F(1), F(5, 3), F(2)]))
@settings(max_examples=30, deadline=None)
def test_genuine_chord_trace_gets_the_replay_verdict(angle, n, radius):
    assert assert_same_verdict(section_angle(angle, n, radius=radius)[1]).ok


@pytest.mark.parametrize(
    "trace_name, tamper",
    _tamper_cases(TAMPERS) + _tamper_cases(OPEN_FORGERIES),
)
def test_tamper_gets_the_replay_verdict(trace_name, tamper):
    assert_same_verdict(_tampered(TAMPER_TRACES[trace_name], *{**TAMPERS, **OPEN_FORGERIES}[tamper]))


@pytest.mark.parametrize("case", HEADER_ERRORS)
def test_header_error_gets_the_replay_verdict(case):
    fields, _ = HEADER_ERRORS[case]
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    subject = _replaced(trace, 3, **fields) if isinstance(fields, dict) else fields
    assert isinstance(assert_same_verdict(subject), tuple)


@pytest.mark.parametrize("case", STEP_ERRORS)
def test_step_error_gets_the_replay_verdict(case):
    fields, _ = STEP_ERRORS[case]
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    assert isinstance(assert_same_verdict(_replaced(trace, 4, **fields)), tuple)


def _some_claim(draw, index: int, steps) -> object:
    make = draw(st.sampled_from([OnLineClaim, BetweenClaim, DistanceClaim]))
    ref = st.integers(0, index - 1)
    if make is BetweenClaim:
        return BetweenClaim(draw(ref), draw(ref))
    if make is OnLineClaim:
        return OnLineClaim(draw(ref))
    anchor = draw(ref)
    anchor_out, subject = steps[anchor].output, steps[index].output
    if isinstance(anchor_out, Point) and isinstance(subject, Point) and draw(st.booleans()):
        return DistanceClaim(anchor, taxicab_distance(anchor_out, subject))  # a claim that holds
    return DistanceClaim(anchor, draw(st.fractions(min_value=-3, max_value=5, max_denominator=4)))


def _mutated(draw, trace: ConstructionTrace) -> ConstructionTrace:
    """The trace with one field of one step changed."""
    steps = trace.steps
    index = draw(st.integers(1, len(steps) - 1))
    step = steps[index]
    field = draw(st.sampled_from(["pick", "output", "inputs", "kind", "claims", "radius"]))
    if field == "pick":
        return _replaced(trace, index, pick=draw(st.integers(-3, 2)))
    if field == "output":
        return _replaced(trace, index, output=steps[draw(st.integers(0, len(steps) - 1))].output)
    if field == "inputs":
        if not step.inputs:
            return _replaced(trace, index, inputs=(draw(st.integers(0, index - 1)),))
        slot = draw(st.integers(0, len(step.inputs) - 1))
        inputs = list(step.inputs)
        inputs[slot] = draw(st.integers(0, index - 1))
        return _replaced(trace, index, inputs=tuple(inputs))
    if field == "kind":
        return _replaced(trace, index, kind=draw(st.sampled_from(list(StepKind))))
    if field == "claims":
        return _replaced(trace, index, claims=(*step.claims, _some_claim(draw, index, steps)))
    radius = step.radius if step.radius is not None else F(1)
    return _replaced(trace, index, radius=draw(st.sampled_from([-radius, F(0)])))


genuine_traces = st.one_of(
    st.builds(
        lambda a, move, n: nsect_segment(a, along(a, move), n)[1],
        wide_points,
        st.sampled_from(HOSTILE_DIRECTIONS).map(lambda t: d(*t)),
        st.integers(2, 7),
    ),
    st.builds(lambda angle, n: section_angle(angle, n)[1], edge_angles, st.integers(2, 6)),
)


@given(genuine_traces, st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_trace_gets_the_replay_verdict(trace, data):
    assert_same_verdict(_mutated(data.draw, trace))


# Placed coordinates on a small grid with halves, so that lines meet
# circles off their centers, along an edge and at a corner.
_GRID = st.sampled_from([F(k) for k in range(-3, 4)] + [F(1, 2), F(-1, 2), F(-3, 2)])
_GRID_POINTS = st.builds(Point, _GRID, _GRID)

# Each computed step kind with the kinds of its inputs.  A line-circle
# crossing comes three times, so that most traces meet one.
_SIGNATURES = [
    (StepKind.DRAW_LINE, (Point, Point)),
    (StepKind.DRAW_CIRCLE, (Point,)),
    (StepKind.DRAW_CIRCLE, (Point, Point, Point)),
    (StepKind.INTERSECT_LINES, (Line, Line)),
    (StepKind.TAKE_CIRCLE_VERTEX, (TaxicabCircle,)),
] + [(StepKind.INTERSECT_LINE_CIRCLE, (Line, TaxicabCircle))] * 3


@st.composite
def grammar_traces(draw) -> ConstructionTrace:
    """A trace written from the step grammar, not mutated from a genuine
    one: placed grid points, then computed steps on inputs of the right
    kinds, each recording its replayed output or, now and then, another
    earlier output or a fresh point, and last a mark with an optional
    between claim and distance claim."""
    placed = draw(st.lists(_GRID_POINTS, min_size=3, max_size=5))
    steps = [TraceStep(StepKind.PLACE_POINT, (), p) for p in placed]

    def refs(want: type) -> list[int]:
        return [i for i, step in enumerate(steps) if isinstance(step.output, want)]

    for _ in range(draw(st.integers(0, 10))):
        usable = [sig for sig in _SIGNATURES if all(refs(want) for want in sig[1])]
        kind, wants = draw(st.sampled_from(usable))
        inputs = ()
        for want in wants:
            # Not the input just drawn, which would draw a line through one
            # point or meet a line with itself.
            pool = [ref for ref in refs(want) if inputs[-1:] != (ref,)] or refs(want)
            inputs += (draw(st.sampled_from(pool)),)
        fields = {}
        if kind is StepKind.DRAW_CIRCLE and len(inputs) == 1:
            fields["radius"] = draw(st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)]))
        elif kind is StepKind.INTERSECT_LINE_CIRCLE:
            fields["pick"] = draw(st.integers(-2, 1))
        elif kind is StepKind.TAKE_CIRCLE_VERTEX:
            fields["vertex"] = draw(st.sampled_from(CircleVertex))
        outputs = [step.output for step in steps]
        output = _step_output(kind, inputs, outputs, **fields) if draw(st.integers(0, 9)) else None
        if output is None:
            output = draw(st.one_of(st.sampled_from(outputs), _GRID_POINTS))
        steps.append(TraceStep(kind, inputs, output, **fields))

    point_refs = st.sampled_from(refs(Point))
    subject = draw(point_refs)
    claims = []
    if draw(st.booleans()):
        claims.append(BetweenClaim(draw(point_refs), draw(point_refs)))
    if draw(st.booleans()):
        anchor = draw(point_refs)
        if draw(st.booleans()):
            value = taxicab_distance(steps[anchor].output, steps[subject].output)  # a claim that holds
        else:
            value = draw(st.fractions(min_value=-1, max_value=6, max_denominator=4))
        claims.append(DistanceClaim(anchor, value))
    output = steps[subject].output if draw(st.integers(0, 3)) else draw(_GRID_POINTS)
    steps.append(TraceStep(StepKind.MARK_RESULT, (subject,), output, tuple(claims)))
    return ConstructionTrace(tuple(steps), len(steps) - 1)


@given(grammar_traces())
@settings(max_examples=300, deadline=None)
def test_grammar_trace_gets_the_replay_verdict(trace):
    assert_same_verdict(trace)


# Hand-made traces for check paths the builders never take.  Steps 0-1:
# the point (0, 0) and the circle of radius 2 about it, |x| + |y| = 2; the
# last step marks the last point.
def _about_origin(*steps: TraceStep) -> ConstructionTrace:
    head = (
        TraceStep(StepKind.PLACE_POINT, (), pt(0, 0)),
        TraceStep(StepKind.DRAW_CIRCLE, (0,), TaxicabCircle(pt(0, 0), F(2)), radius=F(2)),
    )
    all_steps = head + steps
    last_point = max(i for i, step in enumerate(all_steps) if isinstance(step.output, Point))
    mark = TraceStep(StepKind.MARK_RESULT, (last_point,), all_steps[last_point].output)
    return ConstructionTrace(all_steps + (mark,), len(all_steps))


def _line_across(p: Point, q: Point, crossing: Point, pick: int) -> ConstructionTrace:
    """Steps 2-5: place p and q, draw their line, meet it with the circle."""
    return _about_origin(
        TraceStep(StepKind.PLACE_POINT, (), p),
        TraceStep(StepKind.PLACE_POINT, (), q),
        TraceStep(StepKind.DRAW_LINE, (2, 3), line_through(p, q)),
        TraceStep(StepKind.INTERSECT_LINE_CIRCLE, (4, 1), crossing, pick=pick),
    )


DOES_NOT_REPLAY = StepFailure(5, "step does not replay")
DIFFERS = StepFailure(5, "recorded output differs from replay")

# Lines through two points, met with |x| + |y| = 2: y = 0 through the
# center, crossing at (-2, 0) and (2, 0); y = 1, which misses the center
# and crosses at (-1, 1) and (1, 1); y = 2, which touches only the north
# corner; and x + y = 2, which runs along the north-east edge.
THROUGH_CENTER = (pt(-5, 0), pt(5, 0))
MISSING_CENTER = (pt(-5, 1), pt(5, 1))
AT_A_CORNER = (pt(-5, 2), pt(5, 2))
ALONG_AN_EDGE = (pt(3, -1), pt(-1, 3))


@pytest.mark.parametrize(
    "line, crossing, pick, failure",
    [
        (THROUGH_CENTER, pt(-2, 0), 0, None),
        (THROUGH_CENTER, pt(2, 0), 1, None),
        (THROUGH_CENTER, pt(-2, 0), -2, None),
        (THROUGH_CENTER, pt(2, 0), 0, DIFFERS),
        (THROUGH_CENTER, pt(2, 0), -3, DOES_NOT_REPLAY),
        (THROUGH_CENTER, pt(3, 0), 1, DIFFERS),  # on the line only
        (THROUGH_CENTER, pt(1, 1), 1, DIFFERS),  # on the circle only
        # The lines that miss the center, y = 1, y = 2 and x + y = 2, do
        # not replay, whatever point and pick are recorded.
        (MISSING_CENTER, pt(-1, 1), 0, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(1, 1), 1, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(1, 1), -1, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(1, 1), 0, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(1, 1), 2, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(0, 1), 0, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(0, 2), 0, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(0, 2), -1, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(0, 2), 1, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(0, 2), -2, DOES_NOT_REPLAY),
        (ALONG_AN_EDGE, pt(1, 1), 0, DOES_NOT_REPLAY),
        (ALONG_AN_EDGE, pt(1, 1), 1, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(1, 1), -3, DOES_NOT_REPLAY),
        (MISSING_CENTER, pt(0, 1), 2, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(1, 1), 1, DOES_NOT_REPLAY),
        (AT_A_CORNER, pt(1, 1), -2, DOES_NOT_REPLAY),
    ],
)
def test_crossing_of_a_line_and_a_circle(line, crossing, pick, failure):
    report = assert_same_verdict(_line_across(*line, crossing, pick))
    assert report.failure == failure


@given(wide_points, wide_radii, wide_directions, st.integers(0, 1), st.integers(0, 2), st.integers(-3, 2))
@settings(max_examples=300, deadline=None)
def test_crossing_through_the_center_gets_the_solver_verdict(center, radius, w, which, variant, pick):
    """A line through a circle's center, met with the circle: the recorded
    point is one of the solver's two crossings, its mirror across the
    vertical through the center (on the circle, and off the line unless
    the line or the crossing is on an axis), or a point just past it along
    the line (off the circle).  It verifies exactly when ``pick`` names it
    among the solver's crossings, and a ``pick`` outside ``range(-2, 2)``
    does not replay."""
    circle = TaxicabCircle(center, radius)
    helper = along(center, w)
    line = line_through(center, helper)
    crossings = points_of(intersect_line_circle(line, circle))
    crossing = crossings[which]
    output = [crossing, Point(2 * center.x - crossing.x, crossing.y), along(crossing, w, F(1, 1000))][variant]
    steps = (
        TraceStep(StepKind.PLACE_POINT, (), center),
        TraceStep(StepKind.DRAW_CIRCLE, (0,), circle, radius=circle.radius),
        TraceStep(StepKind.PLACE_POINT, (), helper),
        TraceStep(StepKind.DRAW_LINE, (0, 2), line),
        TraceStep(StepKind.INTERSECT_LINE_CIRCLE, (3, 1), output, pick=pick),
        TraceStep(StepKind.MARK_RESULT, (4,), output),
    )
    report = verify_trace(ConstructionTrace(steps, 5))
    if not -2 <= pick < 2:
        assert report.failure == StepFailure(4, "step does not replay")
    elif crossings[pick] == output:
        assert report == VerificationReport(True, 6)
    else:
        assert report.failure == StepFailure(4, "recorded output differs from replay")


def test_genuine_traces_verify_without_a_solver(monkeypatch):
    """The checker has no line-circle solver, and the builders meet every
    line with a circle through its center, so no step of theirs is checked
    by solving an intersection."""
    a = pt(F(1, 3), F(-2, 7))
    traces = [
        nsect_segment(a, along(a, d(*move), F(5, 4)), n)[1] for move in HOSTILE_DIRECTIONS for n in range(2, 13)
    ]
    traces += [
        section_angle(_edge_angle(F(start, 4), 4, swap), n)[1]
        for start in range(32)
        for swap in (False, True)
        for n in (2, 3, 16)
    ]

    def refuse(*args):
        raise AssertionError("a step was solved")

    assert not hasattr(constructions, "intersect_line_circle")
    monkeypatch.setattr(constructions, "intersect_lines", refuse)
    for trace in traces:
        assert verify_trace(trace) == VerificationReport(True, len(trace.steps))


@pytest.mark.parametrize(
    "ends, failure",
    [
        ((pt(0, 2), pt(2, 0)), None),
        ((pt(1, 2), pt(3, 4)), StepFailure(7, "step does not replay")),
        ((pt(2, 2), pt(3, 3)), StepFailure(7, "step does not replay")),
    ],
    ids=["crossing", "parallel", "same-line"],
)
def test_crossing_of_two_lines(ends, failure):
    """y = x, drawn through (0, 0) and (1, 1), met at (1, 1) with the line
    through two more points: x + y = 2, the parallel y = x + 1, or y = x
    drawn a second time."""
    trace = _about_origin(
        TraceStep(StepKind.PLACE_POINT, (), pt(1, 1)),
        *(TraceStep(StepKind.PLACE_POINT, (), p) for p in ends),
        TraceStep(StepKind.DRAW_LINE, (0, 2), Line(1, -1, 0)),
        TraceStep(StepKind.DRAW_LINE, (3, 4), line_through(*ends)),
        TraceStep(StepKind.INTERSECT_LINES, (5, 6), pt(1, 1)),
    )
    assert assert_same_verdict(trace).failure == failure


@pytest.mark.parametrize(
    "kind", [StepKind.DRAW_LINE, StepKind.DRAW_CIRCLE, StepKind.INTERSECT_LINES, StepKind.INTERSECT_LINE_CIRCLE]
)
def test_output_of_the_wrong_type_differs_from_the_replay(kind):
    """Each checked kind, recording an output of another type: a point for
    a line or circle, a line for a crossing."""
    for trace in TAMPER_TRACES.values():
        index = next((i for i, step in enumerate(trace.steps) if step.kind is kind), None)
        if index is None:
            continue
        wrong = trace.steps[0].output if kind in (StepKind.DRAW_LINE, StepKind.DRAW_CIRCLE) else Line(1, 0, 0)
        report = assert_same_verdict(_replaced(trace, index, output=wrong))
        assert report.failure == StepFailure(index, "recorded output differs from replay")


def _with_incidence_claims(trace: ConstructionTrace) -> ConstructionTrace:
    """The trace as builders wrote it before, without the on-circle claims
    no checker takes any more: each crossing claims to lie on the lines it
    crosses."""
    claims_of = {
        StepKind.INTERSECT_LINE_CIRCLE: lambda line, circle: (OnLineClaim(line),),
        StepKind.INTERSECT_LINES: lambda first, second: (OnLineClaim(first), OnLineClaim(second)),
    }
    steps = tuple(
        dataclasses.replace(step, claims=claims_of[step.kind](*step.inputs)) if step.kind in claims_of else step
        for step in trace.steps
    )
    return ConstructionTrace(steps, trace.result)


@pytest.mark.parametrize("trace_name", TAMPER_TRACES)
def test_trace_with_incidence_claims_still_verifies(trace_name):
    old_format = _with_incidence_claims(TAMPER_TRACES[trace_name])
    assert any(step.claims for step in old_format.steps if step.kind is not StepKind.MARK_RESULT)
    assert assert_same_verdict(old_format) == VerificationReport(True, len(old_format.steps))


def test_false_incidence_claim_fails_as_before():
    """The north corner of the circle about A claims to lie on line AB."""
    trace = _with_incidence_claims(TAMPER_TRACES["nsect3"])
    index = next(i for i, step in enumerate(trace.steps) if step.kind is StepKind.TAKE_CIRCLE_VERTEX)
    assert trace.steps[index].claims == () and trace.steps[2].kind is StepKind.DRAW_LINE
    report = assert_same_verdict(_replaced(trace, index, claims=(OnLineClaim(2),)))
    assert report.failure == StepFailure(index, "claim OnLineClaim(line_step=2) does not hold")


@pytest.mark.parametrize(
    "step, failure",
    [
        (TraceStep(StepKind.DRAW_LINE, (0, 0), Line(1, -1, 0)), "step does not replay"),
        (TraceStep(StepKind.DRAW_CIRCLE, (2,), TaxicabCircle(pt(1, 1), F(2)), radius=F(2)), None),
        (TraceStep(StepKind.DRAW_CIRCLE, (0,), TaxicabCircle(pt(1, 1), F(2)), radius=F(2)), "recorded output differs from replay"),
        (TraceStep(StepKind.DRAW_CIRCLE, (2, 0, 2), TaxicabCircle(pt(0, 0), F(2))), "recorded output differs from replay"),
        (TraceStep(StepKind.DRAW_CIRCLE, (2, 0, 2), TaxicabCircle(pt(1, 1), F(3))), "recorded output differs from replay"),
        (TraceStep(StepKind.DRAW_CIRCLE, (2, 0, 2), TaxicabCircle(pt(1, 1), F(2))), None),
        (TraceStep(StepKind.DRAW_CIRCLE, (0, 2, 2), TaxicabCircle(pt(0, 0), F(2))), "step does not replay"),
    ],
    ids=[
        "line-through-one-point", "circle", "circle-moved", "spanned-circle-moved", "spanned-circle-grown",
        "spanned-circle", "spanned-by-one-point",
    ],
)
def test_drawn_figure_fits_its_inputs(step, failure):
    """Step 2 is (1, 1).  Step 3 draws a line through (0, 0) twice, or a
    circle that fits its center and radius, one moved or grown, or one
    spanned by (1, 1) and itself, which spans no radius."""
    trace = _about_origin(TraceStep(StepKind.PLACE_POINT, (), pt(1, 1)), step)
    expected = None if failure is None else StepFailure(3, failure)
    assert assert_same_verdict(trace).failure == expected


# ------------------------------------------------------- trace identity


def _identity_cases() -> list[str]:
    """The reprs of 120 segment n-sections (n = 2..16) and 120 angle
    sectionings, same-edge and cross-edge, from one fixed seed."""
    rng = random.Random(20111)

    def rational() -> F:
        return F(rng.randint(-60, 60), rng.randint(1, 14))

    out = []
    for i in range(120):
        a = Point(rational(), rational())
        b = a
        while b == a:
            b = Point(rational(), rational())
        out.append(repr(nsect_segment(a, b, 2 + i % 15)))
    for i in range(120):
        d1 = d2 = None
        while d1 is None or direction_to_param(d1) == direction_to_param(d2):
            d1 = Direction(rational(), rational()) if rng.random() < 0.5 else d(1, rational())
            d2 = Direction(rational(), rational()) if rng.random() < 0.5 else d(1, rational())
        radius = F(rng.randint(1, 9), rng.randint(1, 5))
        out.append(repr(section_angle(Angle(Point(rational(), rational()), d1, d2), 2 + i % 15, radius)))
    return out


def test_traces_and_rays_are_unchanged():
    """Every trace, ray and mark equals the one recorded before the
    builder computed its points in ints, field for field."""
    cases = _identity_cases()
    assert sum(not case.endswith(", None)") for case in cases[120:]) == 34  # chord traces
    digest = hashlib.sha256("\n".join(cases).encode()).hexdigest()
    assert digest == "6363df7529b50bfa5f0c969fd3c342542b2d8ada39746601899665cb0b52a51d"
