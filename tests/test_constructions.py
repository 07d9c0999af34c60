import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taxisect.angles import Angle, direction_to_param, measure_angle, measure_between, param_to_point
import taxisect.constructions as constructions
from taxisect.constructions import (
    BetweenClaim,
    ConstructionError,
    ConstructionTrace,
    DistanceClaim,
    MalformedTraceError,
    OnCircleClaim,
    OnLineClaim,
    PostconditionError,
    StepFailure,
    StepKind,
    TraceStep,
    last_circle_south_vertex,
    nsect_segment,
    section_angle,
    verify_trace,
)
from taxisect.kernel import (
    CircleVertex,
    Direction,
    Line,
    Point,
    Ray,
    TaxicabCircle,
    point_on_circle,
    taxicab_distance,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
points = st.builds(Point, rationals, rationals)
small_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
wide_points = st.builds(Point, small_rationals, small_rationals)


def pt(x, y) -> Point:
    return Point(F(x), F(y))


def parametric(a: Point, b: Point, n: int) -> Point:
    return a + (b - a).scaled(F(1, n))


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


@pytest.mark.parametrize("n", [F(5, 2), 3.0, True, "3"])
def test_nsect_rejects_non_integer_parts(n):
    with pytest.raises(ConstructionError):
        nsect_segment(pt(0, 0), pt(3, 3), n)


def test_circle_count_grows_with_n():
    for n, expected in [(3, 2), (4, 3), (5, 4), (7, 6)]:
        _, trace = nsect_segment(pt(0, 0), pt(3, 3), n)
        assert len(drawn_circles(trace)) == expected


def test_last_circle_south_vertex_examples():
    assert last_circle_south_vertex(pt(0, 0), pt(1, 1), 3) == pt(0, -2)
    assert last_circle_south_vertex(pt(0, 0), pt(1, 1), 5) == pt(-2, -4)
    assert last_circle_south_vertex(pt(0, 0), pt(2, 1), 4) == pt(-2, -4)


def test_last_circle_south_vertex_needs_three_parts():
    with pytest.raises(ConstructionError):
        last_circle_south_vertex(pt(0, 0), pt(1, 1), 2)


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
            assert lines[1].slope() == F(n, n - 2)
            assert lines[2].slope() == 1 - 2 * n


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
        b = a + Direction(F(dx), F(dy))
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


def _assert_tamper_caught(trace: ConstructionTrace, kind, change) -> None:
    index = next(i for i, step in enumerate(trace.steps) if _matches(step, kind))
    steps = list(trace.steps)
    steps[index] = change(steps[index], index, steps)
    try:
        report = verify_trace(ConstructionTrace(tuple(steps), trace.result))
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


# Step 3 of this trace is the circle about B, spanned by A and B.  Fields
# that are not a dict are passed to verify_trace in place of the trace.
HEADER_ERRORS = {
    "not-a-trace-none": (None, "trace is not a ConstructionTrace"),
    "not-a-trace-int": (5, "trace is not a ConstructionTrace"),
    "not-a-trace-str": ("trace", "trace is not a ConstructionTrace"),
    "inputs-not-sequence": ({"inputs": 5}, "step 3 inputs are not a sequence"),
    "claims-not-sequence": ({"claims": None}, "step 3 claims are not a sequence"),
    "unknown-claim": ({"claims": ("on",)}, "unknown claim 'on'"),
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
        unit = ray.direction.scaled(1 / ray.direction.taxicab_length())
        out.append(vertex + unit.scaled(radius))
    return tuple(out)


def test_bisect_edge_angle():
    angle = Angle(ORIGIN, d(1, 0), d(1, 1))
    rays, trace = section_angle(angle, 2)
    assert len(rays) == 1
    assert rays[0].contains(pt(F(3, 4), F(1, 4)))
    assert measure_between(d(1, 0), rays[0].direction) == F(1, 2)
    assert measure_between(rays[0].direction, d(1, 1)) == F(1, 2)
    assert trace is not None
    assert verify_trace(trace).ok
    assert trace.marked_points() == (pt(F(3, 4), F(1, 4)),)


def test_bisect_quadrant():
    angle = Angle(ORIGIN, d(1, 0), d(0, 1))
    rays, trace = section_angle(angle, 2)
    assert rays[0].contains(pt(F(1, 2), F(1, 2)))
    assert measure_between(d(1, 0), rays[0].direction) == 1
    # both sides meet the same (closed) edge, so the chord trace exists
    assert trace is not None and verify_trace(trace).ok


def test_quarter_straight_angle():
    angle = Angle(ORIGIN, d(1, 0), d(-1, 0))
    rays, trace = section_angle(angle, 4)
    assert trace is None
    hits = crossing_points(ORIGIN, rays, F(1))
    assert hits == (pt(F(1, 2), F(1, 2)), pt(0, 1), pt(F(-1, 2), F(1, 2)))


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
    d1 = Direction(*astuple_point(param_to_point(start)))
    d2 = Direction(*astuple_point(param_to_point((start + sweep) % 8)))
    angle = Angle(vertex, d1, d2)
    rays, trace = section_angle(angle, n, radius=radius)
    assert trace is not None
    assert verify_trace(trace).ok
    assert trace.marked_points() == crossing_points(vertex, rays, radius)


def astuple_point(p: Point) -> tuple[F, F]:
    return (p.x, p.y)


# ------------------------------------------------------ chord trace length

EDGE_ANGLE = Angle(ORIGIN, d(1, 0), d(1, 1))


def test_chord_trace_bisection_is_pinned():
    """n = 2 is one segment bisection of the chord, step for step."""
    P, K = pt, StepKind
    circle = lambda x, y, r: TaxicabCircle(pt(x, y), F(r))
    line = lambda a, b, c: Line(F(a), F(b), F(c))
    expected = (
        TraceStep(K.PLACE_POINT, (), P(0, 0), label="A"),
        TraceStep(K.PLACE_POINT, (), P(2, 0)),
        TraceStep(K.PLACE_POINT, (), P(1, 1)),
        TraceStep(K.DRAW_CIRCLE, (0,), circle(0, 0, 1), radius=F(1)),
        TraceStep(K.DRAW_LINE, (0, 1), line(0, 1, 0)),
        TraceStep(K.INTERSECT_LINE_CIRCLE, (4, 3), P(1, 0), (OnLineClaim(4), OnCircleClaim(3)), label="B", pick=1),
        TraceStep(K.DRAW_LINE, (0, 2), line(1, -1, 0)),
        TraceStep(
            K.INTERSECT_LINE_CIRCLE, (6, 3), P(F(1, 2), F(1, 2)), (OnLineClaim(6), OnCircleClaim(3)),
            label="C", pick=1,
        ),
        TraceStep(K.DRAW_LINE, (5, 7), line(1, 1, 1)),
        TraceStep(K.DRAW_CIRCLE, (7, 5, 7), circle(F(1, 2), F(1, 2), 1)),
        TraceStep(K.DRAW_CIRCLE, (5, 5, 7), circle(1, 0, 1)),
        TraceStep(K.TAKE_CIRCLE_VERTEX, (10,), P(1, -1), (OnCircleClaim(10),), vertex=CircleVertex.SOUTH),
        TraceStep(K.TAKE_CIRCLE_VERTEX, (9,), P(F(1, 2), F(3, 2)), (OnCircleClaim(9),), vertex=CircleVertex.NORTH),
        TraceStep(K.DRAW_LINE, (11, 12), line(1, F(1, 5), F(4, 5))),
        TraceStep(K.INTERSECT_LINES, (13, 8), P(F(3, 4), F(1, 4)), (OnLineClaim(13), OnLineClaim(8))),
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
    d1 = Direction(*astuple_point(param_to_point(start)))
    d2 = Direction(*astuple_point(param_to_point((start + sweep) % 8)))
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


def test_chord_mark_off_its_ray_is_refused(monkeypatch):
    original = constructions._chord_trace

    def moved_m3(*args):
        trace = original(*args)
        steps = list(trace.steps)
        index = next(i for i, step in enumerate(steps) if step.label == "M3")
        steps[index] = dataclasses.replace(steps[index], output=steps[index].output + d(0, F(1, 9)))
        return dataclasses.replace(trace, steps=tuple(steps))

    monkeypatch.setattr(constructions, "_chord_trace", moved_m3)
    with pytest.raises(PostconditionError) as caught:
        section_angle(EDGE_ANGLE, 5)
    assert str(caught.value) == "chord mark M3 is (7/10, 37/90), expected (7/10, 3/10)"
    assert not verify_trace(caught.value.trace).ok


def test_nsect_from_swapped_corners_is_refused(monkeypatch):
    original = constructions._corner_pair
    monkeypatch.setattr(constructions, "_corner_pair", lambda direction: original(direction)[::-1])
    with pytest.raises(PostconditionError) as caught:
        nsect_segment(pt(1, 2), pt(-3, 7), 5)
    assert str(caught.value) == "construction produced (7/3, 1/3), expected (1/5, 3)"
    assert not verify_trace(caught.value.trace).ok


# ------------------------------------------ crossings named by direction


def assert_lines_pass_through_centers(trace: ConstructionTrace) -> None:
    """The condition of the builder's pick rule: every line met with a
    circle passes through the circle's center."""
    outputs = [step.output for step in trace.steps]
    crossings = [step for step in trace.steps if step.kind is StepKind.INTERSECT_LINE_CIRCLE]
    for step in crossings:
        line, circle = outputs[step.inputs[0]], outputs[step.inputs[1]]
        assert line.contains(circle.center)


@given(
    wide_points,
    st.one_of(st.sampled_from(HOSTILE_DIRECTIONS).map(lambda t: d(*t)), directions_st),
    st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
    st.integers(2, 12),
)
@settings(max_examples=80, deadline=None)
def test_nsect_meets_circles_through_their_centers(a, direction, scale, n):
    _, trace = nsect_segment(a, a + direction.scaled(scale), n)
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
    d1 = Direction(*astuple_point(param_to_point(start)))
    d2 = Direction(*astuple_point(param_to_point((start + sweep) % 8)))
    if swap:
        d1, d2 = d2, d1
    _, trace = section_angle(Angle(pt(F(1, 3), F(-2, 7)), d1, d2), n, radius=radius)
    assert_lines_pass_through_centers(trace)
