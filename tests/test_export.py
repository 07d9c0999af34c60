import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given, settings, strategies as st

from taxisect.constructions import (
    BetweenClaim,
    DistanceClaim,
    OnCircleClaim,
    OnLineClaim,
    nsect_segment,
)
import taxisect
from taxisect.export import (
    Dash,
    GeometryError,
    Scene,
    SceneItem,
    Stroke,
    ViewBox,
    compute_viewbox,
    emit_json,
    emit_svg,
    encode_value,
    regroup,
    scene_from_trace,
    _item_elements,
    _Mapper,
)
from taxisect.kernel import (
    Direction,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    line_through,
    point_on_circle,
    taxicab_distance,
)
from taxisect.numeric import parse_rational
from taxisect.script import run_source


def pt(x, y) -> Point:
    return Point(F(x), F(y))


def svg_tags(text: str, tag: str) -> list[str]:
    return re.findall(rf"<{tag}\b[^>]*>", text)


# ------------------------------------------------------------- trace scenes


def test_three_section_scene_contents():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    scene = scene_from_trace(trace)
    circles = [i for i in scene.items if isinstance(i.geometry, TaxicabCircle)]
    dashed = [i for i in scene.items if isinstance(i.geometry, Line) and i.dash is Dash.DASHED]
    labeled = [i for i in scene.items if i.label]
    assert len(circles) == 2
    assert len(dashed) == 2
    assert sorted(i.label for i in labeled) == ["A", "B", "C", "P"]


def test_bisection_scene_contents():
    _, trace = nsect_segment(pt(0, 0), pt(1, 1), 2)
    scene = scene_from_trace(trace)
    circles = [i for i in scene.items if isinstance(i.geometry, TaxicabCircle)]
    dashed = [i for i in scene.items if isinstance(i.geometry, Line) and i.dash is Dash.DASHED]
    labeled = [i for i in scene.items if i.label]
    assert len(circles) == 2
    assert len(dashed) == 1
    assert sorted(i.label for i in labeled) == ["A", "B", "C"]


def test_five_section_scene_has_chained_circles():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 5)
    scene = scene_from_trace(trace)
    circles = [i for i in scene.items if isinstance(i.geometry, TaxicabCircle)]
    assert len(circles) == 4


def test_unverified_trace_is_refused():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    steps = list(trace.steps)
    steps[trace.result] = dataclasses.replace(steps[trace.result], output=pt(1, 2))
    broken = dataclasses.replace(trace, steps=tuple(steps))
    with pytest.raises(GeometryError):
        scene_from_trace(broken)


def test_trace_scene_base_segment():
    _, trace = nsect_segment(pt(0, 0), pt(3, 3), 3)
    scene = scene_from_trace(trace)
    segments = [i for i in scene.items if isinstance(i.geometry, Segment)]
    assert len(segments) == 1
    assert {segments[0].geometry.p, segments[0].geometry.q} == {pt(0, 0), pt(3, 3)}
    assert segments[0].stroke is Stroke.BASE


def test_labeled_points_satisfy_their_step_claims():
    """Each labeled scene point still satisfies every incidence its trace
    step claimed, checked exactly before any decimal serialization."""
    for a, b, n in [((0, 0), (3, 3), 3), ((0, 0), (2, 1), 4), ((1, -2), (-4, 0), 5)]:
        _, trace = nsect_segment(pt(*a), pt(*b), n)
        scene = scene_from_trace(trace)
        by_label = {i.label: i.geometry for i in scene.items if i.label}
        outputs = [s.output for s in trace.steps]
        for step in trace.steps:
            if not step.label or not isinstance(step.output, Point):
                continue
            subject = by_label[step.label]
            assert subject == step.output
            for claim in step.claims:
                if isinstance(claim, OnLineClaim):
                    assert outputs[claim.line_step].contains(subject)
                elif isinstance(claim, OnCircleClaim):
                    assert point_on_circle(outputs[claim.circle_step], subject)
                elif isinstance(claim, BetweenClaim):
                    p, q = outputs[claim.p_step], outputs[claim.q_step]
                    assert Segment(p, q).contains(subject)
                elif isinstance(claim, DistanceClaim):
                    assert taxicab_distance(outputs[claim.from_step], subject) == claim.value


# ---------------------------------------------------------------- viewboxes


def test_viewbox_needs_positive_extent():
    with pytest.raises(GeometryError):
        ViewBox(F(0), F(0), F(0), F(1))


def test_empty_scene_gets_default_viewbox():
    box = compute_viewbox(Scene(()))
    assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-1, -1, 1, 1)


def test_single_point_scene_is_padded():
    box = compute_viewbox(Scene((SceneItem(pt(5, 5)),)))
    assert box.min_x < 5 < box.max_x
    assert box.min_y < 5 < box.max_y


def test_viewbox_margin_contains_items():
    scene = Scene((SceneItem(TaxicabCircle(pt(0, 0), F(2))),))
    box = compute_viewbox(scene)
    assert box.min_x == F(-12, 5) and box.max_x == F(12, 5)
    assert box.min_y == F(-12, 5) and box.max_y == F(12, 5)


def test_regroup_tags_every_item():
    scene = Scene((SceneItem(pt(0, 0)), SceneItem(pt(1, 1))))
    for item in regroup(scene, "left"):
        assert item.group == "left"


# ---------------------------------------------------------------------- svg


def test_circle_renders_as_diamond_in_fixed_order():
    scene = Scene((SceneItem(TaxicabCircle(pt(0, 0), F(2))),))
    svg = emit_svg(scene)
    polygons = svg_tags(svg, "polygon")
    assert len(polygons) == 1
    coords = re.search(r'points="([^"]+)"', polygons[0]).group(1)
    corners = [tuple(float(v) for v in c.split(",")) for c in coords.split(" ")]
    assert len(corners) == 4
    east, north, west, south = corners
    assert east[0] == max(c[0] for c in corners)
    assert west[0] == min(c[0] for c in corners)
    # svg y grows downward, so North has the smallest y
    assert north[1] == min(c[1] for c in corners)
    assert south[1] == max(c[1] for c in corners)


def test_empty_scene_is_just_the_frame():
    svg = emit_svg(Scene(()))
    assert len(svg_tags(svg, "rect")) == 1
    for tag in ("polygon", "line", "circle", "text", "polyline"):
        assert not svg_tags(svg, tag)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


def test_coordinates_use_twelve_significant_digits():
    scene = Scene((SceneItem(pt(0, -3)), SceneItem(pt(3, 1)), SceneItem(pt(F(1, 3), 0))))
    svg = emit_svg(scene)
    assert 'cx="98.5185185185"' in svg
    assert 'cx="513.333333333"' in svg


def test_groups_become_g_elements():
    first = Scene((SceneItem(pt(0, 0), group="n3"), SceneItem(pt(1, 1), group="n4")))
    svg = emit_svg(first)
    assert '<g id="n3">' in svg and '<g id="n4">' in svg
    assert svg.count("</g>") == 2


def test_label_text_is_escaped():
    svg = emit_svg(Scene((SceneItem(pt(0, 0), label="a<b&c"),)))
    assert "a&lt;b&amp;c" in svg


def test_label_and_group_escape_matches_saxutils():
    text = "x > y & a < b &amp;"
    svg = emit_svg(Scene((SceneItem(pt(0, 0), label=text, group=text),)))
    assert f'<g id="{sax_escape(text)}">' in svg
    assert f">{sax_escape(text)}</text>" in svg


def test_group_id_with_a_quote_stays_one_attribute():
    svg = emit_svg(Scene((SceneItem(pt(0, 0), group='a"b'), SceneItem(pt(1, 1), label='say "M1"'))))
    root = ElementTree.fromstring(svg)
    groups = root.findall("{http://www.w3.org/2000/svg}g")
    assert [g.get("id") for g in groups] == ['a"b']
    assert 'say "M1"</text>' in svg


def test_import_leaves_xml_sax_out():
    source_root = Path(taxisect.__file__).resolve().parents[1]
    code = "import sys, taxisect.cli; print(sorted(m for m in sys.modules if m.startswith('xml.sax')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
        timeout=60,
    )
    assert proc.stdout.strip() == "[]"


def reference_clip(anchor: Point, direction: Direction, view: ViewBox):
    """Parameter range of anchor + t * direction inside the view, as the
    exporter computed it before lines and rays shared one clipper."""
    lo = hi = None

    def narrow(coord, delta, low, high) -> bool:
        nonlocal lo, hi
        if delta == 0:
            return low <= coord <= high
        t0 = (low - coord) / delta
        t1 = (high - coord) / delta
        if t0 > t1:
            t0, t1 = t1, t0
        lo = t0 if lo is None else max(lo, t0)
        hi = t1 if hi is None else min(hi, t1)
        return True

    if not narrow(anchor.x, direction.dx, view.min_x, view.max_x):
        return None
    if not narrow(anchor.y, direction.dy, view.min_y, view.max_y):
        return None
    if lo > hi:
        return None
    return (lo, hi)


def reference_ends(geometry, view: ViewBox):
    """Endpoints of the drawn piece of a line or ray under the reference
    rules, or None when nothing is drawn."""
    if isinstance(geometry, Line):
        anchor, direction = geometry.some_point(), geometry.direction()
        span = reference_clip(anchor, direction, view)
        if span is None or not span[0] < span[1]:
            return None
        p = anchor + direction.scaled(span[0]) if span[0] != 0 else anchor
        q = anchor + direction.scaled(span[1]) if span[1] != 0 else anchor
        return p, q
    span = reference_clip(geometry.origin, geometry.direction, view)
    if span is None:
        return None
    lo = max(span[0], F(0))
    if not lo < span[1]:
        return None
    return geometry.point_at(lo), geometry.point_at(span[1])


box_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
extents = st.fractions(min_value=F(1, 10), max_value=30, max_denominator=12)
# Where the anchor sits, as a fraction of the box's width or height: on an
# edge or corner (0, 1), inside, or outside.
relative = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=-2, max_value=3, max_denominator=10),
)
wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
clip_directions = st.one_of(
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (3, 0), (0, F(-1, 2))]),
    st.tuples(st.sampled_from([1, -1, F(2, 3)]), st.sampled_from([1, -1])).map(lambda t: (t[0], t[0] * t[1])),
    st.tuples(wide, wide).filter(lambda t: t != (0, 0)),
).map(lambda t: Direction(F(t[0]), F(t[1])))


@given(box_rationals, box_rationals, extents, extents, relative, relative, clip_directions, st.booleans())
@settings(max_examples=400, deadline=None)
def test_lines_and_rays_draw_the_reference_endpoints(x, y, w, h, s, t, direction, as_ray):
    view = ViewBox(x, y, x + w, y + h)
    anchor = Point(x + s * w, y + t * h)
    geometry = Ray(anchor, direction) if as_ray else line_through(anchor, anchor + direction)
    mapper = _Mapper(view)
    drawn = [re.search(r'x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"', piece).groups()
             for piece in _item_elements(mapper, SceneItem(geometry)) if piece.startswith("<line ")]
    ends = reference_ends(geometry, view)
    expected = [] if ends is None else [(*mapper.svg_xy(ends[0]), *mapper.svg_xy(ends[1]))]
    assert drawn == expected


def test_svg_deterministic_across_fresh_builds():
    def build() -> str:
        _, trace = nsect_segment(pt(0, 0), pt(2, 1), 4)
        return emit_svg(scene_from_trace(trace))

    assert build() == build()


# --------------------------------------------------------------------- json


def test_point_encoding():
    assert encode_value(pt(F(1, 3), -2)) == ["1/3", "-2"]
    assert emit_json(pt(F(1, 3), -2)) == '["1/3","-2"]\n'


def test_rational_encoding():
    assert emit_json(F(8, 7)) == '"8/7"\n'


def test_env_encoding_contains_division_point():
    result = run_source("A = point(0,0)\nB = point(2,1)\nC = nsect(A, B, 4)")
    text = emit_json(result.env)
    assert '"C":["1/2","1/4"]' in text
    decoded = json.loads(text)
    assert decoded["C"] == ["1/2", "1/4"]


def test_json_keys_sorted_and_stable():
    env = {"b": F(1), "a": pt(0, 0), "c": TaxicabCircle(pt(0, 0), F(2))}
    text = emit_json(env)
    assert text == emit_json(dict(reversed(list(env.items()))))
    assert list(json.loads(text)) == ["a", "b", "c"]


def test_json_rationals_round_trip():
    values = [F(8, 7), F(-3, 5), F(0), F(1000, 999)]
    decoded = json.loads(emit_json(values))
    assert [parse_rational(v) for v in decoded] == values


@pytest.mark.parametrize(
    "value",
    [Scene((SceneItem(pt(1, 2)),)), 3, True, {1: F(1), "1": F(2)}, {"a": {None: F(1)}}],
    ids=["scene", "int", "bool", "int-key", "nested-none-key"],
)
def test_json_refuses_values_that_are_not_geometry_or_rationals(value):
    with pytest.raises(GeometryError):
        emit_json(value)
