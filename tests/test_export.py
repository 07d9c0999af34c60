import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction as F
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import assume, given, settings, strategies as st

from taxisect.constructions import (
    BetweenClaim,
    DistanceClaim,
    OnCircleClaim,
    OnLineClaim,
    nsect_segment,
)
import taxisect
from taxisect import export
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
    CircleVertex,
    Direction,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    circle_vertex,
    line_through,
    point_between,
    point_on_circle,
    taxicab_distance,
)
from taxisect.numeric import parse_rational
from taxisect.script import run_source
from test_kernel import along


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
                    assert point_between(p, q, subject)
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


def loaded_after(code: str, prefix: str | tuple[str, ...], *flags: str) -> list[str]:
    """Modules under ``prefix`` that a fresh interpreter, started with
    ``flags``, has loaded once it has run ``code``."""
    source_root = Path(taxisect.__file__).resolve().parents[1]
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
        timeout=60,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_xml_sax_out():
    assert loaded_after("import taxisect.cli", "xml.sax") == []


def test_import_taxisect_loads_no_submodule():
    assert loaded_after("import taxisect", "taxisect") == ["taxisect"]


def test_measure_command_loads_only_kernel_and_angles():
    code = "from taxisect.cli import main; main(['measure', '--d1', '1,0', '--d2', '0,1'])"
    assert loaded_after(code, "taxisect") == [
        "taxisect", "taxisect.angles", "taxisect.cli", "taxisect.kernel", "taxisect.numeric",
    ]


def test_nsect_trace_command_loads_no_exporter_script_or_figures():
    code = "from taxisect.cli import main; main(['nsect', '--a', '0,0', '--b', '3,3', '--n', '3', '--trace'])"
    loaded = loaded_after(code, "taxisect")
    assert "taxisect.constructions" in loaded
    assert not {"taxisect.export", "taxisect.script", "taxisect.figures"} & set(loaded)


CORPUS = Path(__file__).resolve().parents[1] / "corpus"
# The standard library modules that taxisect imports.  What they load by
# themselves is not taxisect's doing: on CPython 3.13, dataclasses imports
# inspect, which imports typing.
STDLIB = ("import argparse, collections.abc, dataclasses, decimal, enum, errno, fractions, functools, json,"
          " math, os, re")


def top_level_after(code: str) -> set[str]:
    """``typing`` and ``pathlib``, if a fresh interpreter started with -S has
    loaded them once it has run ``code``.  A site .pth may itself import
    either, so site stays off."""
    return {m.split(".")[0] for m in loaded_after(code, ("pathlib", "typing"), "-S")} & {"pathlib", "typing"}


@pytest.fixture(scope="module")
def stdlib_loads():
    return top_level_after(STDLIB)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["measure", "--d1", "1,0", "--d2", "0,1"], []),
        (["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", "--trace"], []),
        (["section", "--d1", "1,0", "--d2", "1,1", "--n", "3", "--svg", "s.svg", "--json", "s.json"], []),
        (["render-demo", "--figure", "circle", "--out", "c.svg"], []),
        (["run", str(CORPUS / "construction_n3.taxi")], []),
        (["run", str(CORPUS / "render_figure.taxi")], ["pathlib"]),
    ],
    ids=["measure", "nsect", "section", "render-demo", "run", "run-render"],
)
def test_commands_load_no_typing_and_pathlib_only_to_render(tmp_path, stdlib_loads, argv, loaded):
    code = f"import os\nos.chdir({str(tmp_path)!r})\nfrom taxisect.cli import main\nmain({argv!r})"
    assert sorted(top_level_after(code) - stdlib_loads) == loaded


def test_every_public_name_is_its_modules_own_object():
    for name in taxisect.__all__:
        home = importlib.import_module(f"taxisect.{taxisect._HOME[name]}")
        assert getattr(taxisect, name) is getattr(home, name), name
    assert taxisect.Point is taxisect.kernel.Point
    assert set(taxisect.__all__) <= set(dir(taxisect))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from taxisect import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(taxisect.__all__)
    for name in taxisect.__all__:
        assert namespace[name] is getattr(taxisect, name)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        taxisect.no_such_name
    assert not hasattr(taxisect, "_private")


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


def reference_anchor(line: Line) -> tuple[Point, Direction]:
    """A point of a line and its direction (b, -a), from its Fraction
    coefficients: where the reference exporter started and walked a line."""
    if line.a != 0:
        anchor = Point(line.c / line.a, F(0))
    else:
        anchor = Point(F(0), line.c / line.b)
    return anchor, Direction(line.b, -line.a)


def reference_ends(geometry, view: ViewBox):
    """Endpoints of the drawn piece of a line or ray under the reference
    rules, or None when nothing is drawn."""
    if isinstance(geometry, Line):
        anchor, direction = reference_anchor(geometry)
        span = reference_clip(anchor, direction, view)
        if span is None or not span[0] < span[1]:
            return None
        p = along(anchor, direction, span[0]) if span[0] != 0 else anchor
        q = along(anchor, direction, span[1]) if span[1] != 0 else anchor
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
    geometry = Ray(anchor, direction) if as_ray else line_through(anchor, along(anchor, direction))
    drawn = [re.search(r'x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"', piece).groups()
             for piece in _item_elements(_Mapper(view), SceneItem(geometry)) if piece.startswith("<line ")]
    ends = reference_ends(geometry, view)
    mapper = ReferenceMapper(view)
    expected = [] if ends is None else [(*mapper.svg_xy(ends[0]), *mapper.svg_xy(ends[1]))]
    assert drawn == expected


# The exporter as it was before it mapped in ints, kept to check the int
# mapper against: every SVG number is a Fraction until it is printed.

_REFERENCE_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)
_REFERENCE_CORNERS = (CircleVertex.EAST, CircleVertex.NORTH, CircleVertex.WEST, CircleVertex.SOUTH)


def reference_decimal_text(value: F) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    quotient = _REFERENCE_DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator))
    text = format(quotient, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


class ReferenceMapper:
    def __init__(self, view: ViewBox) -> None:
        self.view = view
        self.scale = F(560) / (view.max_x - view.min_x)
        self.height = (view.max_y - view.min_y) * self.scale

    def to_svg(self, p: Point) -> tuple[F, F]:
        return ((p.x - self.view.min_x) * self.scale, (self.view.max_y - p.y) * self.scale)

    def svg_xy(self, p: Point) -> tuple[str, str]:
        x, y = self.to_svg(p)
        return (reference_decimal_text(x), reference_decimal_text(y))


def reference_viewbox(scene: Scene) -> ViewBox:
    xs, ys = [], []
    for item in scene.items:
        geometry = item.geometry
        if isinstance(geometry, Point):
            points = (geometry,)
        elif isinstance(geometry, Segment):
            points = (geometry.p, geometry.q)
        elif isinstance(geometry, Ray):
            points = (geometry.origin,)
        elif isinstance(geometry, TaxicabCircle):
            points = tuple(circle_vertex(geometry, which) for which in _REFERENCE_CORNERS)
        elif isinstance(geometry, tuple):
            points = geometry
        else:
            points = ()
        xs += [p.x for p in points]
        ys += [p.y for p in points]
    if not xs:
        return ViewBox(F(-1), F(-1), F(1), F(1))
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    if min_x == max_x:
        min_x, max_x = min_x - 1, max_x + 1
    if min_y == max_y:
        min_y, max_y = min_y - 1, max_y + 1
    pad_x, pad_y = (max_x - min_x) / 10, (max_y - min_y) / 10
    return ViewBox(min_x - pad_x, min_y - pad_y, max_x + pad_x, max_y + pad_y)


def reference_visible_span(ray: Ray, view: ViewBox, lo=None):
    hi = None
    for coord, delta, low, high in (
        (ray.origin.x, ray.direction.dx, view.min_x, view.max_x),
        (ray.origin.y, ray.direction.dy, view.min_y, view.max_y),
    ):
        if delta == 0:
            if not low <= coord <= high:
                return None
            continue
        if delta < 0:
            low, high = high, low
        t0 = (low - coord) / delta
        t1 = (high - coord) / delta
        lo = t0 if lo is None or t0 > lo else lo
        hi = t1 if hi is None or t1 < hi else hi
    return (lo, hi) if lo < hi else None


def reference_item_elements(mapper: ReferenceMapper, item: SceneItem) -> list[str]:
    """What the exporter wrote for one item, with the style attributes,
    which the int mapper does not touch, taken from the exporter."""
    geometry = item.geometry
    color = export._STROKE_STYLE[item.stroke][0]
    style = export._stroke_attributes(item)
    pieces, label_anchor, ends = [], None, None
    if isinstance(geometry, Point):
        cx, cy = mapper.svg_xy(geometry)
        pieces.append(f'<circle cx="{cx}" cy="{cy}" r="{export._POINT_RADIUS[item.stroke]}" fill="{color}"/>')
        label_anchor = geometry
    elif isinstance(geometry, Segment):
        ends, label_anchor = (geometry.p, geometry.q), geometry.q
    elif isinstance(geometry, TaxicabCircle):
        corners = " ".join(",".join(mapper.svg_xy(circle_vertex(geometry, w))) for w in _REFERENCE_CORNERS)
        pieces.append(f'<polygon points="{corners}" fill="none" {style}/>')
        label_anchor = circle_vertex(geometry, CircleVertex.NORTH)
    elif isinstance(geometry, (Line, Ray)):
        if isinstance(geometry, Ray):
            ray, lo, label_anchor = geometry, F(0), geometry.origin
        else:
            ray, lo = Ray(*reference_anchor(geometry)), None
        span = reference_visible_span(ray, mapper.view, lo)
        if span is not None:
            ends = (ray.point_at(span[0]), ray.point_at(span[1]))
    elif len(geometry) >= 2:
        joined = " ".join(",".join(mapper.svg_xy(p)) for p in geometry)
        pieces.append(f'<polyline points="{joined}" fill="none" {style}/>')
        label_anchor = geometry[-1]
    if ends is not None:
        x1, y1 = mapper.svg_xy(ends[0])
        x2, y2 = mapper.svg_xy(ends[1])
        pieces.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>')
    if item.label and label_anchor is not None:
        x, y = mapper.to_svg(label_anchor)
        pieces.append(
            f'<text x="{reference_decimal_text(x + 6)}" y="{reference_decimal_text(y - 6)}" '
            f'font-family="Helvetica, Arial, sans-serif" font-size="14" '
            f'font-style="italic" fill="{color}">{export.escape(item.label)}</text>'
        )
    return pieces


huge = st.integers(-10**20, 10**20)
huge_positive = st.integers(1, 10**20)
huge_rationals = st.builds(F, huge, huge_positive)
huge_extents = st.builds(F, huge_positive, huge_positive)
huge_views = st.builds(lambda x, y, w, h: ViewBox(x, y, x + w, y + h),
                       huge_rationals, huge_rationals, huge_extents, huge_extents)
# Where a point sits in a view, as a fraction of its width or height: often
# inside, so that lines through it cross the view.
huge_relative = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.builds(F, st.integers(-10**20, 2 * 10**20), st.just(10**20)),
    huge_rationals,
)


@st.composite
def views_and_items(draw):
    view = draw(huge_views)

    def point():
        s, t = draw(huge_relative), draw(huge_relative)
        return Point(view.min_x + s * (view.max_x - view.min_x), view.min_y + t * (view.max_y - view.min_y))

    def direction():
        axis = draw(st.sampled_from(["x", "y", "any"]))
        dx = F(0) if axis == "y" else draw(huge_rationals.filter(bool))
        dy = F(0) if axis == "x" else draw(huge_rationals.filter(bool))
        return Direction(dx, dy)

    kind = draw(st.sampled_from(["point", "segment", "circle", "line", "ray", "polyline"]))
    if kind == "point":
        geometry = point()
    elif kind == "segment":
        p, q = point(), point()
        assume(p != q)
        geometry = Segment(p, q)
    elif kind == "circle":
        geometry = TaxicabCircle(point(), draw(huge_extents))
    elif kind == "line":
        p = point()
        geometry = line_through(p, along(p, direction()))
    elif kind == "ray":
        geometry = Ray(point(), direction())
    else:
        geometry = tuple(point() for _ in range(draw(st.integers(0, 3))))
    label = draw(st.sampled_from([None, "", "A", "a<b"]))
    stroke = draw(st.sampled_from(list(Stroke)))
    dash = draw(st.sampled_from(list(Dash)))
    return view, SceneItem(geometry, label=label, stroke=stroke, dash=dash)


@given(views_and_items())
@settings(max_examples=500, deadline=None)
def test_int_mapper_prints_what_the_fraction_mapper_printed(view_and_item):
    view, item = view_and_item
    assert _item_elements(_Mapper(view), item) == reference_item_elements(ReferenceMapper(view), item)


@given(st.lists(views_and_items().map(lambda pair: pair[1]), max_size=5))
@settings(max_examples=200, deadline=None)
def test_viewbox_and_height_match_the_fraction_exporter(items):
    scene = Scene(tuple(items))
    view = reference_viewbox(scene)
    assert compute_viewbox(scene) == view
    height = reference_decimal_text(ReferenceMapper(view).height)
    assert emit_svg(scene).startswith(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="560" height="{height}" viewBox="0 0 560 {height}">\n'
    )


@given(huge, huge_positive)
def test_decimal_text_matches_the_fraction_form(num, den):
    assert export._decimal_text(num, den) == reference_decimal_text(F(num, den))


def fractions_built(action) -> int:
    """How many Fractions ``action()`` builds."""
    built = 0
    new = F.__new__.__code__

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is new:
            built += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return built


def test_emit_svg_builds_only_the_view_box_fractions():
    """Points, circles, clipped lines and rays, labels and polylines are
    mapped in ints: the four bounds of the view box are the only Fractions."""
    _, trace = nsect_segment(pt(F(1, 3), -2), pt(5, F(7, 2)), 5)
    items = scene_from_trace(trace).items + (
        SceneItem(Ray(pt(0, 0), Direction(F(1), F(2, 3))), label="r"),
        SceneItem((pt(0, 0), pt(1, F(1, 7)), pt(2, 0)), label="poly"),
    )
    assert any(isinstance(item.geometry, Line) for item in items)
    scene = Scene(items)
    assert fractions_built(lambda: emit_svg(scene)) == 4


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


def test_direction_encoding():
    assert emit_json(Direction(F(-1, 2), 3)) == '{"direction":["-1/2","3"]}\n'


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
