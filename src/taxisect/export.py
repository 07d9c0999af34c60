"""Deterministic rendering of scenes to SVG and of values to canonical JSON.

Scenes are flat ordered lists of drawable items with small enumerated style
classes; nothing here ever touches floating point.  Exact rational
coordinates survive until the final SVG serialization, where each value is
expanded to at most 12 significant decimal digits with half-even rounding.
Two emissions of the same scene are byte-identical.  JSON takes values only:
rationals, kernel primitives and containers of them, such as bindings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Context, Decimal
from enum import Enum
from fractions import Fraction
from typing import Union

from .constructions import ConstructionTrace, StepKind, verify_trace
from .kernel import (
    Direction,
    GeometryError,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    circle_vertex,
    CircleVertex,
)

Geometry = Union[Point, Segment, Line, Ray, TaxicabCircle, tuple[Point, ...]]


class Stroke(Enum):
    BASE = "base"
    AUX = "aux"
    RESULT = "result"
    PLAIN = "plain"


class Dash(Enum):
    SOLID = "solid"
    DASHED = "dashed"


@dataclass(frozen=True)
class SceneItem:
    geometry: Geometry
    label: str | None = None
    stroke: Stroke = Stroke.PLAIN
    dash: Dash = Dash.SOLID
    group: str | None = None


@dataclass(frozen=True)
class ViewBox:
    min_x: Fraction
    min_y: Fraction
    max_x: Fraction
    max_y: Fraction

    def __post_init__(self) -> None:
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise GeometryError("viewbox must have positive extent")

    def width(self) -> Fraction:
        return self.max_x - self.min_x

    def height(self) -> Fraction:
        return self.max_y - self.min_y


@dataclass(frozen=True)
class Scene:
    items: tuple[SceneItem, ...]


def _finite_points(geometry: Geometry) -> tuple[Point, ...]:
    if isinstance(geometry, Point):
        return (geometry,)
    if isinstance(geometry, Segment):
        return (geometry.p, geometry.q)
    if isinstance(geometry, Ray):
        return (geometry.origin,)
    if isinstance(geometry, TaxicabCircle):
        return tuple(circle_vertex(geometry, which) for which in _CORNERS)
    if isinstance(geometry, tuple):
        return geometry
    return ()  # an infinite line constrains nothing


def compute_viewbox(scene: Scene) -> ViewBox:
    """Bounding box of all finite geometry, padded by 10% on each side."""
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    for item in scene.items:
        for p in _finite_points(item.geometry):
            xs.append(p.x)
            ys.append(p.y)
    if not xs:
        return ViewBox(Fraction(-1), Fraction(-1), Fraction(1), Fraction(1))
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    if min_x == max_x:
        min_x -= 1
        max_x += 1
    if min_y == max_y:
        min_y -= 1
        max_y += 1
    pad_x = (max_x - min_x) / 10
    pad_y = (max_y - min_y) / 10
    return ViewBox(min_x - pad_x, min_y - pad_y, max_x + pad_x, max_y + pad_y)


def scene_from_trace(trace: ConstructionTrace) -> Scene:
    """Render a construction trace as a scene, one drawable per step.

    The segment being divided (a drawn line whose two inputs are placed
    points) comes out as a solid base segment; other drawn lines are dashed
    construction lines.  Labeled points keep their labels and the marked
    result is emphasized.
    """
    report = verify_trace(trace)
    if not report.ok:
        assert report.failure is not None
        raise GeometryError(
            f"refusing to render an unverified trace "
            f"(step {report.failure.step}: {report.failure.message})"
        )
    items: list[SceneItem] = []
    for index, step in enumerate(trace.steps):
        out = step.output
        if step.kind is StepKind.PLACE_POINT:
            items.append(SceneItem(out, label=step.label, stroke=Stroke.BASE))
        elif step.kind is StepKind.DRAW_CIRCLE:
            items.append(SceneItem(out, stroke=Stroke.AUX))
        elif step.kind is StepKind.DRAW_LINE:
            assert isinstance(out, Line)
            endpoints = tuple(trace.steps[ref] for ref in step.inputs)
            if all(s.kind is StepKind.PLACE_POINT for s in endpoints):
                seg = Segment(endpoints[0].output, endpoints[1].output)
                items.append(SceneItem(seg, stroke=Stroke.BASE))
            else:
                items.append(SceneItem(out, stroke=Stroke.AUX, dash=Dash.DASHED))
        elif step.kind is StepKind.MARK_RESULT:
            items.append(SceneItem(out, label=step.label, stroke=Stroke.RESULT))
        else:
            items.append(SceneItem(out, label=step.label))
    return Scene(tuple(items))


def regroup(scene: Scene, group: str) -> tuple[SceneItem, ...]:
    """The scene's items re-tagged with a group key, for panel figures."""
    return tuple(replace(item, group=group) for item in scene.items)


# ---------------------------------------------------------------------------
# SVG emission

def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` (``&``, ``<``, ``>``) without that module's import cost."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_CANVAS_WIDTH = Fraction(560)

_STROKE_STYLE = {
    Stroke.BASE: ("#111111", "2"),
    Stroke.AUX: ("#777777", "1.25"),
    Stroke.RESULT: ("#bb2200", "2"),
    Stroke.PLAIN: ("#333333", "1.5"),
}

_POINT_RADIUS = {
    Stroke.BASE: "3.5",
    Stroke.AUX: "2.5",
    Stroke.RESULT: "4.5",
    Stroke.PLAIN: "3",
}

_DASH_PATTERN = "6 4"

_CORNERS = (CircleVertex.EAST, CircleVertex.NORTH, CircleVertex.WEST, CircleVertex.SOUTH)

_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _decimal_text(value: Fraction) -> str:
    """Decimal form with at most 12 significant digits, half-even rounded."""
    if value.denominator == 1:
        return str(value.numerator)
    quotient = _DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator))
    text = format(quotient, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


class _Mapper:
    """Affine map from math coordinates to SVG user units (y flipped)."""

    def __init__(self, view: ViewBox) -> None:
        self.view = view
        self.scale = _CANVAS_WIDTH / view.width()
        self.height = view.height() * self.scale

    def to_svg(self, p: Point) -> tuple[Fraction, Fraction]:
        return ((p.x - self.view.min_x) * self.scale, (self.view.max_y - p.y) * self.scale)

    def svg_xy(self, p: Point) -> tuple[str, str]:
        x, y = self.to_svg(p)
        return (_decimal_text(x), _decimal_text(y))


def _visible_span(ray: Ray, view: ViewBox, lo: Fraction | None = None) -> tuple[Fraction, Fraction] | None:
    """Parameter range of ray.origin + t * ray.direction inside the view, with
    t >= lo when lo is given; None when that range is empty or one point."""
    hi: Fraction | None = None
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
    # the direction is nonzero, so at least one axis set both ends
    assert lo is not None and hi is not None
    return (lo, hi) if lo < hi else None


def _stroke_attributes(item: SceneItem) -> str:
    color, width = _STROKE_STYLE[item.stroke]
    dash = f' stroke-dasharray="{_DASH_PATTERN}"' if item.dash is Dash.DASHED else ""
    return f'stroke="{color}" stroke-width="{width}"{dash}'


def _item_elements(mapper: _Mapper, item: SceneItem) -> list[str]:
    geometry = item.geometry
    color = _STROKE_STYLE[item.stroke][0]
    pieces: list[str] = []
    label_anchor: Point | None = None
    ends: tuple[Point, Point] | None = None

    if isinstance(geometry, Point):
        cx, cy = mapper.svg_xy(geometry)
        pieces.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_POINT_RADIUS[item.stroke]}" fill="{color}"/>'
        )
        label_anchor = geometry
    elif isinstance(geometry, Segment):
        ends = (geometry.p, geometry.q)
        label_anchor = geometry.q
    elif isinstance(geometry, TaxicabCircle):
        corners = " ".join(
            ",".join(mapper.svg_xy(circle_vertex(geometry, which))) for which in _CORNERS
        )
        pieces.append(f'<polygon points="{corners}" fill="none" {_stroke_attributes(item)}/>')
        label_anchor = circle_vertex(geometry, CircleVertex.NORTH)
    elif isinstance(geometry, (Line, Ray)):
        if isinstance(geometry, Ray):
            ray, lo, label_anchor = geometry, Fraction(0), geometry.origin
        else:
            ray, lo = Ray(geometry.some_point(), geometry.direction()), None
        span = _visible_span(ray, mapper.view, lo)
        if span is not None:
            ends = (ray.point_at(span[0]), ray.point_at(span[1]))
    elif isinstance(geometry, tuple):
        if len(geometry) >= 2:
            joined = " ".join(",".join(mapper.svg_xy(p)) for p in geometry)
            pieces.append(f'<polyline points="{joined}" fill="none" {_stroke_attributes(item)}/>')
            label_anchor = geometry[-1]
    else:
        raise GeometryError(f"cannot render {type(geometry).__name__}")

    if ends is not None:
        x1, y1 = mapper.svg_xy(ends[0])
        x2, y2 = mapper.svg_xy(ends[1])
        pieces.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_stroke_attributes(item)}/>')
    if item.label and label_anchor is not None:
        x, y = mapper.to_svg(label_anchor)
        pieces.append(
            f'<text x="{_decimal_text(x + 6)}" y="{_decimal_text(y - 6)}" '
            f'font-family="Helvetica, Arial, sans-serif" font-size="14" '
            f'font-style="italic" fill="{color}">{escape(item.label)}</text>'
        )
    return pieces


def emit_svg(scene: Scene) -> str:
    """Serialize a scene to standalone SVG 1.1 text, byte-stable per scene."""
    view = compute_viewbox(scene)
    mapper = _Mapper(view)
    w = _decimal_text(_CANVAS_WIDTH)
    h = _decimal_text(mapper.height)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="none" stroke="#cccccc" stroke-width="1"/>',
    ]
    open_group: str | None = None
    for item in scene.items:
        if item.group != open_group:
            if open_group is not None:
                lines.append("</g>")
            if item.group is not None:
                group_id = escape(item.group).replace('"', "&quot;")
                lines.append(f'<g id="{group_id}">')
            open_group = item.group
        lines.extend(_item_elements(mapper, item))
    if open_group is not None:
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON emission

def encode_value(value: object) -> object:
    """Encode a rational, a kernel primitive, or a list, tuple or str-keyed
    dict of them.

    Rationals become "p/q" strings (so parsing them back is exact) and points
    become two-element coordinate arrays; other primitives are tagged by a
    single key naming their kind.  Any other value, an int or None included,
    and any dict key that is not a str raise :class:`GeometryError`.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Point):
        return [str(value.x), str(value.y)]
    if isinstance(value, Direction):
        return {"direction": [str(value.dx), str(value.dy)]}
    if isinstance(value, Line):
        return {"line": [str(value.a), str(value.b), str(value.c)]}
    if isinstance(value, Segment):
        return {"segment": [encode_value(value.p), encode_value(value.q)]}
    if isinstance(value, Ray):
        return {"ray": {"direction": [str(value.direction.dx), str(value.direction.dy)],
                        "origin": encode_value(value.origin)}}
    if isinstance(value, TaxicabCircle):
        return {"circle": {"center": encode_value(value.center), "radius": str(value.radius)}}
    if isinstance(value, (tuple, list)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise GeometryError(f"JSON keys must be strings, got {key!r}")
        return {key: encode_value(v) for key, v in value.items()}
    raise GeometryError(f"cannot encode {type(value).__name__} as JSON")


def emit_json(value: object) -> str:
    """Canonical JSON text: sorted keys, no whitespace, exact rationals."""
    return json.dumps(encode_value(value), sort_keys=True, separators=(",", ":")) + "\n"
