"""Deterministic rendering of scenes to SVG and of values to canonical JSON.

Scenes are flat ordered lists of drawable items with small enumerated style
classes; nothing here ever touches floating point.  The SVG exporter
computes in ints: the view box is found by comparing coordinates as
numerator and denominator pairs, read off each point's int form, the view
is then taken over one common denominator, and each point, circle corner,
label anchor and clipped end of a line or ray maps to an exact SVG
coordinate kept as an int pair (numerator, denominator).  Only the four
bounds of the view box become Fractions.  Each SVG number is printed from
its pair, expanded to at most 12 significant decimal digits with half-even
rounding by one exact Decimal division.  Two emissions of the same scene
are byte-identical.  JSON takes values only: rationals, kernel primitives
and containers of them, such as bindings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Context, Decimal
from enum import Enum
from fractions import Fraction
from math import lcm

from .constructions import (
    _DRAW_CIRCLE, _DRAW_LINE, _MARK_RESULT, _PLACE_POINT, ConstructionTrace, verify_trace,
)
from .kernel import (
    Direction,
    GeometryError,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
    _circle_ints,
)

Geometry = Point | Segment | Line | Ray | TaxicabCircle | tuple[Point, ...]


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


@dataclass(frozen=True)
class Scene:
    items: tuple[SceneItem, ...]


def _bounds(values: list[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """The least and greatest of some (numerator, denominator) pairs with
    positive denominators, moved 1 apart when they are equal, then each
    moved out by a tenth of the distance between them."""
    (lo_n, lo_d) = (hi_n, hi_d) = values[0]
    for n, d in values:
        if n * lo_d < lo_n * d:
            lo_n, lo_d = n, d
        elif n * hi_d > hi_n * d:
            hi_n, hi_d = n, d
    if lo_n * hi_d == hi_n * lo_d:
        lo_n, hi_n = lo_n - lo_d, hi_n + hi_d
    # lo - (hi - lo)/10 and hi + (hi - lo)/10, over 10 * lo_d * hi_d
    den = 10 * lo_d * hi_d
    return Fraction(11 * lo_n * hi_d - hi_n * lo_d, den), Fraction(11 * hi_n * lo_d - lo_n * hi_d, den)


def compute_viewbox(scene: Scene) -> ViewBox:
    """Bounding box of all finite geometry, padded by 10% on each side."""
    xs: list[tuple[int, int]] = []
    ys: list[tuple[int, int]] = []
    for item in scene.items:
        geometry = item.geometry
        if isinstance(geometry, TaxicabCircle):
            cx, cy, r, m = _circle_ints(geometry)
            xs += ((cx - r, m), (cx + r, m))
            ys += ((cy - r, m), (cy + r, m))
            continue
        if isinstance(geometry, Point):
            points: tuple[Point, ...] = (geometry,)
        elif isinstance(geometry, Segment):
            points = (geometry.p, geometry.q)
        elif isinstance(geometry, Ray):
            points = (geometry.origin,)
        elif isinstance(geometry, tuple):
            points = geometry
        else:
            continue  # an infinite line constrains nothing
        for p in points:
            x, y, d = p._ints
            xs.append((x, d))
            ys.append((y, d))
    if not xs:
        return ViewBox(Fraction(-1), Fraction(-1), Fraction(1), Fraction(1))
    min_x, max_x = _bounds(xs)
    min_y, max_y = _bounds(ys)
    return ViewBox(min_x, min_y, max_x, max_y)


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
    for step in trace.steps:
        out = step.output
        kind = step.kind
        if kind is _PLACE_POINT:
            items.append(SceneItem(out, label=step.label, stroke=Stroke.BASE))
        elif kind is _DRAW_CIRCLE:
            items.append(SceneItem(out, stroke=Stroke.AUX))
        elif kind is _DRAW_LINE:
            assert isinstance(out, Line)
            endpoints = tuple(trace.steps[ref] for ref in step.inputs)
            if all(s.kind is _PLACE_POINT for s in endpoints):
                seg = Segment(endpoints[0].output, endpoints[1].output)
                items.append(SceneItem(seg, stroke=Stroke.BASE))
            else:
                items.append(SceneItem(out, stroke=Stroke.AUX, dash=Dash.DASHED))
        elif kind is _MARK_RESULT:
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


_CANVAS_WIDTH = 560

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

_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)

# An SVG coordinate as an int pair (num, den) with den > 0.
_Pair = tuple[int, int]


def _decimal_text(num: int, den: int) -> str:
    """num/den, for den > 0, in decimal with at most 12 significant digits,
    half-even rounded."""
    if not num % den:
        return str(num // den)
    quotient = _DECIMAL.divide(Decimal(num), Decimal(den))
    text = format(quotient, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


class _Mapper:
    """Affine map from math coordinates to SVG user units (y flipped), in ints.

    The view is taken over one common denominator d once, as the corners
    (x0, y0)/d and (x1, y1)/d.  With w = x1 - x0, a math x = n/e lands at
    (n*d - x0*e) * 560 / (e*w) and a math y = n/e at
    (y1*e - n*d) * 560 / (e*w); both are kept as int pairs.
    """

    def __init__(self, view: ViewBox) -> None:
        ratios = [v.as_integer_ratio() for v in (view.min_x, view.min_y, view.max_x, view.max_y)]
        self.d = d = lcm(*(den for _, den in ratios))
        self.x0, self.y0, self.x1, self.y1 = (n * (d // den) for n, den in ratios)
        self.w = self.x1 - self.x0
        self.height = ((self.y1 - self.y0) * _CANVAS_WIDTH, self.w)

    def x(self, n: int, e: int) -> _Pair:
        return (n * self.d - self.x0 * e) * _CANVAS_WIDTH, e * self.w

    def y(self, n: int, e: int) -> _Pair:
        return (self.y1 * e - n * self.d) * _CANVAS_WIDTH, e * self.w

    def point(self, p: Point) -> tuple[_Pair, _Pair]:
        x, y, d = p._ints
        return self.x(x, d), self.y(y, d)


def _xy_text(xy: tuple[_Pair, _Pair]) -> str:
    return f"{_decimal_text(*xy[0])},{_decimal_text(*xy[1])}"


def _visible_span(
    mapper: _Mapper, ox: int, oy: int, e: int, dx: int, dy: int, ray: bool
) -> tuple[tuple[_Pair, _Pair], tuple[_Pair, _Pair]] | None:
    """The SVG ends of the piece inside the view of the line through
    (ox, oy)/e along (dx, dy), from the origin on for a ray; None when that
    piece is empty or one point.

    The view's bounds are n/d, so the line meets the bound n on the x axis
    at the parameter (n*e - ox*d) / (dx*d*e); every parameter shares the
    positive factor 1/(d*e), and is kept as its s = (n*e - ox*d) / dx.
    """
    d = mapper.d
    lo: _Pair | None = (0, 1) if ray else None
    hi: _Pair | None = None
    for o, delta, low, high in ((ox, dx, mapper.x0, mapper.x1), (oy, dy, mapper.y0, mapper.y1)):
        if not delta:
            if not low * e <= o * d <= high * e:
                return None
            continue
        n0, n1 = low * e - o * d, high * e - o * d
        if delta < 0:
            n0, n1, delta = -n1, -n0, -delta
        if lo is None or n0 * lo[1] > lo[0] * delta:
            lo = (n0, delta)
        if hi is None or n1 * hi[1] < hi[0] * delta:
            hi = (n1, delta)
    # the direction is nonzero, so at least one axis set both ends
    assert lo is not None and hi is not None
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    # The point at s = sn/sd is (o*d*sd + delta*sn) / (d*e*sd) on each axis.
    return tuple(
        (mapper.x(ox * d * sd + dx * sn, d * e * sd), mapper.y(oy * d * sd + dy * sn, d * e * sd))
        for sn, sd in (lo, hi)
    )


def _stroke_attributes(item: SceneItem) -> str:
    color, width = _STROKE_STYLE[item.stroke]
    dash = f' stroke-dasharray="{_DASH_PATTERN}"' if item.dash is Dash.DASHED else ""
    return f'stroke="{color}" stroke-width="{width}"{dash}'


def _item_elements(mapper: _Mapper, item: SceneItem) -> list[str]:
    geometry = item.geometry
    color = _STROKE_STYLE[item.stroke][0]
    pieces: list[str] = []
    label_at: tuple[_Pair, _Pair] | None = None
    ends: tuple[tuple[_Pair, _Pair], tuple[_Pair, _Pair]] | None = None

    if isinstance(geometry, Point):
        label_at = (x, y) = mapper.point(geometry)
        pieces.append(
            f'<circle cx="{_decimal_text(*x)}" cy="{_decimal_text(*y)}" '
            f'r="{_POINT_RADIUS[item.stroke]}" fill="{color}"/>'
        )
    elif isinstance(geometry, Segment):
        label_at = mapper.point(geometry.q)
        ends = (mapper.point(geometry.p), label_at)
    elif isinstance(geometry, TaxicabCircle):
        # The corners east, north, west, south: the center plus or minus r.
        cx, cy, r, m = _circle_ints(geometry)
        x, y = mapper.x(cx, m), mapper.y(cy, m)
        corners = [(mapper.x(cx + r, m), y), (x, mapper.y(cy + r, m)),
                   (mapper.x(cx - r, m), y), (x, mapper.y(cy - r, m))]
        points = " ".join(map(_xy_text, corners))
        pieces.append(f'<polygon points="{points}" fill="none" {_stroke_attributes(item)}/>')
        label_at = corners[1]
    elif isinstance(geometry, Line):
        # Through (c/a, 0), or (0, c/b) when a = 0, along (b, -a).
        a, b, c = geometry._ints
        if a:
            ends = _visible_span(mapper, c, 0, a, b, -a, False)
        else:
            ends = _visible_span(mapper, 0, c, b, b, 0, False)
    elif isinstance(geometry, Ray):
        ox, oy, e = geometry.origin._ints
        dx, dy, _ = geometry.direction._ints
        ends = _visible_span(mapper, ox, oy, e, dx, dy, True)
        label_at = mapper.point(geometry.origin)
    elif isinstance(geometry, tuple):
        if len(geometry) >= 2:
            mapped = [mapper.point(p) for p in geometry]
            joined = " ".join(map(_xy_text, mapped))
            pieces.append(f'<polyline points="{joined}" fill="none" {_stroke_attributes(item)}/>')
            label_at = mapped[-1]
    else:
        raise GeometryError(f"cannot render {type(geometry).__name__}")

    if ends is not None:
        (x1, y1), (x2, y2) = ends
        pieces.append(
            f'<line x1="{_decimal_text(*x1)}" y1="{_decimal_text(*y1)}" '
            f'x2="{_decimal_text(*x2)}" y2="{_decimal_text(*y2)}" {_stroke_attributes(item)}/>'
        )
    if item.label and label_at is not None:
        (xn, xd), (yn, yd) = label_at
        pieces.append(
            f'<text x="{_decimal_text(xn + 6 * xd, xd)}" y="{_decimal_text(yn - 6 * yd, yd)}" '
            f'font-family="Helvetica, Arial, sans-serif" font-size="14" '
            f'font-style="italic" fill="{color}">{escape(item.label)}</text>'
        )
    return pieces


def emit_svg(scene: Scene) -> str:
    """Serialize a scene to standalone SVG 1.1 text, byte-stable per scene."""
    mapper = _Mapper(compute_viewbox(scene))
    w = str(_CANVAS_WIDTH)
    h = _decimal_text(*mapper.height)
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
