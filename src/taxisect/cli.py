"""Command line interface.

Subcommands:

    run          execute a .taxi script, optionally writing SVG/JSON output
    nsect        divide a segment into n equal taxicab parts
    section      divide an angle into n equal t-radian parts
    measure      t-radian measure of an angle given by two directions
    render-demo  write one of the built-in demonstration figures

Exit codes: 0 on success, 1 when a script assertion fails or the reader of
stdout closes the pipe early, 2 for usage, parse, or domain errors, and for
an exact result too large to print.  Setting the environment variable
TAXISECT_NO_COLOR disables ANSI styling in reports.

Each subcommand imports only the modules it runs, on first use: ``measure``
loads the kernel and the angle measure, ``nsect`` and ``section`` the
constructions, ``--svg``/``--json`` the exporter, ``run`` the script front
end, and ``render-demo`` the built-in figures.  taxisect itself imports
neither ``typing`` nor ``pathlib`` (on CPython 3.13 ``dataclasses`` imports
``typing``, through ``inspect``).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .kernel import Direction, GeometryError, Point, TaxicabCircle
from .numeric import RationalParseError, is_digit_limit, parse_rational, too_many_digits


class UsageError(ValueError):
    """Bad command line input; reported on stderr with exit code 2."""


def _maybe_color(text: str, code: str) -> str:
    if os.environ.get("TAXISECT_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _rational_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc
    except ZeroDivisionError:
        raise UsageError(f"bad {what}: division by zero in {text!r}") from None


def _parse_pair(text: str, what: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be X,Y with rational components, got {text!r}")
    return _rational_arg(parts[0], what), _rational_arg(parts[1], what)


def _point_arg(text: str, what: str) -> Point:
    return Point(*_parse_pair(text, what))


def _direction_arg(text: str, what: str) -> Direction:
    try:
        return Direction(*_parse_pair(text, what))
    except GeometryError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _angle_arg(args: argparse.Namespace):
    """The angle of ``--vertex``, ``--d1`` and ``--d2``, read in that order."""
    from .angles import Angle

    return Angle(_point_arg(args.vertex, "--vertex"), _direction_arg(args.d1, "--d1"),
                 _direction_arg(args.d2, "--d2"))


def _print_trace(trace) -> None:
    from .constructions import (
        _DRAW_CIRCLE, _DRAW_LINE, _INTERSECT_LINE_CIRCLE, _INTERSECT_LINES, _PLACE_POINT,
        _TAKE_CIRCLE_VERTEX, verify_trace,
    )

    report = verify_trace(trace)
    for index, step in enumerate(trace.steps):
        kind = step.kind
        if kind is _PLACE_POINT:
            body = f"place point {step.output}"
        elif kind is _DRAW_CIRCLE:
            circle = step.output
            body = f"draw circle center {circle.center} radius {circle.radius}"
        elif kind is _DRAW_LINE:
            body = f"draw line through steps {step.inputs[0]} and {step.inputs[1]}"
        elif kind is _INTERSECT_LINE_CIRCLE:
            body = f"intersect line {step.inputs[0]} with circle {step.inputs[1]} -> {step.output}"
        elif kind is _INTERSECT_LINES:
            body = f"intersect lines {step.inputs[0]} and {step.inputs[1]} -> {step.output}"
        elif kind is _TAKE_CIRCLE_VERTEX:
            body = f"take {step.vertex.value} vertex of circle {step.inputs[0]} -> {step.output}"
        else:
            body = f"mark result {step.output}"
        tag = f" [{step.label}]" if step.label else ""
        print(f"{index:3d}. {body}{tag}")
    status = "verified" if report.ok else "FAILED VERIFICATION"
    print(f"trace {status}: {report.steps_checked} steps")


def _write(path: str, text: str) -> None:
    from .export import write_text

    try:
        write_text(path, text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    from .export import emit_json, emit_svg
    from .script import ScriptError, execute, parse

    try:
        with open(args.script, encoding="utf-8") as file:
            source = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read script: {exc}") from exc
    try:
        result = execute(parse(source))
    except ScriptError as exc:
        raise UsageError(str(exc)) from exc
    for text in result.dumps:
        sys.stdout.write(text)
    if args.svg is not None:
        _write(args.svg, emit_svg(result.scene))
    if args.json is not None:
        _write(args.json, emit_json(result.env))
    for failure in result.failures:
        print(_maybe_color(f"FAIL {os.path.basename(args.script)}:{failure.line}", "31")
              + f": expected {failure.expected}, actual {failure.actual}")
    if result.failures:
        return 1
    if not args.quiet:
        bindings = len(result.env)
        print(_maybe_color("ok", "32") + f": {bindings} bindings, no failed assertions")
    return 0


def _cmd_nsect(args: argparse.Namespace) -> int:
    from .constructions import nsect_segment

    a = _point_arg(args.a, "--a")
    b = _point_arg(args.b, "--b")
    point, trace = nsect_segment(a, b, args.n)
    print(f"C = {point}")
    if args.trace:
        _print_trace(trace)
    if args.svg is not None:
        from .export import emit_svg, scene_from_trace

        _write(args.svg, emit_svg(scene_from_trace(trace)))
    if args.json is not None:
        from .export import emit_json

        env = {"A": a, "B": b, "C": point, "n": Fraction(args.n)}
        _write(args.json, emit_json(env))
    return 0


def _cmd_section(args: argparse.Namespace) -> int:
    from .angles import measure_angle
    from .constructions import section_angle

    angle = _angle_arg(args)
    radius = _rational_arg(args.radius, "--radius")
    rays, trace = section_angle(angle, args.n, radius)
    total = measure_angle(angle)
    print(f"measure = {total}, each part = {total / args.n}")
    for i, ray in enumerate(rays, start=1):
        print(f"ray {i}: direction {ray.direction}")
    if args.trace and trace is not None:
        _print_trace(trace)
    elif args.trace:
        print("no chord trace: the sides cross different circle edges")
    if args.svg is not None:
        from .export import emit_svg, scene_from_trace

        scene = scene_from_trace(trace) if trace is not None else _ray_scene(angle.vertex, rays, radius)
        _write(args.svg, emit_svg(scene))
    if args.json is not None:
        from .export import emit_json

        _write(args.json, emit_json({"measure": total, "rays": list(rays)}))
    return 0


def _ray_scene(vertex: Point, rays, radius: Fraction):
    from .export import Scene, SceneItem, Stroke

    items = [SceneItem(TaxicabCircle(vertex, radius), stroke=Stroke.AUX),
             SceneItem(vertex, label="A", stroke=Stroke.BASE)]
    items.extend(SceneItem(ray, stroke=Stroke.RESULT) for ray in rays)
    return Scene(tuple(items))


def _cmd_measure(args: argparse.Namespace) -> int:
    from .angles import measure_angle

    print(measure_angle(_angle_arg(args)))
    return 0


def _cmd_render_demo(args: argparse.Namespace) -> int:
    from .export import emit_svg
    from .figures import FIGURES

    builder = FIGURES.get(args.figure)
    if builder is None:
        known = ", ".join(sorted(FIGURES))
        raise UsageError(f"unknown figure {args.figure!r}; choose one of: {known}")
    _write(args.out, emit_svg(builder()))
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxisect",
        description="Exact taxicab-geometry constructions: divide segments and angles "
        "into n equal parts with compass and straightedge steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .taxi script")
    p_run.add_argument("script", help="path to the script")
    p_run.add_argument("--svg", metavar="PATH", help="write the final scene as SVG")
    p_run.add_argument("--json", metavar="PATH", help="write the final bindings as JSON")
    p_run.add_argument("--quiet", action="store_true", help="suppress the success summary")
    p_run.set_defaults(func=_cmd_run)

    p_nsect = sub.add_parser("nsect", help="divide a segment into n equal taxicab parts")
    p_nsect.add_argument("--a", required=True, metavar="X,Y", help="first endpoint")
    p_nsect.add_argument("--b", required=True, metavar="X,Y", help="second endpoint")
    p_nsect.add_argument("--n", required=True, type=int, help="number of parts (>= 2)")
    p_nsect.add_argument("--svg", metavar="PATH", help="render the construction")
    p_nsect.add_argument("--json", metavar="PATH", help="write endpoints and result as JSON")
    p_nsect.add_argument("--trace", action="store_true", help="print the verified step list")
    p_nsect.set_defaults(func=_cmd_nsect)

    angle_options = argparse.ArgumentParser(add_help=False)
    angle_options.add_argument("--vertex", default="0,0", metavar="X,Y", help="angle vertex (default 0,0)")
    angle_options.add_argument("--d1", required=True, metavar="X,Y", help="first side direction")
    angle_options.add_argument("--d2", required=True, metavar="X,Y", help="second side direction")

    p_section = sub.add_parser("section", help="divide an angle into n equal parts", parents=[angle_options])
    p_section.add_argument("--n", required=True, type=int, help="number of parts (>= 2)")
    p_section.add_argument("--radius", default="1", metavar="R", help="construction circle radius")
    p_section.add_argument("--svg", metavar="PATH", help="render the construction or rays")
    p_section.add_argument("--json", metavar="PATH", help="write measure and rays as JSON")
    p_section.add_argument("--trace", action="store_true", help="print the verified step list")
    p_section.set_defaults(func=_cmd_section)

    p_measure = sub.add_parser("measure", help="t-radian measure of an angle", parents=[angle_options])
    p_measure.set_defaults(func=_cmd_measure)

    p_demo = sub.add_parser("render-demo", help="write a built-in demonstration figure")
    p_demo.add_argument("--figure", required=True, help="name of a built-in figure; an unknown name lists them")
    p_demo.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    p_demo.set_defaults(func=_cmd_render_demo)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse mistakes a value like "-1,0" for an option name.  Glue such
    # tokens onto the preceding long option with "=", which argparse always
    # accepts, so coordinates with negative components work.
    merged: list[str] = []
    for token in argv:
        if merged and re.match(r"-\d", token) and merged[-1].startswith("--") and "=" not in merged[-1]:
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        code = args.func(args)
        # Flush here, so that a closed pipe raises below and not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that
        # the flush at exit cannot raise again, and exit 1 as Python does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (UsageError, GeometryError, RationalParseError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if not is_digit_limit(exc):
            raise
        print(f"error: {too_many_digits('result')}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
