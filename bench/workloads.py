"""The four benchmark workloads: seeded inputs, one operation, checks.

An operation's program work runs inside ``with clock:`` blocks; the checks,
which use the benchmark's own exact arithmetic, run outside them.  Every
workload attempts whole rounds of the same operations, so the share of
failed operations does not depend on the seed or on how long a run lasts.
Inputs come from ``random.Random(seed)``; the call counts of a traced run
come from one round made from ``COUNT_SEED``, so they repeat exactly.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import tamper
from tracing import NO_SPAN, Clock
from taxisect import cli, constructions, export, figures, kernel
from taxisect import script as taxi
from taxisect.angles import Angle
from taxisect.constructions import StepKind
from taxisect.kernel import Direction, Line, Point, Ray, Segment, TaxicabCircle

COUNT_SEED = 0
ANGLE_N = 16
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


class CheckError(Exception):
    """The program returned a wrong result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))


def _point(rng: random.Random) -> Point:
    return Point(_rational(rng), _rational(rng))


def _pair(x: Fraction, y: Fraction) -> str:
    return f"{x},{y}"


def unit_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """The point of the taxicab unit circle at arc parameter t in [0, 8):
    counterclockwise from (1, 0), taxicab arc length t."""
    if t <= 4:
        x = 1 - t / 2
        return x, 1 - abs(x)
    x = (t - 6) / 2
    return x, abs(x) - 1


def arc_param(dx: Fraction, dy: Fraction) -> Fraction:
    x = dx / (abs(dx) + abs(dy))
    return 2 - 2 * x if dy >= 0 else 6 + 2 * x


def angle_measure(d1: tuple[Fraction, Fraction], d2: tuple[Fraction, Fraction]) -> Fraction:
    delta = abs(arc_param(*d1) - arc_param(*d2))
    return min(delta, 8 - delta)


def chord_angle(rng: random.Random, edge: int) -> dict:
    """An angle whose sides both cross the given edge of the circle about
    its vertex, swept from parameter ``start`` through ``sweep``."""
    den = rng.randint(500, 1000)
    s_num = rng.randint(1, den - 2)
    w_num = rng.randint(1, den - 1 - s_num)
    start = 2 * edge + Fraction(2 * s_num, den)
    sweep = Fraction(2 * w_num, den)
    sides = []
    for t in (start, start + sweep):
        ux, uy = unit_point(t)
        scale = rng.randint(1, 9)
        sides.append(Direction(ux * scale, uy * scale))
    if rng.random() < 0.5:
        sides.reverse()
    radius = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
    return {"vertex": _point(rng), "d1": sides[0], "d2": sides[1], "radius": radius,
            "start": start, "sweep": sweep}


def check_rays(rays, vertex: Point, start: Fraction, sweep: Fraction, n: int) -> None:
    expect(len(rays) == n - 1, f"expected {n - 1} rays, got {len(rays)}")
    for k, ray in enumerate(rays, start=1):
        ux, uy = unit_point((start + sweep * k / n) % 8)
        d = ray.direction
        expect(ray.origin == vertex, f"ray {k} leaves {ray.origin}, not the vertex")
        expect(d.dx * uy == d.dy * ux and d.dx * ux + d.dy * uy > 0,
               f"ray {k} direction {d} is not a positive multiple of ({ux}, {uy})")


def replay_kernel(trace, tracer) -> None:
    """Time each straightedge step of a trace again through the kernel's
    public functions, on the trace's own recorded inputs."""
    outputs = [step.output for step in trace.steps]
    for step in trace.steps:
        if step.kind is StepKind.DRAW_LINE:
            p, q = (outputs[ref] for ref in step.inputs)
            with tracer.span("kernel.line_through"):
                kernel.line_through(p, q)
        elif step.kind is StepKind.INTERSECT_LINES:
            m, n = (outputs[ref] for ref in step.inputs)
            with tracer.span("kernel.intersect_lines"):
                kernel.intersect_lines(m, n)
        elif step.kind is StepKind.INTERSECT_LINE_CIRCLE:
            line, circle = (outputs[ref] for ref in step.inputs)
            with tracer.span("kernel.intersect_line_circle"):
                kernel.intersect_line_circle(line, circle)


def trace_bits(trace) -> int:
    """Largest numerator or denominator bit length among step outputs."""
    best = 0
    for step in trace.steps:
        out = step.output
        if isinstance(out, Point):
            values = (out.x, out.y)
        elif isinstance(out, Line):
            values = (out.a, out.b, out.c)
        else:
            values = (out.center.x, out.center.y, out.radius)
        for v in values:
            best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def run_in_process(argv: list[str], cwd: Path, clock=None) -> tuple[int, str]:
    """Call ``cli.main`` warm, in this process, with stdout captured."""
    buffer = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(buffer), (NO_SPAN if clock is None else clock):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return code, buffer.getvalue()


def _decoded_equals(value, encoded) -> bool:
    """Whether JSON emitted for a binding decodes to exactly that value."""
    def same(fraction: Fraction, text) -> bool:
        return isinstance(text, str) and Fraction(text) == fraction

    def same_point(p: Point, enc) -> bool:
        return isinstance(enc, list) and len(enc) == 2 and same(p.x, enc[0]) and same(p.y, enc[1])

    if isinstance(value, Fraction):
        return same(value, encoded)
    if isinstance(value, Point):
        return same_point(value, encoded)
    if isinstance(value, tuple):
        return (isinstance(encoded, list) and len(encoded) == len(value)
                and all(_decoded_equals(v, e) for v, e in zip(value, encoded)))
    if not isinstance(encoded, dict) or len(encoded) != 1:
        return False
    ((tag, body),) = encoded.items()
    if isinstance(value, Direction):
        return tag == "direction" and same_point(Point(value.dx, value.dy), body)
    if isinstance(value, Line):
        return tag == "line" and len(body) == 3 and all(
            same(v, t) for v, t in zip((value.a, value.b, value.c), body))
    if isinstance(value, Segment):
        return tag == "segment" and same_point(value.p, body[0]) and same_point(value.q, body[1])
    if isinstance(value, Ray):
        d = value.direction
        return (tag == "ray" and same_point(value.origin, body["origin"])
                and same_point(Point(d.dx, d.dy), body["direction"]))
    if isinstance(value, TaxicabCircle):
        return (tag == "circle" and same_point(value.center, body["center"])
                and same(value.radius, body["radius"]))
    return False


def check_bindings_json(text: str, env: dict) -> None:
    decoded = json.loads(text)
    expect(set(decoded) == set(env), "emitted JSON names differ from the bindings")
    for name, value in env.items():
        expect(_decoded_equals(value, decoded[name]), f"JSON for {name!r} does not decode to {value}")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse as XML: {exc}") from None
    expect(root.tag == SVG_TAG, f"SVG root element is {root.tag}")


class Workload:
    """Base: ``op`` is one timed operation; ``in_process`` is the program
    work whose calls a traced run counts; ``probe`` adds, in traced runs
    only, the layers the operation itself does not reach."""

    round_size = 1
    verifies = True  # the operation verifies its own traces
    tampers = False  # the operation verifies tampered traces

    def __init__(self, seed: int, root: Path, scratch: Path, tracer) -> None:
        self.root = root
        self.scratch = scratch
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.rounds_made = 0
        self.verdicts: dict[str, set[str]] = {}

    def make_round(self, rng: random.Random, index: int) -> list:
        raise NotImplementedError

    def rounds(self):
        while True:
            yield self.make_round(self.rng, self.rounds_made)
            self.rounds_made += 1

    def count_round(self) -> list:
        return self.make_round(random.Random(COUNT_SEED), 0)

    def warm_up(self) -> None:
        for item in self.make_round(random.Random(-1), 0):
            self.op(item, Clock())

    def op(self, item, clock) -> bool:
        """Run one operation; return True when it failed."""
        raise NotImplementedError

    def in_process(self, item, clock) -> None:
        self.op(item, clock)

    def probe(self, item, index: int) -> None:
        pass

    def tamper_check(self, trace, clock, index: int) -> bool:
        """Verify a tampered copy of ``trace``; True when the change got through."""
        entry = next(
            entry
            for entry in (tamper.MENU[(index + k) % len(tamper.MENU)] for k in range(len(tamper.MENU)))
            if entry.applies(trace)
        )
        forged = entry.apply(trace)
        with clock, self.tracer.span("constructions.verify_tampered"):
            outcome = tamper.verdict(forged)
        self.verdicts.setdefault(entry.name, set()).add(outcome)
        return not tamper.caught(outcome)


class SegmentCertify(Workload):
    """nsect_segment, verify_trace and the check, n cycling over 2..12; every
    other operation also verifies a tampered copy of its trace."""

    round_size = 22
    tampers = True

    def make_round(self, rng, index):
        items = []
        for k in range(self.round_size):
            a = _point(rng)
            b = _point(rng)
            while b == a:
                b = _point(rng)
            forgery = k // 2 if k % 2 else None
            items.append((a, b, 2 + k % 11, forgery))
        return items

    def op(self, item, clock):
        a, b, n, forgery = item
        with clock:
            point, trace = constructions.nsect_segment(a, b, n)
            report = constructions.verify_trace(trace)
        expect(point.x == a.x + (b.x - a.x) / n and point.y == a.y + (b.y - a.y) / n,
               f"nsect({a}, {b}, {n}) gave {point}")
        expect(trace.result_point() == point, "trace result differs from the returned point")
        expect(report.ok and report.steps_checked == len(trace.steps),
               f"genuine trace of nsect({a}, {b}, {n}) failed verification: {report}")
        if forgery is None:
            return False
        return self.tamper_check(trace, clock, forgery)

    def probe(self, item, index):
        a, b, n, _ = item
        expected = f"C = ({a.x + (b.x - a.x) / n}, {a.y + (b.y - a.y) / n})"
        source = f"A = point({a.x}, {a.y})\nB = point({b.x}, {b.y})\nC = nsect(A, B, {n})\n"
        result = taxi.execute(taxi.parse(source), output_root=self.scratch)
        expect(f"C = {result.env['C']}" == expected, "script nsect disagrees")
        check_svg(export.emit_svg(result.scene))
        check_bindings_json(export.emit_json(result.env), result.env)
        code, out = run_in_process(
            ["nsect", "--a", _pair(a.x, a.y), "--b", _pair(b.x, b.y), "--n", str(n)], self.scratch)
        expect(code == 0 and out == expected + "\n", f"in-process nsect printed {out!r}")


class AngleChord(Workload):
    """section_angle with a chord trace, then verify_trace, at n = ANGLE_N;
    one angle on each edge of the circle per round."""

    round_size = 4

    def make_round(self, rng, index):
        return [chord_angle(rng, edge) for edge in range(self.round_size)]

    def op(self, item, clock):
        v, r = item["vertex"], item["radius"]
        with clock:
            rays, trace = constructions.section_angle(Angle(v, item["d1"], item["d2"]), ANGLE_N, r)
            report = constructions.verify_trace(trace)
        expect(trace is not None, "no chord trace for an angle inside one edge")
        expect(report.ok and report.steps_checked == len(trace.steps),
               f"chord trace failed verification: {report}")
        marks = trace.marked_points()
        expect(len(marks) == ANGLE_N - 1, f"{len(marks)} marked points")
        for k, mark in enumerate(marks, start=1):
            ux, uy = unit_point(item["start"] + item["sweep"] * k / ANGLE_N)
            expect(mark.x == v.x + r * ux and mark.y == v.y + r * uy,
                   f"mark {k} at {mark}, expected ({v.x + r * ux}, {v.y + r * uy})")
        check_rays(rays, v, item["start"], item["sweep"], ANGLE_N)
        return False

    def probe(self, item, index):
        v, d1, d2, r = item["vertex"], item["d1"], item["d2"], item["radius"]
        source = (f"V = point({v.x}, {v.y})\n"
                  f"R = section(V, dir({d1.dx}, {d1.dy}), dir({d2.dx}, {d2.dy}), {ANGLE_N}, {r})\n")
        result = taxi.execute(taxi.parse(source), output_root=self.scratch)
        check_rays(result.env["R"], v, item["start"], item["sweep"], ANGLE_N)
        check_svg(export.emit_svg(result.scene))
        check_bindings_json(export.emit_json(result.env), result.env)
        code, out = run_in_process(
            ["section", "--vertex", _pair(v.x, v.y), "--d1", _pair(d1.dx, d1.dy),
             "--d2", _pair(d2.dx, d2.dy), "--n", str(ANGLE_N), "--radius", str(r)], self.scratch)
        expect(code == 0 and out.startswith(f"measure = {item['sweep']}, "),
               f"in-process section printed {out[:60]!r}")


class ScriptCorpus(Workload):
    """Parse, execute and emit SVG and JSON for every corpus script."""

    verifies = False

    def __init__(self, seed, root, scratch, tracer):
        super().__init__(seed, root, scratch, tracer)
        paths = sorted((root / "corpus").glob("*.taxi"))
        random.Random(seed).shuffle(paths)
        self.sources = [(path, path.read_text(encoding="utf-8")) for path in paths]
        self.reference_svg: dict[Path, str] = {}
        for path, source in self.sources:
            scene = taxi.execute(taxi.parse(source), output_root=scratch).scene
            first = export.emit_svg(scene)
            expect(export.emit_svg(scene) == first, f"{path.name}: two emissions of one scene differ")
            self.reference_svg[path] = first

    def make_round(self, rng, index):
        return [self.sources]

    def op(self, item, clock):
        emitted = []
        for path, source in item:
            with clock:
                result = taxi.execute(taxi.parse(source), output_root=self.scratch)
                svg = export.emit_svg(result.scene)
                bindings = export.emit_json(result.env)
            emitted.append((path, result, svg, bindings))
        for path, result, svg, bindings in emitted:
            expect(not result.failures, f"{path.name}: {[f.describe() for f in result.failures]}")
            check_bindings_json(bindings, result.env)
            check_svg(svg)
            expect(svg == self.reference_svg[path], f"{path.name}: SVG differs from an earlier emission")
            for written in result.rendered:
                expect(Path(written).is_file(), f"{path.name}: render wrote nothing at {written}")
        return False

    def probe(self, item, index):
        path, _ = item[index % len(item)]
        code, out = run_in_process(["run", str(path), "--quiet"], self.scratch)
        expect(code == 0, f"in-process run of {path.name} exited {code}")


_BINDING = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=", re.MULTILINE)


class CliCold(Workload):
    """A fresh ``python -m taxisect.cli`` process per operation, one at a
    time, rotating over run, nsect, section, measure and render-demo."""

    round_size = 5
    verifies = False

    def __init__(self, seed, root, scratch, tracer):
        super().__init__(seed, root, scratch, tracer)
        self.scripts = sorted((root / "corpus").glob("*.taxi"))
        self.figures = sorted(figures.FIGURES)
        self.reference_svg = {name: export.emit_svg(figures.FIGURES[name]()) for name in self.figures}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TAXISECT_NO_COLOR="1")
        self.child_rss_kb: list[int] = []

    def make_round(self, rng, index):
        script = self.scripts[index % len(self.scripts)]
        names = _BINDING.findall(script.read_text(encoding="utf-8"))
        a = _point(rng)
        b = _point(rng)
        while b == a:
            b = _point(rng)
        n = 2 + index % 11
        angle = chord_angle(rng, rng.randrange(4))
        section_n = 2 + index % 7
        d1 = (_rational(rng) or Fraction(1), _rational(rng))
        d2 = (_rational(rng), _rational(rng) or Fraction(1))
        figure = self.figures[index % len(self.figures)]
        v, r = angle["vertex"], angle["radius"]
        return [
            (["run", str(script)], ("run", names)),
            (["nsect", "--a", _pair(a.x, a.y), "--b", _pair(b.x, b.y), "--n", str(n), "--trace"],
             ("nsect", a, b, n)),
            (["section", "--vertex", _pair(v.x, v.y),
              "--d1", _pair(angle["d1"].dx, angle["d1"].dy), "--d2", _pair(angle["d2"].dx, angle["d2"].dy),
              "--n", str(section_n), "--radius", str(r), "--svg", "section.svg", "--json", "section.json"],
             ("section", angle, section_n)),
            (["measure", "--d1", _pair(*d1), "--d2", _pair(*d2)], ("measure", d1, d2)),
            (["render-demo", "--figure", figure, "--out", f"demo-{figure}.svg"], ("render-demo", figure)),
        ]

    def _child(self, argv: list[str]) -> tuple[int, str, int]:
        proc = subprocess.Popen([sys.executable, "-m", "taxisect.cli", *argv], cwd=self.scratch,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode("utf-8"), usage.ru_maxrss

    def op(self, item, clock):
        argv, expected = item
        with clock:
            code, out, rss_kb = self._child(argv)
        self.child_rss_kb.append(rss_kb)
        expect(code == 0, f"taxisect {' '.join(argv)} exited {code}: {out[-300:]}")
        self._check(expected, out)
        if self.tracer.active:
            code, warm = run_in_process(argv, self.scratch)
            expect(code == 0 and warm == out, f"in-process taxisect {argv[0]} printed other output")
        return False

    def in_process(self, item, clock):
        argv, expected = item
        code, out = run_in_process(argv, self.scratch, clock)
        expect(code == 0, f"in-process taxisect {argv[0]} exited {code}")
        self._check(expected, out)

    def _check(self, expected, out: str) -> None:
        lines = out.splitlines()
        kind = expected[0]
        if kind == "run":
            names = expected[1]
            expect(lines[-1] == f"ok: {len(names)} bindings, no failed assertions", f"run printed {lines[-1]!r}")
            for dump in lines[:-1]:
                expect(list(json.loads(dump)) == sorted(names), "dump names differ from the script's bindings")
        elif kind == "nsect":
            _, a, b, n = expected
            expect(lines[0] == f"C = ({a.x + (b.x - a.x) / n}, {a.y + (b.y - a.y) / n})",
                   f"nsect printed {lines[0]!r}")
            steps = 2 * n + 6
            expect(len(lines) == steps + 2 and lines[-1] == f"trace verified: {steps} steps",
                   f"nsect trace footer {lines[-1]!r}")
        elif kind == "section":
            _, angle, n = expected
            sweep = angle["sweep"]
            expect(lines[0] == f"measure = {sweep}, each part = {sweep / n}", f"section printed {lines[0]!r}")
            rays = []
            for k in range(1, n):
                ux, uy = unit_point((angle["start"] + sweep * k / n) % 8)
                expect(lines[k] == f"ray {k}: direction ({ux}, {uy})", f"section printed {lines[k]!r}")
                rays.append(Ray(angle["vertex"], Direction(ux, uy)))
            encoded = json.loads((self.scratch / "section.json").read_text(encoding="utf-8"))
            expect(_decoded_equals(sweep, encoded["measure"]) and _decoded_equals(tuple(rays), encoded["rays"]),
                   "section JSON differs from the expected rays")
            check_svg((self.scratch / "section.svg").read_text(encoding="utf-8"))
        elif kind == "measure":
            _, d1, d2 = expected
            expect(lines == [str(angle_measure(d1, d2))], f"measure printed {out!r}")
        else:
            figure = expected[1]
            expect(lines == [f"wrote demo-{figure}.svg"], f"render-demo printed {out!r}")
            svg = (self.scratch / f"demo-{figure}.svg").read_text(encoding="utf-8")
            check_svg(svg)
            expect(svg == self.reference_svg[figure], f"figure {figure} differs from the in-process emission")


WORKLOADS = {
    "segment-certify": SegmentCertify,
    "angle-chord": AngleChord,
    "script-corpus": ScriptCorpus,
    "cli-cold": CliCold,
}
