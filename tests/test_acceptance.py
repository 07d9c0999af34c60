"""End-to-end acceptance checks, one per numbered criterion.

Every comparison below is exact rational equality; there are no tolerances
anywhere.  Each criterion times itself against its runtime budget and prints
one "acceptance N (<name>): PASS/FAIL (<t>s)" line (visible with pytest -s;
under plain -v the per-test PASSED/FAILED line carries the same verdict).
Randomized cases use fixed seeds so runs are reproducible.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

from taxisect.angles import Angle, direction_to_param, measure_angle, measure_between, param_to_ints
from taxisect.cli import main
from taxisect.constructions import StepKind, nsect_segment, section_angle, verify_trace
from taxisect.export import emit_svg
from taxisect.figures import FIGURES
from taxisect.kernel import (
    CircleVertex,
    Direction,
    Point,
    TaxicabCircle,
    Segment,
    circle_vertex,
    euclidean_distance_squared,
    intersect_line_circle,
    line_through,
    taxicab_distance,
)
from test_kernel import _reference_point_on_circle, along, outcome, slope

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDENS = ROOT / "tests" / "goldens"


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({name}): FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"acceptance {num} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def rand_rational(rng: random.Random, bound: int = 1000) -> F:
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_point(rng: random.Random) -> Point:
    return Point(rand_rational(rng), rand_rational(rng))


def unit_point(t: F) -> Point:
    """The unit-circle point at arc parameter t in [0, 8)."""
    x, y, den = param_to_ints(t.numerator, t.denominator)
    return Point(F(x, den), F(y, den))


def parametric(a: Point, b: Point, n: int) -> Point:
    return Point(a.x + (b.x - a.x) / n, a.y + (b.y - a.y) / n)


def test_criterion_1_proof_conformance():
    with criterion(1, "proof conformance, slope 1", budget=1.0):
        a = Point(F(0), F(0))
        for l in (F(1), F(2), F(3), F(7, 3)):
            b = Point(l, l)
            for n in range(3, 13):
                c, trace = nsect_segment(a, b, n)
                assert c == Point(l / n, l / n)
                assert taxicab_distance(a, c) == 2 * l / n
                crossing = next(s.output for s in trace.steps if s.label == "P")
                assert crossing == Point(l / (n - 1), -l / (n - 1))
                lines = [s.output for s in trace.steps if s.kind is StepKind.DRAW_LINE]
                assert slope(lines[1]) == F(n, n - 2)
                assert slope(lines[2]) == 1 - 2 * n


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence, general directions", budget=10.0):
        rng = random.Random(20260818)
        forced = [
            (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
            (3, 1), (1, 3), (-3, 1), (-1, 3), (-3, -1), (-1, -3), (3, -1), (1, -3),
        ]
        checked = 0
        for i in range(1000):
            a = rand_point(rng)
            if i % 4 == 0:
                dx, dy = forced[(i // 4) % len(forced)]
                scale = F(rng.randint(1, 1000), rng.randint(1, 1000))
                b = along(a, Direction(F(dx), F(dy)), scale)
            else:
                b = rand_point(rng)
                if b == a:
                    continue
            n = 2 + i % 11
            c, trace = nsect_segment(a, b, n)
            assert c == parametric(a, b, n)
            assert verify_trace(trace).ok
            checked += 1
        assert checked >= 990


def test_criterion_3_bisection_case():
    with criterion(3, "bisection and composition", budget=2.0):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rand_point(rng), rand_point(rng)
            if a == b:
                continue
            mid, trace = nsect_segment(a, b, 2)
            assert mid == parametric(a, b, 2)
            assert verify_trace(trace).ok
            quarter, _ = nsect_segment(a, mid, 2)
            assert quarter == nsect_segment(a, b, 4)[0]


def test_criterion_4_tradian_suite():
    with criterion(4, "t-radian measure", budget=2.0):
        origin = Point(F(0), F(0))
        assert measure_between(Direction(F(1), F(0)), Direction(F(1), F(1))) == 1
        rng = random.Random(4)
        for _ in range(50):
            dx, dy = rand_rational(rng), rand_rational(rng)
            if dx == 0 and dy == 0:
                dx = F(1)
            d = Direction(dx, dy)
            flipped = Direction(-d.dx, -d.dy)
            assert measure_angle(Angle(origin, d, flipped)) == 4
        for _ in range(50):
            r = F(rng.randint(1, 10**6), rng.randint(1, 10**4))
            n, s, e, w = (circle_vertex(TaxicabCircle(origin, r), v) for v in CircleVertex)
            assert sum(taxicab_distance(p, q) for p, q in ((e, n), (n, w), (w, s), (s, e))) == 8 * r
        for _ in range(500):
            t = F(rng.randint(0, 8 * 9973 - 1), 9973)
            p = unit_point(t)
            assert direction_to_param(Direction(p.x, p.y)) == t


def test_criterion_5_angle_sectioning():
    with criterion(5, "angle sectioning", budget=5.0):
        rng = random.Random(5)
        vertex = Point(F(1, 3), F(-2, 7))
        for case in range(200):
            n = 2 + case % 7
            if case % 2 == 0:
                # force both sides onto one edge of the circle about the vertex
                start = F(rng.randint(0, 8 * 16 - 1), 16)
                edge_end = 2 * (start // 2 + 1)
                sweep = (edge_end - start) * rng.randint(1, 8) / 8
                if sweep == 0:
                    continue
                p1, p2 = unit_point(start), unit_point((start + sweep) % 8)
                d1, d2 = Direction(p1.x, p1.y), Direction(p2.x, p2.y)
            else:
                raw = [rand_rational(rng, 60) for _ in range(4)]
                if (raw[0] == 0 and raw[1] == 0) or (raw[2] == 0 and raw[3] == 0):
                    continue
                d1 = Direction(raw[0], raw[1])
                d2 = Direction(raw[2], raw[3])
            angle = Angle(vertex, d1, d2)
            total = measure_angle(angle)
            if total == 0:
                continue
            radius = F(rng.randint(1, 5))
            rays, trace = section_angle(angle, n, radius=radius)
            assert len(rays) == n - 1
            chain = [d1, *[r.direction for r in rays], d2]
            subs = [measure_between(x, y) for x, y in zip(chain, chain[1:])]
            if subs[0] != total / n:
                chain = [d2, *[r.direction for r in rays], d1]
                subs = [measure_between(x, y) for x, y in zip(chain, chain[1:])]
            assert all(s == total / n for s in subs)
            assert sum(subs) == total
            if trace is not None:
                assert verify_trace(trace).ok
                crossings = tuple(
                    along(vertex, r.direction, radius / (abs(r.direction.dx) + abs(r.direction.dy)))
                    for r in rays
                )
                assert trace.marked_points() == crossings
            if case % 2 == 0:
                assert trace is not None


def test_criterion_6_metric_properties():
    with criterion(6, "metric properties", budget=2.0):
        rng = random.Random(6)
        for _ in range(1000):
            p, q, r = rand_point(rng), rand_point(rng), rand_point(rng)
            assert taxicab_distance(p, r) <= taxicab_distance(p, q) + taxicab_distance(q, r)
            dt2 = taxicab_distance(p, q) ** 2
            de2 = euclidean_distance_squared(p, q)
            assert de2 <= dt2 <= 2 * de2
            dx, dy = abs(q.x - p.x), abs(q.y - p.y)
            assert (dt2 == 2 * de2) == (dx == dy)
            assert (de2 == dt2) == (dx == 0 or dy == 0)


def test_criterion_7_degenerate_intersections():
    with criterion(7, "degenerate intersections", budget=1.0):
        circle = TaxicabCircle(Point(F(0), F(0)), F(2))
        outcomes = {"empty": 0, "one point": 0, "two points": 0, "overlap": 0}
        for slope in (1, -1):
            for k in range(50):
                c = F(-3) + F(k, 8)
                line = line_through(Point(F(0), c), Point(F(1), F(slope) + c))
                got = intersect_line_circle(line, circle)
                outcomes[outcome(got)] += 1
                if abs(c) > 2:
                    assert got == ()
                elif abs(c) == 2:
                    assert isinstance(got, Segment)
                    assert taxicab_distance(got.p, got.q) == 4
                    for e in (got.p, got.q):
                        assert _reference_point_on_circle(circle, e) and line.contains(e)
                else:
                    assert outcome(got) == "two points"
                    for p in got:
                        assert _reference_point_on_circle(circle, p) and line.contains(p)
        assert outcomes["overlap"] == 4  # c = -2 and c = +2 for each slope
        assert outcomes["two points"] == 2 * 31
        assert outcomes["empty"] == 100 - 4 - 62
        assert outcomes["one point"] == 0


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("TAXISECT_NO_COLOR", "1")
    monkeypatch.chdir(tmp_path)
    with criterion(8, "corpus determinism against goldens", budget=5.0):
        scripts = sorted(CORPUS.glob("*.taxi"))
        assert len(scripts) >= 10
        for script in scripts:
            svg_a, json_a = tmp_path / "a.svg", tmp_path / "a.json"
            svg_b, json_b = tmp_path / "b.svg", tmp_path / "b.json"
            with redirect_stdout(io.StringIO()):
                code = main(["run", str(script), "--quiet", "--svg", str(svg_a), "--json", str(json_a)])
                rerun = main(["run", str(script), "--quiet", "--svg", str(svg_b), "--json", str(json_b)])
            assert code == 0, f"{script.name} exited {code}"
            assert rerun == 0
            assert svg_a.read_bytes() == svg_b.read_bytes()
            assert json_a.read_bytes() == json_b.read_bytes()
            assert svg_a.read_bytes() == (GOLDENS / f"{script.stem}.svg").read_bytes()
            assert json_a.read_bytes() == (GOLDENS / f"{script.stem}.json").read_bytes()
        for name, build in sorted(FIGURES.items()):
            golden = (GOLDENS / f"figure_{name}.svg").read_text(encoding="utf-8")
            assert emit_svg(build()) == golden
