import re
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taxisect import script
from taxisect.export import emit_json, emit_svg
from taxisect.kernel import Point, Ray
from taxisect.script import (
    AssertEq,
    Binding,
    Call,
    Dump,
    Loc,
    NameRef,
    PointLit,
    RationalLit,
    Render,
    StringLit,
    TaxiRuntimeError,
    TaxiSyntaxError,
    execute,
    parse,
    run_source,
)


def test_parse_single_binding():
    script = parse("A = point(0, 0)")
    assert len(script.statements) == 1
    stmt = script.statements[0]
    assert isinstance(stmt, Binding)
    assert stmt.name == "A"
    assert isinstance(stmt.expr, Call)
    assert stmt.expr.func == "point"


def test_parse_call_with_name_arguments():
    script = parse("C = nsect(A, B, 3)")
    call = script.statements[0].expr
    assert isinstance(call, Call)
    assert len(call.args) == 3


def test_division_by_zero_is_a_runtime_matter():
    script = parse("x = 1/0")
    lit = script.statements[0].expr
    assert isinstance(lit, RationalLit)
    with pytest.raises(TaxiRuntimeError) as info:
        execute(script)
    assert "division by zero" in str(info.value)
    assert info.value.line == 1


def test_point_literals_and_negative_components():
    result = run_source("A = (3/2, -3/2)\nassert_eq A (3/2, -3/2)")
    assert result.ok
    assert result.env["A"] == Point(F(3, 2), F(-3, 2))


def test_comments_and_blank_lines():
    source = "# heading\n\nA = point(1, 2)  # trailing note\n"
    result = run_source(source)
    assert result.env["A"] == Point(F(1), F(2))


def test_crlf_accepted():
    result = run_source("A = point(1, 2)\r\nB = point(0, 0)\r\n")
    assert set(result.env) == {"A", "B"}


# -------------------------------------------------------------- parse errors


def test_syntax_error_carries_location():
    with pytest.raises(TaxiSyntaxError) as info:
        parse("A = point(0, 0)\nB = = 3")
    assert info.value.line == 2
    assert info.value.col >= 5


def test_unknown_function():
    with pytest.raises(TaxiSyntaxError) as info:
        parse("A = poin(B, 3)")
    assert "unknown function" in str(info.value)


def test_arity_mismatch():
    with pytest.raises(TaxiSyntaxError) as info:
        parse("A = point(1)")
    assert "argument" in str(info.value)


def test_keywords_cannot_be_bound():
    with pytest.raises(TaxiSyntaxError):
        parse("dump = point(0, 0)")
    with pytest.raises(TaxiSyntaxError):
        parse("point = point(0, 0)")


def test_unterminated_statement_reports_end_of_input():
    with pytest.raises(TaxiSyntaxError) as info:
        parse("A = ")
    assert "end of input" in str(info.value)


# ------------------------------------------------------------------ running


def test_segment_split_script():
    source = (
        "A = point(0, 0)\n"
        "B = point(3, 3)\n"
        "C = nsect(A, B, 3)\n"
        "assert_eq tdist(A, C) 2\n"
    )
    result = run_source(source)
    assert result.ok
    assert result.env["C"] == Point(F(1), F(1))


def test_angle_measure_script():
    result = run_source("assert_eq measure(point(0,0), dir(1,0), dir(1,1)) 1")
    assert result.ok


def test_failed_assertion_is_recorded_not_fatal():
    source = (
        "A = point(0, 0)\n"
        "B = point(2, 2)\n"
        "assert_eq tdist(A, B) 5\n"
        "C = point(1, 1)\n"
    )
    result = run_source(source)
    assert not result.ok
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.describe() == "line 3: expected 5, actual 4"
    # execution continued past the failure
    assert result.env["C"] == Point(F(1), F(1))


def test_assert_type_mismatch_halts():
    with pytest.raises(TaxiRuntimeError) as info:
        run_source("A = point(0, 0)\nassert_eq A 4")
    assert "cannot compare" in str(info.value)
    assert info.value.line == 2


def test_undefined_name():
    with pytest.raises(TaxiRuntimeError) as info:
        run_source("A = tdist(B, B)")
    assert "undefined name 'B'" in str(info.value)


def test_redefinition_rejected():
    with pytest.raises(TaxiRuntimeError) as info:
        run_source("A = point(0, 0)\nA = point(1, 1)")
    assert info.value.line == 2


def test_domain_error_carries_location():
    with pytest.raises(TaxiRuntimeError) as info:
        run_source("A = point(1, 1)\nS = segment(A, A)")
    assert info.value.line == 2


def test_two_point_intersection_needs_an_index():
    source = (
        "ring = circle(point(0,0), 2)\n"
        "flat = line_through(point(-3,0), point(3,0))\n"
        "X = intersect(flat, ring)\n"
    )
    with pytest.raises(TaxiRuntimeError) as info:
        run_source(source)
    assert "intersect(a, b, index)" in str(info.value)
    picked = run_source(
        "ring = circle(point(0,0), 2)\n"
        "flat = line_through(point(-3,0), point(3,0))\n"
        "X = intersect(flat, ring, 1)\nassert_eq X (2, 0)\n"
    )
    assert picked.ok


def test_section_produces_ray_list():
    result = run_source("rays = section(point(0,0), dir(1,0), dir(-1,0), 4)")
    rays = result.env["rays"]
    assert isinstance(rays, tuple) and len(rays) == 3
    assert all(isinstance(r, Ray) for r in rays)
    labels = [item.label for item in result.scene.items if item.label]
    assert "rays[0]" in labels and "rays[2]" in labels


def test_vertex_requires_quoted_corner():
    assert run_source('E = vertex(circle(point(0,0), 1), "E")\nassert_eq E (1, 0)').ok
    with pytest.raises(TaxiRuntimeError):
        run_source("E = vertex(circle(point(0,0), 1), 4)")


def test_render_and_dump(tmp_path):
    source = (
        "A = point(0, 0)\n"
        "B = point(3, 3)\n"
        "C = nsect(A, B, 3)\n"
        'render "figs/out.svg"\n'
        "dump\n"
    )
    result = run_source(source, output_root=tmp_path)
    written = tmp_path / "figs" / "out.svg"
    assert written.is_file()
    assert written.read_text().startswith("<svg")
    assert result.rendered == (str(written),)
    assert len(result.dumps) == 1
    assert '"C":["1","1"]' in result.dumps[0]


def test_a_bound_direction_is_not_drawn(tmp_path):
    result = run_source('D = dir(0, 1)\nA = point(1, 1)\nrender "out.svg"\n', output_root=tmp_path)
    assert [item.label for item in result.scene.items] == ["A"]
    assert (tmp_path / "out.svg").read_text().count("<circle ") == 1


@pytest.mark.parametrize("as_root", [str, Path], ids=["str-root", "Path-root"])
@pytest.mark.parametrize("target", ["out.svg", "figs/deep/out.svg", None], ids=["relative", "nested", "absolute"])
def test_rendered_names_each_written_path(tmp_path, as_root, target):
    root = tmp_path / "root"
    path = target or str(tmp_path / "abs" / "out.svg")
    result = run_source(f'A = point(0, 0)\nrender "{path}"\n', output_root=as_root(root))
    want = path if target is None else f"{root}/{target}"
    assert result.rendered == (want,)
    assert Path(want).read_text().startswith("<svg")


@pytest.mark.parametrize("target", ["afile/out.svg", "adir", "a\0b.svg", "figs/"])
def test_render_to_unwritable_path_is_located(tmp_path, target):
    (tmp_path / "afile").write_text("a regular file\n")
    (tmp_path / "adir").mkdir()
    with pytest.raises(TaxiRuntimeError) as err:
        run_source(f'A = point(0, 0)\n\nrender "{target}"\n', output_root=tmp_path)
    assert (err.value.line, err.value.col) == (3, 1)
    assert err.value.message.startswith(f"cannot write {target}: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["adir", "afile"]


@pytest.mark.parametrize(
    "source, message, loc",
    [
        ('R = ray(point(0, 0), dir(1, 0))\nX = intersect(R, line_through(point(0, 1), point(1, 1)))',
         "a ray can only be intersected with a circle", (2, 5)),
        ("X = intersect(line_through(point(2, 0), point(0, 2)), circle(point(0, 0), 2))",
         "intersection is a whole segment, not a point", (1, 5)),
        ("X = intersect(line_through(point(5, 0), point(5, 1)), circle(point(0, 0), 2))",
         "intersection is empty", (1, 5)),
        ("X = intersect(line_through(point(-3, 0), point(3, 0)), circle(point(0, 0), 2), 2)",
         "intersection index 2 out of range for 2 point(s)", (1, 5)),
        ('C = circle(point(0, 0), 1)\nX = vertex(C, "Q")',
         'vertex name must be "N", "S", "E", or "W", got "Q"', (2, 15)),
        ("A = point(0, 0)\nB = point(3, 3)\nX = nsect(A, B, 3/2)",
         "part count must be an integer, got 3/2", (3, 17)),
    ],
    ids=["ray-with-line", "whole-segment", "empty", "index-out-of-range", "vertex-name", "part-count"],
)
def test_builtin_errors_are_located(source, message, loc):
    with pytest.raises(TaxiRuntimeError) as err:
        run_source(source)
    assert (err.value.message, (err.value.line, err.value.col)) == (message, loc)


@pytest.mark.parametrize(
    "source, message, loc",
    [("x = 1/-2", "denominator must be a plain integer", (1, 7)), ("x = dump", "'dump' is a keyword", (1, 5))],
)
def test_misplaced_tokens_are_syntax_errors(source, message, loc):
    with pytest.raises(TaxiSyntaxError) as err:
        parse(source)
    assert (err.value.message, (err.value.line, err.value.col)) == (message, loc)


@pytest.mark.parametrize(
    "binding, other, expected, actual",
    [
        ("ray(point(0, 0), dir(1, 0))", "ray(point(0, 0), dir(0, 1))",
         "ray (0, 0) dir (0, 1)", "ray (0, 0) dir (1, 0)"),
        ("section(point(0, 0), dir(1, 0), dir(0, 1), 3)", "section(point(0, 0), dir(1, 0), dir(-1, 0), 2)",
         "[ray (0, 0) dir (0, 1)]", "[ray (0, 0) dir (2/3, 1/3), ray (0, 0) dir (1/3, 2/3)]"),
        ("line_through(point(0, 0), point(2, 1))", "line_through(point(0, 0), point(0, 1))",
         "line Line(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1))",
         "line Line(a=Fraction(1, 1), b=Fraction(-2, 1), c=Fraction(0, 1))"),
    ],
    ids=["ray", "raylist", "line"],
)
def test_failed_assertion_shows_both_values(binding, other, expected, actual):
    result = run_source(f"X = {binding}\nY = {other}\nassert_eq X Y\n")
    assert [failure.describe() for failure in result.failures] == [
        f"line 3: expected {expected}, actual {actual}"
    ]


def nested_calls(depth: int) -> str:
    """A binding of ``depth`` nested calls, alternating tdist and point,
    that evaluates to the point (depth / 2 - 1, 1) for an even depth."""
    expr = "O"
    for level in range(depth):
        expr = f"tdist({expr}, O)" if level % 2 == 0 else f"point({expr}, 1)"
    return f"O = point(0, 0)\nX = {expr}\n"


def test_calls_nested_to_the_limit_run():
    assert run_source(nested_calls(script._MAX_NESTING)).env["X"] == Point(F(script._MAX_NESTING // 2 - 1), F(1))


def test_calls_nested_past_the_limit_are_a_located_syntax_error():
    source = nested_calls(script._MAX_NESTING + 1)
    # The first call past the limit: the innermost one.
    col = [m.start() for m in re.finditer(r"\w+\(", source.splitlines()[1])][-1] + 1
    with pytest.raises(TaxiSyntaxError) as err:
        parse(source)
    assert (err.value.message, (err.value.line, err.value.col)) == ("calls nested more than 100 deep", (2, col))


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() converts any number of digits")
def test_a_literal_past_the_int_limit_is_located():
    digits = "7" * (INT_DIGITS + 1)
    with pytest.raises(TaxiRuntimeError) as err:
        run_source(f"A = point(0, 0)\nx = {digits}\n")
    message = f"rational literal has an integer of more than {INT_DIGITS} digits"
    assert (err.value.message, (err.value.line, err.value.col)) == (message, (2, 5))


def past_int_limit_source(statement: str) -> str:
    """Two legal points whose taxicab distance has a denominator of more
    digits than str() converts, then one statement on line 4."""
    k = INT_DIGITS // 2 + 1
    return f"P = point(1/1{'0' * k}, 0)\nQ = point(1/1{'0' * (k - 1)}1, 0)\nd = tdist(P, Q)\n{statement}\n"


@pytest.mark.skipif(not INT_DIGITS, reason="str() converts any number of digits")
@pytest.mark.parametrize("statement", ["dump", "assert_eq d 0", "assert_eq 0 d"])
def test_a_result_past_the_int_limit_is_located(tmp_path, statement):
    """Each statement prints d in full."""
    with pytest.raises(TaxiRuntimeError) as err:
        run_source(past_int_limit_source(statement), output_root=tmp_path)
    message = f"value has an integer of more than {INT_DIGITS} digits"
    assert (err.value.message, (err.value.line, err.value.col)) == (message, (4, 1))


@pytest.mark.skipif(not INT_DIGITS, reason="str() converts any number of digits")
def test_a_scene_past_the_int_limit_renders_at_the_height_bound(tmp_path):
    """P and Q are about 10^-2k apart on the x axis.  The view is padded in
    x until its height is 4 widths, so the SVG is 2240 high, not a number
    with more digits than str() converts."""
    result = run_source(past_int_limit_source('render "d.svg"'), output_root=tmp_path)
    svg = (tmp_path / "d.svg").read_text(encoding="utf-8")
    assert result.rendered == (str(tmp_path / "d.svg"),)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="560" height="2240" viewBox="0 0 560 2240">')
    assert '<circle cx="280" cy="1120" r="4.5"' in svg


# ----------------------------------------------------------- layout, rerun


SAMPLE_SOURCE = """\
# two ways to reach the same point
A = point(0, 0)
B = point(7/3, 7/3)
C = nsect(A, B, 5)
assert_eq C (7/15, 7/15)
rays = section(A, dir(1, 0), dir(0, 1), 2)
assert_eq measure(A, dir(1, 0), dir(1, 1)) 1
dump
"""


def test_layout_does_not_change_the_tree():
    relaid = "\n\n".join("   " + line.replace(", ", " ,  ") for line in SAMPLE_SOURCE.splitlines())
    assert parse(relaid) == parse(SAMPLE_SOURCE)
    # Without its comment, the whole script fits on one line.
    one_line = " ".join(SAMPLE_SOURCE.splitlines()[1:])
    assert parse(one_line) == parse(SAMPLE_SOURCE)
    assert parse(relaid).statements[1].loc != parse(SAMPLE_SOURCE).statements[1].loc


def test_node_equality_ignores_location():
    half, third = RationalLit("1/2", Loc(1, 5)), RationalLit("1/3", Loc(1, 5))
    moved = RationalLit("1/2", Loc(7, 2))
    assert half == moved and not half != moved and hash(half) == hash(moved)
    assert half != third and not half == third
    assert NameRef("A", Loc(1, 1)) != StringLit("A", Loc(1, 1))
    assert Dump(Loc(1, 1)) == Dump(Loc(4, 1)) and hash(Dump(Loc(1, 1))) == hash(Dump(Loc(4, 1)))
    first = Binding("C", Call("nsect", (NameRef("A", Loc(1, 11)), half), Loc(1, 5)), Loc(1, 1))
    second = Binding("C", Call("nsect", (NameRef("A", Loc(2, 20)), moved), Loc(2, 9)), Loc(2, 3))
    assert first == second and hash(first) == hash(second)
    assert first != Binding("D", second.expr, second.loc)
    assert len({first, second, AssertEq(half, moved, Loc(3, 1)), AssertEq(moved, half, Loc(5, 1))}) == 2
    assert PointLit(half, third, Loc(1, 1)) != PointLit(third, half, Loc(1, 1))
    assert Render("a.svg", Loc(1, 1)) == Render("a.svg", Loc(9, 9)) != Render("b.svg", Loc(1, 1))


def test_node_repr_names_the_fields():
    assert repr(RationalLit("1/2", Loc(1, 5))) == "RationalLit(text='1/2', loc=Loc(line=1, col=5))"
    assert repr(Dump(Loc(2, 1))) == "Dump(loc=Loc(line=2, col=1))"
    call = parse("C = nsect(A, B, 3)").statements[0]
    assert repr(call) == (
        "Binding(name='C', expr=Call(func='nsect', args=(NameRef(name='A', loc=Loc(line=1, col=11)), "
        "NameRef(name='B', loc=Loc(line=1, col=14)), RationalLit(text='3', loc=Loc(line=1, col=17))), "
        "loc=Loc(line=1, col=5)), loc=Loc(line=1, col=1))"
    )


def test_execution_is_deterministic(tmp_path):
    first = run_source(SAMPLE_SOURCE, output_root=tmp_path / "a")
    second = run_source(SAMPLE_SOURCE, output_root=tmp_path / "b")
    assert first.env == second.env
    assert first.failures == second.failures
    assert emit_json(first.env) == emit_json(second.env)
    assert emit_svg(first.scene) == emit_svg(second.scene)


def test_readme_builtin_table_matches_the_script_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented: dict[str, set[int]] = {}
    for name, counts in re.findall(r"^\| `(\w+)\([^`]*\)` \| ([\d or]+) \|", readme, re.MULTILINE):
        documented.setdefault(name, set()).update(int(k) for k in counts.split(" or "))
    assert documented == {name: set(b.arities) for name, b in script._BUILTINS.items()}


CORPUS = Path(__file__).resolve().parents[1] / "corpus"
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize("stem", ["construction_n4_general", "render_figure"])
def test_render_writes_the_golden_svg(tmp_path, stem):
    """No binding follows the render directive in either script, so the
    file it writes shows the script's final scene: its golden SVG."""
    source = (CORPUS / f"{stem}.taxi").read_text(encoding="utf-8")
    statements = parse(source).statements
    renders = [i for i, stmt in enumerate(statements) if isinstance(stmt, Render)]
    assert len(renders) == 1
    assert not any(isinstance(stmt, Binding) for stmt in statements[renders[0]:])
    result = run_source(source, output_root=tmp_path)
    assert len(result.rendered) == 1
    assert Path(result.rendered[0]).read_bytes() == (GOLDENS / f"{stem}.svg").read_bytes()




# The lexer's first pattern, whitespace included, kept here so that the
# reference does not share a pattern with the lexer it checks.
REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>[()=,/])
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """The tokenizer as first written, one match per token or run of
    blanks and one newline test per character, kept to check the faster
    one against; tokens come back as plain tuples."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = REFERENCE_TOKEN_RE.match(source, pos)
        if match is None:
            col = pos - line_start + 1
            raise TaxiSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind = match.lastgroup
        text = match.group()
        col = pos - line_start + 1
        if kind == "ws":
            for i, ch in enumerate(text):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        elif kind != "comment":
            label = {"number": "NUMBER", "ident": "IDENT", "string": "STRING"}.get(kind, text)
            tokens.append((label if kind != "symbol" else text, text, line, col))
        pos = match.end()
    tokens.append(("EOF", "", line, len(source) - line_start + 1))
    return tokens


def tokens_or_error(tokenize, source: str):
    try:
        return [tuple(token) for token in tokenize(source)]
    except TaxiSyntaxError as exc:
        return ("error", exc.message, exc.line, exc.col)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.taxi")), ids=lambda p: p.stem)
def test_tokenize_matches_the_reference_on_the_corpus(path):
    source = path.read_text(encoding="utf-8")
    assert [tuple(token) for token in script._tokenize(source)] == reference_tokenize(source)


_FRAGMENTS = st.sampled_from([
    "A", "rays_2", "point", "3", "-7", "2.50", "-0.5", '"out.svg"', "(", ")", "=", ",", "/",
    " ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n ", "# a comment", "#", "\r",
    "@", "!", "\u00e9", '"open', "\f", "\u0663", "\u00a0",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=40).map("".join))
def test_tokenize_matches_the_reference_on_generated_sources(source):
    assert tokens_or_error(script._tokenize, source) == tokens_or_error(reference_tokenize, source)


def test_tokenize_locates_a_bad_character_after_crlf_and_tabs():
    source = "A = point(0, 0)\r\n\t# note\r\n\tB = @"
    with pytest.raises(TaxiSyntaxError) as info:
        script._tokenize(source)
    assert (info.value.line, info.value.col) == (3, 6)
    assert tokens_or_error(script._tokenize, source) == tokens_or_error(reference_tokenize, source)


# ---------------------------------------------------------- generated sources


_ATOMS = st.sampled_from([
    "A", "B", "C", "0", "1", "-1", "2", "3", "1/2", "-3/2", "0.5", "1/0", '"N"', '"Q"',
    "(1, 2)", "(0, 0)", "(-1/2, 3)",
])
# Not edist2: it squares, so bindings chained through it could ask for an
# n-section into millions of parts.
_CALLS = st.sampled_from(sorted(set(script._BUILTINS) - {"edist2"}))


def _calls(inner):
    """A builtin applied to arguments of its arity."""
    def applied(name):
        arities = script._BUILTINS[name].arities
        args = st.lists(inner, min_size=arities.start, max_size=arities.stop - 1)
        return args.map(lambda args: f"{name}({', '.join(args)})")
    return _CALLS.flatmap(applied)


_EXPRS = st.recursive(_ATOMS, _calls, max_leaves=10)
_STATEMENTS = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(["A", "B", "C"]), _EXPRS),
    st.builds("assert_eq {} {}".format, _EXPRS, _EXPRS),
    # The second render cannot write below the file the first one wrote.
    st.sampled_from(["dump", 'render "out.svg"', 'render "out.svg/x.svg"']),
)
_LOOSE_LINES = st.lists(
    st.sampled_from(["A", "point", "nsect", "assert_eq", "render", "1", "-2", "1/2", '"S"', "(", ")", ",", "=", "/"]),
    max_size=8,
).map(" ".join)
_SOURCES = st.builds(
    lambda statements, loose: "\n".join(statements + loose),
    st.lists(_STATEMENTS, max_size=6),
    st.lists(_LOOSE_LINES, max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(_SOURCES)
def test_generated_sources_run_or_raise_a_script_error(source):
    """A source made of builtin names, literals and punctuation runs, or
    fails with a located ScriptError; nothing else escapes."""
    with tempfile.TemporaryDirectory() as out:  # for what a render writes
        try:
            run_source(source, Path(out))
        except script.ScriptError as exc:
            assert exc.line >= 1 and exc.col >= 1
