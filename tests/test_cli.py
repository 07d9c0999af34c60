import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import taxisect
from taxisect.cli import main
from taxisect.figures import FIGURES

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(autouse=True)
def no_color(monkeypatch, tmp_path):
    monkeypatch.setenv("TAXISECT_NO_COLOR", "1")
    monkeypatch.chdir(tmp_path)


def write_script(tmp_path, text: str) -> str:
    path = tmp_path / "case.taxi"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------- run


def test_run_clean_script(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(0, 0)\nassert_eq tdist(A, A) 0\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "no failed assertions" in out


def test_run_quiet(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(0, 0)\n")
    assert main(["run", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_corpus_construction(capsys):
    assert main(["run", str(CORPUS / "construction_n3.taxi"), "--quiet"]) == 0


def test_run_failing_assert_exits_one(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(0, 0)\nB = point(2, 2)\nassert_eq tdist(A, B) 5\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fail_lines == ["FAIL case.taxi:3: expected 5, actual 4"]
    assert "\x1b" not in out


def test_run_missing_file(capsys):
    assert main(["run", "no_such_file.taxi"]) == 2
    assert "cannot read script" in capsys.readouterr().err


def test_run_script_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "case.taxi"
    path.write_bytes(b"\xff\xfeA = point(0, 0)\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read script: 'utf-8' codec can't decode byte 0xff in position 0" in err


def test_run_parse_error_exits_two(tmp_path, capsys):
    path = write_script(tmp_path, "A = poin(0, 0)\n")
    assert main(["run", path]) == 2
    assert "unknown function" in capsys.readouterr().err


def test_run_script_error_is_one_located_line(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(0, 0)\nB = poin(0, 0)\n")
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == "error: line 2, col 5: unknown function 'poin'\n"


def test_run_runtime_error_exits_two(tmp_path, capsys):
    path = write_script(tmp_path, "x = 1/0\n")
    assert main(["run", path]) == 2
    assert "division by zero" in capsys.readouterr().err


def test_run_writes_svg_and_json(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(0, 0)\nB = point(3, 3)\nC = nsect(A, B, 3)\n")
    svg = tmp_path / "fig" / "scene.svg"
    data = tmp_path / "env.json"
    assert main(["run", path, "--svg", str(svg), "--json", str(data)]) == 0
    assert svg.read_text().startswith("<svg")
    decoded = json.loads(data.read_text())
    assert decoded["C"] == ["1", "1"]


def test_run_render_to_unwritable_path_exits_two(tmp_path, capsys):
    (tmp_path / "afile").write_text("a regular file\n")
    path = write_script(tmp_path, 'A = point(0, 0)\nB = point(3, 3)\nrender "afile/x.svg"\n')
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3, col 1: cannot write afile/x.svg")
    assert "Traceback" not in err


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_DIGITS, reason="int() converts any number of digits")
# 1/10^k and 1/(10^k + 1), k = INT_DIGITS // 2 + 1: their difference, and
# their mean, have a denominator of more than INT_DIGITS digits.
BIG = f"1/1{'0' * (INT_DIGITS // 2 + 1)}"
BIG_PLUS_ONE = f"1/1{'0' * (INT_DIGITS // 2)}1"
PAST_INT_LIMIT = f"P = point({BIG}, 0)\nQ = point({BIG_PLUS_ONE}, 0)\nd = tdist(P, Q)\n"


@pytest.mark.parametrize(
    "source, error",
    [
        pytest.param(
            "O = point(0, 0)\nX = " + "point(tdist(" * 60 + "O" + ", O), 0)" * 60 + "\n",
            "line 2, col 605: calls nested more than 100 deep",
            id="deep-nesting",
        ),
        pytest.param(
            'render "a\0b.svg"\n', "line 1, col 1: cannot write a\0b.svg: embedded null byte", id="nul-path"
        ),
        pytest.param(
            f"x = {'7' * (INT_DIGITS + 1)}\n",
            f"line 1, col 5: rational literal has an integer of more than {INT_DIGITS} digits",
            id="long-literal",
            marks=needs_int_limit,
        ),
        pytest.param(
            PAST_INT_LIMIT + "dump\n",
            f"line 4, col 1: value has an integer of more than {INT_DIGITS} digits",
            id="dump-past-int-limit",
            marks=needs_int_limit,
        ),
        pytest.param(
            PAST_INT_LIMIT + "assert_eq d 0\n",
            f"line 4, col 1: value has an integer of more than {INT_DIGITS} digits",
            id="assert-past-int-limit",
            marks=needs_int_limit,
        ),
    ],
)
def test_run_hostile_script_exits_two_with_one_located_line(tmp_path, capsys, source, error):
    path = write_script(tmp_path, source)
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@needs_int_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["nsect", "--a", f"{BIG},0", "--b", f"{BIG_PLUS_ONE},0", "--n", "2"],
        ["run", "past.taxi", "--json", "env.json"],
    ],
    ids=["nsect", "run-json"],
)
def test_result_past_the_int_limit_exits_two(tmp_path, capsys, argv):
    """The result is exact and legal, but too long for str()."""
    (tmp_path / "past.taxi").write_text(PAST_INT_LIMIT)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: result has an integer of more than {INT_DIGITS} digits\n")


def test_run_dump_goes_to_stdout(tmp_path, capsys):
    path = write_script(tmp_path, "A = point(1, 2)\ndump\n")
    assert main(["run", path, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"A": ["1", "2"]}


# -------------------------------------------------------------------- nsect


def test_nsect_prints_division_point(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "C = (1, 1)"


def test_nsect_general_direction(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "2,1", "--n", "4"]) == 0
    assert "C = (1/2, 1/4)" in capsys.readouterr().out


def test_nsect_negative_coordinates(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "-3,-3", "--n", "3"]) == 0
    assert "C = (-1, -1)" in capsys.readouterr().out


def test_nsect_trace_listing(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "trace verified" in out
    assert "place point (0, 0)" in out


def test_nsect_trace_into_a_closed_pipe_exits_one_without_a_traceback():
    """As `taxisect nsect ... --trace | head -n 1`: the reader takes one line
    and closes the pipe while the listing, far larger than the pipe's
    buffer, is still being written."""
    source_root = Path(taxisect.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "taxisect.cli", "nsect", "--a", "0,0", "--b", "1,0", "--n", "2000", "--trace"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(source_root)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"C = (1/2000, 0)\n"
    assert err == b""
    assert proc.returncode == 1


def test_nsect_degenerate_exits_two(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "0,0", "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_nsect_small_n_exits_two(capsys):
    assert main(["nsect", "--a", "0,0", "--b", "1,1", "--n", "1"]) == 2
    capsys.readouterr()


def test_nsect_bad_rational_exits_two(capsys):
    assert main(["nsect", "--a", "zero,0", "--b", "1,1", "--n", "2"]) == 2
    assert "invalid rational" in capsys.readouterr().err


@needs_int_limit
def test_nsect_literal_past_the_int_limit_exits_two(capsys):
    digits = "7" * (INT_DIGITS + 1)
    assert main(["nsect", "--a", f"{digits},0", "--b", "1,1", "--n", "3"]) == 2
    assert capsys.readouterr().err == f"error: bad --a: rational literal has an integer of more than {INT_DIGITS} digits\n"


def test_nsect_outputs(tmp_path, capsys):
    svg = tmp_path / "n.svg"
    data = tmp_path / "n.json"
    code = main(
        ["nsect", "--a", "0,0", "--b", "2,1", "--n", "4", "--svg", str(svg), "--json", str(data)]
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")
    decoded = json.loads(data.read_text())
    assert decoded["C"] == ["1/2", "1/4"]
    assert decoded["n"] == "4"


@pytest.mark.parametrize("option", ["--svg", "--json"])
def test_nsect_unwritable_output_exits_two(tmp_path, option, capsys):
    (tmp_path / "afile").write_text("a regular file\n")
    code = main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", option, "afile/x.out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write afile/x.out")


@pytest.mark.parametrize("option", ["--svg", "--json"])
def test_output_path_naming_a_directory_exits_two_and_writes_nothing(tmp_path, option, capsys):
    assert main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", option, "out/"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write out/: ")
    assert list(tmp_path.iterdir()) == []


def test_output_path_with_a_nul_byte_exits_two(tmp_path, capsys):
    assert main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", "--svg", "a\0b.svg"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", "--svg", "out/"], ["run", "case.taxi"]],
    ids=["cli", "script"],
)
def test_both_front_ends_refuse_a_path_ending_in_a_separator(tmp_path, argv, capsys):
    write_script(tmp_path, 'A = point(0, 0)\nrender "out/"\n')
    assert main(argv) == 2
    assert "[Errno 21] Is a directory" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["case.taxi"]


def test_nsect_writes_a_bare_file_name_into_the_working_directory(tmp_path, capsys):
    assert main(["nsect", "--a", "0,0", "--b", "3,3", "--n", "3", "--json", "n.json"]) == 0
    assert json.loads((tmp_path / "n.json").read_text())["C"] == ["1", "1"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [*command, option, ""]
        for command in (
            ["run", "case.taxi"],
            ["nsect", "--a", "0,0", "--b", "3,3", "--n", "3"],
            ["section", "--d1", "1,0", "--d2", "1,1", "--n", "3"],
        )
        for option in ("--svg", "--json")
    ]
    + [["render-demo", "--figure", "circle", "--out", ""]],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_empty_output_path_exits_two(tmp_path, argv, capsys):
    write_script(tmp_path, "A = point(0, 0)\n")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write : ")


# ------------------------------------------------------------------ measure


def test_measure_unit_angle(capsys):
    assert main(["measure", "--vertex", "0,0", "--d1", "1,0", "--d2", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_measure_straight_angle_negative_value(capsys):
    assert main(["measure", "--d1", "1,0", "--d2", "-1,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_measure_skew_angle(capsys):
    assert main(["measure", "--d1", "1,0", "--d2", "3,4"]) == 0
    assert capsys.readouterr().out.strip() == "8/7"


def test_measure_zero_direction_exits_two(capsys):
    assert main(["measure", "--d1", "0,0", "--d2", "1,0"]) == 2
    assert "zero direction" in capsys.readouterr().err


def test_equals_form_also_accepted(capsys):
    assert main(["measure", "--d1=1,0", "--d2=-1,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


# ------------------------------------------------------------------ section


def test_section_prints_measure_and_rays(capsys):
    assert main(["section", "--d1", "1,0", "--d2", "-1,0", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "measure = 4, each part = 1" in out
    assert "ray 1: direction (1/2, 1/2)" in out
    assert "ray 3: direction (-1/2, 1/2)" in out


def test_section_same_edge_writes_trace_svg(tmp_path, capsys):
    svg = tmp_path / "s.svg"
    assert main(["section", "--d1", "1,0", "--d2", "1,1", "--n", "2", "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    capsys.readouterr()


CROSSING_SIDES = ["section", "--d1", "1,-1", "--d2", "-1,-1", "--n", "3"]


def test_section_across_circle_edges_has_no_chord_trace(capsys):
    """The sides cross the circle on different edges, so only the rays are
    drawn: the trace listing says there is no chord trace."""
    assert main([*CROSSING_SIDES, "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "measure = 2, each part = 2/3",
        "ray 1: direction (-1/6, -5/6)",
        "ray 2: direction (1/6, -5/6)",
        "no chord trace: the sides cross different circle edges",
    ]


def test_section_across_circle_edges_draws_the_rays(tmp_path, capsys):
    svg = tmp_path / "cross.svg"
    assert main([*CROSSING_SIDES, "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polygon") == 1
    assert re.findall(r">([^<]*)</text>", text) == ["A"]
    lines = re.findall(r"<line [^>]*>", text)
    assert len(lines) == 2 and all('stroke="#bb2200"' in line for line in lines)
    capsys.readouterr()


@pytest.mark.parametrize("radius", ["1/0", "one", "1.5e3"])
def test_section_bad_radius_names_the_option(radius, capsys):
    assert main(["section", "--d1", "1,0", "--d2", "0,1", "--n", "3", "--radius", radius]) == 2
    assert capsys.readouterr().err.startswith("error: bad --radius: ")


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--a", ["nsect", "--a", "1/0,0", "--b", "1,1", "--n", "2"]),
        ("--d1", ["section", "--d1", "1/0,0", "--d2", "0,1", "--n", "2"]),
        ("--radius", ["section", "--d1", "1,0", "--d2", "0,1", "--n", "2", "--radius", "1/0"]),
    ],
)
def test_zero_denominator_names_the_literal(option, argv, capsys):
    """As a script reports it: the option and the literal, not a Fraction."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bad {option}: division by zero in '1/0'\n"


def test_section_degenerate_exits_two(capsys):
    assert main(["section", "--d1", "1,0", "--d2", "2,0", "--n", "3"]) == 2
    capsys.readouterr()


# -------------------------------------------------------------- render-demo


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_render_demo_every_figure(tmp_path, figure, capsys):
    out = tmp_path / f"{figure}.svg"
    assert main(["render-demo", "--figure", figure, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    capsys.readouterr()


def test_render_demo_two_panel_construction(tmp_path, capsys):
    out = tmp_path / "construction.svg"
    assert main(["render-demo", "--figure", "construction", "--out", str(out)]) == 0
    text = out.read_text()
    assert '<g id="n3">' in text and '<g id="n4">' in text
    capsys.readouterr()


def test_render_demo_unknown_figure(capsys):
    assert main(["render-demo", "--figure", "bogus", "--out", "x.svg"]) == 2
    err = capsys.readouterr().err
    for name in FIGURES:
        assert name in err


# ------------------------------------------------------ generated arguments


_OPTIONS = {
    "nsect": ("--a", "--b", "--n", "--trace"),
    "section": ("--vertex", "--d1", "--d2", "--n", "--radius", "--trace"),
    "measure": ("--vertex", "--d1", "--d2"),
}
_COMPONENTS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2", "0.25", " 3 "])
# Well-formed values; some still name no segment or angle (equal points,
# a zero direction, n < 2).
_VALUES = {
    "--n": st.sampled_from(["2", "3", "4", "1", "0", "-2"]),
    "--radius": _COMPONENTS,
}
_PAIRS = st.tuples(_COMPONENTS, _COMPONENTS).map(",".join)
_BAD_VALUES = st.sampled_from(["1/0", "x", "1e3", "2/-3", "", "1,2,3", "1/0,1", "1,x", "1e3,0", "-1"])


@st.composite
def cli_argvs(draw) -> list[str]:
    """A subcommand with every option in any order, each with a well-formed
    value, and then at most one fault: a malformed value, a dropped option,
    an unknown option, or an option with no value at the end."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv, values = [command], []
    for option in draw(st.permutations(_OPTIONS[command])):
        if option != "--trace":
            argv += [option, draw(_VALUES.get(option, _PAIRS))]
            values.append(len(argv) - 1)
        elif draw(st.booleans()):
            argv.append(option)
    fault = draw(st.integers(0, 4))
    if fault == 1:
        argv[draw(st.sampled_from(values))] = draw(_BAD_VALUES)
    elif fault == 2:
        i = draw(st.sampled_from(values))
        del argv[i - 1 : i + 1]
    elif fault == 3:
        argv += ["--bogus", "1"]
    elif fault == 4:
        argv.append("--n")
    return argv


@given(cli_argvs())
@settings(max_examples=300, deadline=None)
def test_generated_arguments_exit_with_a_code(argv):
    """Every argument vector ends in exit 0, 1 or 2, never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().strip()
