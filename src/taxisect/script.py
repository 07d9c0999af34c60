"""A small script language for exact taxicab constructions (.taxi files).

A script is a flat list of statements: bindings of named values, exact
equality assertions, and the ``render``/``dump`` output directives.

    # divide the diagonal into three
    A = point(0, 0)
    B = point(3, 3)
    C = nsect(A, B, 3)
    assert_eq C (1, 1)
    assert_eq tdist(A, C) 2

There is one static scope, no control flow, and no redefinition.  Values are
typed (rational, point, direction, line, ray, segment, circle, or a list of
rays) and every comparison is exact; there are no tolerances anywhere.
Parsing is purely syntactic: ``x = 1/0`` parses, then fails at execution
time, because a zero denominator is a semantic problem, not a spelling one.
Failed assertions are recorded and execution continues; type errors, unbound
or rebound names, and domain errors from the geometry kernel halt execution.
All errors and failures carry the 1-based line and column of the statement
that caused them.

The lexer makes one pass over the token matches of a source and checks that
only blanks lie between them.  Syntax-tree nodes are slotted dataclasses
whose equality and hash leave out the source location.  They are not
frozen, because a frozen dataclass's ``__init__`` costs about three times
as much.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import constructions, kernel
from .angles import Angle, direction_to_param, measure_angle
from .export import Scene, SceneItem, Stroke, emit_json, emit_svg, write_text
from .kernel import (
    CircleVertex,
    Direction,
    Line,
    Point,
    Ray,
    Segment,
    TaxicabCircle,
)
from .numeric import RationalParseError, is_digit_limit, parse_rational, too_many_digits

Value = Fraction | Point | Direction | Line | Ray | Segment | TaxicabCircle | tuple[Ray, ...]


class ScriptError(Exception):
    """Base for script problems; carries a 1-based source location."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TaxiSyntaxError(ScriptError):
    pass


class TaxiRuntimeError(ScriptError):
    pass


# ---------------------------------------------------------------------------
# Lexer

# A token's kind is NUMBER, IDENT, STRING, or a literal symbol.
_Token = namedtuple("_Token", "kind text line col")


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>[()=,/])
    """,
    re.VERBOSE,
)

# Token kind by group name: a symbol is its own kind, and a comment is no token.
_KIND = {"comment": None, "number": "NUMBER", "ident": "IDENT", "string": "STRING", "symbol": ""}

# What may stand between two tokens.
_BLANK = " \t\r\n"

# A token built straight from its fields, without namedtuple's Python-level
# __new__.
_make_token = partial(tuple.__new__, _Token)


def _tokenize(source: str) -> list[_Token]:
    """The tokens of a source, from one pass over the token matches; the
    text between two matches, and after the last, must be blank."""
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    end = 0
    for match in (*_TOKEN_RE.finditer(source), None):
        start = len(source) if match is None else match.start()
        if start != end:
            gap = source[end:start]
            rest = gap.lstrip(_BLANK)
            if rest:
                # no token starts at the first character that is not blank
                gap = gap[: len(gap) - len(rest)]
            newlines = gap.count("\n")
            if newlines:
                line += newlines
                line_start = end + gap.rindex("\n") + 1
            if rest:
                col = end + len(gap) - line_start + 1
                raise TaxiSyntaxError(f"unexpected character {rest[0]!r}", line, col)
        if match is None:
            break
        end = match.end()
        kind = _KIND[match.lastgroup]
        if kind is not None:
            text = match.group()
            tokens.append(_make_token((kind or text, text, line, start - line_start + 1)))
    tokens.append(_Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree.  Locations are excluded from equality, so the same statements
# laid out differently in the source parse to equal trees.  Nothing changes a
# node once it is built.

Loc = namedtuple("Loc", "line col")


_make_loc = partial(tuple.__new__, Loc)


def _loc(token: _Token) -> Loc:
    return _make_loc(token[2:])  # a token ends with its line and column


@dataclass(slots=True, unsafe_hash=True)
class RationalLit:
    text: str
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class PointLit:
    x: RationalLit
    y: RationalLit
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class StringLit:
    value: str
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class NameRef:
    name: str
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Call:
    func: str
    args: tuple[Expr, ...]
    loc: Loc = field(compare=False)


Expr = RationalLit | PointLit | StringLit | NameRef | Call


@dataclass(slots=True, unsafe_hash=True)
class Binding:
    name: str
    expr: Expr
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class AssertEq:
    lhs: Expr
    rhs: Expr
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Render:
    path: str
    loc: Loc = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Dump:
    loc: Loc = field(compare=False)


Statement = Binding | AssertEq | Render | Dump


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


_KEYWORDS = {"assert_eq", "render", "dump"}

# Calls nest at most this deep: the parser and the executor recurse per call.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            shown = token.text if token.kind != "EOF" else "end of input"
            raise TaxiSyntaxError(f"expected {kind}, found {shown!r}", token.line, token.col)
        return self._next()

    def parse(self) -> Script:
        statements: list[Statement] = []
        while self._peek().kind != "EOF":
            statements.append(self._statement())
        return Script(tuple(statements))

    def _statement(self) -> Statement:
        token = self._peek()
        if token.kind != "IDENT":
            raise TaxiSyntaxError(f"expected a statement, found {token.text!r}", token.line, token.col)
        loc = _loc(token)
        if token.text == "assert_eq":
            self._next()
            lhs = self._expr()
            rhs = self._expr()
            return AssertEq(lhs, rhs, loc)
        if token.text == "render":
            self._next()
            path = self._expect("STRING")
            return Render(path.text[1:-1], loc)
        if token.text == "dump":
            self._next()
            return Dump(loc)
        name = self._next()
        self._expect("=")
        if name.text in _BUILTINS:
            raise TaxiSyntaxError(f"cannot bind built-in name {name.text!r}", name.line, name.col)
        expr = self._expr()
        if isinstance(expr, NameRef) and self._peek().kind == "(":
            # a binding holds exactly one expression, so a leftover "(" after
            # a bare name means a call to a function we do not know
            raise TaxiSyntaxError(
                f"unknown function {expr.name!r}", expr.loc.line, expr.loc.col
            )
        return Binding(name.text, expr, loc)

    def _expr(self, depth: int = 0) -> Expr:
        """An expression inside ``depth`` calls."""
        token = self._peek()
        if token.kind == "NUMBER":
            return self._rational()
        if token.kind == "(":
            open_paren = self._next()
            x = self._rational()
            self._expect(",")
            y = self._rational()
            self._expect(")")
            return PointLit(x, y, _loc(open_paren))
        if token.kind == "STRING":
            self._next()
            return StringLit(token.text[1:-1], _loc(token))
        if token.kind == "IDENT":
            self._next()
            if token.text in _KEYWORDS:
                raise TaxiSyntaxError(f"{token.text!r} is a keyword", token.line, token.col)
            if token.text in _BUILTINS:
                return self._call(token, depth)
            if self._peek().kind == "(" and self._tokens[self._pos + 1].kind in ("IDENT", "STRING"):
                # looks like foo(A, ...): a call to something we do not know,
                # not a name followed by a point literal
                raise TaxiSyntaxError(f"unknown function {token.text!r}", token.line, token.col)
            return NameRef(token.text, _loc(token))
        shown = token.text if token.kind != "EOF" else "end of input"
        raise TaxiSyntaxError(f"expected an expression, found {shown!r}", token.line, token.col)

    def _rational(self) -> RationalLit:
        head = self._expect("NUMBER")
        text = head.text
        if "." not in text and self._peek().kind == "/":
            self._next()
            denom = self._expect("NUMBER")
            if "." in denom.text or denom.text.startswith("-"):
                raise TaxiSyntaxError("denominator must be a plain integer", denom.line, denom.col)
            text = f"{text}/{denom.text}"
        return RationalLit(text, _loc(head))

    def _call(self, name: _Token, depth: int) -> Call:
        if depth == _MAX_NESTING:
            raise TaxiSyntaxError(f"calls nested more than {_MAX_NESTING} deep", name.line, name.col)
        self._expect("(")
        args: list[Expr] = []
        if self._peek().kind != ")":
            args.append(self._expr(depth + 1))
            while self._peek().kind == ",":
                self._next()
                args.append(self._expr(depth + 1))
        self._expect(")")
        arities = _BUILTINS[name.text].arities
        if len(args) not in arities:
            expected = " or ".join(map(str, arities))
            raise TaxiSyntaxError(
                f"{name.text} takes {expected} arguments, got {len(args)}", name.line, name.col
            )
        return Call(name.text, tuple(args), _loc(name))


def parse(source: str) -> Script:
    """Parse .taxi source text; raises :class:`TaxiSyntaxError` with the
    offending location."""
    return _Parser(_tokenize(source)).parse()


# ---------------------------------------------------------------------------
# Interpreter

_TYPE_NAMES = {
    Fraction: "rational",
    Point: "point",
    Direction: "direction",
    Line: "line",
    Ray: "ray",
    Segment: "segment",
    TaxicabCircle: "circle",
}


def _type_name(value: Value) -> str:
    if isinstance(value, tuple):
        return "raylist"
    return _TYPE_NAMES[type(value)]


@dataclass(frozen=True)
class AssertionFailure:
    line: int
    col: int
    expected: str
    actual: str

    def describe(self) -> str:
        return f"line {self.line}: expected {self.expected}, actual {self.actual}"


@dataclass(frozen=True)
class ExecutionResult:
    env: dict[str, Value]
    scene: Scene
    failures: tuple[AssertionFailure, ...]
    dumps: tuple[str, ...]
    rendered: tuple[str, ...]  # paths written by render directives

    @property
    def ok(self) -> bool:
        return not self.failures


def _format_value(value: Value) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(_format_value(r) for r in value) + "]"
    if isinstance(value, Ray):
        return f"ray {value.origin} dir {value.direction}"
    if isinstance(value, (Fraction, Point, Direction)):
        return str(value)
    return f"{_type_name(value)} {value!r}"


def _printable(show: Callable[[object], str], value: object, loc: Loc) -> str:
    """``show(value)``, or a located error when the value has an integer
    too long for ``str``."""
    try:
        return show(value)
    except ValueError as exc:
        if not is_digit_limit(exc):
            raise
        raise TaxiRuntimeError(too_many_digits("value"), loc.line, loc.col) from None


class _Executor:
    def __init__(self, output_root: str | os.PathLike[str] | None) -> None:
        self.output_root = output_root
        self.env: dict[str, Value] = {}
        self.items: list[SceneItem] = []
        self.failures: list[AssertionFailure] = []
        self.dumps: list[str] = []
        self.rendered: list[str] = []

    def run(self, script: Script) -> ExecutionResult:
        for stmt in script.statements:
            self._statement(stmt)
        return ExecutionResult(
            env=self.env,
            scene=Scene(tuple(self.items)),
            failures=tuple(self.failures),
            dumps=tuple(self.dumps),
            rendered=tuple(self.rendered),
        )

    def _statement(self, stmt: Statement) -> None:
        if isinstance(stmt, Binding):
            if stmt.name in self.env:
                raise TaxiRuntimeError(f"{stmt.name!r} is already defined", stmt.loc.line, stmt.loc.col)
            value = self._eval(stmt.expr)
            self.env[stmt.name] = value
            self._accumulate(stmt.name, value)
        elif isinstance(stmt, AssertEq):
            lhs = self._eval(stmt.lhs)
            rhs = self._eval(stmt.rhs)
            if _type_name(lhs) != _type_name(rhs):
                raise TaxiRuntimeError(
                    f"cannot compare {_type_name(lhs)} with {_type_name(rhs)}",
                    stmt.loc.line,
                    stmt.loc.col,
                )
            if lhs != rhs:
                expected = _printable(_format_value, rhs, stmt.loc)
                actual = _printable(_format_value, lhs, stmt.loc)
                self.failures.append(AssertionFailure(stmt.loc.line, stmt.loc.col, expected, actual))
        elif isinstance(stmt, Render):
            path = os.path.join(self.output_root or os.getcwd(), stmt.path)
            svg = _printable(emit_svg, Scene(tuple(self.items)), stmt.loc)
            try:
                write_text(path, svg)
            except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
                raise TaxiRuntimeError(f"cannot write {stmt.path}: {exc}", stmt.loc.line, stmt.loc.col) from exc
            self.rendered.append(path)
        elif isinstance(stmt, Dump):
            self.dumps.append(_printable(emit_json, self.env, stmt.loc))
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    def _accumulate(self, name: str, value: Value) -> None:
        if isinstance(value, (Fraction, Direction)):
            return  # scalars and directions have no place to be drawn
        if isinstance(value, tuple):
            for i, ray in enumerate(value):
                self.items.append(SceneItem(ray, label=f"{name}[{i}]"))
            return
        stroke = Stroke.RESULT if isinstance(value, Point) else Stroke.PLAIN
        self.items.append(SceneItem(value, label=name, stroke=stroke))

    def _eval(self, expr: Expr) -> Value:
        if isinstance(expr, RationalLit):
            try:
                return parse_rational(expr.text)
            except ZeroDivisionError:
                raise TaxiRuntimeError(
                    f"division by zero in {expr.text!r}", expr.loc.line, expr.loc.col
                ) from None
            except RationalParseError as exc:
                raise TaxiRuntimeError(str(exc), expr.loc.line, expr.loc.col) from None
        if isinstance(expr, PointLit):
            return Point(self._eval(expr.x), self._eval(expr.y))
        if isinstance(expr, StringLit):
            raise TaxiRuntimeError("a string is not a value here", expr.loc.line, expr.loc.col)
        if isinstance(expr, NameRef):
            if expr.name not in self.env:
                raise TaxiRuntimeError(f"undefined name {expr.name!r}", expr.loc.line, expr.loc.col)
            return self.env[expr.name]
        if isinstance(expr, Call):
            return self._call(expr)
        raise TypeError(f"unknown expression {expr!r}")

    def _arg(self, expr: Expr, param: _Param) -> object:
        """Evaluate one builtin argument and check it against its parameter."""
        kind, what, loc = param.kind, param.what, expr.loc
        if kind is CircleVertex:
            if not isinstance(expr, StringLit):
                raise TaxiRuntimeError(f"{what} must be a quoted string", loc.line, loc.col)
            try:
                return CircleVertex(expr.value)
            except ValueError:
                raise TaxiRuntimeError(
                    f'{what} must be "N", "S", "E", or "W", got "{expr.value}"', loc.line, loc.col
                ) from None
        value = self._eval(expr)
        want = Fraction if kind is int else kind
        if not isinstance(value, want):
            names = " or ".join(map(_TYPE_NAMES.get, want)) if isinstance(want, tuple) else _TYPE_NAMES[want]
            raise TaxiRuntimeError(f"{what} must be a {names}, got {_type_name(value)}", loc.line, loc.col)
        if kind is int:
            if value.denominator != 1:
                raise TaxiRuntimeError(f"{what} must be an integer, got {value}", loc.line, loc.col)
            return int(value)
        return value

    def _call(self, call: Call) -> Value:
        builtin = _BUILTINS[call.func]
        values = list(map(self._arg, call.args, builtin.params))
        values += [param.default for param in builtin.params[len(values):]]
        try:
            return builtin.impl(*values)
        except (kernel.GeometryError, ZeroDivisionError) as exc:
            raise TaxiRuntimeError(str(exc), call.loc.line, call.loc.col) from exc


def _intersect(first: Line | Ray, second: Line | TaxicabCircle, index: int | None) -> Point:
    if isinstance(first, Ray):
        if not isinstance(second, TaxicabCircle):
            raise kernel.GeometryError("a ray can only be intersected with a circle")
        result = kernel.intersect_ray_circle(first, second)
    elif isinstance(second, Line):
        result = kernel.intersect_lines(first, second)
    else:
        result = kernel.intersect_line_circle(first, second)
    if isinstance(result, Segment):
        raise kernel.GeometryError("intersection is a whole segment, not a point")
    if index is None:
        if not result:
            raise kernel.GeometryError("intersection is empty")
        if len(result) == 2:
            raise kernel.GeometryError("intersection has two points; select one with intersect(a, b, index)")
        index = 0
    if not 0 <= index < len(result):
        raise kernel.GeometryError(f"intersection index {index} out of range for {len(result)} point(s)")
    return result[index]


_REQUIRED = object()


# One builtin parameter.  ``kind`` is a value type or a tuple of them, ``int``
# for a rational that must be an integer, or ``CircleVertex`` for a quoted
# vertex name; ``what`` names the parameter in error messages.
_Param = namedtuple("_Param", "kind what default", defaults=(_REQUIRED,))


class _Builtin:
    def __init__(self, impl: Callable[..., Value], *params: _Param) -> None:
        self.impl = impl
        self.params = params
        self.arities = range(sum(param.default is _REQUIRED for param in params), len(params) + 1)


_POINT = _Param(Point, "point")
_ENDPOINT = _Param(Point, "endpoint")
_VERTEX = _Param(Point, "vertex")
_SIDE = _Param(Direction, "side")
_PARTS = _Param(int, "part count")

# The one definition of each builtin, read by the parser (argument counts), the
# executor (argument types, dispatch) and the test of the README's table.
_BUILTINS = {
    "point": _Builtin(Point, _Param(Fraction, "x"), _Param(Fraction, "y")),
    "dir": _Builtin(Direction, _Param(Fraction, "dx"), _Param(Fraction, "dy")),
    "segment": _Builtin(Segment, _ENDPOINT, _ENDPOINT),
    "ray": _Builtin(Ray, _Param(Point, "origin"), _Param(Direction, "direction")),
    "line_through": _Builtin(kernel.line_through, _POINT, _POINT),
    "circle": _Builtin(TaxicabCircle, _Param(Point, "center"), _Param(Fraction, "radius")),
    "tdist": _Builtin(kernel.taxicab_distance, _POINT, _POINT),
    "edist2": _Builtin(kernel.euclidean_distance_squared, _POINT, _POINT),
    "intersect": _Builtin(
        _intersect,
        _Param((Line, Ray), "first operand"),
        _Param((Line, TaxicabCircle), "second operand"),
        _Param(int, "intersection index", None),
    ),
    "vertex": _Builtin(
        kernel.circle_vertex, _Param(TaxicabCircle, "circle"), _Param(CircleVertex, "vertex name")
    ),
    "nsect": _Builtin(lambda a, b, n: constructions.nsect_segment(a, b, n)[0], _ENDPOINT, _ENDPOINT, _PARTS),
    "section": _Builtin(
        lambda v, d1, d2, n, radius: constructions.section_angle(Angle(v, d1, d2), n, radius)[0],
        _VERTEX, _SIDE, _SIDE, _PARTS, _Param(Fraction, "radius", Fraction(1)),
    ),
    "measure": _Builtin(lambda v, d1, d2: measure_angle(Angle(v, d1, d2)), _VERTEX, _SIDE, _SIDE),
    "param": _Builtin(direction_to_param, _Param(Direction, "direction")),
}


def execute(script: Script, output_root: str | os.PathLike[str] | None = None) -> ExecutionResult:
    """Run a parsed script.

    ``render`` paths resolve against ``output_root`` (default: the current
    working directory).  Assertion failures are collected in the result;
    anything else wrong raises :class:`TaxiRuntimeError`.
    """
    return _Executor(output_root).run(script)


def run_source(source: str, output_root: str | os.PathLike[str] | None = None) -> ExecutionResult:
    return execute(parse(source), output_root)
