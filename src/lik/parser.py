"""Parsing for the plain-text expression, system, and operator grammars.

Expressions:  u[-1]^2 * v[0] + (1/3)*u[0]^3 - a*v[1]   with declared
parameter names as bare identifiers, ^ for integer powers, [k] for shifts.
Division is restricted to rationals and single-monomial divisors with a
rational coefficient (never a parameter), keeping everything an exact
Laurent polynomial.

System files: one evolution equation per component plus optional
directives, e.g.

    # the leading example
    params: a, b
    u' = a*v[-1] - v[0]
    v' = v[0]*(b*u[0] - u[1])

Operator entries reuse the expression grammar extended with the symbols
I, D, D^k and S, where S denotes the inverse forward difference (D-I)^-1,
composed left to right with *; a polynomial p there is the operator p*I.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .expr import LatticePoly
from .operators import DiffOperator, OpEntry
from .params import ParamCoeff
from .system import DdeSystem

_RESERVED = {"I", "D", "S"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\^|\[|\]|\(|\)|\+|-|\*|/|'|=|,|:))"
)


class ParseError(ValueError):
    """Syntax or semantic error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class Token(NamedTuple):
    kind: str  # "int" | "name" | literal op | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int, col: int = 1) -> list[Token]:
    """Tokens of text, which starts at column col of line line_no."""
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        if text[pos : pos + 1].isspace():
            pos += 1
            continue
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, col + pos)
        start = col + m.start(
            "int" if m.group("int") else "name" if m.group("name") else "op"
        )
        if m.group("int"):
            out.append(Token("int", m.group("int"), line_no, start))
        elif m.group("name"):
            out.append(Token("name", m.group("name"), line_no, start))
        else:
            out.append(Token(m.group("op"), m.group("op"), line_no, start))
        pos = m.end()
    out.append(Token("end", "", line_no, col + len(text)))
    return out


def _poly(entry: OpEntry) -> LatticePoly | None:
    """p for an entry p*I, None for any other entry."""
    if entry.nonlocals or entry.locals.keys() - {0}:
        return None
    return entry.locals.get(0, LatticePoly.zero())


class _ExprParser:
    """Recursive descent over one tokenized line.

    Every value is an OpEntry, a polynomial p being p*I; operator atoms
    (I, D, S) are rejected in plain expression mode, so there every value
    is such a p*I.
    """

    def __init__(
        self,
        tokens: list[Token],
        names: Sequence[str],
        params: Sequence[str],
        operators: bool = False,
    ):
        self.tokens = tokens
        self.i = 0
        self.names = {n: k for k, n in enumerate(names)}
        self.params = set(params)
        self.operators = operators

    # -- token plumbing ---------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.cur
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of line'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    # -- grammar -------------------------------------------------------------

    def whole(self) -> OpEntry:
        """The line's one expression, up to its end."""
        try:
            value = self.sum_()
        except RecursionError:
            # reported where the expression starts: the token at which the
            # stack ran out depends on how deep the caller's stack already was
            start = self.tokens[0]
            raise ParseError(
                "expression nested too deeply", start.line, start.col
            ) from None
        self.expect("end")
        return value

    def sum_(self):
        value = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.signed_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            tok = self.cur
            rhs = self.signed_factor()
            if op == "*":
                value = self._mul(value, rhs, tok)
            else:
                value = self._div(value, rhs, tok)
        return value

    def signed_factor(self):
        sign = 1
        while self.cur.kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        value = self.power()
        return value.scale(-1) if sign < 0 else value

    def power(self):
        base = self.atom()
        if self.cur.kind != "^":
            return base
        tok = self.advance()
        k = self._int_exponent()
        if base == OpEntry.shift(1):
            return OpEntry.shift(k)
        p = _poly(base)
        if p is None:
            if k < 0:
                raise ParseError("negative operator powers only for D", tok.line, tok.col)
            out = OpEntry.identity()
            for _ in range(k):
                out = self._mul(out, base, tok)
            return out
        if k < 0 and len(p) != 1:
            raise ParseError(
                "negative powers need a single-term divisor", tok.line, tok.col
            )
        return self._pow(p, k, tok)

    def _int_exponent(self) -> int:
        sign = 1
        if self.cur.kind == "(":
            self.advance()
            if self.cur.kind == "-":
                self.advance()
                sign = -1
            k = int(self.expect("int").text)
            self.expect(")")
            return sign * k
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        return sign * int(self.expect("int").text)

    def atom(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return OpEntry.local(LatticePoly.const(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            value = self.sum_()
            self.expect(")")
            return value
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _RESERVED:
                if not self.operators:
                    raise ParseError(
                        f"{name} is an operator symbol, not a variable",
                        tok.line,
                        tok.col,
                    )
                if name == "I":
                    return OpEntry.identity()
                if name == "D":
                    return OpEntry.shift(1)
                return OpEntry.inverse_difference()
            if self.cur.kind == "[":
                self.advance()
                sign = 1
                if self.cur.kind == "-":
                    self.advance()
                    sign = -1
                k = sign * int(self.expect("int").text)
                self.expect("]")
                if name not in self.names:
                    raise ParseError(
                        f"unknown component {name!r}", tok.line, tok.col
                    )
                return OpEntry.local(LatticePoly.var(self.names[name], k))
            if name in self.params:
                return OpEntry.local(LatticePoly.const(ParamCoeff.param(name)))
            if name in self.names:
                raise ParseError(
                    f"component {name!r} needs a shift, e.g. {name}[0]",
                    tok.line,
                    tok.col,
                )
            raise ParseError(f"unknown symbol {name!r}", tok.line, tok.col)
        self.fail(f"unexpected {tok.text or 'end of line'!r}")

    # -- arithmetic ------------------------------------------------------------

    def _mul(self, a: OpEntry, b: OpEntry, tok: Token) -> OpEntry:
        try:
            return a.compose(b)
        except ValueError as exc:  # two nonlocal factors
            raise ParseError(str(exc), tok.line, tok.col) from None

    def _pow(self, base: LatticePoly, k: int, tok: Token) -> OpEntry:
        try:
            return OpEntry.local(base**k)
        except ValueError as exc:  # a parameter in the inverted coefficient
            raise ParseError(str(exc), tok.line, tok.col) from None

    def _div(self, a: OpEntry, b: OpEntry, tok: Token) -> OpEntry:
        p = _poly(b)
        if p is None:
            raise ParseError("cannot divide by an operator", tok.line, tok.col)
        if len(p) != 1:
            raise ParseError(
                "division only by rationals or single monomials", tok.line, tok.col
            )
        return a.compose(self._pow(p, -1, tok))


def parse_expression(
    text: str,
    names: Sequence[str],
    params: Sequence[str] = (),
    line_no: int = 1,
    col: int = 1,
) -> LatticePoly:
    """Parse one polynomial expression against known component names;
    text starts at column col of line line_no."""
    return _poly(_ExprParser(_tokenize(text, line_no, col), names, params).whole())


def parse_operator_entry(
    text: str,
    names: Sequence[str],
    params: Sequence[str] = (),
    line_no: int = 1,
    col: int = 1,
) -> OpEntry:
    return _ExprParser(
        _tokenize(text, line_no, col), names, params, operators=True
    ).whole()


def parse_rational(text: str) -> Fraction:
    """An integer or integer/integer literal such as -2 or 1/3; raises
    ValueError for anything else."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line that is not blank once its comment
    is stripped; the line keeps its leading whitespace."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            yield ln, stripped


_EQ_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*'\s*=")
_DIRECTIVE_RE = re.compile(r"^\s*(params|weight)\s*:")


def parse_system(text: str) -> DdeSystem:
    """Parse a system file into an evolution system.

    Components are indexed lexicographically by name; every referenced
    variable must appear on some left-hand side; right-hand sides must be
    polynomial (no negative powers).
    """
    params: list[str] = []
    equations: list[tuple[str, str, int, int]] = []  # name, rhs, line, col
    weight_lines: list[tuple[str, str, int]] = []

    for ln, stripped in _content_lines(text):
        d = _DIRECTIVE_RE.match(stripped)
        if d:
            body = stripped.split(":", 1)[1]
            if d.group(1) == "params":
                for piece in body.split(","):
                    name = piece.strip()
                    if not name:
                        continue
                    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                        raise ParseError(f"bad parameter name {name!r}", ln, 1)
                    if name in _RESERVED:
                        raise ParseError(f"{name!r} is reserved", ln, 1)
                    if name in params:
                        raise ParseError(f"duplicate parameter {name!r}", ln, 1)
                    params.append(name)
            else:
                if "=" not in body:
                    raise ParseError("weight directive needs name = value", ln, 1)
                lhs, rhs = body.split("=", 1)
                weight_lines.append((lhs.strip(), rhs.strip(), ln))
            continue
        m = _EQ_RE.match(stripped)
        if not m:
            raise ParseError(
                "expected an equation like u' = ... or a directive", ln, 1
            )
        name = m.group(1)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", ln, 1)
        rhs_text = stripped[m.end() :]
        if any(name == other[0] for other in equations):
            raise ParseError(f"duplicate equation for {name!r}", ln, 1)
        equations.append((name, rhs_text, ln, m.end() + 1))

    if not equations:
        raise ParseError("no equations found", max(len(text.splitlines()), 1), 1)
    names = tuple(sorted(e[0] for e in equations))
    overlap = set(names) & set(params)
    if overlap:
        raise ParseError(
            f"{sorted(overlap)[0]!r} declared both as component and parameter", 1, 1
        )

    rhs: list[LatticePoly | None] = [None] * len(names)
    index = {n: i for i, n in enumerate(names)}
    for name, rhs_text, ln, col in equations:
        p = parse_expression(rhs_text, names, params, line_no=ln, col=col)
        if p.has_negative_exponent():
            raise ParseError(
                "non-polynomial right-hand side (division by a variable)", ln, 1
            )
        rhs[index[name]] = p

    pins: dict[int, Fraction] = {}
    for wname, wval, ln in weight_lines:
        if wname not in index:
            raise ParseError(f"weight for unknown component {wname!r}", ln, 1)
        try:
            pins[index[wname]] = parse_rational(wval)
        except ValueError:
            raise ParseError(f"bad weight value {wval!r}", ln, 1) from None
        if pins[index[wname]] <= 0:
            raise ParseError(
                f"weight of {wname!r} must be positive, got {wval}", ln, 1
            )

    return DdeSystem(names, tuple(rhs), tuple(params), pins)  # type: ignore[arg-type]


_ASSIGN_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
_MATRIX_RE = re.compile(r"^\s*R\s*\[\s*(\d+)\s*\]\s*\[\s*(\d+)\s*\]\s*=\s*(.*)$")


def parse_assignments(text: str) -> list[tuple[str, str, int, int]]:
    """key = expression lines with comments stripped; returns (key, rhs,
    line, column of rhs)."""
    out = []
    for ln, stripped in _content_lines(text):
        m = _ASSIGN_RE.match(stripped)
        if not m:
            raise ParseError("expected key = expression", ln, 1)
        out.append((m.group(1), m.group(2), ln, m.start(2) + 1))
    return out


def parse_operator_matrix(
    text: str, names: Sequence[str], params: Sequence[str] = ()
) -> DiffOperator:
    """Parse R[i][j] = <entry> lines (1-based indices) into an operator."""
    n = len(names)
    entries = [[OpEntry.zero() for _ in range(n)] for _ in range(n)]
    seen = set()
    for ln, stripped in _content_lines(text):
        m = _MATRIX_RE.match(stripped)
        if not m:
            raise ParseError("expected R[i][j] = <operator entry>", ln, 1)
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"entry index out of range for {n} components", ln, 1)
        if (i, j) in seen:
            raise ParseError(f"duplicate entry R[{i + 1}][{j + 1}]", ln, 1)
        seen.add((i, j))
        entries[i][j] = parse_operator_entry(
            m.group(3), names, params, line_no=ln, col=m.start(3) + 1
        )
    return DiffOperator(entries)
