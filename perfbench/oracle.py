"""Independent checker for lik reports, built on sympy alone.

It reads the system file and the rendered JSON report of a job and never
imports lik: expressions are parsed from their rendered text into sympy,
and the lattice calculus (shifts, the total t-derivative, the forward
difference decomposition and the antidifference behind S = (D - I)^-1) is
implemented here again.  Every check returns a list of problems; an empty
list means the report passed.

Checks on every report:
  * the report validates against the published report schema;
  * the system in the report is the one in the file;
  * Dt(rho) + flux[1] - flux[0] = 0 for every density and
    Dt(G) - F'[G] = 0 for every symmetry, modulo the equations among the
    parameters that the result is conditioned on;
  * every monomial has the rank the report states, under its weights;
  * no density is a total difference;
  * a verified operator maps G(1) to the reported G(2) exactly, and the
    levels it generates from G(1) are local symmetries.
Known answers from the literature come in per job (``check_expected``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import sympy
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

_VAR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\[(-?\d+)\]")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class OracleError(ValueError):
    """Text the oracle cannot read."""


def read_system(text: str) -> tuple[dict[str, str], list[str]]:
    """Right-hand sides by component name, and the parameter names, of a
    system file (``#`` comments, ``params:``, ``name' = ...``; weight
    directives are ignored)."""
    rhs: dict[str, str] = {}
    params: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split(":", 1)[0].strip()
        if key == "params":
            params += [p.strip() for p in line.split(":", 1)[1].split(",") if p.strip()]
        elif key == "weight":
            continue
        else:
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*'\s*=(.*)", line)
            if not m:
                raise OracleError(f"unreadable system line {raw!r}")
            rhs[m.group(1)] = m.group(2).strip()
    if not rhs:
        raise OracleError("no equations in system file")
    return rhs, params


class Lattice:
    """sympy calculus on the shifted variables name[k] of one system."""

    def __init__(self, rhs_text: dict[str, str], params: list[str]):
        self.names = sorted(rhs_text)
        self.params = [sympy.Symbol(p) for p in params]
        self._vars: dict[tuple[str, int], sympy.Symbol] = {}
        self._where: dict[sympy.Symbol, tuple[str, int]] = {}
        self.rhs = {n: self.expr(t) for n, t in rhs_text.items()}

    def var(self, name: str, k: int) -> sympy.Symbol:
        key = (name, k)
        if key not in self._vars:
            s = sympy.Symbol(f"{name}__{k}".replace("-", "m"))
            self._vars[key] = s
            self._where[s] = key
        return self._vars[key]

    def lattice_symbols(self, e) -> list[sympy.Symbol]:
        return sorted(
            (s for s in e.free_symbols if s in self._where), key=self._where.get
        )

    def expr(self, text: str):
        """Rendered lik expression text -> expanded sympy expression."""
        local: dict[str, sympy.Symbol] = {str(p): p for p in self.params}

        def sub(m: re.Match) -> str:
            name, k = m.group(1), int(m.group(2))
            if name not in self.names:
                raise OracleError(f"unknown component {name!r} in {text!r}")
            placeholder = f"_v{len(local)}"
            local[placeholder] = self.var(name, k)
            return placeholder

        body = _VAR.sub(sub, text).replace("^", "**")
        for ident in _IDENT.findall(body):
            if ident not in local:
                raise OracleError(f"unknown name {ident!r} in {text!r}")
        try:
            e = parse_expr(
                body, local_dict=local, global_dict={"Integer": sympy.Integer,
                "Rational": sympy.Rational, "Symbol": sympy.Symbol},
                transformations=standard_transformations,
            )
        except (SyntaxError, TypeError) as exc:
            raise OracleError(f"cannot parse {text!r}: {exc}") from None
        return sympy.expand(e)

    def shift(self, e, r: int):
        if r == 0:
            return e
        return e.xreplace(
            {s: self.var(n, k + r) for s, (n, k) in
             ((s, self._where[s]) for s in self.lattice_symbols(e))}
        )

    def dt(self, e):
        """Total t-derivative on solutions of the system."""
        return sympy.expand(sum(
            (sympy.diff(e, s) * self.shift(self.rhs[n], k)
             for s in self.lattice_symbols(e) for n, k in [self._where[s]]),
            sympy.Integer(0),
        ))

    def frechet(self, g: dict[str, object]) -> dict[str, object]:
        """F'[G]: the derivative of the right-hand side along G."""
        return {
            n: sympy.expand(sum(
                (sympy.diff(f, s) * self.shift(g[m], k)
                 for s in self.lattice_symbols(f) for m, k in [self._where[s]]),
                sympy.Integer(0),
            ))
            for n, f in self.rhs.items()
        }

    def decompose(self, e):
        """(canonical, h) with e = canonical + (D - I) h.

        Each term is moved to its representative whose lowest shift is 0;
        canonical is zero exactly when e is a total difference, and then h
        is its antidifference without constant term.
        """
        canonical, h = [], []
        for term in sympy.Add.make_args(sympy.expand(e)):
            shifts = [self._where[s][1] for s in self.lattice_symbols(term)]
            if not shifts:
                canonical.append(term)
                continue
            low = min(shifts)
            base = self.shift(term, -low)
            canonical.append(base)
            if low > 0:
                h += [self.shift(base, i) for i in range(low)]
            else:
                h += [-self.shift(base, i) for i in range(low, 0)]
        return sympy.expand(sympy.Add(*canonical)), sympy.expand(sympy.Add(*h))

    def antidifference(self, e):
        """h with h[1] - h[0] = e, or None when e is not a total difference."""
        canonical, h = self.decompose(e)
        return h if canonical == 0 else None

    def rank(self, term, weights: dict[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for s, e in term.as_powers_dict().items():
            if s in self._where:
                total += weights[self._where[s][0]] * int(e)
        return total

    def vanishes(self, e, conditions: list) -> bool:
        """e == 0 modulo the ideal of the parameter equations."""
        e = sympy.expand(e)
        if e == 0:
            return True
        if not conditions:
            return False
        basis = sympy.groebner(conditions, *self.params, order="lex")
        numerator = sympy.fraction(sympy.together(e))[0]  # clears Laurent powers
        gens = self.lattice_symbols(numerator)
        coeffs = sympy.Poly(numerator, *gens).coeffs() if gens else [numerator]
        return all(basis.reduce(sympy.expand(c))[1] == 0 for c in coeffs)

    def condition(self, text: str):
        """'a = 1' or 'a*b - 1 = 0' -> a sympy polynomial that vanishes."""
        lhs, sep, rhs = text.partition(" = ")
        if not sep:
            raise OracleError(f"unreadable condition {text!r}")
        return sympy.expand(self.expr(lhs) - self.expr(rhs))


# -- operators ----------------------------------------------------------------


def _split_top(text: str, seps: tuple[str, ...]) -> list[str]:
    """Split text at separators outside parentheses.  Each separator is one
    character, possibly padded with spaces; a + or - stays with the piece
    that follows it."""
    pieces, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        hit = next((s for s in seps if depth == 0 and text.startswith(s, i)), None)
        if hit:
            pieces.append(text[start:i])
            start = i + 1 if hit.strip() in "+-" else i + len(hit)
            i += len(hit)
            continue
        i += 1
    pieces.append(text[start:])
    return [p.strip() for p in pieces if p.strip()]


def _op_power(token: str) -> int | None:
    if token == "I":
        return 0
    if token == "D":
        return 1
    m = re.fullmatch(r"D\^(-?\d+)", token)
    return int(m.group(1)) if m else None


def parse_entry(lat: Lattice, text: str) -> list[tuple]:
    """Operator entry text -> terms ("local", cof, k) meaning cof*D^k and
    ("nonlocal", left, right, k) meaning left*S*right*D^k."""
    if text.strip() == "0":
        return []
    terms = []
    for piece in _split_top(text.strip(), (" + ", " - ")):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:].strip()
        elif piece.startswith("+"):
            piece = piece[1:].strip()
        factors = _split_top(piece, ("*",))
        power = 0
        if factors and factors[-1] != "S" and _op_power(factors[-1]) is not None:
            power = _op_power(factors.pop())
        if "S" in factors:
            at = factors.index("S")
            left = lat.expr("*".join(factors[:at]) or "1")
            right = lat.expr("*".join(factors[at + 1:]) or "1")
            terms.append(("nonlocal", sign * left, right, power))
        else:
            terms.append(("local", sign * lat.expr("*".join(factors) or "1"), power))
    return terms


def parse_operator(lat: Lattice, lines: list[str]) -> list[list[list[tuple]]]:
    n = len(lat.names)
    matrix: list[list[list[tuple] | None]] = [[None] * n for _ in range(n)]
    for line in lines:
        m = re.fullmatch(r"R\[(\d+)\]\[(\d+)\] = (.*)", line)
        if not m:
            raise OracleError(f"unreadable operator entry {line!r}")
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        matrix[i][j] = parse_entry(lat, m.group(3))
    if any(e is None for row in matrix for e in row):
        raise OracleError("operator matrix is incomplete")
    return matrix  # type: ignore[return-value]


def apply_operator(lat: Lattice, op, g: dict[str, object]):
    """R applied to the vector g, or None when an antidifference does not
    exist (the result would not be local)."""
    out = {}
    for i, n in enumerate(lat.names):
        acc = []
        for j, m in enumerate(lat.names):
            for term in op[i][j]:
                if term[0] == "local":
                    _, cof, k = term
                    acc.append(cof * lat.shift(g[m], k))
                else:
                    _, left, right, k = term
                    h = lat.antidifference(right * lat.shift(g[m], k))
                    if h is None:
                        return None
                    acc.append(left * h)
        out[n] = sympy.expand(sympy.Add(*acc))
    return out


# -- report checks ------------------------------------------------------------


def load_schema(root: Path) -> dict:
    return json.loads(
        (root / "src" / "lik" / "schema" / "report-v1.schema.json").read_text()
    )


def _is_symmetry(lat: Lattice, g: dict, conds: list) -> bool:
    fg = lat.frechet(g)
    return all(lat.vanishes(lat.dt(g[n]) - fg[n], conds) for n in lat.names)


def _density_residual(lat: Lattice, rho, flux):
    return lat.dt(rho) + lat.shift(flux, 1) - flux


def check_report(lat: Lattice, doc: dict, schema: dict) -> list[str]:
    """Defining identities of every object in the report."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    problems = []
    got = {c["name"]: lat.expr(c["rhs"]) for c in doc["system"]["components"]}
    if set(got) != set(lat.rhs) or any(
        sympy.expand(got[n] - lat.rhs[n]) != 0 for n in got
    ):
        problems.append("report system differs from the input file")
    weights = {n: Fraction(v) for n, v in (doc["weights"] or {}).items()}

    def ranked(where: str, e, rank: Fraction):
        for term in sympy.Add.make_args(e):
            if lat.rank(term, weights) != rank:
                problems.append(f"{where}: term {term} is not of rank {rank}")
                return

    for d in doc["densities"]:
        where = f"density rank {d['rank']}"
        conds = [lat.condition(c) for c in d.get("conditions", [])]
        rho, flux = lat.expr(d["rho"]), lat.expr(d["flux"])
        if not lat.vanishes(_density_residual(lat, rho, flux), conds):
            problems.append(f"{where}: Dt(rho) + flux[1] - flux[0] != 0")
        if lat.decompose(rho)[0] == 0:
            problems.append(f"{where}: rho is a total difference")
        ranked(where, rho, Fraction(d["rank"]))
    for s in doc["symmetries"]:
        where = f"symmetry ranks ({', '.join(s['ranks'])})"
        conds = [lat.condition(c) for c in s.get("conditions", [])]
        g = {n: lat.expr(s["components"][n]) for n in lat.names}
        if not _is_symmetry(lat, g, conds):
            problems.append(f"{where}: Dt(G) - F'[G] != 0")
        for n, r in zip(lat.names, s["ranks"]):
            ranked(f"{where} G_{n}", g[n], Fraction(r))
    rec = doc["recursion_operator"]
    if rec is not None and rec["verified"]:
        problems += check_operator(lat, rec["entries"], doc["symmetries"])
    return problems


def check_operator(lat: Lattice, entries: list[str], symmetries: list[dict]) -> list[str]:
    """R G(1) = G(2) exactly, and R^k G(1) is a local symmetry for each
    level up to two past the reported chain."""
    if len(symmetries) < 2:
        return ["operator: fewer than two symmetries reported"]
    op = parse_operator(lat, entries)
    chain = [
        {n: lat.expr(s["components"][n]) for n in lat.names} for s in symmetries
    ]
    current = chain[0]
    for level in range(2, len(chain) + 3):
        current = apply_operator(lat, op, current)
        if current is None:
            return [f"operator: level {level} is not local"]
        if level == 2 and any(
            sympy.expand(current[n] - chain[1][n]) != 0 for n in lat.names
        ):
            return ["operator: R G(1) differs from the reported G(2)"]
        if not _is_symmetry(lat, current, []):
            return [f"operator: generated level {level} is not a symmetry"]
    return []


# -- known answers ------------------------------------------------------------


def check_expected(lat: Lattice, doc: dict, exit_code: int, expect: dict) -> list[str]:
    """Compare a report with the known answers of its job.

    Keys of ``expect``:
      exit        the exit code;
      weights     the weight of each component, as text;
      densities   (rank, conditions) of every density, in report order;
      forms       (rank, rho) that the densities must equal up to a nonzero
                  factor and a total difference, in report order;
      symmetries  (ranks, conditions) of every symmetry, in report order;
      operator    "verified", "none" or "optional"; "optional" accepts an
                  operator that passes check_operator, or none;
      family      failure family when no operator is reported;
      exact       conditions are necessary: every conditioned result
                  fails its identity for free parameters, and every branch
                  is either solved with a result or has no candidate.
    """
    problems = []
    rec = doc["recursion_operator"] or {}
    verified = bool(rec.get("verified"))
    want_exit = 0 if expect.get("operator") == "optional" and verified else expect["exit"]
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if "weights" in expect and doc["weights"] != expect["weights"]:
        problems.append(f"weights {doc['weights']}, expected {expect['weights']}")

    def conds(obj) -> frozenset:
        return frozenset(obj.get("conditions", []))

    if "densities" in expect:
        got = [(d["rank"], conds(d)) for d in doc["densities"]]
        want = [(str(r), frozenset(c)) for r, c in expect["densities"]]
        if got != want:
            problems.append(f"densities {_show(got)}, expected {_show(want)}")
    if "forms" in expect:
        got = [d["rank"] for d in doc["densities"]]
        want = [str(r) for r, _ in expect["forms"]]
        if got != want:
            problems.append(f"density ranks {got}, expected {want}")
        else:
            for d, (_, rho) in zip(doc["densities"], expect["forms"]):
                if not _equivalent(lat, lat.expr(d["rho"]), lat.expr(rho)):
                    problems.append(f"density rank {d['rank']} is not {rho}")
    if "symmetries" in expect:
        got = [(tuple(s["ranks"]), conds(s)) for s in doc["symmetries"]]
        want = [(tuple(str(r) for r in rs), frozenset(c))
                for rs, c in expect["symmetries"]]
        if got != want:
            problems.append(f"symmetries {_show(got)}, expected {_show(want)}")
    if "operator" in expect:
        if expect["operator"] == "verified" and not verified:
            problems.append(f"no operator: {rec.get('message', '')}")
        if expect["operator"] in ("none", "optional") and not verified:
            if rec.get("entries") or rec.get("failure_family") != expect["family"]:
                problems.append(
                    f"expected no operator with family {expect['family']}, got "
                    f"{rec.get('failure_family')} and {len(rec.get('entries', []))} entries"
                )
        if expect["operator"] == "none" and verified:
            problems.append("an operator is reported where none exists")
    if expect.get("exact"):
        problems += _conditions_necessary(lat, doc)
    return problems


def _show(pairs) -> str:
    return "[" + ", ".join(f"{a} if {sorted(c) or 'always'}" for a, c in pairs) + "]"


def _equivalent(lat: Lattice, rho1, rho2) -> bool:
    """rho1 - k*rho2 is a total difference for some nonzero rational k."""
    c1, c2 = lat.decompose(rho1)[0], lat.decompose(rho2)[0]
    if c1 == 0 or c2 == 0:
        return False
    d1, d2 = c1.as_coefficients_dict(), c2.as_coefficients_dict()
    monomial = next(iter(d1))
    if d2.get(monomial, 0) == 0:
        return False
    return sympy.expand(c1 - d1[monomial] / d2[monomial] * c2) == 0


def _conditions_necessary(lat: Lattice, doc: dict) -> list[str]:
    problems = []
    for d in doc["densities"]:
        if d.get("conditions") and lat.vanishes(
            _density_residual(lat, lat.expr(d["rho"]), lat.expr(d["flux"])), []
        ):
            problems.append(f"density rank {d['rank']} holds without its conditions")
    for s in doc["symmetries"]:
        g = {n: lat.expr(s["components"][n]) for n in lat.names}
        if s.get("conditions") and _is_symmetry(lat, g, []):
            problems.append(
                f"symmetry ranks ({', '.join(s['ranks'])}) holds without its conditions"
            )
    for c in doc["conditions"]:
        if not (c["outcome"] == "no candidate" or c["outcome"].endswith(" found")):
            problems.append(f"{c['subject']}: unresolved branch ({c['outcome']})")
    return problems
