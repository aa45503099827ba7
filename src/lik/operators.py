"""Difference-operator algebra with nonlocal inverse-difference terms.

An entry is a sum of local terms  cof * D^a  and nonlocal sandwiches
B * (D-I)^-1 * m, stored as two maps: ``locals`` from the shift power a to
its cofactor, and ``nonlocals`` from the right monomial m to its left
cofactor B.  Normal form keeps cofactors fully to the left of shifts via
D^a(f I) = (D^a f) D^a, and consumes shifts hitting the inverse
difference via

    D^a (D-I)^-1 = (D-I)^-1 + D^(a-1) + ... + I          (a > 0)
    D^a (D-I)^-1 = (D-I)^-1 - D^-1 - ... - D^a           (a < 0),

so a trailing shift is folded away: B (D-I)^-1 C D^b becomes
B (D-I)^-1 C[-b] plus local terms.  C is then split into its monomials
(B (D-I)^-1 (c m + C') = c B (D-I)^-1 m + B (D-I)^-1 C'), and the B of
equal monomials merge.  No map holds a zero, so equal operators have
equal maps.

A composition that would leave (D-I)^-1 immediately left of a non-constant
cofactor stays an opaque sandwich; no illegal commuting is performed.
Applying a nonlocal term to a concrete function resolves the inverse
difference exactly when the argument is a forward difference, and keeps a
formal antidifference term otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .expr import (
    LatticeMonomial,
    LatticePoly,
    accumulate,
    delta_decompose,
    dir_derivative,
    render_monomial,
    render_poly,
    shift_correction,
    term_key,
)
from .params import Scalar, fraction, is_rational, join_signed

Cofactors = dict[LatticeMonomial, LatticePoly]


class ExtendedExpr:
    """A polynomial plus formal antidifference terms cof * Theta(m).

    Theta(m) stands for (D-I)^-1 m; since Theta is linear, every argument
    is split into its shift-canonical monomials (coefficients folded into
    the cofactors), and ``thetas`` maps each monomial m to its nonzero
    cofactor, so equal contributions merge or cancel.

    A constant argument is inherently ambiguous up to an additive constant
    (the kernel of the forward difference); rank-uniform data of positive
    rank never produces one.
    """

    __slots__ = ("local", "thetas")

    def __init__(
        self, local: LatticePoly | None = None, thetas: Cofactors | None = None
    ):
        self.local = local if local is not None else LatticePoly.zero()
        self.thetas = {} if thetas is None else thetas

    @property
    def is_zero(self) -> bool:
        return self.local.is_zero and not self.thetas

    @property
    def is_local(self) -> bool:
        return not self.thetas

    def __add__(self, other: "ExtendedExpr") -> "ExtendedExpr":
        thetas = dict(self.thetas)
        for m, cof in other.thetas.items():
            accumulate(thetas, m, cof)
        return ExtendedExpr(self.local + other.local, thetas)

    def scale(self, p: Union[LatticePoly, int, Fraction]) -> "ExtendedExpr":
        """p times the expression, for a nonzero p."""
        return ExtendedExpr(
            self.local * p, {m: cof * p for m, cof in self.thetas.items()}
        )

    def shifted(self, r: int) -> "ExtendedExpr":
        """D^r of the expression; the antidifference arguments stay put and
        the telescoping corrections move into the local part."""
        if r == 0:
            return self
        local = self.local.shifted(r)
        thetas = {}
        for m, cof in self.thetas.items():
            cof_r = thetas[m] = cof.shifted(r)
            for sign, j in shift_correction(r):
                local = local + cof_r * LatticePoly.from_monomial(m.shifted(j), sign)
        return ExtendedExpr(local, thetas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedExpr):
            return NotImplemented
        return self.local == other.local and self.thetas == other.thetas

    def __repr__(self) -> str:
        return f"ExtendedExpr(local={self.local!r}, thetas={len(self.thetas)})"


def _add_sandwich(
    locals_: dict[int, LatticePoly],
    nonlocals: Cofactors,
    left: LatticePoly,
    right: LatticePoly,
    power: int = 0,
) -> None:
    """Add left * (D-I)^-1 * right * D^power, for a nonzero left, to the
    two maps of an entry."""
    if power:
        # right*D^k = D^k*right[-k], and D^k commutes with (D-I)^-1
        right = right.shifted(-power)
        for sign, j in shift_correction(power):
            accumulate(locals_, j, left * right.shifted(j) * sign)
    for m, c in right.terms():
        accumulate(nonlocals, m, left * c)


class OpEntry:
    """One matrix entry: ``locals`` maps a shift power a to the cofactor of
    D^a, ``nonlocals`` a right monomial m to the left cofactor B of
    B * (D-I)^-1 * m.  Neither map holds a zero."""

    __slots__ = ("locals", "nonlocals")

    def __init__(
        self,
        locals_: dict[int, LatticePoly] | None = None,
        nonlocals: Cofactors | None = None,
    ):
        self.locals = {} if locals_ is None else locals_
        self.nonlocals = {} if nonlocals is None else nonlocals

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "OpEntry":
        return cls()

    @classmethod
    def identity(cls) -> "OpEntry":
        return cls.local(LatticePoly.const(1))

    @classmethod
    def local(cls, cof: LatticePoly, power: int = 0) -> "OpEntry":
        return cls({} if cof.is_zero else {power: cof})

    @classmethod
    def shift(cls, power: int) -> "OpEntry":
        return cls.local(LatticePoly.const(1), power)

    @classmethod
    def inverse_difference(cls) -> "OpEntry":
        return cls.sandwich(LatticePoly.const(1), LatticePoly.const(1))

    @classmethod
    def sandwich(cls, left: LatticePoly, right: LatticePoly) -> "OpEntry":
        out = cls()
        if not left.is_zero:
            _add_sandwich(out.locals, out.nonlocals, left, right)
        return out

    # -- algebra -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.locals and not self.nonlocals

    def __add__(self, other: "OpEntry") -> "OpEntry":
        loc, nl = dict(self.locals), dict(self.nonlocals)
        for a, cof in other.locals.items():
            accumulate(loc, a, cof)
        for m, left in other.nonlocals.items():
            accumulate(nl, m, left)
        return OpEntry(loc, nl)

    def __neg__(self) -> "OpEntry":
        return self.scale(-1)

    def __sub__(self, other: "OpEntry") -> "OpEntry":
        return self + (-other)

    def scale(self, k: Scalar) -> "OpEntry":
        if not k:
            return OpEntry()
        return OpEntry(
            {a: cof * k for a, cof in self.locals.items()},
            {m: left * k for m, left in self.nonlocals.items()},
        )

    def compose(self, other: "OpEntry") -> "OpEntry":
        """Operator composition self after other, in normal form."""
        loc: dict[int, LatticePoly] = {}
        nl: Cofactors = {}
        for a, cof in self.locals.items():
            for b, cof_b in other.locals.items():
                accumulate(loc, a + b, cof * cof_b.shifted(a))
            for m, left in other.nonlocals.items():
                # D^a (D-I)^-1 m = (D-I)^-1 m[a] D^a
                right = LatticePoly.from_monomial(m.shifted(a))
                _add_sandwich(loc, nl, cof * left.shifted(a), right, a)
        for m, left in self.nonlocals.items():
            if other.nonlocals:
                raise ValueError(
                    "composition of two nonlocal operator factors has no "
                    "normal form in this algebra"
                )
            for b, cof_b in other.locals.items():
                _add_sandwich(loc, nl, left, LatticePoly.from_monomial(m) * cof_b, b)
        return OpEntry(loc, nl)

    def frechet(self, directions: Sequence[LatticePoly]) -> "OpEntry":
        """Directional derivative of every cofactor, operator skeleton fixed."""
        loc: dict[int, LatticePoly] = {}
        nl: Cofactors = {}
        for a, cof in self.locals.items():
            d = dir_derivative(cof, directions)
            if not d.is_zero:
                loc[a] = d
        for m, left in self.nonlocals.items():
            d = dir_derivative(left, directions)
            if not d.is_zero:
                accumulate(nl, m, d)
            d = dir_derivative(LatticePoly.from_monomial(m), directions)
            _add_sandwich(loc, nl, left, d)
        return OpEntry(loc, nl)

    def apply(self, g: Union[LatticePoly, ExtendedExpr]) -> ExtendedExpr:
        if isinstance(g, LatticePoly):
            g = ExtendedExpr(g)
        acc = ExtendedExpr()
        for a, cof in self.locals.items():
            acc = acc + g.shifted(a).scale(cof)
        for m, left in self.nonlocals.items():
            if not g.is_local:
                raise ValueError(
                    "cannot push an unresolved antidifference through "
                    "another inverse difference"
                )
            # (D-I)^-1 (canonical + (D-I) exact) = Theta(canonical) + exact
            canonical, exact = delta_decompose(LatticePoly.from_monomial(m) * g.local)
            acc = acc + ExtendedExpr(
                left * exact, {mc: left * c for mc, c in canonical.terms()}
            )
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpEntry):
            return NotImplemented
        return self.locals == other.locals and self.nonlocals == other.nonlocals

    def __repr__(self) -> str:
        return f"OpEntry(locals={len(self.locals)}, nonlocals={len(self.nonlocals)})"


class DiffOperator:
    """Square matrix of operator entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[OpEntry]]):
        self.entries = tuple(tuple(row) for row in entries)
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("operator matrix must be square")

    @classmethod
    def zero(cls, n: int) -> "DiffOperator":
        return cls([[OpEntry.zero() for _ in range(n)] for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.entries)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return DiffOperator(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other.scale(-1)

    def scale(self, k: Scalar) -> "DiffOperator":
        return DiffOperator([[e.scale(k) for e in row] for row in self.entries])

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = OpEntry.zero()
                for k in range(n):
                    if self.entries[i][k].is_zero or other.entries[k][j].is_zero:
                        continue
                    acc = acc + self.entries[i][k].compose(other.entries[k][j])
                row.append(acc)
            out.append(row)
        return DiffOperator(out)

    def frechet(self, directions: Sequence[LatticePoly]) -> "DiffOperator":
        return DiffOperator(
            [[e.frechet(directions) for e in row] for row in self.entries]
        )

    def apply(
        self, g: Sequence[Union[LatticePoly, ExtendedExpr]]
    ) -> list[ExtendedExpr]:
        if len(g) != self.n:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.n):
            acc = ExtendedExpr()
            for j in range(self.n):
                if not self.entries[i][j].is_zero:
                    acc = acc + self.entries[i][j].apply(g[j])
            out.append(acc)
        return out

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"DiffOperator({self.n}x{self.n})"


# -- rendering ---------------------------------------------------------------


def _op_symbol(power: int) -> str:
    if power == 0:
        return "I"
    if power == 1:
        return "D"
    return f"D^{power}"


def _factor_str(p: LatticePoly, names: Sequence[str]) -> tuple[str, str]:
    """(sign, rendered factor); empty factor means the constant 1."""
    items = p.items()
    if len(items) == 1:
        m, c = items[0]
        if is_rational(c):
            f = fraction(c)
            sign = "-" if f < 0 else "+"
            body = render_poly(p if f > 0 else -p, names)
            if body == "1":
                body = ""
            return sign, body
    return "+", f"({render_poly(p, names)})"


def render_entry(entry: OpEntry, names: Sequence[str]) -> str:
    if entry.is_zero:
        return "0"
    pieces: list[tuple[str, str]] = []
    for a in sorted(entry.locals):
        sign, factor = _factor_str(entry.locals[a], names)
        op = _op_symbol(a)
        pieces.append((sign, f"{factor}*{op}" if factor else op))
    for m in sorted(entry.nonlocals, key=term_key):
        sign, factor = _factor_str(entry.nonlocals[m], names)
        body = f"{factor}*S" if factor else "S"
        if not m.is_constant:
            body += f"*{render_monomial(m, names)}"
        pieces.append((sign, body))
    return join_signed(pieces)


def render_operator(op: DiffOperator, names: Sequence[str]) -> str:
    lines = []
    for i, row in enumerate(op.entries):
        for j, e in enumerate(row):
            lines.append(f"R[{i + 1}][{j + 1}] = {render_entry(e, names)}")
    return "\n".join(lines)
