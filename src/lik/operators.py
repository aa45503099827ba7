"""Difference-operator algebra with nonlocal inverse-difference terms.

Entries are sums of local terms  cof * D^a  and nonlocal sandwiches
B * (D-I)^-1 * C.  Normal form keeps cofactors fully to the left of
shifts via D^a(f I) = (D^a f) D^a, and consumes shifts hitting the
inverse difference via

    D^a (D-I)^-1 = (D-I)^-1 + D^(a-1) + ... + I          (a > 0)
    D^a (D-I)^-1 = (D-I)^-1 - D^-1 - ... - D^a           (a < 0),

so a trailing shift is folded away: B (D-I)^-1 C D^b becomes
B (D-I)^-1 C[-b] plus local terms.  C is then split into its monomials,
each with coefficient 1 (B (D-I)^-1 (c m + C') = c B (D-I)^-1 m +
B (D-I)^-1 C'), and the B of equal monomials merge, so equal operators
compare equal.

A composition that would leave (D-I)^-1 immediately left of a non-constant
cofactor stays an opaque sandwich; no illegal commuting is performed.
Applying a nonlocal term to a concrete function resolves the inverse
difference exactly when the argument is a forward difference, and keeps a
formal antidifference term otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .expr import (
    LatticeMonomial,
    LatticePoly,
    delta_decompose,
    dir_derivative,
    render_poly,
    shift_correction,
    term_key,
)
from .params import ParamCoeff, join_signed


class LocalOpTerm:
    """cof * D^power."""

    __slots__ = ("cof", "power")

    def __init__(self, cof: LatticePoly, power: int):
        self.cof, self.power = cof, power

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalOpTerm):
            return NotImplemented
        return (self.cof, self.power) == (other.cof, other.power)


class NonlocalOpTerm:
    """left * (D-I)^-1 * right * D^power; in an OpEntry right is a
    monomial with coefficient 1 and power is 0."""

    __slots__ = ("left", "right", "power")

    def __init__(self, left: LatticePoly, right: LatticePoly, power: int):
        self.left, self.right, self.power = left, right, power

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonlocalOpTerm):
            return NotImplemented
        return (self.left, self.right, self.power) == (
            other.left, other.right, other.power
        )


class ExtendedExpr:
    """A polynomial plus formal antidifference terms cof * Theta(arg).

    Theta(arg) stands for (D-I)^-1 arg; since Theta is linear, every
    argument is split into its shift-canonical monomials (coefficients
    folded into the cofactors), giving a canonical representation in which
    equal contributions merge or cancel syntactically.

    A constant argument is inherently ambiguous up to an additive constant
    (the kernel of the forward difference); rank-uniform data of positive
    rank never produces one.
    """

    __slots__ = ("local", "thetas")

    def __init__(
        self,
        local: LatticePoly | None = None,
        thetas: Iterable[tuple[LatticePoly, LatticePoly]] = (),
    ):
        self.local = local if local is not None else LatticePoly.zero()
        merged: dict = {}
        for arg, cof in thetas:
            if arg.is_zero or cof.is_zero:
                continue
            for mono, c in arg.items():
                key = term_key(mono)
                extra = cof * c
                if key in merged:
                    merged[key] = (merged[key][0], merged[key][1] + extra)
                else:
                    merged[key] = (LatticePoly.from_monomial(mono), extra)
        self.thetas = tuple(
            merged[k] for k in sorted(merged) if not merged[k][1].is_zero
        )

    @property
    def is_zero(self) -> bool:
        return self.local.is_zero and not self.thetas

    @property
    def is_local(self) -> bool:
        return not self.thetas

    def __add__(self, other: "ExtendedExpr") -> "ExtendedExpr":
        return ExtendedExpr(
            self.local + other.local, self.thetas + other.thetas
        )

    def __neg__(self) -> "ExtendedExpr":
        return ExtendedExpr(
            -self.local, tuple((a, -c) for a, c in self.thetas)
        )

    def __sub__(self, other: "ExtendedExpr") -> "ExtendedExpr":
        return self + (-other)

    def scale(self, p: Union[LatticePoly, ParamCoeff, int, Fraction]) -> "ExtendedExpr":
        return ExtendedExpr(
            self.local * p, tuple((a, c * p) for a, c in self.thetas)
        )

    def shifted(self, r: int) -> "ExtendedExpr":
        """D^r of the expression; the antidifference arguments stay put and
        the telescoping corrections move into the local part."""
        if r == 0:
            return self
        local = self.local.shifted(r)
        thetas = []
        for arg, cof in self.thetas:
            cof_r = cof.shifted(r)
            thetas.append((arg, cof_r))
            for sign, j in shift_correction(r):
                local = local + cof_r * arg.shifted(j) * sign
        return ExtendedExpr(local, thetas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedExpr):
            return NotImplemented
        return self.local == other.local and self.thetas == other.thetas

    def __repr__(self) -> str:
        return f"ExtendedExpr(local={self.local!r}, thetas={len(self.thetas)})"


class OpEntry:
    """One matrix entry: a sum of local and nonlocal operator terms."""

    __slots__ = ("locals", "nonlocals")

    def __init__(
        self,
        local_terms: Iterable[LocalOpTerm] = (),
        nonlocal_terms: Iterable[NonlocalOpTerm] = (),
    ):
        by_power: dict[int, LatticePoly] = {}
        for t in local_terms:
            if t.cof.is_zero:
                continue
            by_power[t.power] = by_power.get(t.power, LatticePoly.zero()) + t.cof

        # one term per monomial of the right cofactor, keyed by it
        resolved_nl: dict[LatticeMonomial, LatticePoly] = {}
        for t in nonlocal_terms:
            if t.left.is_zero or t.right.is_zero:
                continue
            left, right = t.left, t.right
            if t.power:
                # right*D^k = D^k*right[-k], and D^k commutes with (D-I)^-1
                right = right.shifted(-t.power)
                for sign, j in shift_correction(t.power):
                    by_power[j] = (
                        by_power.get(j, LatticePoly.zero())
                        + left * right.shifted(j) * sign
                    )
            for m, c in right.items():
                resolved_nl[m] = resolved_nl.get(m, LatticePoly.zero()) + left * c

        self.locals = tuple(
            LocalOpTerm(by_power[a], a)
            for a in sorted(by_power)
            if not by_power[a].is_zero
        )
        self.nonlocals = tuple(
            NonlocalOpTerm(resolved_nl[m], LatticePoly.from_monomial(m), 0)
            for m in sorted(resolved_nl, key=term_key)
            if not resolved_nl[m].is_zero
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "OpEntry":
        return cls()

    @classmethod
    def identity(cls) -> "OpEntry":
        return cls([LocalOpTerm(LatticePoly.const(1), 0)])

    @classmethod
    def local(cls, cof: LatticePoly, power: int = 0) -> "OpEntry":
        return cls([LocalOpTerm(cof, power)])

    @classmethod
    def shift(cls, power: int) -> "OpEntry":
        return cls([LocalOpTerm(LatticePoly.const(1), power)])

    @classmethod
    def inverse_difference(cls) -> "OpEntry":
        return cls((), [NonlocalOpTerm(LatticePoly.const(1), LatticePoly.const(1), 0)])

    @classmethod
    def sandwich(cls, left: LatticePoly, right: LatticePoly) -> "OpEntry":
        return cls((), [NonlocalOpTerm(left, right, 0)])

    # -- algebra -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.locals and not self.nonlocals

    def __add__(self, other: "OpEntry") -> "OpEntry":
        return OpEntry(
            self.locals + other.locals, self.nonlocals + other.nonlocals
        )

    def __neg__(self) -> "OpEntry":
        return self.scale(-1)

    def __sub__(self, other: "OpEntry") -> "OpEntry":
        return self + (-other)

    def scale(self, k: Union[int, Fraction, ParamCoeff]) -> "OpEntry":
        return OpEntry(
            [LocalOpTerm(t.cof * k, t.power) for t in self.locals],
            [NonlocalOpTerm(t.left * k, t.right, 0) for t in self.nonlocals],
        )

    def compose(self, other: "OpEntry") -> "OpEntry":
        """Operator composition self after other, in normal form."""
        loc: list[LocalOpTerm] = []
        nl: list[NonlocalOpTerm] = []
        for a in self.locals:
            for b in other.locals:
                loc.append(
                    LocalOpTerm(a.cof * b.cof.shifted(a.power), a.power + b.power)
                )
            for b in other.nonlocals:
                base = a.cof * b.left.shifted(a.power)
                nl.append(NonlocalOpTerm(base, b.right, 0))
                for sign, j in shift_correction(a.power):
                    loc.append(LocalOpTerm(base * b.right.shifted(j) * sign, j))
        for a in self.nonlocals:
            for b in other.locals:
                nl.append(NonlocalOpTerm(a.left, a.right * b.cof, b.power))
            if other.nonlocals:
                raise ValueError(
                    "composition of two nonlocal operator factors has no "
                    "normal form in this algebra"
                )
        return OpEntry(loc, nl)

    def frechet(self, directions: Sequence[LatticePoly]) -> "OpEntry":
        """Directional derivative of every cofactor, operator skeleton fixed."""
        loc = [
            LocalOpTerm(dir_derivative(t.cof, directions), t.power)
            for t in self.locals
        ]
        nl = []
        for t in self.nonlocals:
            nl.append(
                NonlocalOpTerm(dir_derivative(t.left, directions), t.right, 0)
            )
            nl.append(
                NonlocalOpTerm(t.left, dir_derivative(t.right, directions), 0)
            )
        return OpEntry(loc, nl)

    def apply(self, g: Union[LatticePoly, ExtendedExpr]) -> ExtendedExpr:
        if isinstance(g, LatticePoly):
            g = ExtendedExpr(g)
        acc = ExtendedExpr()
        for t in self.locals:
            acc = acc + g.shifted(t.power).scale(t.cof)
        for t in self.nonlocals:
            if not g.is_local:
                raise ValueError(
                    "cannot push an unresolved antidifference through "
                    "another inverse difference"
                )
            # (D-I)^-1 (canonical + (D-I) exact) = Theta(canonical) + exact
            canonical, exact = delta_decompose(t.right * g.local)
            acc = acc + ExtendedExpr(t.left * exact, [(canonical, t.left)])
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

    def scale(self, k: Union[int, Fraction, ParamCoeff]) -> "DiffOperator":
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
        if c.is_rational:
            f = c.as_fraction()
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
    for t in entry.locals:
        sign, factor = _factor_str(t.cof, names)
        op = _op_symbol(t.power)
        pieces.append((sign, f"{factor}*{op}" if factor else op))
    for t in entry.nonlocals:
        sign, factor = _factor_str(t.left, names)
        body = f"{factor}*S" if factor else "S"
        if t.right != LatticePoly.const(1):
            rsign, rfactor = _factor_str(t.right, names)
            if rsign == "-":
                sign = "-" if sign == "+" else "+"
            body += f"*{rfactor}" if rfactor else ""
        pieces.append((sign, body))
    return join_signed(pieces)


def render_operator(op: DiffOperator, names: Sequence[str]) -> str:
    lines = []
    for i, row in enumerate(op.entries):
        for j, e in enumerate(row):
            lines.append(f"R[{i + 1}][{j + 1}] = {render_entry(e, names)}")
    return "\n".join(lines)
