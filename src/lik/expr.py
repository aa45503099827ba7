"""Symbolic kernel: Laurent polynomials in shifted lattice variables.

A variable is a component of the dependent vector at a shifted site,
written u[k] for component ``u`` at site n+k.  Monomials map such
variables to nonzero integer exponents (negative exponents allowed, e.g.
1/v[0]).  Polynomials map monomials to exact coefficients (lik.params):
plain ints and Fractions, and a ParamCoeff only where a declared scalar
parameter appears, so a parameter-free system computes on numbers.

Everything here is immutable and pure; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .params import Scalar, exact, fraction, is_rational, join_signed, signed_terms

if TYPE_CHECKING:  # pragma: no cover
    from .system import DdeSystem


class LatticeMonomial:
    """Product of shifted variables with nonzero integer exponents, stored
    as one tuple ``flat`` = (comp, shift, exp, comp, shift, exp, ...) in
    ascending (comp, shift) order; hash and equality are the tuple's.  The
    empty product is the constant monomial 1."""

    __slots__ = ("flat", "_hash")

    def __init__(self, pairs: Iterable[tuple[tuple[int, int], int]] = ()):
        acc: dict[tuple[int, int], int] = {}
        for x, e in pairs:
            acc[x] = acc.get(x, 0) + e
        self.flat = tuple(
            v for (c, s), e in sorted(acc.items()) if e for v in (c, s, e)
        )
        self._hash = hash(self.flat)

    @classmethod
    def _of(cls, flat: tuple[int, ...]) -> "LatticeMonomial":
        """Wrap a flat tuple that is already sorted, merged and nonzero."""
        out = object.__new__(cls)
        out.flat = flat
        out._hash = hash(flat)
        return out

    @classmethod
    def constant(cls) -> "LatticeMonomial":
        return cls._of(())

    @classmethod
    def var(cls, comp: int, shift: int = 0, exp: int = 1) -> "LatticeMonomial":
        return cls._of((comp, shift, exp) if exp else ())

    # -- inspection ------------------------------------------------------

    def triples(self) -> Iterable[tuple[int, int, int]]:
        """The (comp, shift, exp) factors in (comp, shift) order."""
        f = self.flat
        return zip(f[0::3], f[1::3], f[2::3])

    @property
    def is_constant(self) -> bool:
        return not self.flat

    def degree(self) -> int:
        return sum(self.flat[2::3])

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "LatticeMonomial") -> "LatticeMonomial":
        # merge the two sorted factor lists, adding equal variables' exponents
        a, b = self.flat, other.flat
        if not (a and b):
            return self if a else other
        out: list[int] = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            ca, cb = a[i], b[j]
            if ca < cb or ca == cb and a[i + 1] < b[j + 1]:
                out += a[i : i + 3]
                i += 3
            elif ca > cb or a[i + 1] > b[j + 1]:
                out += b[j : j + 3]
                j += 3
            else:
                e = a[i + 2] + b[j + 2]
                if e:
                    out += (ca, a[i + 1], e)
                i += 3
                j += 3
        # one of the two tails is empty
        return LatticeMonomial._of(tuple(out) + a[i:] + b[j:])

    def __pow__(self, k: int) -> "LatticeMonomial":
        if k == 0:
            return LatticeMonomial.constant()
        out = list(self.flat)
        out[2::3] = [e * k for e in out[2::3]]
        return LatticeMonomial._of(tuple(out))

    def shifted(self, r: int) -> "LatticeMonomial":
        # a common shift keeps the (component, shift) order of the factors
        if r == 0:
            return self
        out = list(self.flat)
        out[1::3] = [s + r for s in out[1::3]]
        return LatticeMonomial._of(tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeMonomial):
            return NotImplemented
        return self.flat == other.flat

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LatticeMonomial({self.flat!r})"


def term_key(m: LatticeMonomial):
    """Deterministic total term order: total degree descending, then the
    factors by (component, shift, exponent descending)."""
    key = list(m.flat)
    key[2::3] = [-e for e in key[2::3]]
    return (-m.degree(), tuple(key))


class LatticePoly:
    """Finite sum of monomials with exact coefficients (lik.params.Scalar)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[LatticeMonomial, Scalar]):
        self._terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _of(cls, terms: dict[LatticeMonomial, Scalar]) -> "LatticePoly":
        """Wrap terms that already hold only nonzero coefficients."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LatticePoly":
        return cls({})

    @classmethod
    def const(cls, value: Scalar) -> "LatticePoly":
        return cls({LatticeMonomial.constant(): value})

    @classmethod
    def var(cls, comp: int, shift: int = 0, exp: int = 1) -> "LatticePoly":
        return cls._of({LatticeMonomial.var(comp, shift, exp): 1})

    @classmethod
    def from_monomial(
        cls, m: LatticeMonomial, c: Scalar = 1
    ) -> "LatticePoly":
        return cls({m: c})

    # -- inspection ----------------------------------------------------------

    def items(self) -> list[tuple[LatticeMonomial, Scalar]]:
        return sorted(self._terms.items(), key=lambda t: term_key(t[0]))

    def terms(self) -> Iterable[tuple[LatticeMonomial, Scalar]]:
        """The (monomial, coefficient) pairs in no fixed order."""
        return self._terms.items()

    def monomials(self) -> list[LatticeMonomial]:
        """The support in no fixed order; items() is the sorted view."""
        return list(self._terms)

    def coeff(self, m: LatticeMonomial) -> Scalar:
        return self._terms.get(m, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def leading(self) -> tuple[LatticeMonomial, Scalar]:
        if not self._terms:
            return LatticeMonomial.constant(), 0
        m = min(self._terms, key=term_key)
        return m, self._terms[m]

    def has_negative_exponent(self) -> bool:
        return any(e < 0 for m in self._terms for e in m.flat[2::3])

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: Union["LatticePoly", Scalar]) -> "LatticePoly":
        acc = dict(self._terms)
        for m, c in _coerce_poly(other)._terms.items():
            accumulate(acc, m, c)
        return LatticePoly._of(acc)

    def __neg__(self) -> "LatticePoly":
        return LatticePoly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Union["LatticePoly", Scalar]) -> "LatticePoly":
        acc = dict(self._terms)
        for m, c in _coerce_poly(other)._terms.items():
            accumulate(acc, m, -c)
        return LatticePoly._of(acc)

    def __mul__(self, other: Union["LatticePoly", Scalar]) -> "LatticePoly":
        if not isinstance(other, LatticePoly):
            if not other:
                return LatticePoly.zero()
            # parameter polynomials have no zero divisors
            k = exact(other)
            return LatticePoly._of({m: c * k for m, c in self._terms.items()})
        acc: dict[LatticeMonomial, Scalar] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                accumulate(acc, ma * mb, ca * cb)
        return LatticePoly._of(acc)

    def __pow__(self, k: int) -> "LatticePoly":
        if k < 0:
            if len(self._terms) != 1:
                raise ValueError("negative power of a multi-term polynomial")
            ((m, c),) = self._terms.items()
            if not is_rational(c):
                raise ValueError("cannot invert a parametric coefficient")
            return LatticePoly({m**k: exact(1 / fraction(c) ** -k)})
        out = LatticePoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LatticePoly.const(other)
        if not isinstance(other, LatticePoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"LatticePoly<{len(self._terms)} terms>"

    # -- structural operations -------------------------------------------------

    def shifted(self, r: int) -> "LatticePoly":
        if r == 0:
            return self
        return LatticePoly._of({m.shifted(r): c for m, c in self._terms.items()})


def _coerce_poly(value: Union[LatticePoly, Scalar]) -> LatticePoly:
    if isinstance(value, LatticePoly):
        return value
    return LatticePoly.const(value)


def accumulate(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum cancels.  The values
    are coefficients or LatticePoly; c is nonzero, so no map holds a zero."""
    old = acc.get(key)
    if old is None:
        acc[key] = c
    else:
        v = old + c
        if not v:
            del acc[key]
        else:
            acc[key] = v


# -- calculus -------------------------------------------------------------------


def dir_derivative(p: LatticePoly, directions: Sequence[LatticePoly]) -> LatticePoly:
    """Derivative of p along component directions: sum over variables x=(i,k)
    of (dp/dx) * D**k(directions[i]).  By the Leibniz rule, each factor
    x^e of a term c*m contributes e*c * (m/x) * D**k(directions[i])."""
    acc: dict[LatticeMonomial, Scalar] = {}
    for m, c in p._terms.items():
        f = m.flat
        for k in range(0, len(f), 3):
            comp, shift, e = f[k : k + 3]
            rest = f[: k + 2] + (e - 1,) if e != 1 else f[:k]
            cofactor = LatticeMonomial._of(rest + f[k + 3 :])
            ce = c * e
            for dm, dc in directions[comp]._terms.items():
                accumulate(acc, cofactor * dm.shifted(shift), dc * ce)
    return LatticePoly._of(acc)


def total_time_derivative(p: LatticePoly, sys: "DdeSystem") -> LatticePoly:
    """Total t-derivative of p on solutions of the evolution system.

    Dt is a derivation that commutes with shifts, so Dt of a monomial m is
    Dt(canonical_rep(m)) shifted back by canonical_offset(m).  That
    derivative is computed once per representative and kept on the system
    (sys.dt_cache); Dt of a lone representative with coefficient 1 is the
    cached polynomial itself.
    """
    cache = sys.dt_cache
    acc: dict[LatticeMonomial, Scalar] = {}
    for m, c in p._terms.items():
        r = canonical_offset(m)
        rep = m.shifted(-r)
        d = cache.get(rep)
        if d is None:
            d = cache[rep] = dir_derivative(LatticePoly._of({rep: 1}), sys.rhs)
        if not r and len(p._terms) == 1 and c == 1:
            return d
        for dm, dc in d._terms.items():
            accumulate(acc, dm.shifted(r) if r else dm, dc * c)
    return LatticePoly._of(acc)


# -- shift-equivalence canonical forms ---------------------------------------


def canonical_offset(m: LatticeMonomial) -> int:
    """Offset r such that m == canonical_rep(m).shifted(r).

    The canonical representative places the lowest-indexed component present
    at zero shift (its minimal occurrence).
    """
    # the factors are sorted by (component, shift): the first one is it
    return m.flat[1] if m.flat else 0


def canonical_rep(m: LatticeMonomial) -> LatticeMonomial:
    """Unique shift-equivalence representative of m."""
    return m.shifted(-canonical_offset(m))


def shift_correction(a: int) -> list[tuple[int, int]]:
    """(sign, shift) pairs of the telescoping rule
    D^a = I + (D - I) sum sign*D^shift, hence also
    D^a (D-I)^-1 = (D-I)^-1 + sum sign*D^shift."""
    if a > 0:
        return [(1, j) for j in range(a)]
    return [(-1, j) for j in range(a, 0)]


def delta_decompose(p: LatticePoly) -> tuple[LatticePoly, LatticePoly]:
    """Split p = canonical + (D - I) J.

    Every monomial is replaced by its canonical representative; the
    telescoping corrections accumulate in J.  Constants stay in the
    canonical part (a nonzero constant is not a forward difference of any
    autonomous expression).  Linear in p.
    """
    canonical: dict[LatticeMonomial, Scalar] = {}
    j_terms: dict[LatticeMonomial, Scalar] = {}

    for m, c in p._terms.items():
        r = canonical_offset(m)
        rep = m.shifted(-r)
        accumulate(canonical, rep, c)
        for sign, j in shift_correction(r):
            accumulate(j_terms, rep.shifted(j), c if sign > 0 else -c)
    return LatticePoly._of(canonical), LatticePoly._of(j_terms)


# -- rendering ------------------------------------------------------------------


def render_monomial(m: LatticeMonomial, names: Sequence[str]) -> str:
    if m.is_constant:
        return "1"
    factors = []
    for c, s, e in m.triples():
        base = f"{names[c]}[{s}]"
        factors.append(base if e == 1 else f"{base}^{e}")
    return "*".join(factors)


def _coeff_prefix(c: Scalar) -> tuple[str, str]:
    """(sign, factor-string) for a coefficient; empty factor means 1."""
    terms = signed_terms(c)
    if len(terms) == 1:
        sign, body = terms[0]
        return sign, body if body != "1" else ""
    return "+", f"({join_signed(terms)})"


def render_poly(p: LatticePoly, names: Sequence[str]) -> str:
    """Deterministic plain-text form; parses back to exactly p."""
    if p.is_zero:
        return "0"
    pieces: list[tuple[str, str]] = []
    for m, c in p.items():
        sign, factor = _coeff_prefix(c)
        mono = render_monomial(m, names)
        if m.is_constant:
            body = factor if factor else "1"
        elif factor:
            body = f"{factor}*{mono}"
        else:
            body = mono
        pieces.append((sign, body))
    return join_signed(pieces)
