"""Exact coefficient ring: multivariate polynomials in declared scalar
parameters with exact rational coefficients (int, or Fraction when not
integral).

With no parameters declared a coefficient degenerates to a plain rational.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

# A parameter monomial: ((name, exponent), ...) sorted by name, exponents > 0.
PMono = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction, "ParamCoeff"]

_ONE_PM: PMono = ()

# the shared small constants of ParamCoeff._of (hash-consing of immutable
# values): value -> its one instance
_SMALL: dict[int, "ParamCoeff"] = {}


def _pmono_mul(a: PMono, b: PMono) -> PMono:
    if not a:
        return b
    if not b:
        return a
    acc: dict[str, int] = dict(a)
    for name, e in b:
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in acc.items() if e != 0))


def _pmono_degree(m: PMono) -> int:
    return sum(e for _, e in m)


def _pmono_key(m: PMono):
    # total degree descending, then lexicographic by (name, exponent desc)
    return (-_pmono_degree(m), tuple((n, -e) for n, e in m))


def _combined(a: dict, b: dict, sign: int) -> dict:
    """The terms of a + sign*b, zeros dropped and integral values as ints."""
    acc = dict(a)
    for m, c in b.items():
        if m in acc:
            v = acc[m] + c if sign > 0 else acc[m] - c
            if not v:
                del acc[m]
                continue
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            acc[m] = v
        else:
            acc[m] = c if sign > 0 else -c
    return acc


def _exact(value: Union[int, Fraction]) -> Union[int, Fraction]:
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)  # bool, or another exact rational type
    return value.numerator if value.denominator == 1 else value


class ParamCoeff:
    """Polynomial in parameter symbols over exact rationals.

    Each value is stored as an int when it is integral and as a Fraction
    only otherwise, so products of integer coefficients never build a
    Fraction.  Accessors that callers divide with (as_fraction, leading,
    content) return Fractions.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PMono, Union[int, Fraction]]):
        self._terms = {m: _exact(c) for m, c in terms.items() if c != 0}

    @classmethod
    def _of(cls, terms: dict[PMono, Union[int, Fraction]]) -> "ParamCoeff":
        """Wrap terms that already hold only nonzero exact values.  A
        constant integer in [-64, 64] other than 0 is one shared instance,
        made on first use (_SMALL), so no method may change the terms it
        wraps."""
        if len(terms) == 1:
            v = terms.get(_ONE_PM)
            if type(v) is int and -64 <= v <= 64:
                shared = _SMALL.get(v)
                if shared is None:
                    shared = _SMALL[v] = cls(terms)
                return shared
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamCoeff":
        return cls._of({})

    @classmethod
    def one(cls) -> "ParamCoeff":
        return cls._of({_ONE_PM: 1})

    @classmethod
    def from_value(cls, value: Union[int, Fraction]) -> "ParamCoeff":
        v = _exact(value)
        return cls._of({_ONE_PM: v} if v else {})

    @classmethod
    def param(cls, name: str) -> "ParamCoeff":
        return cls._of({((name, 1),): 1})

    @staticmethod
    def coerce(value: Scalar) -> "ParamCoeff":
        if isinstance(value, ParamCoeff):
            return value
        return ParamCoeff.from_value(value)

    # -- inspection ----------------------------------------------------

    def items(self) -> list[tuple[PMono, Union[int, Fraction]]]:
        return sorted(self._terms.items(), key=lambda t: _pmono_key(t[0]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and _ONE_PM in t)

    def as_fraction(self) -> Fraction:
        return Fraction(self.value())

    def value(self) -> Union[int, Fraction]:
        """A rational constant as stored, the inverse of from_value."""
        if not self.is_rational:
            raise ValueError(f"not a rational constant: {self.render()}")
        return self._terms.get(_ONE_PM, 0)

    def parameters(self) -> set[str]:
        return {n for m in self._terms for n, _ in m}

    def degree_in(self, name: str) -> int:
        deg = 0
        for m in self._terms:
            for n, e in m:
                if n == name:
                    deg = max(deg, e)
        return deg

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_pmono_degree(m) for m in self._terms)

    def is_unit_monomial(self) -> bool:
        """Single term c * prod(params): invertible once parameters are
        assumed nonzero."""
        return len(self._terms) == 1

    def leading(self) -> tuple[PMono, Fraction]:
        if not self._terms:
            return _ONE_PM, Fraction(0)
        m = min(self._terms, key=_pmono_key)
        return m, Fraction(self._terms[m])

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients), 0 for the zero
        polynomial."""
        num, den = 0, 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def monomial_content(self) -> PMono:
        """Common parameter-monomial factor of every term."""
        common: dict[str, int] | None = None
        for m in self._terms:
            md = dict(m)
            if common is None:
                common = md
            else:
                common = {
                    n: min(e, md.get(n, 0)) for n, e in common.items() if n in md
                }
            if not common:
                return _ONE_PM
        if not common:
            return _ONE_PM
        return tuple(sorted((n, e) for n, e in common.items() if e > 0))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "ParamCoeff":
        if type(other) is not ParamCoeff:
            other = ParamCoeff.coerce(other)
        return ParamCoeff._of(_combined(self._terms, other._terms, 1))

    __radd__ = __add__

    def __neg__(self) -> "ParamCoeff":
        return ParamCoeff._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "ParamCoeff":
        if type(other) is not ParamCoeff:
            other = ParamCoeff.coerce(other)
        return ParamCoeff._of(_combined(self._terms, other._terms, -1))

    def __rsub__(self, other: Scalar) -> "ParamCoeff":
        return ParamCoeff.coerce(other) - self

    def __mul__(self, other: Scalar) -> "ParamCoeff":
        if type(other) is not ParamCoeff:
            return self.scale(other)
        a, b = self._terms, other._terms
        # a constant factor only scales: no monomial products
        if len(b) == 1 and _ONE_PM in b:
            if len(a) == 1 and _ONE_PM in a:
                return ParamCoeff._of({_ONE_PM: _exact(a[_ONE_PM] * b[_ONE_PM])})
            return self.scale(b[_ONE_PM])
        if len(a) == 1 and _ONE_PM in a:
            return other.scale(a[_ONE_PM])
        acc: dict[PMono, Union[int, Fraction]] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _pmono_mul(ma, mb)
                v = ca * cb
                if m in acc:
                    v += acc[m]
                    if not v:
                        del acc[m]
                        continue
                if type(v) is Fraction and v.denominator == 1:
                    v = v.numerator
                acc[m] = v
        return ParamCoeff._of(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ParamCoeff":
        if k < 0:
            raise ValueError("negative powers of parameter polynomials")
        out = ParamCoeff.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, value: Union[int, Fraction]) -> "ParamCoeff":
        k = _exact(value)
        if k == 1:
            return self
        if not k:
            return ParamCoeff._of({})
        terms = {}
        for m, c in self._terms.items():
            v = c * k
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            terms[m] = v
        return ParamCoeff._of(terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamCoeff.from_value(other)
        if not isinstance(other, ParamCoeff):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- structure -----------------------------------------------------

    def coeff_of(self, name: str, power: int) -> "ParamCoeff":
        """Coefficient of name**power, as a polynomial in the remaining
        parameters."""
        acc: dict[PMono, Union[int, Fraction]] = {}
        for m, c in self._terms.items():
            d = dict(m)
            if d.pop(name, 0) != power:
                continue
            rest = tuple(sorted(d.items()))
            acc[rest] = acc.get(rest, 0) + c
        return ParamCoeff(acc)

    def substitute(self, assignment: Mapping[str, "ParamCoeff"]) -> "ParamCoeff":
        out = ParamCoeff.zero()
        for m, c in self._terms.items():
            piece = ParamCoeff._of({_ONE_PM: c})
            for n, e in m:
                if n in assignment:
                    piece = piece * assignment[n] ** e
                else:
                    piece = piece * ParamCoeff._of({((n, e),): 1})
            out = out + piece
        return out

    def substitute_cleared(
        self, name: str, num: "ParamCoeff", den: "ParamCoeff", clear_to: int
    ) -> "ParamCoeff":
        """Substitute name := num/den and multiply by den**clear_to so the
        result stays polynomial; clear_to must be >= degree_in(name)."""
        out = ParamCoeff.zero()
        for m, c in self._terms.items():
            d = dict(m)
            k = d.pop(name, 0)
            rest = ParamCoeff._of({tuple(sorted(d.items())): c})
            out = out + rest * num**k * den ** (clear_to - k)
        return out

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        return join_signed(self.signed_terms()) if self._terms else "0"

    def signed_terms(self) -> list[tuple[str, str]]:
        """(sign, magnitude) of each term in order, for join_signed."""
        out = []
        for m, c in self.items():
            factors = [f"{n}^{e}" if e > 1 else n for n, e in m]
            mag = abs(c)
            if not factors:
                body = _render_fraction(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_render_fraction(mag)] + factors)
            out.append(("+" if c > 0 else "-", body))
        return out

    def __repr__(self) -> str:
        return f"ParamCoeff({self.render()})"


def join_signed(terms: Iterable[tuple[str, str]]) -> str:
    """'a - b + c' from (sign, body) pairs with sign '+' or '-': only a
    negative first term carries its sign, later ones are joined by ' + '
    or ' - '."""
    parts: list[str] = []
    for sign, body in terms:
        if parts:
            parts.append(f"{sign} {body}")
        else:
            parts.append(body if sign == "+" else "-" + body)
    return " ".join(parts)


def _render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})"

