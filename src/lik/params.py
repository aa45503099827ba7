"""Exact coefficient ring: multivariate polynomials in declared scalar
parameters with exact rational coefficients (int, or Fraction when not
integral).

With no parameters declared a coefficient degenerates to a plain rational.
No floating point anywhere.

A parameter monomial is one int, the exponent of each parameter in its
own 32-bit field (packed exponent vectors; Monagan and Pearce, CASC 2007),
fields numbered by a process-wide registry in order of first use: a
product of monomials is a sum of ints, one exponent a shift and a mask.
The top bit of each field is a guard, so an exponent is at most 2**31 - 1:
the constructor checks each exponent and a product each new term (one
bitwise and), raising ExponentOverflow past it.  Only the API boundary
decodes (items, leading, parameters, rendering), to ((name, exponent),
...) pairs sorted by name and cached per monomial, so no result depends on
the order of the fields.  Exact division in Z[params] (divexact), and with
it the parametric solver's pivot test (divides_into_unit) and lik.factor,
works on packed keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Union

# A parameter monomial at the API: ((name, exponent), ...) sorted by name,
# exponents > 0.
PMono = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction, "ParamCoeff"]

_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1
_ONE_PM = 0  # the packed constant monomial

# the registry, parameter name -> bit offset of its field, in field order;
# the guard bits of its fields; packed monomial -> (order key, pairs)
_SHIFT: dict[str, int] = {}
_GUARD = 0
_DECODED: dict[int, tuple[tuple, PMono]] = {}

# the shared small constants of ParamCoeff._of (hash-consing of immutable
# values): value -> its one instance
_SMALL: dict[int, "ParamCoeff"] = {}


class ExponentOverflow(ValueError):
    """A parameter exponent that a packed field cannot hold."""

    def __init__(self):
        super().__init__(f"parameter exponent outside 0..{MAX_EXPONENT}")


def _shift(name: str) -> int:
    """The bit offset of name's field, registering the name on first use."""
    global _GUARD
    if name not in _SHIFT:
        _SHIFT[name] = len(_SHIFT) * _WIDTH
        _GUARD |= 1 << (_SHIFT[name] + _WIDTH - 1)
    return _SHIFT[name]


def _pack(m: PMono) -> int:
    key = 0
    for name, e in m:
        if not 0 <= e <= MAX_EXPONENT:
            raise ExponentOverflow()
        key += e << _shift(name)
    return key


def _decoded(m: int) -> tuple[tuple, PMono]:
    """(order key, pairs by name) of a packed monomial.  The order is total
    degree descending, then lexicographic by (name, exponent descending):
    graded lex in name order, a monomial order, so dividing every term by
    one monomial keeps it."""
    out = _DECODED.get(m)
    if out is None:
        fields = ((n, (m >> s) & _MASK) for n, s in _SHIFT.items())
        pm = tuple(sorted((n, e) for n, e in fields if e))
        key = (-sum(e for _, e in pm), tuple((n, -e) for n, e in pm))
        out = _DECODED[m] = (key, pm)
    return out


def _order(m: int) -> tuple:
    return _decoded(m)[0]


def _common_monomial(keys: Collection[int]) -> int:
    """The packed gcd of packed monomials: each field's least exponent."""
    if _ONE_PM in keys:
        return _ONE_PM
    return sum(min((m >> s) & _MASK for m in keys) << s for s in _SHIFT.values())


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
    Fraction.  Accessors that callers divide with (as_fraction, leading)
    return Fractions.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PMono, Union[int, Fraction]]):
        self._terms = {_pack(m): _exact(c) for m, c in terms.items() if c != 0}

    @classmethod
    def _of(cls, terms: dict[int, Union[int, Fraction]]) -> "ParamCoeff":
        """Wrap packed terms that already hold only nonzero exact values.  A
        constant integer in [-64, 64] other than 0 is one shared instance,
        made on first use (_SMALL), so no method may change the terms it
        wraps."""
        if len(terms) == 1:
            v = terms.get(_ONE_PM)
            if type(v) is int and -64 <= v <= 64:
                shared = _SMALL.get(v)
                if shared is None:
                    shared = _SMALL[v] = cls({(): v})
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
        return cls._of({1 << _shift(name): 1})

    @staticmethod
    def coerce(value: Scalar) -> "ParamCoeff":
        if isinstance(value, ParamCoeff):
            return value
        return ParamCoeff.from_value(value)

    # -- inspection ----------------------------------------------------

    def items(self) -> list[tuple[PMono, Union[int, Fraction]]]:
        return [
            (_decoded(m)[1], c)
            for m, c in sorted(self._terms.items(), key=lambda t: _order(t[0]))
        ]

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
        return {n for m in self._terms for n, _ in _decoded(m)[1]}

    def degree_in(self, name: str) -> int:
        shift = _shift(name)
        return max(((m >> shift) & _MASK for m in self._terms), default=0)

    def total_degree(self) -> int:
        return -min((_order(m)[0] for m in self._terms), default=0)

    def is_unit_monomial(self) -> bool:
        """Single term c * prod(params): invertible once parameters are
        assumed nonzero."""
        return len(self._terms) == 1

    def leading(self) -> tuple[PMono, Fraction]:
        if not self._terms:
            return (), Fraction(0)
        m = min(self._terms, key=_order)
        return _decoded(m)[1], Fraction(self._terms[m])

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
        acc: dict[int, Union[int, Fraction]] = {}
        guard = _GUARD
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                v = ca * cb
                if m in acc:
                    v += acc[m]
                    if not v:
                        del acc[m]
                        continue
                elif m & guard:
                    raise ExponentOverflow()
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
        shift = _shift(name)
        field = power << shift
        return ParamCoeff._of({
            m - field: c
            for m, c in self._terms.items()
            if (m >> shift) & _MASK == power
        })

    def derivative(self, name: str) -> "ParamCoeff":
        """The partial derivative in name."""
        shift = _shift(name)
        one = 1 << shift
        return ParamCoeff._of({
            m - one: _exact(c * k)
            for m, c in self._terms.items()
            if (k := (m >> shift) & _MASK)
        })

    def substitute_cleared(
        self, name: str, num: "ParamCoeff", den: "ParamCoeff", clear_to: int
    ) -> "ParamCoeff":
        """Substitute name := num/den and multiply by den**clear_to so the
        result stays polynomial; clear_to must be >= degree_in(name).  The
        terms are grouped by their power k of name, so num**k * den**(d-k)
        is formed once per k."""
        shift = _shift(name)
        by_power: dict[int, dict[int, Union[int, Fraction]]] = {}
        for m, c in self._terms.items():
            k = (m >> shift) & _MASK
            by_power.setdefault(k, {})[m - (k << shift)] = c
        out = ParamCoeff.zero()
        for k, rest in by_power.items():
            out = out + ParamCoeff._of(rest) * num**k * den ** (clear_to - k)
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


def primitive_row(
    coeffs: list[ParamCoeff], first: ParamCoeff
) -> list[ParamCoeff] | None:
    """coeffs divided by their rational content and common parameter
    monomial, and negated when first leads with a negative value; None when
    that divisor is 1.  Every value comes out an int, as the content is the
    gcd of the numerators over the lcm of the denominators."""
    num, den, keys = 0, 1, []
    for c in coeffs:
        keys.extend(c._terms)
        for v in c._terms.values():
            if type(v) is int:
                num = gcd(num, v)
            else:
                num = gcd(num, v.numerator)
                den = lcm(den, v.denominator)
    mono = _common_monomial(keys)
    lead = first._terms
    if lead and lead[min(lead, key=_order)] < 0:
        num = -num
    if num == 1 and den == 1 and not mono:
        return None
    return [
        ParamCoeff._of({
            m - mono: (
                v * den if type(v) is int else v.numerator * (den // v.denominator)
            ) // num
            for m, v in c._terms.items()
        })
        for c in coeffs
    ]


def divides_into_unit(pc: ParamCoeff, factors: Iterable[ParamCoeff]) -> bool:
    """Whether pc is +-1 times a product of powers of the given primitive
    polynomials, all with int values as normalized rows have, by repeated
    exact division in Z[params] (Gauss's lemma: no factorization needed)."""
    f = pc._terms
    for g in factors:
        while (q := _divexact(f, g._terms)) is not None:
            f = q
    return list(f) == [_ONE_PM]


def divexact(f: ParamCoeff, g: ParamCoeff) -> ParamCoeff | None:
    """f / g if g divides f in Z[params], else None; f and g have int
    values."""
    q = _divexact(f._terms, g._terms)
    return None if q is None else ParamCoeff._of(q)


def _divexact(f: dict, g: dict) -> dict | None:
    """f / g on packed terms if g divides f in Z[params], else None, by
    division by g's leading term under _order.  A difference of packed keys
    is a monomial when it is >= 0 and no field borrowed into its guard."""
    lead = min(g, key=_order)
    lc = g[lead]
    r, q = dict(f), {}
    while r:
        m = min(r, key=_order)
        d = m - lead
        if d < 0 or d & _GUARD or r[m] % lc:
            return None
        c = q[d] = r[m] // lc
        for e, x in g.items():
            e += d
            v = r.get(e, 0) - c * x
            if v:
                r[e] = v
            else:
                del r[e]
    return q


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

