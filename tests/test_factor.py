"""Exact factorization over Z (factor.irreducible_factors, as the
parametric solver sees it through linalg._factor_irreducible), checked
against sympy's factor_list as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lik.linalg import _factor_irreducible, _normalize_factor
from lik.factor import irreducible_factors
from lik.params import ParamCoeff

a = ParamCoeff.param("a")
b = ParamCoeff.param("b")


def sympy_factor_set(pc: ParamCoeff) -> set[str]:
    """sympy's irreducible factors of pc, normalized as the solver does;
    rational content and parameter monomials dropped."""
    names = sorted(pc.parameters())
    syms = [sympy.Symbol(n) for n in names]
    expr = sympy.Integer(0)
    for m, c in pc.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for n, e in m:
            term *= syms[names.index(n)] ** e
        expr += term
    _, factors = sympy.factor_list(expr, *syms)
    out = set()
    for base, _ in factors:
        terms = {}
        for exps, coeff in sympy.Poly(base, *syms).terms():
            mono = tuple((n, int(e)) for n, e in zip(names, exps) if e)
            terms[mono] = Fraction(int(coeff.p), int(coeff.q))
        f = _normalize_factor(ParamCoeff(terms))
        if not (f.is_rational or f.is_unit_monomial()):
            out.add(f.render())
    return out


def factor_set(pc: ParamCoeff) -> set[str]:
    return {f.render() for f in _factor_irreducible(pc)}


def small_factor(names: tuple[str, ...], max_degree: int):
    """A nonzero polynomial with a few terms and small integer coefficients."""
    exponents = st.tuples(*[st.integers(0, max_degree)] * len(names)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(
        exponents, st.integers(-4, 4).filter(bool), min_size=1, max_size=4
    ).map(
        lambda terms: ParamCoeff(
            {
                tuple((n, k) for n, k in zip(names, e) if k): Fraction(c)
                for e, c in terms.items()
            }
        )
    )


@st.composite
def products(draw, names: tuple[str, ...], max_degree: int):
    """Products of random factors, some repeated, times rational content
    and a parameter monomial."""
    pc = ParamCoeff.from_value(
        Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    )
    for _ in range(draw(st.integers(1, 3))):
        pc = pc * draw(small_factor(names, max_degree)) ** draw(st.sampled_from([1, 1, 2]))
    for n in names:
        pc = pc * ParamCoeff.param(n) ** draw(st.integers(0, 2))
    return pc


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(products(("a",), 4))
    def test_one_parameter(self, pc):
        assert factor_set(pc) == sympy_factor_set(pc)

    @settings(max_examples=100, deadline=None)
    @given(products(("a", "b"), 2))
    def test_two_parameters(self, pc):
        assert factor_set(pc) == sympy_factor_set(pc)


class TestPinned:
    @pytest.mark.parametrize(
        "pc, expected",
        [
            (a**8 - 1, ["a + 1", "a - 1", "a^2 + 1", "a^4 + 1"]),
            (a**6 - 1, ["a + 1", "a - 1", "a^2 + a + 1", "a^2 - a + 1"]),
            # irreducible over Z, reducible modulo every prime
            (a**4 + 1, ["a^4 + 1"]),
            # irreducible, splits into factors of degree <= 2 modulo every prime
            (a**8 - a**6 * 40 + a**4 * 352 - a**2 * 960 + 576,
             ["a^8 - 40*a^6 + 352*a^4 - 960*a^2 + 576"]),
            (a**9 * 11 - a**8 * 3 - a**7 * 8 + a * 4 - 4,
             ["a - 1", "11*a^8 + 8*a^7 + 4"]),
            ((a * 3 - 1) ** 3 * (a + 2) * Fraction(5, 7),
             ["3*a - 1", "a + 2"]),
        ],
        ids=["a^8-1", "a^6-1", "a^4+1", "swinnerton-dyer", "degree-9", "repeated"],
    )
    def test_one_parameter(self, pc, expected):
        assert [f.render() for f in _factor_irreducible(pc)] == expected

    @pytest.mark.parametrize(
        "pc, expected",
        [
            # found by splitting off the content in a
            (a * b**2 - a * b - b + 1, ["b - 1", "a*b - 1"]),
            (a**2 * b**6 - a * b, ["a*b^5 - 1"]),
            # linear in a, primitive: irreducible
            (a**2 * b**3 - a + b * 2 - 2, ["a^2*b^3 - a + 2*b - 2"]),
            # primitive in both, of degree 2 in each: Kronecker substitution
            ((a + b) * (a - b + 1), ["a + b", "a - b + 1"]),
            ((a**2 + b) * (b**2 + a), ["a^2 + b", "b^2 + a"]),
            (a**4 + b**4, ["a^4 + b^4"]),
            # 15 image factors; three subsets accepted, so the pieces shrink twice
            (a**6 - b**6,
             ["a + b", "a - b", "a^2 + a*b + b^2", "a^2 - a*b + b^2"]),
        ],
        ids=[
            "content", "monomial", "linear", "kronecker", "kronecker-2", "a^4+b^4",
            "a^6-b^6",
        ],
    )
    def test_two_parameters(self, pc, expected):
        assert [f.render() for f in _factor_irreducible(pc)] == expected
        assert factor_set(pc) == sympy_factor_set(pc)

    def test_constants_and_monomials_have_no_factor(self):
        assert _factor_irreducible(ParamCoeff.from_value(Fraction(3, 4))) == []
        assert _factor_irreducible(a**3 * b * 2) == []
        assert irreducible_factors(ParamCoeff.zero()) == []

    def test_memoized_on_the_normalized_polynomial(self):
        first = _factor_irreducible((a**2 - 1) * b)
        second = _factor_irreducible((a**2 - 1).scale(-3))
        assert [f.render() for f in first] == ["a + 1", "a - 1"]
        assert first == second and first is not second
