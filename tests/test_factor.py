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
c = ParamCoeff.param("c")


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
            # the coefficients in a have gaps, so the content passes zeros
            ((b**2 + 1) * (a**3 + b), ["b^2 + 1", "a^3 + b"]),
            # three parameters
            ((a * b + a * 5 - c * 4 - 1) * (a**2 * b - c**3 + 2),
             ["a*b + 5*a - 4*c - 1", "a^2*b - c^3 + 2"]),
        ],
        ids=[
            "content", "monomial", "linear", "kronecker", "kronecker-2", "a^4+b^4",
            "a^6-b^6", "content-gaps", "three-parameters",
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


# -- the linear-irreducibility certificate: irreducible without factoring ------

from unittest import mock  # noqa: E402

from lik import factor, linalg  # noqa: E402


def solver_factors(pc: ParamCoeff) -> list[ParamCoeff]:
    """factor.irreducible_factors called directly, its factors normalized,
    unit monomials dropped, in the solver's order."""
    out = [_normalize_factor(f) for f in irreducible_factors(pc)]
    out = [f for f in out if not f.is_unit_monomial()]
    return sorted(out, key=lambda f: (f.total_degree(), f.render()))


@st.composite
def linear_in_a_parameter(draw):
    """g*p + h with g a unit monomial free of p and h a polynomial free of p."""
    names = ("a", "b", "c")
    p = draw(st.sampled_from(names))
    rest = tuple(n for n in names if n != p)
    g = ParamCoeff.from_value(
        draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    )
    for n in rest:
        g = g * ParamCoeff.param(n) ** draw(st.integers(0, 2))
    return g * ParamCoeff.param(p) + draw(small_factor(rest, 3))


class TestLinearCertificate:
    @settings(max_examples=100, deadline=None)
    @given(linear_in_a_parameter())
    def test_irreducible_without_factoring(self, pc):
        expected = solver_factors(pc)
        refuse = AssertionError("factored a linear polynomial")
        with mock.patch.object(factor, "irreducible_factors", side_effect=refuse):
            linalg._factors_of_normalized.cache_clear()
            assert _factor_irreducible(pc) == expected == [_normalize_factor(pc)]

    def test_other_polynomials_reach_the_factorization(self):
        spy = mock.patch.object(
            factor, "irreducible_factors", wraps=factor.irreducible_factors
        )
        with spy as calls:
            linalg._factors_of_normalized.cache_clear()
            # linear in a and in b, but with the coefficient b - 1, a + 1
            got = _factor_irreducible(a * b + b - a - 1)
            assert [f.render() for f in got] == ["a + 1", "b - 1"]
            got = _factor_irreducible(b**2 * 2 - b * 3 + 1)
            assert [f.render() for f in got] == ["2*b - 1", "b - 1"]
            assert calls.call_count == 2


# -- the packed field registry: results do not depend on its order -------------

import subprocess  # noqa: E402
import sys  # noqa: E402

# names registered in the given order in a fresh process, then factored:
# Kronecker substitution, a content split in two parameters, three parameters
_REGISTRY_SCRIPT = """
import sys
from lik.params import ParamCoeff, _SHIFT
from lik.factor import irreducible_factors
for name in sys.argv[1:]:
    ParamCoeff.param(name)
assert list(_SHIFT) == sys.argv[1:], _SHIFT
a, b, c = (ParamCoeff.param(n) for n in "abc")
for pc in (
    a**4 - b**4, a * b**2 - a * b - b + 1,
    (a * b + a * 5 - c * 4 - 1) * (a**2 * b - c**3 + 2),
):
    print(" | ".join(f.render() for f in irreducible_factors(pc)))
"""


def test_factors_do_not_depend_on_the_field_order():
    def run(*names):
        done = subprocess.run(
            [sys.executable, "-c", _REGISTRY_SCRIPT, *names],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.splitlines()

    name_order = run("a", "b", "c")
    assert run("c", "b", "a") == name_order
    assert [sorted(line.split(" | ")) for line in name_order] == [
        ["a + b", "a - b", "a^2 + b^2"],
        ["a*b - 1", "b - 1"],
        ["a*b + 5*a - 4*c - 1", "a^2*b - c^3 + 2"],
    ]
