from fractions import Fraction

import pytest
from hypothesis import settings

from lik.expr import LatticeMonomial, LatticePoly
from lik.params import ParamCoeff
from lik.parser import parse_expression, parse_system
from lik.scaling import compute_weights

settings.register_profile("lik", deadline=None, derandomize=True, database=None)
settings.load_profile("lik")

TODA = """\
u' = v[-1] - v[0]
v' = v[0]*(u[0] - u[1])
"""

PARAM_TODA = """\
params: a, b
u' = a*v[-1] - v[0]
v' = v[0]*(b*u[0] - u[1])
"""

BROKEN_TODA = """\
u' = 2*v[-1] - v[0]
v' = v[0]*(u[0] - u[1])
"""

VOLTERRA = "u' = u[0]*(u[1] - u[-1])\n"

UV = ("u", "v")


@pytest.fixture(scope="session")
def toda():
    return parse_system(TODA)


@pytest.fixture(scope="session")
def toda_w(toda):
    return compute_weights(toda)


@pytest.fixture(scope="session")
def param_toda():
    return parse_system(PARAM_TODA)


@pytest.fixture(scope="session")
def broken_toda():
    return parse_system(BROKEN_TODA)


@pytest.fixture(scope="session")
def volterra():
    return parse_system(VOLTERRA)


def P(text: str, params=()) -> LatticePoly:
    """Parse an expression over components u, v (test shorthand)."""
    return parse_expression(text, UV, params)


def M(text: str) -> LatticeMonomial:
    """Single monomial over u, v."""
    p = P(text)
    ((m, c),) = p.items()
    assert c == ParamCoeff.one()
    return m


# -- derivative oracles -------------------------------------------------------


def variables(p: LatticePoly) -> list[tuple[int, int]]:
    """The (component, shift) pairs of the variables of p, sorted."""
    return sorted({(c, s) for m in p.monomials() for c, s, _ in m.triples()})


def partial(p: LatticePoly, comp: int, shift: int) -> LatticePoly:
    """The partial derivative of p by the variable x = comp[shift], with the
    Laurent power rule: each term c * x^e * rest gives e*c * x^(e-1) * rest."""
    out = LatticePoly.zero()
    for m, c in p.terms():
        factors = {(i, k): e for i, k, e in m.triples()}
        e = factors.pop((comp, shift), 0)
        if e:
            factors[comp, shift] = e - 1
            rest = LatticeMonomial(factors.items())
            out = out + LatticePoly.from_monomial(rest, c * e)
    return out


def dir_derivative_oracle(p: LatticePoly, directions) -> LatticePoly:
    """The derivative of p along component directions by its definition:
    the sum over the variables x = (i, k) of p of (dp/dx) * D**k(directions[i])."""
    out = LatticePoly.zero()
    for comp, shift in variables(p):
        out = out + partial(p, comp, shift) * directions[comp].shifted(shift)
    return out


# Frechet epsilon oracle


def compose(p: LatticePoly, mapping) -> LatticePoly:
    """Substitute whole polynomials for variables (missing variables map to
    themselves)."""
    out = LatticePoly.zero()
    for m, c in p.terms():
        piece = LatticePoly.const(c)
        for comp, shift, e in m.triples():
            if (comp, shift) in mapping:
                piece = piece * mapping[comp, shift] ** e
            else:
                piece = piece * LatticePoly.var(comp, shift, e)
        out = out + piece
    return out


def param_coefficient(p: LatticePoly, name: str, power: int) -> LatticePoly:
    """The coefficient of name**power across every term of p."""
    return LatticePoly({m: c.coeff_of(name, power) for m, c in p.terms()})


def substitute_params(p: LatticePoly, assignment) -> LatticePoly:
    return LatticePoly({m: c.substitute(assignment) for m, c in p.terms()})


# -- hypothesis strategies ---------------------------------------------------

import hypothesis.strategies as st  # noqa: E402


def shifted_variables(n_comp=2, max_shift=3):
    """(component, shift) pairs."""
    return st.tuples(
        st.integers(0, n_comp - 1),
        st.integers(-max_shift, max_shift),
    )


def monomials(n_comp=2, max_shift=3, max_exp=3, laurent=True, max_vars=3):
    lo = -max_exp if laurent else 1
    exps = st.integers(lo, max_exp).filter(bool)
    return st.lists(
        st.tuples(shifted_variables(n_comp, max_shift), exps),
        min_size=0,
        max_size=max_vars,
    ).map(LatticeMonomial)


# parameter polynomials in a, b, to multiply test polynomials by
PARAM_COEFFS = st.sampled_from(["1", "a", "-2*b", "a*b - 1", "(1/3)*a^2"])


def rationals():
    return st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
    ).filter(bool)


def polys(
    n_comp=2,
    max_shift=3,
    max_exp=3,
    laurent=True,
    max_terms=4,
    min_terms=0,
    max_vars=3,
):
    def build(pairs):
        acc = LatticePoly.zero()
        for m, c in pairs:
            acc = acc + LatticePoly.from_monomial(m, c)
        return acc

    return st.lists(
        st.tuples(
            monomials(n_comp, max_shift, max_exp, laurent, max_vars), rationals()
        ),
        min_size=min_terms,
        max_size=max_terms,
    ).map(build)


def nonzero_polys(**kw):
    return polys(min_terms=1, **kw).filter(lambda p: not p.is_zero)
