import pytest
import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from conftest import M, P, UV, nonzero_polys, polys
from lik.expr import LatticeMonomial, LatticePoly
from lik.operators import (
    DiffOperator,
    ExtendedExpr,
    OpEntry,
    render_entry,
)
from lik.parser import parse_operator_entry


def E(text: str) -> OpEntry:
    return parse_operator_entry(text, UV)


class TestNormalForm:
    def test_shift_through_cofactor(self):
        got = E("u[0]*I").compose(E("D")).compose(E("v[-1]*I"))
        assert got == E("(u[0]*v[0])*D")

    def test_shift_merge(self):
        assert E("D").compose(E("D^-1")) == E("I")

    def test_d_compose_inverse_difference(self):
        # D o (D-I)^-1 = I + (D-I)^-1
        assert E("D").compose(E("S")) == E("I + S")

    def test_down_shift_compose_inverse_difference(self):
        # D^-1 o (D-I)^-1 = (D-I)^-1 - D^-1
        assert E("D^-1").compose(E("S")) == E("S - D^-1")

    def test_mixed_term_expansion(self):
        got = E("v[0]*I + v[0]*D").compose(E("D^-1 + I"))
        assert got == E("v[0]*D^-1 + 2*v[0]*I + v[0]*D")

    def test_constant_right_cofactor_folds(self):
        # (D-I)^-1 followed by a constant commutes out
        assert E("S*3").compose(E("D")) == E("3*S + 3*I")

    def test_inverse_difference_annihilates_difference(self):
        assert E("S").compose(E("D - I")) == E("I")

    def test_trailing_shift_folds_into_normal_form(self):
        # S*u[-2]*D^-2 = S*u[0] - u[-2]*D^-2 - u[-1]*D^-1
        assert E("S*u[-2]*D^-2") == E("S*u[0] - u[-2]*D^-2 - u[-1]*D^-1")

    def test_compose_associative_with_trailing_shift(self):
        a, b, c = E("-D^-1 + S"), E("D^-2"), E("u[0]*I")
        lhs = a.compose(b).compose(c)
        assert lhs == a.compose(b.compose(c))
        assert lhs == E("-u[-3]*D^-3 - u[-2]*D^-2 - u[-1]*D^-1 + S*u[0]")

    def test_right_cofactor_splits_into_monomials(self):
        # (D-I)^-1 is linear, so a sum on its right is a sum of sandwiches
        assert E("S*(u[0] + 1)") == E("S*u[0] + S")
        assert E("v[0]*S*(2*u[0] - u[1])") == E("2*v[0]*S*u[0] - v[0]*S*u[1]")

    def test_nonlocal_times_nonlocal_rejected(self):
        with pytest.raises(ValueError):
            E("u[0]*S*v[0]").compose(E("S"))


class TestApply:
    def test_identity(self, toda):
        one, zero = OpEntry.identity(), OpEntry.zero()
        op = DiffOperator([[one, zero], [zero, one]])
        g = [P("u[0]^2"), P("v[0]*u[1]")]
        out = op.apply(g)
        assert [x.local for x in out] == g

    def test_local_shift(self):
        (got,) = [E("u[0]*D").apply(P("v[0]"))]
        assert got.local == P("u[0]*v[1]")

    def test_nonlocal_resolving(self):
        got = E("v[0]*S").apply(P("u[1] - u[0]"))
        assert got.is_local
        assert got.local == P("v[0]*u[0]")

    def test_nonlocal_formal_term(self):
        got = E("S").apply(P("u[0]"))
        assert not got.is_local
        ((arg, cof),) = got.thetas.items()
        assert arg == M("u[0]") and cof == P("1")

    def test_theta_scale_merging(self):
        a = E("v[0]*S*(2*u[0]*I)").apply(P("u[0]"))
        b = E("v[0]*S*u[0]*I").apply(P("u[0]")).scale(2)
        assert a == b

    def test_shift_rewrite_of_theta(self):
        # D Theta(p) = Theta(p) + p
        x = ExtendedExpr(LatticePoly.zero(), {M("u[0]^2"): P("1")})
        y = x.shifted(1)
        assert y.thetas == x.thetas
        assert y.local == P("u[0]^2")
        # D^-1 Theta(p) = Theta(p) - D^-1 p
        z = x.shifted(-1)
        assert z.local == -P("u[-1]^2")


class TestFrechet:
    def test_cofactor_derivative(self, toda):
        got = E("u[0]*I").frechet(toda.rhs)
        assert got == E("(v[-1] - v[0])*I")

    def test_constant_entry_vanishes(self, toda):
        assert E("D^-1").frechet(toda.rhs).is_zero

    def test_nonlocal_both_sides(self, toda):
        got = E("v[0]*S*(1/v[0])").frechet(toda.rhs)
        # d(v)/dt = v*(u - u[1]); d(1/v)/dt = -(u - u[1])/v
        expected = E(
            "(u[0]*v[0] - u[1]*v[0])*S*(1/v[0])"
            " + v[0]*S*((u[1] - u[0])/v[0])"
        )
        assert got == expected


def raw_terms():
    """Local terms (cof, power) and nonlocal terms (left, right, power),
    the latter standing for left * (D-I)^-1 * right * D^power."""
    locals_ = st.lists(
        st.tuples(polys(max_terms=2, max_exp=2, laurent=False), st.integers(-2, 2)),
        min_size=0,
        max_size=2,
    )
    nonlocals_ = st.lists(
        st.tuples(
            nonzero_polys(max_terms=2, max_exp=2, laurent=False),
            nonzero_polys(max_terms=1, max_exp=2),
            st.integers(-1, 1),
        ),
        min_size=0,
        max_size=1,
    )

    return st.tuples(locals_, nonlocals_)


def from_terms(loc, nl, reverse=False) -> OpEntry:
    """The sum of the raw terms, added in the given order or reversed."""
    terms = [OpEntry.local(c, a) for c, a in loc] + [
        OpEntry.sandwich(b, c).compose(OpEntry.shift(p)) for b, c, p in nl
    ]
    out = OpEntry.zero()
    for t in reversed(terms) if reverse else terms:
        out = out + t
    return out


def entries():
    return raw_terms().map(lambda terms: from_terms(*terms))


def _has_constant_theta_arg(x: ExtendedExpr) -> bool:
    return LatticeMonomial.constant() in x.thetas


class TestCompositionSoundness:
    @settings(max_examples=250)
    @given(a=entries(), b=entries(), g=polys(max_terms=3, laurent=False))
    def test_compose_agrees_with_nested_apply(self, a, b, g):
        # formal terms with a constant argument are defined only up to the
        # kernel of the forward difference and are excluded here
        try:
            ab = a.compose(b)
            mid = b.apply(g)
            nested = a.apply(mid)
        except ValueError:
            assume(False)
            return
        got = ab.apply(g)
        assume(
            not (
                _has_constant_theta_arg(got)
                or _has_constant_theta_arg(mid)
                or _has_constant_theta_arg(nested)
            )
        )
        assert got == nested

    @settings(max_examples=100)
    @given(a=entries(), b=entries(), c=entries())
    @example(a=E("-D^-1 + S"), b=E("D^-2"), c=E("u[0]*I"))
    @example(a=E("S"), b=E("I + D"), c=E("u[0]*I + D"))
    def test_compose_associative(self, a, b, c):
        try:
            lhs = a.compose(b).compose(c)
            rhs = a.compose(b.compose(c))
        except ValueError:
            assume(False)
            return
        assert lhs == rhs


class TestRendering:
    def test_round_trip(self, toda):
        for text in (
            "u[0]*I",
            "D^-1 + I + (v[0] - v[-1])*S*(1/v[0])",
            "v[0]*I + v[0]*D",
            "2*D^2 - (1/3)*u[1]*D^-1",
        ):
            e = E(text)
            assert parse_operator_entry(render_entry(e, UV), UV) == e

    def test_zero(self):
        assert render_entry(OpEntry.zero(), UV) == "0"


class TestNormalFormProperty:
    @settings(max_examples=250)
    @given(terms=raw_terms())
    def test_round_trip_and_order_independence(self, terms):
        e = from_terms(*terms)
        assert parse_operator_entry(render_entry(e, UV), UV) == e
        assert from_terms(*terms, reverse=True) == e
