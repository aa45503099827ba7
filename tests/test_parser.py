import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import P, UV
from lik.expr import LatticePoly, render_poly
from lik.operators import OpEntry
from lik.parser import (
    ParseError,
    parse_expression,
    parse_operator_entry,
    parse_operator_matrix,
    parse_system,
)


class TestExpressions:
    def test_rational_literal(self):
        assert P("(1/3)*u[0]^3") == P("u[0]^3") * P("1") * __import__(
            "fractions"
        ).Fraction(1, 3)

    def test_negative_shift_and_power(self):
        assert P("v[-2]^-1") == P("1/v[-2]")
        assert P("v[0]^(-2)") == P("1/(v[0]*v[0])")

    def test_parameters(self):
        p = parse_expression("a*u[0] - b", UV, ("a", "b"))
        assert set().union(*(c.parameters() for _, c in p.items())) == {"a", "b"}

    def test_unknown_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("u[0] + w[1]", UV, line_no=4)
        assert err.value.line == 4
        assert "unknown" in str(err.value)

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            P("u[0]/(u[0] + v[0])")

    def test_component_without_shift_rejected(self):
        with pytest.raises(ParseError) as err:
            P("u + v[0]")
        assert "needs a shift" in str(err.value)


class TestSystems:
    def test_toda(self, toda):
        assert toda.names == ("u", "v")
        assert toda.rhs[0] == P("v[-1] - v[0]")
        assert toda.rhs[1] == P("u[0]*v[0] - u[1]*v[0]")
        assert toda.params == ()

    def test_parameterized(self, param_toda):
        assert param_toda.params == ("a", "b")
        assert param_toda.rhs[0] == P("a*v[-1] - v[0]", params=("a", "b"))

    def test_non_polynomial_rhs(self):
        with pytest.raises(ParseError) as err:
            parse_system("u' = v[0]/u[0]\nv' = u[0]")
        assert "non-polynomial" in str(err.value)

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse_system("u' = w[0]")
        assert "unknown" in str(err.value)

    def test_duplicate_equation(self):
        with pytest.raises(ParseError):
            parse_system("u' = u[0]*u[1]\nu' = u[0]")

    def test_comments_and_weight_directive(self):
        s = parse_system(
            "# heading\nu' = u[0]*v[0]  # trailing\nv' = v[0]*v[1]\nweight: u = 1/2\n"
        )
        assert s.weight_pins == {0: __import__("fractions").Fraction(1, 2)}

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            parse_system("D' = D[1]")


class TestOperatorGrammar:
    def test_matrix_round_trip(self, toda):
        text = """\
R[1][1] = u[0]*I
R[1][2] = D^-1 + I + (v[0] - v[-1])*S*(1/v[0])
R[2][1] = v[0]*I + v[0]*D
R[2][2] = u[1]*I + v[0]*(u[1] - u[0])*S*(1/v[0])
"""
        op = parse_operator_matrix(text, toda.names)
        from lik.operators import render_operator

        rendered = render_operator(op, toda.names)
        again = parse_operator_matrix(rendered, toda.names)
        assert again == op

    def test_shift_powers(self, toda):
        op = parse_operator_matrix(
            "R[1][1] = D^2 - 3*D^-2\nR[2][2] = I", toda.names
        )
        e = op.entries[0][0]
        assert [(a, render_poly(c, UV)) for a, c in sorted(e.locals.items())] == [
            (-2, "-3"),
            (2, "1"),
        ]

    def test_operator_symbols_rejected_in_expressions(self):
        with pytest.raises(ParseError):
            P("u[0] + I")


# -- one value type: a polynomial p is the operator p*I -----------------------

# the expression grammar's tokens, without the operator symbols I, D and S
PLAIN_TOKENS = [
    "u[0]", "u[1]", "v[-1]", "u", "a", "b", "^", "/", "*", "+", "-", "(", ")",
    "[", "]", "0", "1", "2", "-1",
]
# token strings, mostly malformed, and well-formed nested expressions
plain_expressions = st.one_of(
    st.lists(st.sampled_from(PLAIN_TOKENS), min_size=1, max_size=12).map(" ".join),
    st.recursive(
        st.sampled_from(["u[0]", "u[1]", "v[-1]", "a", "0", "1", "2"]),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.sampled_from(["2", "-1", "0"])).map(
                lambda t: f"{t[0]}^{t[1]}"
            ),
        ),
        max_leaves=6,
    ),
)


def _outcome(parse, text):
    """The parsed value, or the message and position of the parse error."""
    try:
        return parse(text, UV, ("a",))
    except ParseError as exc:
        return exc.message, exc.line, exc.col


class TestOneValueType:
    @settings(max_examples=400)
    @given(plain_expressions)
    def test_operator_mode_agrees_on_plain_input(self, text):
        entry = _outcome(parse_operator_entry, text)
        poly = _outcome(parse_expression, text)
        if isinstance(poly, LatticePoly):
            assert entry == OpEntry.local(poly)
        else:
            assert entry == poly

    @pytest.mark.parametrize(
        "text, expected",
        [("I^-1", "1"), ("u[0]/I", "u[0]"), ("(u[0]*I)^-1", "u[0]^-1")],
    )
    def test_multiplication_operators_invert(self, text, expected):
        assert parse_operator_entry(text, UV) == OpEntry.local(P(expected))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(u[0]*D)^-1", "1:9: negative operator powers only for D"),
            ("u[0]/D", "1:6: cannot divide by an operator"),
            ("u[0]/S", "1:6: cannot divide by an operator"),
            (
                "S*S",
                "1:3: composition of two nonlocal operator factors has no "
                "normal form in this algebra",
            ),
            ("u[0]/(u[0] + 1)", "1:6: division only by rationals or single monomials"),
            ("(u[0] + 1)^-1", "1:11: negative powers need a single-term divisor"),
            ("a^-1", "1:2: cannot invert a parametric coefficient"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_operator_entry(text, UV, ("a",))
        assert str(err.value) == message
        if not {"D", "S"} & set(text):
            with pytest.raises(ParseError) as err:
                parse_expression(text, UV, ("a",))
            assert str(err.value) == message
