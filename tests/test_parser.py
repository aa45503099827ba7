import pytest

from conftest import P, UV
from lik.expr import render_poly
from lik.parser import (
    ParseError,
    parse_expression,
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
        assert p.parameters() == {"a", "b"}

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
