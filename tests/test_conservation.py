from fractions import Fraction

import pytest

from conftest import M, P, substitute_params
from lik.conservation import (
    build_density_candidate,
    conservation_residual,
    equivalent,
    solve_density,
)
from lik.expr import delta_decompose, total_time_derivative
from lik.params import ParamCoeff
from lik.scaling import rank_of

GOLDEN = {
    1: "u[0]",
    2: "(1/2)*u[0]^2 + v[0]",
    3: "(1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]",
    4: "(1/4)*u[0]^4 + u[0]^2*v[-1] + u[0]^2*v[0] + u[0]*u[1]*v[0] "
    "+ (1/2)*v[0]^2 + v[0]*v[1]",
}


@pytest.fixture(scope="module")
def toda_densities(toda, toda_w):
    out = {}
    for rank in range(1, 7):
        cand = build_density_candidate(toda, toda_w, Fraction(rank))
        results, _ = solve_density(cand, toda)
        out[rank] = results
    return out


class TestCandidates:
    def test_rank3_blocks(self, toda, toda_w):
        cand = build_density_candidate(toda, toda_w, Fraction(3))
        assert cand.blocks == (M("u[0]^3"), M("u[0]*v[-1]"), M("u[0]*v[0]"))
        assert cand.unknowns == ("c1", "c2", "c3")

    def test_rank1_single_block(self, toda, toda_w):
        cand = build_density_candidate(toda, toda_w, Fraction(1))
        assert cand.blocks == (M("u[0]"),)

    def test_rank2_blocks(self, toda, toda_w):
        cand = build_density_candidate(toda, toda_w, Fraction(2))
        assert set(cand.blocks) == {M("u[0]^2"), M("v[0]")}


class TestSolve:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_golden_densities(self, toda_densities, rank):
        (r,) = toda_densities[rank]
        assert r.density == P(GOLDEN[rank])

    def test_rank3_flux(self, toda_densities):
        (r,) = toda_densities[3]
        assert r.flux == P("u[-1]*u[0]*v[-1] + v[-1]^2")

    def test_rank1_flux_telescopes(self, toda, toda_densities):
        (r,) = toda_densities[1]
        # Dt(u) = v[-1] - v[0] = (D - I)(-v[-1])
        assert total_time_derivative(r.density, toda) == P("v[-1] - v[0]")
        assert (-r.flux).shifted(1) - (-r.flux) == P("v[-1] - v[0]")

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_conservation_identity(self, toda, toda_densities, rank):
        for r in toda_densities[rank]:
            assert conservation_residual(r.density, r.flux, toda).is_zero

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_density_is_canonical(self, toda_densities, rank):
        for r in toda_densities[rank]:
            _, j = delta_decompose(r.density)
            assert j.is_zero

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_rank_uniformity(self, toda_w, toda_densities, rank):
        for r in toda_densities[rank]:
            for m in r.density.monomials():
                assert rank_of(m, toda_w) == rank
            for m in r.flux.monomials():
                assert rank_of(m, toda_w) == rank + 1

    @pytest.mark.parametrize("k", [-2, 1, 4])
    def test_shift_stability(self, toda, toda_densities, k):
        (r,) = toda_densities[3]
        assert conservation_residual(
            r.density.shifted(k), r.flux.shifted(k), toda
        ).is_zero

    def test_every_rank_one_density(self, toda_densities):
        assert {rank: len(rs) for rank, rs in toda_densities.items()} == {
            r: 1 for r in range(1, 7)
        }


class TestParameterized:
    def test_rank1_needs_a_equal_1(self, param_toda, toda_w):
        cand = build_density_candidate(param_toda, toda_w, Fraction(1))
        results, branches = solve_density(cand, param_toda)
        assert len(results) == 1
        assert [c.render() for c in results[0].eq_conditions] == ["a - 1"]

    def test_rank2_exists_on_product_locus(self, param_toda, toda_w):
        # the quadratic density survives exactly when a*b = 1
        cand = build_density_candidate(param_toda, toda_w, Fraction(2))
        results, _ = solve_density(cand, param_toda)
        (r,) = results
        assert [c.render() for c in r.eq_conditions] == ["a*b - 1"]
        resid = conservation_residual(r.density, r.flux, param_toda)
        values = {
            "a": ParamCoeff.from_value(Fraction(1, 5)),
            "b": ParamCoeff.from_value(5),
        }
        assert substitute_params(resid, values).is_zero


class TestTrivialityAndEquivalence:
    def test_difference_is_trivial(self):
        assert delta_decompose(P("u[1] - u[0]"))[0].is_zero

    def test_single_variable_not_trivial(self):
        assert not delta_decompose(P("u[0]"))[0].is_zero

    def test_golden_density_not_trivial(self, toda_densities):
        (r,) = toda_densities[3]
        assert not delta_decompose(r.density)[0].is_zero

    def test_shifted_density_equivalent(self, toda_densities):
        (r,) = toda_densities[2]
        assert equivalent(r.density, r.density.shifted(4)) == Fraction(-1)

    def test_unrelated_not_equivalent(self):
        assert equivalent(P("u[0]"), P("v[0]")) is None

    def test_scaled_plus_exact(self, toda_densities):
        (r,) = toda_densities[3]
        rho1 = r.density * 2
        rho2 = r.density + P("u[0]*v[0]").shifted(1) - P("u[0]*v[0]")
        assert equivalent(rho1, rho2) == Fraction(-2)


class TestMultiDimensionalSpaces:
    def test_decoupled_system_emits_one_density_per_basis_vector(self):
        from lik.parser import parse_system
        from lik.scaling import compute_weights

        s = parse_system("u' = u[0]*(u[1] - u[-1])\nv' = v[0]*(v[1] - v[-1])")
        w = compute_weights(s)
        cand = build_density_candidate(s, w, Fraction(1))
        results, _ = solve_density(cand, s)
        assert [r.density for r in results] == [P("u[0]"), P("v[0]")]
        for r in results:
            assert conservation_residual(r.density, r.flux, s).is_zero


class TestVolterra:
    def test_first_two_densities(self, volterra):
        from lik.parser import parse_expression
        from lik.scaling import compute_weights

        w = compute_weights(volterra)
        expected = {
            1: "u[0]",
            2: "(1/2)*u[0]^2 + u[0]*u[1]",
        }
        for rank, text in expected.items():
            cand = build_density_candidate(volterra, w, Fraction(rank))
            results, _ = solve_density(cand, volterra)
            (r,) = results
            assert r.density == parse_expression(text, volterra.names)
            assert conservation_residual(r.density, r.flux, volterra).is_zero
