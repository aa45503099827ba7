from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import (
    M,
    P,
    PARAM_COEFFS,
    compose,
    param_coefficient,
    partial,
    polys,
    variables,
)
from lik.expr import LatticePoly, dir_derivative, render_poly
from lik.operators import OpEntry
from lik.params import ParamCoeff
from lik.parser import parse_system
from lik.symmetry import (
    build_symmetry_candidate,
    frechet_operator,
    linearization_row,
    solve_symmetry,
    symmetry_residual,
)

G1 = ("v[0] - v[-1]", "u[1]*v[0] - u[0]*v[0]")
G2 = (
    "u[0]*v[0] + u[1]*v[0] - u[-1]*v[-1] - u[0]*v[-1]",
    "u[1]^2*v[0] - u[0]^2*v[0] + v[0]*v[1] - v[-1]*v[0]",
)


def eps_first_order(f: list[LatticePoly], g: list[LatticePoly]) -> list[LatticePoly]:
    """Independent oracle: substitute x -> x + eps * shifted g and extract
    the coefficient of eps."""
    eps = ParamCoeff.param("eps")
    out = []
    for fi in f:
        mapping = {}
        for comp, shift in variables(fi):
            mapping[comp, shift] = (
                LatticePoly.var(comp, shift) + g[comp].shifted(shift) * eps
            )
        out.append(param_coefficient(compose(fi, mapping), "eps", 1))
    return out


class TestFrechet:
    def test_scalar_product_rule(self):
        f = P("u[0]*u[1]")
        g = [P("u[0]")]
        assert dir_derivative(f, g) == P("2*u[0]*u[1]")

    def test_linearity(self, toda):
        g1 = [P("u[0]^2"), P("v[0]*u[1]")]
        g2 = [P("v[-1]"), P("u[0]^3")]
        for f in toda.rhs:
            lhs = dir_derivative(f, [a + b for a, b in zip(g1, g2)])
            assert lhs == dir_derivative(f, g1) + dir_derivative(f, g2)

    def test_symmetry_satisfies_identity(self, toda):
        g = [P(G1[0]), P(G1[1])]
        assert all(x.is_zero for x in symmetry_residual(g, toda))

    @settings(max_examples=200)
    @given(
        f=polys(n_comp=1, laurent=False, max_terms=3),
        g=polys(n_comp=1, laurent=False, max_terms=3),
    )
    def test_eps_expansion_oracle_scalar(self, f, g):
        assert [dir_derivative(f, [g])] == eps_first_order([f], [g])

    @settings(max_examples=100)
    @given(
        f1=polys(laurent=False, max_terms=2),
        f2=polys(laurent=False, max_terms=2),
        g1=polys(laurent=False, max_terms=2),
        g2=polys(laurent=False, max_terms=2),
    )
    def test_eps_expansion_oracle_vector(self, f1, f2, g1, g2):
        g = [g1, g2]
        assert [dir_derivative(f, g) for f in (f1, f2)] == eps_first_order(
            [f1, f2], g
        )


class TestFrechetOperator:
    def test_toda_entries(self, toda):
        op = frechet_operator(toda.rhs)
        e12 = op.entries[0][1]
        got = [(a, render_poly(c, toda.names)) for a, c in sorted(e12.locals.items())]
        assert got == [
            (-1, "1"),
            (0, "-1"),
        ]
        e21 = op.entries[1][0]
        got = [(a, render_poly(c, toda.names)) for a, c in sorted(e21.locals.items())]
        assert got == [
            (0, "v[0]"),
            (1, "-v[0]"),
        ]
        assert op.entries[0][0].is_zero

    def test_zero_rhs(self):
        op = frechet_operator([LatticePoly.zero()])
        assert op.is_zero

    @given(
        f=polys(n_comp=1, laurent=False, max_terms=3),
        g=polys(n_comp=1, laurent=False, max_terms=3),
    )
    def test_operator_agrees_with_apply(self, f, g):
        op = frechet_operator([f])
        (got,) = op.apply([g])
        assert got.is_local
        assert got.local == dir_derivative(f, [g])


class TestLinearizationRow:
    @settings(max_examples=200)
    @given(
        case=st.integers(1, 3).flatmap(
            lambda n: st.tuples(st.just(n), polys(n_comp=n, max_shift=3))
        ),
        k=PARAM_COEFFS,
    )
    def test_entries_are_the_partials(self, case, k):
        # entry j of F' is sum_k (dp / d x_j[k]) D^k, for Laurent p with
        # parametric coefficients in one to three components
        n, p = case
        p = p * P(k, ("a", "b")) + p.shifted(1)
        row = linearization_row(p, n)
        assert len(row) == n
        for j, entry in enumerate(row):
            partials = {s: partial(p, c, s) for c, s in variables(p) if c == j}
            expected = {s: d for s, d in partials.items() if not d.is_zero}
            assert entry == OpEntry(expected)


class TestCandidates:
    def test_seventeen_unknowns(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(3), Fraction(4)))
        assert len(cand.unknowns) == 17
        assert len(cand.blocks[0]) == 5
        assert len(cand.blocks[1]) == 12

    def test_rank3_blocks_keep_shifts(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(3), Fraction(4)))
        assert set(cand.blocks[0]) == {
            M("u[0]^3"),
            M("u[-1]*v[-1]"),
            M("u[0]*v[-1]"),
            M("u[0]*v[0]"),
            M("u[1]*v[0]"),
        }

    def test_rank4_blocks(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(3), Fraction(4)))
        assert set(cand.blocks[1]) == {
            M("u[0]^4"),
            M("u[-1]^2*v[-1]"),
            M("u[-1]*u[0]*v[-1]"),
            M("u[0]^2*v[-1]"),
            M("v[-2]*v[-1]"),
            M("v[-1]^2"),
            M("u[0]^2*v[0]"),
            M("u[0]*u[1]*v[0]"),
            M("u[1]^2*v[0]"),
            M("v[-1]*v[0]"),
            M("v[0]^2"),
            M("v[0]*v[1]"),
        }

    def test_lower_rank_candidate(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(2), Fraction(3)))
        assert set(cand.blocks[0]) == {M("u[0]^2"), M("v[-1]"), M("v[0]")}
        assert len(cand.unknowns) == 8


class TestSolve:
    def test_first_symmetry(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(2), Fraction(3)))
        results, _ = solve_symmetry(cand, toda, toda_w)
        (r,) = results
        assert r.components == (P(G1[0]), P(G1[1]))

    def test_second_symmetry(self, toda, toda_w):
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(3), Fraction(4)))
        results, _ = solve_symmetry(cand, toda, toda_w)
        (r,) = results
        assert r.components == (P(G2[0]), P(G2[1]))

    def test_defining_identity_up_to_rank_56(self, toda, toda_w):
        for ranks in [(2, 3), (3, 4), (4, 5), (5, 6)]:
            cand = build_symmetry_candidate(
                toda, toda_w, tuple(Fraction(r) for r in ranks)
            )
            results, _ = solve_symmetry(cand, toda, toda_w)
            assert len(results) == 1
            res = symmetry_residual(list(results[0].components), toda)
            assert all(x.is_zero for x in res)

    def test_time_translation_found_at_rhs_rank(self, toda, toda_w):
        # the rhs itself is a symmetry; level one is proportional to it
        cand = build_symmetry_candidate(toda, toda_w, (Fraction(2), Fraction(3)))
        results, _ = solve_symmetry(cand, toda, toda_w)
        (r,) = results
        assert r.components == (-toda.rhs[0], -toda.rhs[1])


class TestParameterizedClassification:
    def test_symmetry_exists_only_at_unit_parameters(self, param_toda, toda_w):
        cand = build_symmetry_candidate(
            param_toda, toda_w, (Fraction(3), Fraction(4))
        )
        results, branches = solve_symmetry(cand, param_toda, toda_w)
        (r,) = results
        assert {c.render() for c in r.eq_conditions} == {"a - 1", "b - 1"}
        # and the symmetry specializes to the unmodified system's one
        assert r.components == (P(G2[0]), P(G2[1]))
        # every other branch reports no candidate
        for br in branches:
            conds = {c.render() for c in br.eq_conditions}
            assert br.outcome is not None
            if conds != {"a - 1", "b - 1"}:
                assert br.outcome.dimension == 0

    def test_prefixed_parameter_survives(self, toda_w):
        # fixing a = 1 in the input leaves the single condition b = 1
        s = parse_system(
            "params: b\nu' = v[-1] - v[0]\nv' = v[0]*(b*u[0] - u[1])"
        )
        cand = build_symmetry_candidate(s, toda_w, (Fraction(3), Fraction(4)))
        results, _ = solve_symmetry(cand, s, toda_w)
        (r,) = results
        assert [c.render() for c in r.eq_conditions] == ["b - 1"]
