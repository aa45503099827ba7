from fractions import Fraction

import pytest

from conftest import M, P
from lik.expr import render_poly
from lik.operators import render_operator
from lik.parser import parse_operator_matrix
from lik.recursion import (
    RecursionOutcome,
    _verify,
    build_r0,
    build_r1,
    default_covariants,
    log_density_rows,
    rank_matrix,
    recursion_pipeline,
    solve_recursion,
)
from lik.scaling import rank_of
from lik.symmetry import (
    SymmetryResult,
    build_symmetry_candidate,
    frechet_operator,
    linearization_row,
    solve_symmetry,
    symmetry_residual,
)

TODA_OPERATOR = """\
R[1][1] = u[0]*I
R[1][2] = D^-1 + I + (v[0] - v[-1])*S*(1/v[0])
R[2][1] = v[0]*I + v[0]*D
R[2][2] = u[1]*I + v[0]*(u[1] - u[0])*S*(1/v[0])
"""


@pytest.fixture(scope="module")
def toda_chain(toda, toda_w):
    chain = []
    for level in (1, 2, 3):
        ranks = tuple(wi + level for wi in toda_w)
        cand = build_symmetry_candidate(toda, toda_w, ranks)
        results, _ = solve_symmetry(cand, toda, toda_w)
        (r,) = results
        chain.append(r)
    return chain


class TestRankMatrix:
    def test_toda(self, toda_chain):
        g1, g2 = toda_chain[0], toda_chain[1]
        assert rank_matrix(g1, g2) == (
            (Fraction(1), Fraction(0)),
            (Fraction(2), Fraction(1)),
        )

    def test_next_pair_repeats(self, toda_chain):
        assert rank_matrix(toda_chain[1], toda_chain[2]) == rank_matrix(
            toda_chain[0], toda_chain[1]
        )

    def test_scalar(self):
        a = SymmetryResult((Fraction(2),), (P("u[0]^2"),))
        b = SymmetryResult((Fraction(3),), (P("u[0]^3"),))
        assert rank_matrix(a, b) == ((Fraction(1),),)


class TestLocalCandidate:
    def test_sixteen_unknowns_structure(self, toda, toda_w, toda_chain):
        rm = rank_matrix(toda_chain[0], toda_chain[1])
        cand = build_r0(toda, toda_w, rm)
        assert len(cand.unknowns) == 16
        # expected arrangement: tag -> (entry, cofactor, shift power)
        expected = [
            ("c1", (0, 0), "u[0]", 0),
            ("c2", (0, 0), "u[1]", 0),
            ("c3", (0, 1), "1", -1),
            ("c4", (0, 1), "1", 0),
            ("c5", (1, 0), "u[0]^2", 0),
            ("c6", (1, 0), "u[0]*u[1]", 0),
            ("c7", (1, 0), "u[1]^2", 0),
            ("c8", (1, 0), "v[-1]", 0),
            ("c9", (1, 0), "v[0]", 0),
            ("c10", (1, 0), "u[0]^2", 1),
            ("c11", (1, 0), "u[0]*u[1]", 1),
            ("c12", (1, 0), "u[1]^2", 1),
            ("c13", (1, 0), "v[-1]", 1),
            ("c14", (1, 0), "v[0]", 1),
            ("c15", (1, 1), "u[0]", 0),
            ("c16", (1, 1), "u[1]", 0),
        ]
        assert list(cand.unknowns) == [e[0] for e in expected]
        for tag, (i, j), cof, power in expected:
            op = cand.basis[cand.unknowns.index(tag)]
            entry = op.entries[i][j]
            assert len(entry.locals) == 1 and not entry.nonlocals
            ((a, c),) = entry.locals.items()
            assert render_poly(c, toda.names) == cof
            assert a == power

    def test_rank_discipline(self, toda, toda_w, toda_chain):
        rm = rank_matrix(toda_chain[0], toda_chain[1])
        cand = build_r0(toda, toda_w, rm)
        for op in cand.basis:
            for i, row in enumerate(op.entries):
                for j, e in enumerate(row):
                    for c in e.locals.values():
                        for m in c.monomials():
                            assert rank_of(m, toda_w) == rm[i][j]


class TestCovariants:
    def test_log_density_detected(self, toda):
        # log v is conserved, log u is not
        (row,) = log_density_rows(toda)
        assert row[0].is_zero and not row[1].is_zero

    def test_log_covariant_row(self, toda):
        (row,) = log_density_rows(toda)
        assert row[0].is_zero
        ((a, c),) = row[1].locals.items()
        assert a == 0 and c == P("1/v[0]")

    def test_linear_density_row(self):
        row = linearization_row(P("u[0]"), 2)
        assert render_poly(row[0].locals[0], ("u", "v")) == "1"
        assert row[1].is_zero

    def test_quadratic_density_row(self):
        row = linearization_row(P("(1/2)*u[0]^2 + v[0]"), 2)
        assert row[0].locals[0] == P("u[0]")
        assert row[1].locals[0] == P("1")

    def test_default_pool_for_toda(self, toda, toda_w, toda_chain):
        rm = rank_matrix(toda_chain[0], toda_chain[1])
        rows = default_covariants(toda, toda_w, toda_chain, rm)
        # the rank bound excludes every polynomial density, leaving the log
        assert len(rows) == 1
        assert rows[0][0].is_zero


class TestNonlocalCandidate:
    def test_single_admissible_pair(self, toda, toda_w, toda_chain):
        rm = rank_matrix(toda_chain[0], toda_chain[1])
        rows = default_covariants(toda, toda_w, toda_chain, rm)
        cand = build_r1(toda, toda_w, rm, toda_chain, rows, existing=16)
        assert cand.unknowns == ("c17",)
        (op,) = cand.basis
        # column 1 empty, column 2 sandwiches oriented like the rhs
        assert op.entries[0][0].is_zero and op.entries[1][0].is_zero
        ((right, left),) = op.entries[0][1].nonlocals.items()
        assert left == P("v[-1] - v[0]")
        assert right == M("1/v[0]")
        ((_, left2),) = op.entries[1][1].nonlocals.items()
        assert left2 == P("u[0]*v[0] - u[1]*v[0]")

    def test_higher_density_pair_excluded_by_rank(self, toda, toda_w, toda_chain):
        rm = rank_matrix(toda_chain[0], toda_chain[1])
        rows = default_covariants(toda, toda_w, toda_chain, rm)
        rows = rows + [linearization_row(P("u[0]"), 2)]  # rank-one density's row
        cand = build_r1(toda, toda_w, rm, toda_chain, rows, existing=16)
        # entry (1,1) would need rank 2 + 0 > 1, so the extra pair drops out
        assert cand.unknowns == ("c17",)


class TestSolve:
    def test_toda_coefficients(self, toda, toda_w, toda_chain):
        out = solve_recursion(toda, toda_w, toda_chain)
        assert out.ok
        nonzero = {t: v for t, v in out.coefficients.items() if v != 0}
        assert nonzero == {
            "c1": 1,
            "c3": 1,
            "c4": 1,
            "c9": 1,
            "c14": 1,
            "c16": 1,
            "c17": -1,
        }

    def test_operator_matches_published_form(self, toda, toda_w, toda_chain):
        out = solve_recursion(toda, toda_w, toda_chain)
        expected = parse_operator_matrix(TODA_OPERATOR, toda.names)
        assert out.operator == expected

    def test_generation_chain(self, toda, toda_w, toda_chain):
        out = solve_recursion(toda, toda_w, toda_chain)
        levels = [lvl for lvl, _ in out.generated]
        assert levels == [2, 3, 4, 5]
        for _, comps in out.generated:
            assert all(
                x.is_zero for x in symmetry_residual(list(comps), toda)
            )
        # regenerated levels reproduce the solver's chain exactly
        assert out.generated[0][1] == toda_chain[1].components
        assert out.generated[1][1] == toda_chain[2].components

    def test_round_trip_render(self, toda, toda_w, toda_chain):
        out = solve_recursion(toda, toda_w, toda_chain)
        text = render_operator(out.operator, toda.names)
        assert parse_operator_matrix(text, toda.names) == out.operator


    def test_verify_failure_keeps_checks_and_coefficients(
        self, toda, toda_w, toda_chain
    ):
        # twice the operator passes every identity probe, which is linear in
        # R, but maps G(1) to 2 G(2)
        found = solve_recursion(toda, toda_w, toda_chain)
        fp = frechet_operator(toda.rhs)
        out = _verify(toda, found.operator.scale(2), found.coefficients, toda_chain, fp, 1)
        assert len(found.coefficients) == 17
        assert out == RecursionOutcome(
            None,
            found.coefficients,
            (),
            tuple(f"commutator residual on G({k}): zero" for k in (1, 2, 3)),
            "verification:generation",
            "operator applied to the first symmetry does not reproduce the "
            "next supplied symmetry",
        )
        assert not out.ok


class TestPipeline:
    def test_toda(self, toda, toda_w):
        outcome, symmetries = recursion_pipeline(toda, toda_w, levels=3)
        assert outcome.ok
        assert [g.ranks for g in symmetries] == [(2, 3), (3, 4), (4, 5)]

    def test_broken_system_fails_honestly(self, broken_toda):
        from lik.scaling import compute_weights

        w = compute_weights(broken_toda)
        outcome, info = recursion_pipeline(broken_toda, w, levels=3)
        assert not outcome.ok
        assert outcome.failure_family == "symmetry-chain"
        assert "(3, 4)" in outcome.message
        assert outcome.operator is None

    def test_volterra(self, volterra):
        from lik.scaling import compute_weights

        w = compute_weights(volterra)
        outcome, _ = recursion_pipeline(volterra, w, levels=3)
        assert outcome.ok
        expected = parse_operator_matrix(
            "R[1][1] = u[0]*D^-1 + (u[0] + u[1])*I + u[0]*D"
            " + (u[0]*u[1] - u[-1]*u[0])*S*(1/u[0])",
            volterra.names,
        )
        assert outcome.operator == expected


    def test_decoupled_system_reports_ambiguity(self):
        from lik.parser import parse_system
        from lik.scaling import compute_weights

        s = parse_system("u' = u[0]*(u[1] - u[-1])\nv' = v[0]*(v[1] - v[-1])")
        w = compute_weights(s)
        outcome, _ = recursion_pipeline(s, w, levels=2)
        assert not outcome.ok
        assert outcome.failure_family == "symmetry-chain"
        assert "ambiguous" in outcome.message

    def test_parametric_coefficient_system_reported(self):
        # Toda with a in one equation only: the recursion rows stay
        # parametric after normalization, so nullspace rejects them
        from lik.parser import parse_system
        from lik.scaling import compute_weights

        s = parse_system("params: a\nu' = a*v[-1] - a*v[0]\nv' = v[0]*(u[0] - u[1])")
        outcome, _ = recursion_pipeline(s, compute_weights(s), levels=3)
        assert not outcome.ok
        assert outcome.failure_family == "coefficient-determination"
        assert outcome.message.startswith("parameterized coefficient system")


class TestOperatorIdentityOnRandomProbes:
    def test_defining_identity_annihilates_everything(self, toda, toda_w, toda_chain):
        # the defining identity is an operator identity, so its residual
        # must vanish on arbitrary inputs, not only on symmetries
        import random

        from lik.expr import LatticeMonomial, LatticePoly
        from lik.symmetry import frechet_operator

        out = solve_recursion(toda, toda_w, toda_chain)
        fp = frechet_operator(toda.rhs)
        residual = (
            out.operator.frechet(toda.rhs)
            + out.operator.compose(fp)
            - fp.compose(out.operator)
        )
        rng = random.Random(7)

        def rand_poly():
            acc = LatticePoly.zero()
            for _ in range(rng.randint(1, 3)):
                pairs = [
                    ((rng.randint(0, 1), rng.randint(-2, 2)), rng.randint(1, 2))
                    for _ in range(rng.randint(1, 2))
                ]
                acc = acc + LatticePoly.from_monomial(
                    LatticeMonomial(pairs), Fraction(rng.randint(-3, 3) or 1)
                )
            return acc

        for _ in range(50):
            res = residual.apply([rand_poly(), rand_poly()])
            assert all(x.is_zero for x in res)


# -- streamed row assembly against the all-columns-at-once reference ---------

from pathlib import Path  # noqa: E402

from lik.expr import LatticePoly, term_key  # noqa: E402
from lik.operators import ExtendedExpr  # noqa: E402
from lik.parser import parse_system  # noqa: E402
from lik.recursion import (  # noqa: E402
    _constraint_rows,
    build_candidate,
    identity_residual,
)
from lik.scaling import compute_weights  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def reference_constraint_rows(cand, ops, g, fixed=None):
    """Every operator applied to g first, all columns alive together; then
    per component the local slot and one slot per antidifference monomial
    of any column in term order, one row per monomial of a slot in term
    order."""
    applied = {tag: op.apply(list(g)) for tag, op in zip(cand.unknowns, ops)}
    applied.update(fixed or {})
    zero = LatticePoly.zero()
    rows = []
    for i in range(cand.n):
        keys = sorted(
            {m for exprs in applied.values() for m in exprs[i].thetas}, key=term_key
        )
        slots = [{tag: exprs[i].local for tag, exprs in applied.items()}]
        slots += [
            {tag: exprs[i].thetas.get(m, zero) for tag, exprs in applied.items()}
            for m in keys
        ]
        for slot in slots:
            by_monomial = {}
            for tag, p in slot.items():
                for m, c in p.terms():
                    by_monomial.setdefault(m, {})[tag] = c
            rows.extend(by_monomial[m] for m in sorted(by_monomial, key=term_key))
    return rows


@pytest.mark.parametrize(
    "path",
    [
        "systems/toda.dde",
        "systems/volterra.dde",
        "perfbench/systems/modified_volterra.dde",
        "perfbench/systems/bogoyavlenskii.dde",
    ],
)
def test_streamed_rows_match_the_all_at_once_assembly(path):
    system = parse_system((ROOT / path).read_text())
    w = compute_weights(system)
    _, chain = recursion_pipeline(system, w, levels=2)
    ga, gb = chain[0], chain[1]
    cand = build_candidate(system, w, rank_matrix(ga, gb), chain)
    fp = frechet_operator(system.rhs)
    parts = [identity_residual(op, system, fp) for op in cand.basis]
    # the generation family, with the scale unknown's fixed column
    fixed = {"mu1": [ExtendedExpr(-c) for c in gb.components]}
    rows = _constraint_rows(cand, cand.basis, ga.components, fixed)
    assert rows and rows == reference_constraint_rows(
        cand, cand.basis, ga.components, fixed
    )
    # the defining-identity probes on each symmetry
    for g in chain:
        rows = _constraint_rows(cand, parts, g.components)
        assert rows and rows == reference_constraint_rows(cand, parts, g.components)
    # on symmetries the nonlocal columns leave no antidifference term; off
    # them they do, so the antidifference slots are keyed and ordered too
    g = [LatticePoly.var(i, 1, 2) + LatticePoly.var(i, 0) for i in range(system.n)]
    assert any(e.thetas for op in cand.basis for e in op.apply(g))
    rows = _constraint_rows(cand, cand.basis, g, fixed)
    assert rows == reference_constraint_rows(cand, cand.basis, g, fixed)
