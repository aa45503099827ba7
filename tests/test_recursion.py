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
    level_ranks,
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


# -- row assembly and the staged solve against all-at-once references -------

import functools  # noqa: E402
import itertools  # noqa: E402
from pathlib import Path  # noqa: E402

import lik.recursion as recursion  # noqa: E402
from lik.expr import LatticePoly, term_key  # noqa: E402
from lik.linalg import (  # noqa: E402
    DEFAULT_BRANCH_DEPTH,
    LinearSolveError,
    LinearSystem,
    column_rows,
    normalize_basis_vector,
    nullspace,
)
from lik.operators import DiffOperator, ExtendedExpr  # noqa: E402
from lik.params import ParamCoeff, fraction  # noqa: E402
from lik.parser import parse_system  # noqa: E402
from lik.recursion import (  # noqa: E402
    _NoOperator,
    _restrict,
    _restriction_rows,
    _slots,
    build_candidate,
    identity_residual,
)
from lik.scaling import compute_weights  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def reference_restriction_rows(ops, g, fixed=None):
    """Every operator applied to g first, all columns alive together, named
    by position, the fixed column last; then per component the local slot
    and one slot per antidifference monomial of any column in term order,
    one row per monomial of a slot in term order."""
    applied = {str(c): op.apply(list(g)) for c, op in enumerate(ops)}
    if fixed is not None:
        applied[str(len(applied))] = fixed
    zero = LatticePoly.zero()
    rows = []
    for i in range(len(g)):
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
    minus_gb = [ExtendedExpr(-c) for c in gb.components]

    def columns(ops, g, fixed=()):
        return itertools.chain((op.apply(list(g)) for op in ops), fixed)

    rows = _restriction_rows(columns(cand.basis, ga.components, [minus_gb]))
    assert rows and rows == reference_restriction_rows(
        cand.basis, ga.components, minus_gb
    )
    # the defining-identity probes on each symmetry
    for g in chain:
        rows = _restriction_rows(columns(parts, g.components))
        assert rows and rows == reference_restriction_rows(parts, g.components)
    # on symmetries the nonlocal columns leave no antidifference term; off
    # them they do, so the antidifference slots are keyed and ordered too
    g = [LatticePoly.var(i, 1, 2) + LatticePoly.var(i, 0) for i in range(system.n)]
    assert any(e.thetas for op in cand.basis for e in op.apply(g))
    rows = _restriction_rows(columns(cand.basis, g, [minus_gb]))
    assert rows == reference_restriction_rows(cand.basis, g, minus_gb)


def _all_columns_rows(cand, ops, g, fixed=None):
    """Rows of one constraint family over every candidate unknown at once:
    a column per unknown, holding its operator in ops applied to g, then
    the fixed columns."""
    fixed = fixed or {}
    applied = (op.apply(list(g)) for op in ops)
    return column_rows(
        cand.unknowns + tuple(fixed),
        map(_slots, itertools.chain(applied, fixed.values())),
    )


def reference_determine(sys, w, symmetries, gap, max_depth):
    """The all-at-once solve: the identity residual of every candidate
    operator, and per pair one nullspace of every row so far."""
    if len(symmetries) < gap + 1:
        raise _NoOperator(
            "symmetry-chain",
            f"need at least {gap + 1} symmetries for gap {gap}, "
            f"got {len(symmetries)}",
        )
    pairs = [
        (symmetries[k], symmetries[k + gap])
        for k in range(len(symmetries) - gap)
    ]
    rm = rank_matrix(*pairs[0])
    if any(rank_matrix(ga, gb) != rm for ga, gb in pairs[1:]):
        raise _NoOperator(
            "symmetry-chain", "inconsistent rank gaps between supplied symmetries"
        )
    cand = recursion.build_candidate(sys, w, rm, symmetries, max_depth)
    if not cand.unknowns:
        raise _NoOperator(
            "candidate", "empty operator candidate at the required ranks"
        )
    fp = frechet_operator(sys.rhs)
    commutator_parts = [identity_residual(op, sys, fp) for op in cand.basis]
    unknowns = cand.unknowns
    rows = []
    probed = 0
    for k, (ga, gb) in enumerate(pairs):
        mu = f"mu{k + 1}"
        unknowns += (mu,)
        minus_gb = [ExtendedExpr(-c) for c in gb.components]
        rows.extend(_all_columns_rows(cand, cand.basis, ga.components, {mu: minus_gb}))
        for g in symmetries[probed : k + gap + 1]:
            rows.extend(_all_columns_rows(cand, commutator_parts, g.components))
        probed = k + gap + 1
        try:
            outcome = nullspace(LinearSystem.build(unknowns, rows))
        except LinearSolveError:
            raise _NoOperator(
                "coefficient-determination",
                "parameterized coefficient system: pin the system "
                "parameters to rationals first",
            ) from None
        if outcome.dimension == 0:
            raise _NoOperator(
                "generation",
                "the generation and commutator constraints admit only the "
                "zero operator",
            )
        if outcome.dimension == 1:
            break
    else:
        raise _NoOperator(
            "coefficient-determination",
            f"solution space still {outcome.dimension}-dimensional after "
            "using every supplied symmetry pair",
        )
    scaled = normalize_basis_vector(outcome.basis[0], [("mu1", 1)])
    if scaled is None:
        raise _NoOperator(
            "generation",
            "no operator maps the first symmetry to the second (scale "
            "coefficient vanishes)",
        )
    _, solution = scaled
    coeffs = {
        tag: fraction(solution.get(tag, 0))
        for tag in cand.unknowns
    }
    operator = DiffOperator.zero(sys.n)
    for tag, op in zip(cand.unknowns, cand.basis):
        if coeffs[tag]:
            operator = operator + op.scale(coeffs[tag])
    return coeffs, operator, fp


def reference_solve(sys, w, symmetries, gap=1):
    """solve_recursion with the all-at-once solve in place of the staged
    one."""
    try:
        coeffs, operator, fp = reference_determine(
            sys, w, symmetries, gap, DEFAULT_BRANCH_DEPTH
        )
    except _NoOperator as exc:
        return RecursionOutcome(None, {}, (), (), *exc.args)
    return _verify(sys, operator, coeffs, symmetries, fp, gap)


# Toda with a in one equation only (see test_parametric_coefficient_system_reported)
PARAM_TODA_ONE_EQUATION = "params: a\nu' = a*v[-1] - a*v[0]\nv' = v[0]*(u[0] - u[1])"


@functools.cache
def _chain(source, levels):
    """The system, its weights and its first symmetry at each level up to
    levels; a conditional one counts, so that the solver also meets the
    parameter rows of the two-parameter Bogoyavlenskii lattice."""
    text = source if "\n" in source else (ROOT / source).read_text()
    system = parse_system(text)
    w = compute_weights(system)
    chain = []
    for level in range(1, levels + 1):
        cand = build_symmetry_candidate(system, w, level_ranks(w, level))
        results, _ = solve_symmetry(cand, system, w)
        chain.append(results[0])
    return system, w, chain


CHAINS = [
    (path, levels, 1)
    for path in (
        "systems/toda.dde",
        "systems/volterra.dde",
        "perfbench/systems/modified_volterra.dde",
    )
    for levels in (2, 3, 4)
] + [
    ("perfbench/systems/bogoyavlenskii.dde", 2, 1),
    ("perfbench/systems/bogoyavlenskii.dde", 3, 1),
    ("tests/golden/scaled_volterra.dde", 3, 1),
    ("tests/golden/bogoyavlenskii_two_params.dde", 3, 1),
    (PARAM_TODA_ONE_EQUATION, 3, 1),
    ("systems/toda.dde", 3, 2),
    ("systems/volterra.dde", 3, 2),
]


@pytest.mark.parametrize("source, levels, gap", CHAINS)
def test_staged_solve_matches_the_all_at_once_reference(source, levels, gap):
    system, w, chain = _chain(source, levels)
    assert solve_recursion(system, w, chain, gap=gap) == reference_solve(
        system, w, chain, gap
    )


@pytest.mark.parametrize("source, levels, gap", CHAINS)
def test_generation_family_implies_the_probe_on_the_first_symmetry(
    source, levels, gap
):
    # the staged solve skips the probe on G(1): every operator that maps
    # G(1) to a multiple of G(1 + gap) has a residual zero on G(1), in the
    # local slot and in every antidifference cofactor
    system, w, chain = _chain(source, levels)
    ga, gb = chain[0], chain[gap]
    cand = build_candidate(system, w, rank_matrix(ga, gb), chain)
    space = [({t: ParamCoeff.one()}, op) for t, op in zip(cand.unknowns, cand.basis)]
    scale = ({"mu1": ParamCoeff.one()}, DiffOperator.zero(system.n))
    applied = [op.apply(list(ga.components)) for _, op in space]
    minus_gb = [ExtendedExpr(-c) for c in gb.components]
    try:
        space = _restrict(space + [scale], applied + [minus_gb])
    except _NoOperator as exc:
        # rows that stay parametric end the solve before any probe
        outcome = solve_recursion(system, w, chain, gap=gap)
        assert (outcome.failure_family, outcome.message) == exc.args
        return
    # a survivor has nonlocal entries, so antidifference terms take part
    assert any(e.nonlocals for _, op in space for row in op.entries for e in row)
    fp = frechet_operator(system.rhs)
    for _, op in space:
        residual = identity_residual(op, system, fp).apply(list(ga.components))
        assert all(p.is_zero for _, p in _slots(residual))


def test_duplicated_unknown_leaves_a_two_dimensional_space(
    monkeypatch, toda, toda_w, toda_chain
):
    # a basis operator repeated under a fresh tag: their difference solves
    # every family, so the space never drops below 2 over the two pairs
    build = recursion.build_candidate

    def duplicated(*args):
        cand = build(*args)
        return cand._replace(
            unknowns=cand.unknowns + ("dup",), basis=cand.basis + cand.basis[:1]
        )

    monkeypatch.setattr(recursion, "build_candidate", duplicated)
    expected = RecursionOutcome(
        None,
        {},
        (),
        (),
        "coefficient-determination",
        "solution space still 2-dimensional after using every supplied "
        "symmetry pair",
    )
    assert solve_recursion(toda, toda_w, toda_chain) == expected
    assert reference_solve(toda, toda_w, toda_chain) == expected
