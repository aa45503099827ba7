from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given

from conftest import P, substitute
from lik.expr import LatticePoly
from lik.linalg import (
    LinearSolveError,
    LinearSystem,
    column_rows,
    fresh_tags,
    normalize_basis_vector,
    nullspace,
    parametric_solve,
)
from lik.params import ParamCoeff, fraction


def R(v) -> ParamCoeff:
    return ParamCoeff.from_value(Fraction(v))


def evaluate_row(
    row: tuple[ParamCoeff, ...], unknowns: tuple[str, ...], vec: dict[str, ParamCoeff]
) -> ParamCoeff:
    """The row's entries dotted with vec (absent tags count as zero)."""
    total = ParamCoeff.zero()
    for c, t in zip(row, unknowns):
        if t in vec:
            total = total + c * vec[t]
    return total


def dense(system: LinearSystem) -> list[list[ParamCoeff]]:
    """The system's rows with one entry per unknown, zeros filled in."""
    out = []
    for cols, coeffs in zip(system.columns, system.rows):
        row = [ParamCoeff.zero()] * len(system.unknowns)
        for j, c in zip(cols, coeffs):
            row[j] = c
        out.append(row)
    return out


def rows_from(entries, unknowns):
    return LinearSystem.build(
        unknowns,
        [
            {t: R(c) for t, c in row.items()}
            for row in entries
        ],
    )


class TestNullspace:
    def test_density_rank3_system(self):
        # 3c1 - c2 = 0, c3 - 3c1 = 0, c2 - c3 = 0
        sys = rows_from(
            [{"c1": 3, "c2": -1}, {"c3": 1, "c1": -3}, {"c2": 1, "c3": -1}],
            ("c1", "c2", "c3"),
        )
        out = nullspace(sys)
        assert out.dimension == 1
        _, vec = normalize_basis_vector(out.basis[0], [("c1", Fraction(1, 3))])
        assert {t: fraction(c) for t, c in vec.items()} == {
            "c1": Fraction(1, 3),
            "c2": Fraction(1),
            "c3": Fraction(1),
        }

    def test_identity_system_empty_basis(self):
        sys = rows_from([{"c1": 1}, {"c2": 1}], ("c1", "c2"))
        assert nullspace(sys).dimension == 0

    def test_exactness(self):
        sys = rows_from(
            [
                {"c1": 2, "c2": 3, "c3": -1},
                {"c1": 1, "c2": -1, "c4": 5},
            ],
            ("c1", "c2", "c3", "c4"),
        )
        out = nullspace(sys)
        assert out.dimension == 2
        for vec in out.basis:
            for row in dense(sys):
                assert evaluate_row(row, sys.unknowns, vec).is_zero

    def test_rejects_parametric_entries(self):
        sys = LinearSystem.build(
            ("c1",), [{"c1": ParamCoeff.param("a") + 1}]
        )
        with pytest.raises(LinearSolveError):
            nullspace(sys)

    def test_duplicate_and_scaled_rows_give_the_same_basis(self):
        # a row, its copy, its multiples by -2/3 and by a parameter monomial:
        # the last makes the entries parametric until the row is normalized
        a = ParamCoeff.param("a")
        row = {"c1": R(3), "c2": R(-1), "c4": R(2)}
        other = {"c2": R(1), "c3": R(-1)}
        unknowns = ("c1", "c2", "c3", "c4")
        plain = nullspace(LinearSystem.build(unknowns, [row, other]))
        repeated = nullspace(
            LinearSystem.build(
                unknowns,
                [
                    row,
                    {t: c.scale(Fraction(-2, 3)) for t, c in row.items()},
                    other,
                    dict(row),
                    {t: c * a * a for t, c in other.items()},
                ],
            )
        )
        assert plain.dimension == 2
        assert repeated.basis == plain.basis


@st.composite
def rational_matrices(draw):
    """(ncols, rows): small sparse rational rows, possibly none, with zero
    rows and duplicate or scaled copies mixed in."""
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    copies = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.fractions(min_value=-2, max_value=2, max_denominator=3),
            ),
            max_size=3,
        )
    )
    for k, scale in copies:
        if rows:
            rows.append([scale * v for v in rows[k % len(rows)]])
    return ncols, rows


def sympy_nullspace(ncols, rows, unknowns):
    """The basis sympy reads off its RREF, as sparse rational assignments."""
    flat = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
    out = []
    for vec in sympy.Matrix(len(rows), ncols, flat).nullspace():
        out.append(
            [(t, Fraction(int(x.p), int(x.q))) for t, x in zip(unknowns, vec) if x != 0]
        )
    return out


class TestRationalKernel:
    @given(rational_matrices())
    def test_nullspace_matches_sympy_rref(self, matrix):
        ncols, rows = matrix
        unknowns = tuple(f"c{k + 1}" for k in range(ncols))
        expected = sympy_nullspace(ncols, rows, unknowns)
        # raw rows name every unknown, zeros included; build drops them
        raw = LinearSystem.build(
            unknowns, [{t: R(v) for t, v in zip(unknowns, row)} for row in rows]
        )
        built = rows_from(
            [{t: v for t, v in zip(unknowns, row) if v} for row in rows], unknowns
        )
        nonzero_rows = [[R(v) for v in row] for row in rows if any(row)]
        assert dense(raw) == dense(built) == nonzero_rows
        for system in (raw, built):
            got = [
                [(t, fraction(c)) for t, c in vec.items()]
                for vec in nullspace(system).basis
            ]
            assert got == expected

    def test_branch_made_rational_by_substitution(self):
        # on a = 2 the rows become [1, 1, 3] and twice that row
        a = ParamCoeff.param("a")
        sys = LinearSystem.build(
            ("c1", "c2", "c3"),
            [{"c1": a - 1, "c2": R(1), "c3": R(3)}, {"c1": R(2), "c2": R(2), "c3": R(6)}],
        )
        branches = parametric_solve(sys)
        assert [[c.render() for c in b.eq_conditions] for b in branches] == [
            [],
            ["a - 2"],
        ]
        special = branches[1]
        assert special.neq_conditions == () and special.status == "solved"
        assert [
            {t: fraction(c) for t, c in vec.items()}
            for vec in special.outcome.basis
        ] == [{"c1": -1, "c2": 1}, {"c1": -3, "c3": 1}]


def fractions_of(system):
    return [[c.as_fraction() for c in row] for row in dense(system)]


class TestSparseRows:
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(("c1", "c2", "c3", "c4")),
                st.integers(-2, 2),
                max_size=4,
            ),
            max_size=6,
        )
    )
    def test_build_keeps_the_csr_invariants(self, entries):
        # tags come in any order, zero entries and empty rows included
        unknowns = ("c1", "c2", "c3", "c4")
        system = LinearSystem.build(
            unknowns, [{t: R(v) for t, v in row.items()} for row in entries]
        )
        assert len(system.rows) == len(system.columns)
        for cols, coeffs in zip(system.columns, system.rows):
            assert coeffs and len(cols) == len(coeffs)
            assert list(cols) == sorted(set(cols))
            assert not any(c.is_zero for c in coeffs)
        expected = [
            [R(row.get(t, 0)) for t in unknowns] for row in entries if any(row.values())
        ]
        assert dense(system) == expected


def from_columns(unknowns, columns) -> LinearSystem:
    """The system of per-unknown columns, each a tuple of slots."""
    return LinearSystem.build(unknowns, column_rows(unknowns, map(enumerate, columns)))


class TestFromColumns:
    """column_rows and build, as the density and symmetry solvers call them."""

    def test_rows_in_term_key_order_within_each_slot(self):
        sys = from_columns(
            ("c1", "c2"),
            [
                (P("u[0] + 3*u[0]*u[1]"), P("v[0]")),
                (P("u[0]^2 - u[0]"), P("2*v[0]")),
            ],
        )
        # slot 0: u[0]^2, u[0]*u[1], u[0]; then slot 1: v[0]; the entries
        # are the raw coefficients, not normalized
        assert fractions_of(sys) == [[0, 1], [3, 0], [1, -1], [1, 2]]

    def test_shared_monomial_gives_one_row(self):
        sys = from_columns(
            ("c1", "c2"), [(P("2*u[0]"),), (P("-3*u[0]"),)]
        )
        assert fractions_of(sys) == [[2, -3]]

    def test_zero_slot_gives_no_row(self):
        zero = LatticePoly.zero()
        sys = from_columns(
            ("c1", "c2"), [(zero, P("u[0]")), (zero, P("u[0]"))]
        )
        assert fractions_of(sys) == [[1, 1]]
        assert from_columns(("c1",), [(zero,)]).rows == ()

    def test_parametric_entries(self):
        sys = from_columns(
            ("c1", "c2"), [(P("a*u[0]", ("a",)),), (P("u[0] - v[0]"),)]
        )
        assert [[c.render() for c in row] for row in dense(sys)] == [
            ["a", "1"],
            ["0", "-1"],
        ]


class TestParametricSolve:
    def test_single_condition(self):
        # (a - 1) * c1 = 0 splits into a generic empty branch and a = 1
        a = ParamCoeff.param("a")
        sys = LinearSystem.build(("c1",), [{"c1": a - 1}])
        branches = parametric_solve(sys)
        by_conds = {
            tuple(c.render() for c in b.eq_conditions): b for b in branches
        }
        generic = by_conds[()]
        assert generic.outcome is not None and generic.outcome.dimension == 0
        special = by_conds[("a - 1",)]
        assert special.outcome is not None and special.outcome.dimension == 1

    def test_no_parameters_single_branch(self):
        sys = rows_from([{"c1": 1, "c2": -1}], ("c1", "c2"))
        branches = parametric_solve(sys)
        assert len(branches) == 1
        assert branches[0].eq_conditions == ()
        assert branches[0].outcome.dimension == 1

    def test_nonzero_parameter_assumption(self):
        # a * c1 = 0 with a a declared nonzero parameter: no case split
        a = ParamCoeff.param("a")
        sys = LinearSystem.build(("c1",), [{"c1": a}])
        branches = parametric_solve(sys)
        assert len(branches) == 1
        assert branches[0].outcome.dimension == 0

    def test_branch_soundness_by_substitution(self):
        # c1*(a-2) + c2 = 0 and c2*(b-3) = 0
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        sys = LinearSystem.build(
            ("c1", "c2"), [{"c1": a - 2, "c2": R(1)}, {"c2": b - 3}]
        )
        samples = {
            (): {"a": R(7), "b": R(11)},
            ("a - 2",): {"a": R(2), "b": R(5)},
            ("b - 3",): {"a": R(9), "b": R(3)},
            ("a - 2", "b - 3"): {"a": R(2), "b": R(3)},
        }
        for br in parametric_solve(sys):
            if br.outcome is None:
                continue
            key = tuple(c.render() for c in br.eq_conditions)
            values = samples.get(key)
            if values is None:
                continue
            for vec in br.outcome.basis:
                for row in dense(sys):
                    resid = evaluate_row(row, sys.unknowns, vec)
                    assert substitute(resid, values).is_zero

    def test_nonlinear_pivot_via_cleared_substitution(self):
        # (a*b - 1)*c1 = 0: solvable because parameters are nonzero
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        sys = LinearSystem.build(("c1",), [{"c1": a * b - 1}])
        branches = parametric_solve(sys)
        dims = {
            tuple(c.render() for c in b2.eq_conditions): b2.outcome.dimension
            for b2 in branches
            if b2.outcome
        }
        assert dims[()] == 0
        assert dims[("a*b - 1",)] == 1

    def test_determinism(self):
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        sys = LinearSystem.build(
            ("c1", "c2"), [{"c1": a - 1, "c2": b - 1}, {"c2": a + b}]
        )
        first = [
            (
                tuple(c.render() for c in br.eq_conditions),
                tuple(c.render() for c in br.neq_conditions),
                br.status,
            )
            for br in parametric_solve(sys)
        ]
        second = [
            (
                tuple(c.render() for c in br.eq_conditions),
                tuple(c.render() for c in br.neq_conditions),
                br.status,
            )
            for br in parametric_solve(sys)
        ]
        assert first == second



A = ParamCoeff.param("a")


@st.composite
def parametric_matrices(draw):
    """(ncols, rows): small rows over Z[a] of degree <= 2, with zero rows
    and duplicate copies or copies scaled by an integer or by a mixed in."""
    ncols = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    entry = st.one_of(
        st.just(ParamCoeff.zero()),
        coeffs.map(lambda k: R(k[0]) + A.scale(k[1]) + (A * A).scale(k[2])),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    scales = st.sampled_from([R(1), R(-3), A, -A * A])
    copies = draw(st.lists(st.tuples(st.integers(0, 3), scales), max_size=2))
    for k, scale in copies:
        if rows:
            rows.append([c * scale for c in rows[k % len(rows)]])
    return ncols, rows


def _value_of_a(cond: ParamCoeff) -> Fraction | None:
    """The rational a fixed by cond = 0, if cond is linear in a alone."""
    if cond.parameters() != {"a"} or cond.degree_in("a") != 1:
        return None
    g, h = cond.coeff_of("a", 1), cond.coeff_of("a", 0)
    if not (g.is_rational and h.is_rational):
        return None
    return -h.as_fraction() / g.as_fraction()


def _check_at(branch, system, point):
    """Every basis vector annihilates every row at the parameter point, and
    there are as many vectors as sympy's nullity of the specialized
    matrix."""
    at = {p: R(v) for p, v in point.items()}
    rows = [[substitute(c, at).as_fraction() for c in row] for row in dense(system)]
    ncols = len(system.unknowns)
    flat = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
    rank = sympy.Matrix(len(rows), ncols, flat).rank() if rows else 0
    assert branch.outcome.dimension == ncols - rank, point
    for vec in branch.outcome.basis:
        for row in dense(system):
            resid = evaluate_row(row, system.unknowns, vec)
            assert substitute(resid, at).is_zero, point


class TestParametricOracle:
    @given(parametric_matrices())
    def test_branches_agree_with_sympy_on_specializations(self, matrix):
        ncols, rows = matrix
        unknowns = tuple(f"c{k + 1}" for k in range(ncols))
        system = LinearSystem.build(
            unknowns,
            [{t: c for t, c in zip(unknowns, row) if not c.is_zero} for row in rows],
        )
        for branch in parametric_solve(system):
            if branch.outcome is None:
                continue
            if not branch.eq_conditions:
                # generic branch: a few nonzero integers off its != conditions
                values = [
                    v
                    for v in (1, -1, 2, -2, 3, 5, 7, 11)
                    if all(
                        not substitute(c, {"a": R(v)}).is_zero
                        for c in branch.neq_conditions
                    )
                ][:3]
                assert values
            else:
                fixed = {_value_of_a(c) for c in branch.eq_conditions}
                if None in fixed:
                    continue  # a is not fixed to a rational
                assert len(fixed) == 1
                values = list(fixed)
            for v in values:
                _check_at(branch, system, {"a": v})


class TestPendingEquations:
    """Imposing f = 0 by solving f = g*p + h for p, where g is neither
    rational nor a parameter monomial: the solver splits g = 0, which puts
    f and h on the pending list, from g != 0."""

    a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
    CASES = [
        # f = a*b + a + b = (b + 1)*a + b; at b = -1 it reads -1, so the
        # case b + 1 = 0 is contradictory
        (
            [{"c1": a * b + a + b, "c2": R(1)}],
            "a*b + a + b",
            "b + 1",
            [{"a": Fraction(-1, 2), "b": 1}, {"a": Fraction(-2, 3), "b": 2}],
        ),
        # eliminating c1 leaves b*(a*b + 2*a + b + 1) on c2, with g = b + 2
        (
            [{"c1": a * b + a + b, "c2": a}, {"c1": R(1), "c2": b + 1}],
            "a*b + 2*a + b + 1",
            "b + 2",
            [{"a": Fraction(-2, 3), "b": 1}, {"a": Fraction(-3, 4), "b": 2}],
        ),
    ]
    GENERIC = [{"a": 1, "b": 1}, {"a": 2, "b": -3}, {"a": -5, "b": 7}]

    @pytest.mark.parametrize("rows, f, g, on_f", CASES)
    def test_branches_agree_with_sympy_at_points(self, monkeypatch, rows, f, g, on_f):
        calls = []
        resolve = linalg._ParametricSolver._resolve_pending

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(linalg._ParametricSolver, "_resolve_pending", counted)
        system = LinearSystem.build(("c1", "c2"), rows)
        branches = parametric_solve(system)
        assert calls, "the pending-equation path did not run"
        by_conds = {tuple(c.render() for c in br.eq_conditions): br for br in branches}
        # the g = 0 case is dropped; the f = 0 case assumes g != 0
        assert set(by_conds) == {(), (f,)}
        assert g in [c.render() for c in by_conds[(f,)].neq_conditions]
        for conds, points in (((), self.GENERIC), ((f,), on_f)):
            br = by_conds[conds]
            for point in points:
                at = {p: R(v) for p, v in point.items()}
                assert all(substitute(c, at).is_zero for c in br.eq_conditions)
                assert not any(substitute(c, at).is_zero for c in br.neq_conditions)
                _check_at(br, system, point)


def test_fresh_tags_are_total():
    # every one-letter prefix clashes: the prefix doubles
    assert fresh_tags(2, ("c2", "k1", "q1", "t2", "x")) == ("cc1", "cc2")
    taken = [f"{p * n}1" for n in (1, 2) for p in "ckqt"]
    assert fresh_tags(1, taken) == ("ccc1",)


def test_fresh_tags_avoid_reserved():
    assert fresh_tags(3, ()) == ("c1", "c2", "c3")
    assert fresh_tags(2, ("c1",)) == ("k1", "k2")


# -- invertible pivots: a unit monomial times nonzero conditions -------------

from hypothesis import settings  # noqa: E402

from lik import factor, linalg  # noqa: E402

A, B = ParamCoeff.param("a"), ParamCoeff.param("b")
# irreducible, normalized as the solver keeps its nonzero conditions
CONDITION_POOL = [A - 1, A + B, A * B - 1, A - 2 * B, B**2 + A, A + B - 2]


def _conditions(polys):
    return tuple(linalg._normalize_factor(p) for p in polys)


def _invertible_by_factoring(c, neqs):
    """The answer from the full factorization: every irreducible factor of
    c that can vanish is an assumed nonzero condition."""
    if c.is_rational or c.is_unit_monomial():
        return True
    factors = linalg._factor_irreducible(c)
    return bool(factors) and all(any(f == g for g in neqs) for f in factors)


class TestInvertiblePivot:
    def test_products_of_conditions_decided_without_factoring(self, monkeypatch):
        def refuse(pc):
            raise AssertionError(f"factored {pc.render()}")

        monkeypatch.setattr(factor, "irreducible_factors", refuse)
        linalg._factors_of_normalized.cache_clear()
        solver = linalg._ParametricSolver(("c1",))
        neqs = _conditions([A - 1, A + B, B**2 + A])
        yes = [
            (A - 1) * (A + B) * Fraction(3, 2),
            (A - 1) ** 3 * (B**2 + A) * A**2 * B * -7,
            (A + B) ** 2,
        ]
        no = [(A - 1) * (A - 2), (A + B) * (A * B - 1), A * B - 1, (A - 1) ** 2 * (A + 2)]
        assert [solver._invertible(c, neqs) for c in yes] == [True] * 3
        assert [solver._invertible(c, neqs) for c in no] == [False] * 4
        assert solver._invertible(A * B * 5, ()) and solver._invertible(R(3), ())

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(0, len(CONDITION_POOL) - 1), min_size=1, max_size=4),
        st.lists(st.integers(0, len(CONDITION_POOL) - 1), max_size=4),
        st.sampled_from([R(1), R(-2), A, A * B * Fraction(1, 3)]),
    )
    def test_matches_the_factorization(self, picked, assumed, unit):
        c = unit
        for k in picked:
            c = c * CONDITION_POOL[k]
        neqs = _conditions(CONDITION_POOL[k] for k in assumed)
        solver = linalg._ParametricSolver(("c1",))
        assert solver._invertible(c, neqs) == _invertible_by_factoring(c, neqs)


# -- the integer kernel: bigger matrices, content removal, row assembly -------

import math  # noqa: E402



@st.composite
def wide_rational_matrices(draw):
    """(ncols, rows): up to 9 columns and 16 rows, numerators up to 10^6
    and denominators up to 50, rows negated at random (so leading entries
    of either sign), with duplicated, scaled and summed rows mixed in so
    that tall matrices still have a nullspace."""
    ncols = draw(st.integers(1, 9))
    big = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 50))
    # two zeros to one nonzero, so that rows are sparse as in lik's systems
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), big)
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=8)
    )
    rows = [[-v for v in row] if draw(st.booleans()) else row for row in rows]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15), big),
            max_size=16 - len(rows),
        )
    )
    for i, j, scale in extra:
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        # a scaled copy of one row, or that plus another row
        rows.append([scale * x + (y if i != j else 0) for x, y in zip(a, b)])
    return ncols, rows


class TestIntegerKernel:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(wide_rational_matrices())
    def test_nullspace_matches_sympy_rref_on_big_entries(self, matrix):
        ncols, rows = matrix
        unknowns = tuple(f"c{k + 1}" for k in range(ncols))
        system = rows_from(
            [{t: v for t, v in zip(unknowns, row) if v} for row in rows], unknowns
        )
        got = [
            [(t, fraction(c)) for t, c in vec.items()]
            for vec in nullspace(system).basis
        ]
        assert got == sympy_nullspace(ncols, rows, unknowns)

    def test_elimination_divides_out_the_content(self):
        # 1*row - 1*piv is (0, 4, -4): its content 4 is divided out
        row, piv = {0: 1, 1: 7, 2: 1}, {0: 1, 1: 3, 2: 5}
        assert linalg._eliminated(row, 0, piv) == {1: 1, 2: -1}
        # p = 4 and r = -6 enter through their cofactors of gcd 2:
        # 2*row - (-3)*piv
        assert linalg._eliminated({0: -6, 2: 1}, 0, {0: 4, 1: 1}) == {1: 3, 2: 2}

    def test_content_removal_keeps_vandermonde_entries_small(self, monkeypatch):
        # rows (1, k, ..., k^5) for k = 1..5: cross multiplication alone
        # grows the entries past 10^29 on this matrix; with each row made
        # primitive no entry exceeds 781
        produced = []
        eliminated = linalg._eliminated

        def recording(row, col, piv):
            out = eliminated(row, col, piv)
            produced.append(out)
            return out

        monkeypatch.setattr(linalg, "_eliminated", recording)
        unknowns = tuple(f"c{k + 1}" for k in range(6))
        system = rows_from(
            [{t: k**e for e, t in enumerate(unknowns)} for k in range(1, 6)], unknowns
        )
        (vec,) = nullspace(system).basis
        # the coefficients of (x - 1)(x - 2)...(x - 5), constant term first
        assert [fraction(vec[t]) for t in unknowns] == [
            -120, 274, -225, 85, -15, 1
        ]
        assert produced
        assert all(math.gcd(*row.values()) == 1 for row in produced if row)
        assert max(abs(v) for row in produced for v in row.values()) <= 781


class TestColumnRows:
    def test_term_order_of_the_polynomials_does_not_matter(self):
        polys = [P("u[0]^2*v[1] - 3*u[0] + v[0]*v[2]"), P("2*u[0] + u[1]^3 - v[0]*v[2]")]
        reordered = [LatticePoly(dict(reversed(p.items()))) for p in polys]
        assert reordered == polys
        assert [list(p.terms()) for p in reordered] != [list(p.terms()) for p in polys]

        def rows(slot1):
            columns = [(P("v[0]"), slot1[0]), (P("2*v[0]"), slot1[1])]
            out = column_rows(("c1", "c2"), map(enumerate, columns))
            return [[(t, fraction(c)) for t, c in r.items()] for r in out]

        # slot 0 first, then slot 1's monomials in term_key order:
        # u[0]^2*v[1], u[1]^3, v[0]*v[2], u[0]
        expected = [
            [("c1", 1), ("c2", 2)],
            [("c1", 1)],
            [("c2", 1)],
            [("c1", 1), ("c2", -1)],
            [("c1", -3), ("c2", 2)],
        ]
        assert rows(polys) == expected
        assert rows(reordered) == expected


# -- row normalization against the earlier rational-scale version -------------


def _ref_key(m):
    return (-sum(e for _, e in m), tuple((n, -e) for n, e in m))


def _reference_normalize_row(row):
    """The earlier _normalize_row, on {pmono: Fraction} terms: the rational
    content and the per-name least exponent of every entry, one Laurent
    scale den/num * mono^-1 multiplied into every term, and the whole row
    negated when the scaled first entry leads with a negative value."""
    terms = {j: {m: Fraction(c) for m, c in pc.items()} for j, pc in row.items()}
    num, den, mono = 0, 1, None
    for f in terms.values():
        for c in f.values():
            num, den = math.gcd(num, c.numerator), math.lcm(den, c.denominator)
        names = set.intersection(*({n for n, _ in m} for m in f))
        mc = {n: min(dict(m)[n] for m in f) for n in names}
        mono = mc if mono is None else {n: min(e, mc[n]) for n, e in mono.items() if n in mc}

    def scaled(f, k):
        return {
            tuple((n, e - mono.get(n, 0)) for n, e in m if e != mono.get(n, 0)): c * k
            for m, c in f.items()
        }

    scale = Fraction(den, num)
    first = scaled(terms[min(terms)], scale)
    if first[min(first, key=_ref_key)] < 0:
        scale = -scale
    return {j: scaled(f, scale) for j, f in terms.items()}


_NAMES = ("a", "b")
_monos = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda es: tuple((n, e) for n, e in zip(_NAMES, es) if e)
)
_values = st.one_of(
    st.integers(-12, 12), st.fractions(-4, 4, max_denominator=6)
).filter(bool)
_entries = st.dictionaries(_monos, _values, min_size=1, max_size=3).map(ParamCoeff)


class TestNormalizeRow:
    def _check(self, row):
        got = linalg._normalize_row(row)
        want = _reference_normalize_row(row)
        assert {j: {m: Fraction(c) for m, c in pc.items()} for j, pc in got.items()} == want
        assert list(got) == list(row)
        assert all(type(c) is int for pc in got.values() for _, c in pc.items())
        unchanged = want == {j: {m: Fraction(c) for m, c in pc.items()} for j, pc in row.items()}
        assert (got is row) == unchanged
        return got

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.lists(st.tuples(st.integers(0, 5), _entries), min_size=1, max_size=4),
        _monos,
        _values,
    )
    def test_matches_the_reference(self, entries, factor, scale):
        # every entry times one monomial and one scale, so that rows share a
        # common factor beyond what the entries happen to have
        common = ParamCoeff({factor: scale})
        self._check({j: c * common for j, c in entries})
        self._check(dict(entries))

    def test_named_cases(self):
        a, b = A, B
        cases = {
            "fractions": {2: A * Fraction(2, 3) + Fraction(4, 9), 0: R(Fraction(-2, 15))},
            "negative leading term": {1: -a * b + 2, 3: a - 1},
            "common monomial": {0: a**2 * b * 6 - a * b**2 * 4, 5: a * b * 10},
            "normal": {0: a * b - 1, 2: b + 2},
            "normal rational": {1: R(1), 4: R(-3)},
        }
        got = {name: self._check(row) for name, row in cases.items()}
        # content 2/45; column 0 comes first, so its -3 decides the sign
        assert got["fractions"] == {2: a * -15 - 10, 0: R(3)}
        assert got["negative leading term"] == {1: a * b - 2, 3: -a + 1}
        assert got["common monomial"] == {0: a * 3 - b * 2, 5: R(5)}
        assert got["normal"] is cases["normal"]
        assert got["normal rational"] is cases["normal rational"]
