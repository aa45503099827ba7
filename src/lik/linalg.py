"""Exact homogeneous linear solving for undetermined coefficients.

Systems are homogeneous with entries polynomial in declared parameters.
They are assembled column by column: each unknown contributes the
polynomial slots of the defining identity it multiplies, each slot named
by a sortable key, and every monomial of a slot gives one row.  A
LinearSystem is in compressed sparse row form, each row's nonzero entries
and their unknown indices; the solver reads it as sparse {column: entry}
rows, one at a time where it can, and works on those throughout.  Two
entry points stay, as the benchmark's tracer times each by name:
parametric_solve handles every system, a parameter-free one as a single
unconditional branch, and nullspace a system that is rational once its
rows are normalized (the weights and the recursion restrictions).

Every matrix whose entries are all rational -- a parameter-free system,
or a branch whose parameters have been substituted away -- is solved by
one sparse Gauss-Jordan kernel on primitive integer rows, which returns
the nullspace basis read off the reduced row echelon form (RREF).  A row
is reduced by cross multiplication with the pivot row, then divided by
the gcd of its entries (integer-preserving, like Bareiss's elimination),
so the only division is the read-off.  The pivot row of each column is
the sparsest candidate; since the RREF is unique for a fixed column
order, that choice and the integer arithmetic change only the speed.

A matrix with a parameter entry is normalized once where it enters
elimination: each row is divided by its rational content and common
parameter-monomial factor, and repeated rows are dropped.  That may make
it rational (a row a*(u - v) becomes u - v); otherwise it is eliminated
fraction free (cross multiplication with normalization).  Normalizing
is integer work (params.primitive_row): a gcd of the values' numerators,
the common parameter monomial subtracted from each packed term key, and
exact division, so every value comes out an int; a row that is already
normal is kept as it is.  Exact division decides whether a pivot is
invertible, a unit monomial times nonzero conditions of the branch
(params.divides_into_unit).  Whenever none is, the solver splits cases on
the irreducible factors of a chosen pivot (one linear in a parameter with
a unit-monomial coefficient is irreducible as it stands; any other is
factored over Z by lik.factor, memoized per process and imported only
then): one generic branch assuming every factor nonzero, and one branch
per factor forced to zero (resolved by substituting the factor's solution
for a parameter).
Declared parameters themselves are assumed nonzero throughout, so pure
parameter monomials never trigger a split.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, NamedTuple, Sequence

from .expr import LatticeMonomial, LatticePoly, accumulate, term_key
from .params import ParamCoeff, divides_into_unit, primitive_row

# A sparse row: column index -> nonzero entry.
Row = dict[int, ParamCoeff]

# How many nested case splits a parametric solve may make.
DEFAULT_BRANCH_DEPTH = 6


class LinearSolveError(ValueError):
    pass


class LinearSystem(NamedTuple):
    """Homogeneous system in compressed sparse row form: rows[k] holds the
    nonzero coefficients of row k and columns[k] their unknown indices, in
    ascending order.  No row is empty."""

    unknowns: tuple[str, ...]
    rows: tuple[tuple[ParamCoeff, ...], ...]
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def build(
        cls,
        unknowns: Sequence[str],
        sparse_rows: Iterable[dict[str, ParamCoeff]],
    ) -> "LinearSystem":
        """Order each row's nonzero entries by unknown; rows without one are
        dropped.  Normalization is the solver's."""
        index = {t: i for i, t in enumerate(unknowns)}
        rows, columns = [], []
        for row in sparse_rows:
            entries = sorted((index[t], c) for t, c in row.items() if not c.is_zero)
            if entries:
                cols, coeffs = zip(*entries)
                rows.append(coeffs)
                columns.append(cols)
        return cls(tuple(unknowns), tuple(rows), tuple(columns))

    def matrix(self) -> Iterable[Row]:
        """The rows as {column: entry} maps, made one at a time."""
        return map(dict, map(zip, self.columns, self.rows))


class SolveOutcome(NamedTuple):
    """Nullspace basis: one sparse assignment per basis vector."""

    basis: tuple[dict[str, ParamCoeff], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class Branch(NamedTuple):
    """One case of a parametric solve.

    eq_conditions are irreducible polynomials assumed zero, neq_conditions
    assumed nonzero.  outcome is None when the branch could not be resolved
    (status explains why); an empty basis means no candidate on the branch.
    """

    eq_conditions: tuple[ParamCoeff, ...]
    neq_conditions: tuple[ParamCoeff, ...]
    outcome: SolveOutcome | None
    status: str = "solved"


# -- row utilities ------------------------------------------------------------


def column_rows(
    unknowns: Iterable[str],
    columns: Iterable[Iterable[tuple[Hashable, LatticePoly]]],
) -> list[dict[str, ParamCoeff]]:
    """Sparse rows from per-unknown columns, each a stream of (slot key,
    polynomial the unknown contributes to that slot of the defining
    identity).  A column is scattered into its slots' rows as it is read,
    so it may be made just before and dropped after.  Every monomial of a
    slot gives one row; slots go in key order, monomials in term_key order.
    """
    slots: dict[Hashable, dict[LatticeMonomial, dict[str, ParamCoeff]]] = {}
    for tag, column in zip(unknowns, columns):
        for key, p in column:
            rows = slots.setdefault(key, {})
            for m, c in p.terms():
                rows.setdefault(m, {})[tag] = c
    out: list[dict[str, ParamCoeff]] = []
    for key in sorted(slots):
        rows = slots.pop(key)
        out.extend(rows[m] for m in sorted(rows, key=term_key))
    return out


def _is_rational(matrix: Iterable[Row]) -> bool:
    return all(c.is_rational for row in matrix for c in row.values())


def _normalize_row(row: Row) -> Row:
    """Divide by rational content and common parameter-monomial factor, and
    make the leading coefficient of the first entry positive; the row itself
    when it already is."""
    if not row:
        return row
    out = primitive_row(list(row.values()), row[min(row)])
    return row if out is None else dict(zip(row, out))


def _normalized_rows(matrix: Iterable[Row]) -> list[Row]:
    """Every nonempty row normalized, repeats dropped, first occurrences
    kept in order."""
    out: list[Row] = []
    seen: set[frozenset] = set()
    for row in matrix:
        if row:
            row = _normalize_row(row)
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                out.append(row)
    return out


def _normalize_factor(pc: ParamCoeff) -> ParamCoeff:
    return pc if pc.is_zero else _normalize_row({0: pc})[0]


def _factor_irreducible(pc: ParamCoeff) -> list[ParamCoeff]:
    """Irreducible-over-QQ factors that could actually vanish: rational
    content and pure parameter-monomial factors are dropped (parameters are
    nonzero by assumption).  A normalized g*p + h, with g a unit monomial
    and h free of p, is irreducible as it stands: a factor free of p
    divides the monomial g, and normalization took the monomial content."""
    pc = _normalize_factor(pc)
    if pc.is_zero or pc.is_rational or pc.is_unit_monomial():
        return []
    for p in pc.parameters():
        if pc.degree_in(p) == 1 and pc.coeff_of(p, 1).is_unit_monomial():
            return [pc]
    return list(_factors_of_normalized(pc))


@functools.cache
def _factors_of_normalized(pc: ParamCoeff) -> tuple[ParamCoeff, ...]:
    from .factor import irreducible_factors

    factors = [_normalize_factor(f) for f in irreducible_factors(pc)]
    out = [f for f in factors if not f.is_unit_monomial()]
    out.sort(key=lambda f: (f.total_degree(), f.render()))
    return tuple(out)


# -- the rational kernel --------------------------------------------------------


def _rational_nullspace(unknowns: Sequence[str], matrix: Iterable[Row]) -> SolveOutcome:
    """Nullspace basis of an all-rational matrix by sparse Gauss-Jordan
    elimination on primitive integer rows, columns in unknown order.

    One basis vector per free column fc of the RREF R: fc = 1 and -R[p][fc]
    on each pivot column p, zeros omitted; a pivot row keeps its integer
    entry at p, the one divisor.  Duplicate and scaled rows do not change R.
    """
    # forward pass: rows bucketed by leading column, eliminated column by
    # column with the sparsest row of the bucket as pivot
    by_lead: dict[int, list[dict[int, int]]] = {}
    for row in matrix:
        if row:
            vals = {j: c.value() for j, c in row.items()}
            den = lcm(*(v.denominator for v in vals.values()))
            if den != 1:
                vals = {j: v.numerator * den // v.denominator for j, v in vals.items()}
            by_lead.setdefault(min(row), []).append(_primitive(vals))
    pivots: dict[int, dict[int, int]] = {}  # column -> row
    for col in range(len(unknowns)):
        bucket = by_lead.pop(col, None)
        if not bucket:
            continue
        k = min(range(len(bucket)), key=lambda i: len(bucket[i]))
        piv = pivots[col] = bucket[k]
        for i, row in enumerate(bucket):
            if i != k:
                row = _eliminated(row, col, piv)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
    # backward pass: clear every pivot column above its pivot, last first
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for q in [q for q in row if q != col and q in pivots]:
            row = _eliminated(row, q, pivots[q])
        pivots[col] = row
    basis = []
    for fc in (j for j in range(len(unknowns)) if j not in pivots):
        vec = {p: Fraction(-r[fc], r[p]) for p, r in pivots.items() if fc in r}
        vec[fc] = 1
        basis.append(
            {unknowns[j]: ParamCoeff.from_value(vec[j]) for j in sorted(vec)}
        )
    return SolveOutcome(tuple(basis))


def _eliminated(row: dict[int, int], col: int, piv: dict[int, int]) -> dict[int, int]:
    """(p/g)*row - (r/g)*piv with p = piv[col], r = row[col], g = gcd(p, r):
    zero at col and at every other cancelled entry, then made primitive."""
    p, r = piv[col], row[col]
    g = gcd(p, r)
    a, b = p // g, r // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in piv.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


# -- the branching solver -------------------------------------------------------


class _ParametricSolver:
    def __init__(self, unknowns: tuple[str, ...]):
        self.unknowns = unknowns
        self.results: list[Branch] = []

    # matrices are lists of sparse rows.  subs accumulates the parameter
    # assignments p := num/den made along the branch; the reported equality
    # conditions are the cleared per-parameter equations den*p - num = 0,
    # which present the branch locus canonically.

    def _conditions(
        self,
        subs: dict[str, tuple[ParamCoeff, ParamCoeff]],
        extra: Iterable[ParamCoeff] = (),
    ) -> tuple[ParamCoeff, ...]:
        conds = []
        for p in sorted(subs):
            num, den = subs[p]
            conds.append(_normalize_factor(den * ParamCoeff.param(p) - num))
        for f in extra:
            f = _normalize_factor(f)
            if not f.is_zero and all(f != g for g in conds):
                conds.append(f)
        return tuple(conds)

    def _unresolved(self, subs, neqs, status: str, extra=()) -> None:
        """Report a branch that cannot be solved, with the reason."""
        self.results.append(Branch(self._conditions(subs, extra), neqs, None, status))

    @staticmethod
    def _update_subs(
        subs: dict[str, tuple[ParamCoeff, ParamCoeff]],
        p: str,
        num: ParamCoeff,
        den: ParamCoeff,
    ) -> dict[str, tuple[ParamCoeff, ParamCoeff]]:
        out: dict[str, tuple[ParamCoeff, ParamCoeff]] = {}
        for q, (qn, qd) in subs.items():
            d = max(qn.degree_in(p), qd.degree_in(p))
            out[q] = (
                qn.substitute_cleared(p, num, den, d),
                qd.substitute_cleared(p, num, den, d),
            )
        out[p] = (num, den)
        return out

    def solve(
        self,
        matrix: list[Row],
        subs: dict[str, tuple[ParamCoeff, ParamCoeff]],
        neqs: tuple[ParamCoeff, ...],
        pending: list[ParamCoeff],
        depth: int,
    ) -> None:
        if pending:
            self._resolve_pending(matrix, subs, neqs, pending, depth)
            return
        # a rational matrix goes to the kernel as it is, as duplicate and
        # scaled rows do not change its RREF; normalizing may make one so
        rational = _is_rational(matrix)
        if not rational:
            matrix = _normalized_rows(matrix)
            rational = _is_rational(matrix)
        if rational:
            self.results.append(
                Branch(
                    self._conditions(subs),
                    neqs,
                    _rational_nullspace(self.unknowns, matrix),
                )
            )
        else:
            self._eliminate(matrix, subs, neqs, depth)

    def _resolve_pending(self, matrix, subs, neqs, pending, depth) -> None:
        f = _normalize_factor(pending[0])
        rest = pending[1:]
        if f.is_zero:
            self.solve(matrix, subs, neqs, rest, depth)
            return
        if f.is_rational or f.is_unit_monomial():
            return  # contradiction: nonzero quantity required to vanish
        if depth <= 0:
            self._unresolved(
                subs, neqs, f"branch depth exhausted at {f.render()} = 0", [f]
            )
            return
        for fac in _factor_irreducible(f):
            self._apply_equation(matrix, fac, subs, neqs, rest, depth - 1)

    def _apply_equation(self, matrix, fac, subs, neqs, pending, depth) -> None:
        """Impose fac = 0 by solving it for one parameter and substituting."""
        if any(fac == g for g in neqs):
            return  # contradicts a nonzero assumption on this branch
        linear = {
            p: fac.coeff_of(p, 1)
            for p in sorted(fac.parameters())
            if fac.degree_in(p) == 1
        }
        if not linear:
            self._unresolved(
                subs,
                neqs,
                f"unresolved condition: cannot solve {fac.render()} = 0 "
                "for a parameter",
                [fac, *pending],
            )
            return
        # fac = g*p + h: prefer a rational g, then a parameter monomial, as
        # neither can vanish
        p = min(
            linear,
            key=lambda q: (not linear[q].is_rational, not linear[q].is_unit_monomial()),
        )
        g, h = linear[p], fac.coeff_of(p, 0)
        if not g.is_unit_monomial():
            # g may vanish: split g = 0 (then also h = 0) from g != 0
            if depth <= 0:
                self._unresolved(
                    subs, neqs, f"branch depth exhausted at {fac.render()} = 0", [fac]
                )
                return
            gfactors = _factor_irreducible(g)
            for gf in gfactors:
                self._apply_equation(
                    matrix, gf, subs, neqs, pending + [fac, h], depth - 1
                )
            neqs = neqs + tuple(f for f in gfactors if all(f != x for x in neqs))
        self._substitute_cleared(matrix, p, g, h, subs, neqs, pending, depth)

    def _substitute_cleared(
        self, matrix, p, g, h, subs, neqs, pending, depth
    ) -> None:
        # p := -h/g with g assumed nonzero; each row is scaled by a power
        # of g, which preserves the homogeneous equations (a rational g is
        # a constant scale, which normalization removes).
        num = -h
        if any(q.substitute_cleared(p, num, g, q.degree_in(p)).is_zero for q in neqs):
            return  # nonzero assumption violated: empty branch
        new_matrix = []
        for row in matrix:
            d = max((c.degree_in(p) for c in row.values()), default=0)
            if d:
                row = {j: c.substitute_cleared(p, num, g, d) for j, c in row.items()}
                row = {j: c for j, c in row.items() if not c.is_zero}
            new_matrix.append(row)
        new_pending = [
            q.substitute_cleared(p, num, g, q.degree_in(p)) for q in pending
        ]
        new_subs = self._update_subs(subs, p, num, g)
        self.solve(new_matrix, new_subs, neqs, new_pending, depth)

    # -- elimination ------------------------------------------------------

    def _invertible(self, c: ParamCoeff, neqs) -> bool:
        """Whether c is a unit monomial times a product of the nonzero
        conditions neqs (irreducible and primitive), decided by exact
        division rather than by factoring c."""
        if c.is_rational or c.is_unit_monomial():
            return True
        return bool(neqs) and divides_into_unit(_normalize_factor(c), neqs)

    def _eliminate(self, rows: list[Row], subs, neqs, depth) -> None:
        """Fraction-free Gauss-Jordan elimination on normalized rows."""
        pivot_rows: list[tuple[int, int]] = []  # (row index, col)
        used: set[int] = set()
        for col in range(len(self.unknowns)):
            live = [ri for ri, row in enumerate(rows) if col in row and ri not in used]
            if not live:
                continue  # free column
            # prefer rational pivots, then other invertible ones
            cand = next((ri for ri in live if rows[ri][col].is_rational), None)
            if cand is None:
                cand = next(
                    (ri for ri in live if self._invertible(rows[ri][col], neqs)), None
                )
            if cand is None:
                # branch on the structurally simplest pivot in this column
                ri = min(
                    live,
                    key=lambda k: (rows[k][col].total_degree(), rows[k][col].render()),
                )
                pivot = rows[ri][col]
                if depth <= 0:
                    self._unresolved(
                        subs, neqs, f"branch depth exhausted at pivot {pivot.render()}"
                    )
                    return
                factors = _factor_irreducible(pivot)
                neq_plus = neqs + tuple(f for f in factors if all(f != x for x in neqs))
                self.solve(rows, subs, neq_plus, [], depth - 1)
                for fac in factors:
                    self._apply_equation(rows, fac, subs, neqs, [], depth - 1)
                return
            prow = rows[cand]
            piv = prow[col]
            for ri, row in enumerate(rows):
                if ri != cand and col in row:
                    rows[ri] = _normalize_row(_cross(piv, row, row[col], prow))
            used.add(cand)
            pivot_rows.append((cand, col))
        self.results.append(
            Branch(self._conditions(subs), neqs, self._extract_basis(rows, pivot_rows))
        )

    def _extract_basis(self, rows: list[Row], pivot_rows) -> SolveOutcome:
        # clear denominators with the product of all pivots
        pivots = {col: rows[ri][col] for ri, col in pivot_rows}

        @functools.cache
        def product_without(skip: int | None) -> ParamCoeff:
            out = ParamCoeff.one()
            for col in sorted(pivots):
                if col != skip:
                    out = out * pivots[col]
            return out

        total = product_without(None)
        basis: list[dict[str, ParamCoeff]] = []
        for fc in range(len(self.unknowns)):
            if fc in pivots:
                continue
            vec = {fc: total}
            for ri, col in pivot_rows:
                if fc in rows[ri]:
                    vec[col] = -rows[ri][fc] * product_without(col)
            vec = _normalize_row(vec)
            if _is_rational([vec]):
                k = 1 / vec[fc].as_fraction()
                vec = {j: c.scale(k) for j, c in vec.items()}
            basis.append({self.unknowns[j]: vec[j] for j in sorted(vec)})
        return SolveOutcome(tuple(basis))


def _cross(a: ParamCoeff, row: Row, b: ParamCoeff, other: Row) -> Row:
    """a*row - b*other with zero entries dropped."""
    out = {j: a * c for j, c in row.items()}
    nb = -b
    for j, c in other.items():
        accumulate(out, j, nb * c)
    return out


def nullspace(system: LinearSystem) -> SolveOutcome:
    """Nullspace basis of a system that is rational once its rows are
    normalized."""
    rows = system.matrix()
    if not all(c.is_rational for row in system.rows for c in row):
        rows = _normalized_rows(rows)
        if not _is_rational(rows):
            raise LinearSolveError(
                "nullspace requires rational entries; use parametric_solve"
            )
    return _rational_nullspace(system.unknowns, rows)


def parametric_solve(
    system: LinearSystem, max_depth: int = DEFAULT_BRANCH_DEPTH
) -> list[Branch]:
    """Case-split solve of a homogeneous system.

    A parameter-free system gives one unconditional branch.  Returns every
    explored branch with its parameter conditions; branches
    whose conditions are contradictory are dropped.  Exhausted or
    unresolvable branches are reported with outcome None, never silently.
    """
    solver = _ParametricSolver(system.unknowns)
    solver.solve(list(system.matrix()), {}, (), [], max_depth)
    # deterministic order: by conditions, generic (fewest equalities) first
    def branch_key(b: Branch):
        return (
            len(b.eq_conditions),
            tuple(c.render() for c in b.eq_conditions),
            tuple(c.render() for c in b.neq_conditions),
        )

    uniq: dict[tuple, Branch] = {}
    for b in solver.results:
        uniq.setdefault(branch_key(b), b)
    return [uniq[k] for k in sorted(uniq)]


def normalize_basis_vector(
    vec: dict[str, ParamCoeff], targets: Iterable[tuple[str, Fraction | int]]
) -> tuple[str, dict[str, ParamCoeff]] | None:
    """vec scaled so that its entry at the first target tag holding a
    nonzero rational equals that target's value, with the tag; None when
    no target tag holds one."""
    for tag, value in targets:
        cur = vec.get(tag)
        if cur is not None and cur.is_rational and cur.as_fraction() != 0:
            k = value / cur.as_fraction()
            return tag, {t: c.scale(k) for t, c in vec.items()}
    return None


def fresh_tags(count: int, reserved: Iterable[str]) -> tuple[str, ...]:
    """Deterministic unknown tags c1..cN avoiding reserved names: on a
    clash the prefix is k, q or t, then cc, kk, qq, tt, ccc, ..."""
    reserved = set(reserved)
    for length in itertools.count(1):
        for pfx in "ckqt":
            tags = tuple(f"{pfx * length}{i}" for i in range(1, count + 1))
            if reserved.isdisjoint(tags):
                return tags
