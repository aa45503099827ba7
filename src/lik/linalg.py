"""Exact homogeneous linear solving for undetermined coefficients.

Systems are homogeneous with entries polynomial in declared parameters.
They are assembled column by column: each unknown contributes the
polynomial slots of the defining identity it multiplies, and every
monomial of a slot gives one row.  One solver, parametric_solve, handles
every system; a parameter-free one comes back as a single unconditional
branch.

Every matrix whose entries are all rational -- a parameter-free system,
or a branch whose parameters have been substituted away -- is solved by
one sparse Gauss-Jordan kernel over Fraction rows, which returns the
nullspace basis read off the reduced row echelon form.  The pivot row of
each column is the sparsest candidate; since the RREF is unique for a
fixed column order, that choice changes only the speed.

A matrix that still holds a parameter entry is eliminated fraction free
(cross multiplication with content removal).  Whenever no invertible
pivot is available the solver splits cases on the irreducible factors of
a chosen pivot (exact factorization over Z by lik.factor, memoized per
process): one generic branch assuming every factor nonzero, and one
branch per factor forced to zero (resolved by substituting the factor's
solution for a parameter).  Declared parameters themselves are assumed
nonzero throughout, so pure parameter monomials never trigger a split.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .expr import LatticeMonomial, LatticePoly, term_key
from .params import ParamCoeff, PMono


class LinearSolveError(ValueError):
    pass


@dataclass(frozen=True)
class LinearSystem:
    """Homogeneous system: ordered unknown tags and rows tag -> coefficient."""

    unknowns: tuple[str, ...]
    rows: tuple[tuple[ParamCoeff, ...], ...]

    @classmethod
    def build(
        cls,
        unknowns: Sequence[str],
        sparse_rows: Iterable[dict[str, ParamCoeff]],
    ) -> "LinearSystem":
        index = {t: i for i, t in enumerate(unknowns)}
        dense: list[tuple[ParamCoeff, ...]] = []
        seen: set[tuple] = set()
        for row in sparse_rows:
            vec = [ParamCoeff.zero()] * len(unknowns)
            for t, c in row.items():
                vec[index[t]] = c
            vec = _normalize_row(vec)
            if all(c.is_zero for c in vec):
                continue
            key = _row_key(vec)
            if key in seen:
                continue
            seen.add(key)
            dense.append(tuple(vec))
        return cls(tuple(unknowns), tuple(dense))

    @classmethod
    def from_columns(
        cls,
        unknowns: Sequence[str],
        columns: Sequence[Sequence[LatticePoly]],
    ) -> "LinearSystem":
        """The system whose rows column_rows emits."""
        return cls.build(unknowns, column_rows(unknowns, columns))

    @property
    def parameters(self) -> set[str]:
        out: set[str] = set()
        for row in self.rows:
            for c in row:
                out |= c.parameters()
        return out


@dataclass(frozen=True)
class SolveOutcome:
    """Nullspace basis: one sparse assignment per basis vector."""

    basis: tuple[dict[str, ParamCoeff], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Branch:
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
    unknowns: Sequence[str], columns: Sequence[Sequence[LatticePoly]]
) -> list[dict[str, ParamCoeff]]:
    """Sparse rows from per-unknown columns: columns[k][s] is the polynomial
    that unknown k contributes to slot s of the defining identity.

    Every monomial of a slot gives one row; slots are taken in order,
    monomials within a slot in term_key order.
    """
    sparse: list[dict[str, ParamCoeff]] = []
    for slot in zip(*columns, strict=True):
        rows: dict[LatticeMonomial, dict[str, ParamCoeff]] = {}
        for tag, p in zip(unknowns, slot):
            for m, c in p.items():
                rows.setdefault(m, {})[tag] = c
        sparse.extend(rows[m] for m in sorted(rows, key=term_key))
    return sparse


def _normalize_row(vec: list[ParamCoeff]) -> list[ParamCoeff]:
    """Divide by rational content and common parameter-monomial factor, and
    fix the sign of the first nonzero leading coefficient."""
    nz = [c for c in vec if not c.is_zero]
    if not nz:
        return vec
    content = Fraction(0)
    from math import gcd

    num, den = 0, 1
    for c in nz:
        f = c.content()
        num = gcd(num, abs(f.numerator))
        den = den * f.denominator // gcd(den, f.denominator)
    content = Fraction(num, den)
    mono: dict[str, int] | None = None
    for c in nz:
        mc = dict(c.monomial_content())
        if mono is None:
            mono = mc
        else:
            mono = {n: min(e, mc.get(n, 0)) for n, e in mono.items() if n in mc}
        if not mono:
            break
    inv_mono: PMono = tuple(sorted((n, -e) for n, e in (mono or {}).items() if e > 0))
    scale = ParamCoeff({inv_mono: Fraction(1) / content})
    out = [c if c.is_zero else c * scale for c in vec]
    for c in out:
        if not c.is_zero:
            _, lead = c.leading()
            if lead < 0:
                out = [x if x.is_zero else -x for x in out]
            break
    return out


def _row_key(vec: Sequence[ParamCoeff]) -> tuple:
    return tuple(tuple(sorted(c._terms.items())) for c in vec)


def _normalize_factor(pc: ParamCoeff) -> ParamCoeff:
    vec = _normalize_row([pc])
    return vec[0]


def _factor_irreducible(pc: ParamCoeff) -> list[ParamCoeff]:
    """Irreducible-over-QQ factors that could actually vanish: rational
    content and pure parameter-monomial factors are dropped (parameters are
    nonzero by assumption)."""
    pc = _normalize_factor(pc)
    if pc.is_zero or pc.is_rational or pc.is_unit_monomial():
        return []
    return list(_factors_of_normalized(pc))


@functools.cache
def _factors_of_normalized(pc: ParamCoeff) -> tuple[ParamCoeff, ...]:
    from .factor import irreducible_factors

    factors = [_normalize_factor(f) for f in irreducible_factors(pc)]
    out = [f for f in factors if not f.is_unit_monomial()]
    out.sort(key=lambda f: (f.total_degree(), f.render()))
    return tuple(out)


# -- the rational kernel --------------------------------------------------------


def _is_rational(matrix: Iterable[Sequence[ParamCoeff]]) -> bool:
    return all(c.is_rational for row in matrix for c in row)


def _rational_nullspace(
    unknowns: Sequence[str], matrix: Iterable[Sequence[ParamCoeff]]
) -> SolveOutcome:
    """Nullspace basis of an all-rational matrix by sparse Gauss-Jordan
    elimination on {column: Fraction} rows, columns in unknown order.

    One basis vector per free column fc of the RREF R: fc = 1 and -R[p][fc]
    on each pivot column p, zeros omitted.  Duplicate and scaled rows do
    not change R, so rows need no normalization.
    """
    # forward pass: rows bucketed by leading column, eliminated column by
    # column with the sparsest row of the bucket as pivot
    by_lead: dict[int, list[dict[int, Fraction]]] = {}
    for row in matrix:
        vec = {j: c.as_fraction() for j, c in enumerate(row) if not c.is_zero}
        if vec:
            by_lead.setdefault(min(vec), []).append(vec)
    pivots: dict[int, dict[int, Fraction]] = {}  # column -> row, entry 1
    for col in range(len(unknowns)):
        bucket = by_lead.pop(col, None)
        if not bucket:
            continue
        k = min(range(len(bucket)), key=lambda i: len(bucket[i]))
        inv = 1 / bucket[k][col]
        piv = {j: a * inv for j, a in bucket[k].items()}
        pivots[col] = piv
        for i, row in enumerate(bucket):
            if i != k:
                row = _subtract_multiple(row, row[col], piv)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
    # backward pass: clear every pivot column above its pivot, last first
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for q in [q for q in row if q != col and q in pivots]:
            row = _subtract_multiple(row, row[q], pivots[q])
        pivots[col] = row
    by_free: dict[int, list[tuple[int, Fraction]]] = {}
    for col, row in pivots.items():
        for j, a in row.items():
            if j != col:
                by_free.setdefault(j, []).append((col, -a))
    basis = []
    for fc in range(len(unknowns)):
        if fc in pivots:
            continue
        entries = sorted([(fc, Fraction(1))] + by_free.get(fc, []))
        basis.append({unknowns[j]: ParamCoeff.from_value(v) for j, v in entries})
    return SolveOutcome(tuple(basis))


def _subtract_multiple(
    row: dict[int, Fraction], f: Fraction, piv: dict[int, Fraction]
) -> dict[int, Fraction]:
    """row - f*piv with zero entries dropped."""
    out = dict(row)
    for j, a in piv.items():
        v = out.get(j, 0) - f * a
        if v:
            out[j] = v
        else:
            del out[j]
    return out


# -- the branching solver -------------------------------------------------------


class _ParametricSolver:
    def __init__(self, unknowns: tuple[str, ...]):
        self.unknowns = unknowns
        self.results: list[Branch] = []

    # matrix rows are tuples of ParamCoeff, one entry per unknown.  subs
    # accumulates the parameter assignments p := num/den made along the
    # branch; the reported equality conditions are the cleared per-parameter
    # equations den*p - num = 0, which present the branch locus canonically.

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
        matrix: list[list[ParamCoeff]],
        subs: dict[str, tuple[ParamCoeff, ParamCoeff]],
        neqs: tuple[ParamCoeff, ...],
        pending: list[ParamCoeff],
        depth: int,
    ) -> None:
        if pending:
            self._resolve_pending(matrix, subs, neqs, pending, depth)
        elif _is_rational(matrix):
            self.results.append(
                Branch(
                    self._conditions(subs),
                    neqs,
                    _rational_nullspace(self.unknowns, matrix),
                    "solved",
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
        factors = _factor_irreducible(f)
        if depth <= 0:
            self.results.append(
                Branch(
                    self._conditions(subs, [f]),
                    neqs,
                    None,
                    f"branch depth exhausted at {f.render()} = 0",
                )
            )
            return
        for fac in factors:
            self._apply_equation(matrix, fac, subs, neqs, rest, depth - 1)

    def _apply_equation(self, matrix, fac, subs, neqs, pending, depth) -> None:
        """Impose fac = 0 by solving it for one parameter and substituting."""
        if any(fac == g for g in neqs):
            return  # contradicts a nonzero assumption on this branch
        linear = [p for p in sorted(fac.parameters()) if fac.degree_in(p) == 1]
        choice = None
        for p in linear:
            g = fac.coeff_of(p, 1)
            if g.is_rational:
                choice = (p, g, 0)
                break
        if choice is None:
            for p in linear:
                g = fac.coeff_of(p, 1)
                if g.is_unit_monomial():
                    choice = (p, g, 1)
                    break
        if choice is None and linear:
            choice = (linear[0], fac.coeff_of(linear[0], 1), 2)
        if choice is None:
            self.results.append(
                Branch(
                    self._conditions(subs, [fac] + list(pending)),
                    neqs,
                    None,
                    f"unresolved condition: cannot solve {fac.render()} = 0 "
                    "for a parameter",
                )
            )
            return

        p, g, kind = choice
        h = fac.coeff_of(p, 0)
        if kind == 0:
            # fac = g*p + h with rational g: substitute p := -h/g.
            value = h.scale(Fraction(-1) / g.as_fraction())
            sub = {p: value}
            new_matrix = [
                [c.substitute(sub) for c in row] for row in matrix
            ]
            new_pending = [q.substitute(sub) for q in pending]
            new_neqs = []
            for q in neqs:
                q2 = _normalize_factor(q.substitute(sub))
                if q2.is_zero:
                    return  # nonzero assumption violated: empty branch
                new_neqs.append(q)
            new_subs = self._update_subs(subs, p, value, ParamCoeff.one())
            self.solve(new_matrix, new_subs, tuple(new_neqs), new_pending, depth)
            return
        if kind == 2 and not g.is_unit_monomial():
            # leading coefficient may vanish: split g = 0 (then also h = 0)
            # from g != 0 (then substitute with clearing).
            if depth <= 0:
                self.results.append(
                    Branch(
                        self._conditions(subs, [fac]),
                        neqs,
                        None,
                        f"branch depth exhausted at {fac.render()} = 0",
                    )
                )
                return
            gfactors = _factor_irreducible(g)
            for gf in gfactors:
                self._apply_equation(
                    matrix, gf, subs, neqs, pending + [fac, h], depth - 1
                )
            neq_plus = neqs + tuple(f for f in gfactors if all(f != x for x in neqs))
            self._substitute_cleared(
                matrix, p, g, h, subs, neq_plus, pending, depth
            )
            return
        self._substitute_cleared(matrix, p, g, h, subs, neqs, pending, depth)

    def _substitute_cleared(
        self, matrix, p, g, h, subs, neqs, pending, depth
    ) -> None:
        # p := -h/g with polynomial g assumed nonzero; each row is scaled by
        # a power of g, which preserves the homogeneous equations.
        num = -h
        new_matrix = []
        for row in matrix:
            d = max((c.degree_in(p) for c in row), default=0)
            new_matrix.append([c.substitute_cleared(p, num, g, d) for c in row])
        new_pending = [
            q.substitute_cleared(p, num, g, q.degree_in(p)) for q in pending
        ]
        new_neqs = []
        for q in neqs:
            q2 = _normalize_factor(q.substitute_cleared(p, num, g, q.degree_in(p)))
            if q2.is_zero:
                return
            new_neqs.append(q)
        new_subs = self._update_subs(subs, p, num, g)
        self.solve(new_matrix, new_subs, tuple(new_neqs), new_pending, depth)

    # -- elimination ------------------------------------------------------

    def _invertible(self, c: ParamCoeff, neqs) -> bool:
        if c.is_rational:
            return not c.is_zero
        if c.is_unit_monomial():
            return True
        factors = _factor_irreducible(c)
        return bool(factors) and all(any(f == g for g in neqs) for f in factors)

    def _eliminate(self, matrix, subs, neqs, depth) -> None:
        rows: list[list[ParamCoeff]] = []
        seen: set[tuple] = set()
        for row in matrix:
            vec = _normalize_row(list(row))
            if all(c.is_zero for c in vec):
                continue
            key = _row_key(vec)
            if key not in seen:
                seen.add(key)
                rows.append(vec)

        ncols = len(self.unknowns)
        pivot_rows: list[tuple[int, int]] = []  # (row index, col)
        used: set[int] = set()
        for col in range(ncols):
            # prefer rational pivots, then parameter-monomial pivots
            cand = None
            for want_rational in (True, False):
                for ri, row in enumerate(rows):
                    if ri in used or row[col].is_zero:
                        continue
                    if row[col].is_rational is want_rational and self._invertible(
                        row[col], neqs
                    ):
                        cand = ri
                        break
                if cand is not None:
                    break
            if cand is None:
                nonzero = [
                    ri for ri, row in enumerate(rows)
                    if ri not in used and not row[col].is_zero
                ]
                if not nonzero:
                    continue  # free column
                # branch on the structurally simplest pivot in this column
                ri = min(
                    nonzero,
                    key=lambda k: (
                        rows[k][col].total_degree(),
                        rows[k][col].render(),
                    ),
                )
                pivot = rows[ri][col]
                factors = _factor_irreducible(pivot)
                if depth <= 0:
                    self.results.append(
                        Branch(self._conditions(subs), neqs, None,
                               f"branch depth exhausted at pivot {pivot.render()}")
                    )
                    return
                neq_plus = neqs + tuple(
                    f for f in factors if all(f != x for x in neqs)
                )
                self.solve([list(r) for r in rows], subs, neq_plus, [], depth - 1)
                for fac in factors:
                    self._apply_equation(
                        [list(r) for r in rows], fac, subs, neqs, [], depth - 1
                    )
                return
            # fraction-free Gauss-Jordan step on every other row
            piv = rows[cand][col]
            for ri, row in enumerate(rows):
                if ri == cand or row[col].is_zero:
                    continue
                fac = row[col]
                rows[ri] = _normalize_row(
                    [piv * a - fac * b for a, b in zip(row, rows[cand])]
                )
            used.add(cand)
            pivot_rows.append((cand, col))

        self.results.append(
            Branch(
                self._conditions(subs),
                neqs,
                self._extract_basis(rows, pivot_rows),
                "solved",
            )
        )

    def _extract_basis(self, rows, pivot_rows) -> SolveOutcome:
        ncols = len(self.unknowns)
        pivot_cols = {col for _, col in pivot_rows}
        free_cols = [c for c in range(ncols) if c not in pivot_cols]
        basis: list[dict[str, ParamCoeff]] = []
        for fc in free_cols:
            # clear denominators with the product of all pivots
            pivots = {col: rows[ri][col] for ri, col in pivot_rows}
            total = ParamCoeff.one()
            for col in sorted(pivots):
                total = total * pivots[col]
            vec = [ParamCoeff.zero()] * ncols
            vec[fc] = total
            for ri, col in pivot_rows:
                if rows[ri][fc].is_zero:
                    continue
                others = ParamCoeff.one()
                for c2 in sorted(pivots):
                    if c2 != col:
                        others = others * pivots[c2]
                vec[col] = -rows[ri][fc] * others
            vec = _normalize_row(vec)
            if all(c.is_rational for c in vec):
                val = vec[fc].as_fraction()
                if val != 0:
                    vec = [c.scale(Fraction(1) / val) for c in vec]
            basis.append(
                {
                    self.unknowns[i]: c
                    for i, c in enumerate(vec)
                    if not c.is_zero
                }
            )
        return SolveOutcome(tuple(basis))


def nullspace(system: LinearSystem) -> SolveOutcome:
    """Nullspace basis of a parameter-free system over the rationals."""
    if not _is_rational(system.rows):
        raise LinearSolveError(
            "nullspace requires rational entries; use parametric_solve"
        )
    return _rational_nullspace(system.unknowns, system.rows)


def parametric_solve(system: LinearSystem, max_depth: int = 6) -> list[Branch]:
    """Case-split solve of a homogeneous system.

    A parameter-free system gives one unconditional branch.  Returns every
    explored branch with its parameter conditions; branches
    whose conditions are contradictory are dropped.  Exhausted or
    unresolvable branches are reported with outcome None, never silently.
    """
    solver = _ParametricSolver(system.unknowns)
    solver.solve([list(r) for r in system.rows], {}, (), [], max_depth)
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
    vec: dict[str, ParamCoeff], tag: str, value: Fraction
) -> dict[str, ParamCoeff]:
    """Scale a basis vector so vec[tag] == value (tag entry must be a
    nonzero rational)."""
    cur = vec.get(tag)
    if cur is None or not cur.is_rational or cur.as_fraction() == 0:
        raise LinearSolveError(f"cannot normalize on unknown {tag}")
    k = Fraction(value) / cur.as_fraction()
    return {t: c.scale(k) for t, c in vec.items()}


def evaluate_row(
    row: Sequence[ParamCoeff], unknowns: Sequence[str], vec: dict[str, ParamCoeff]
) -> ParamCoeff:
    total = ParamCoeff.zero()
    for c, t in zip(row, unknowns):
        if t in vec and not c.is_zero:
            total = total + c * vec[t]
    return total


def fresh_tags(count: int, reserved: Iterable[str], prefix: str = "c") -> tuple[str, ...]:
    """Deterministic unknown tags c1..cN avoiding reserved names."""
    reserved = set(reserved)
    for pfx in itertools.chain([prefix], ("k", "q", "t")):
        tags = tuple(f"{pfx}{i}" for i in range(1, count + 1))
        if not (set(tags) & reserved):
            return tags
    raise LinearSolveError("could not allocate unknown tags")
