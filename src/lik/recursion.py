"""Recursion operators: candidate construction, solving, verification.

The candidate is a local part plus a nonlocal part.  The local part puts,
into entry (i, j), every shift power occurring in the linearization entry
F'(u)[i][j] (plus the identity), with cofactors drawn from products of
the variables that occur on the right-hand sides at their occurring
shifts, filtered to the entry's rank.  The nonlocal part takes suitable
symmetry (x) covariant outer products around the inverse difference, one
undetermined coefficient per admissible pair.

Coefficients are pinned by two linear constraint families: mapping each
known symmetry to the next one up, and vanishing of the defining-identity
residual

    R'[F] + R o F' - F' o R

probed against each known symmetry after the first: on a symmetry G it
is Dt(R G) - F'[R G], zero once R G(1) = mu G(1 + gap), as the generation
family forces.  They restrict the solution space, one operator per unknown
at first, pair by pair: the generation family first, then the probes on
only the operators that survive it.  The space left is the intersection
of the families' kernels, whatever the order; its one element is the
operator.  The survivor is verified by probing every known symmetry and
generating two further ones, which must come out free of formal
antidifference terms and satisfy the symmetry identity exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .conservation import build_density_candidate, solve_density
from .expr import LatticeMonomial, LatticePoly, delta_decompose, term_key
from .linalg import (
    DEFAULT_BRANCH_DEPTH,
    LinearSolveError,
    LinearSystem,
    column_rows,
    fresh_tags,
    nullspace,
)
from .operators import DiffOperator, ExtendedExpr, OpEntry
from .params import Scalar, fraction, is_rational
from .scaling import WeightVector, achievable_ranks, power_products, rank_of
from .symmetry import (
    SymmetryResult,
    build_symmetry_candidate,
    frechet_operator,
    level_ranks,
    linearization_row,
    solve_symmetry,
    symmetry_residual,
)
from .system import DdeSystem

RankMatrix = tuple[tuple[Fraction, ...], ...]
# Staged-solve space: (vector over candidate tags and scale unknowns, operator)
Space = list[tuple[dict[str, int | Fraction], DiffOperator]]

# How many symmetry levels recursion_pipeline computes before the operator.
DEFAULT_LEVELS = 3


def rank_matrix(ga: SymmetryResult, gb: SymmetryResult) -> RankMatrix:
    """Entry (i, j) is rank(Gb_i) - rank(Ga_j) for the successor pair."""
    return tuple(
        tuple(rb - ra for ra in ga.ranks) for rb in gb.ranks
    )


class OperatorCandidate(NamedTuple):
    unknowns: tuple[str, ...]
    basis: tuple[DiffOperator, ...]  # one single-term operator per unknown


def build_r0(
    sys: DdeSystem, w: WeightVector, rm: RankMatrix
) -> OperatorCandidate:
    """Local candidate: per entry, one unknown for each (shift power,
    rank-matching pool cofactor) combination."""
    n = sys.n
    # the (component, shift) pairs of the right-hand side's variables
    pool = sorted(
        {(c, s) for f in sys.rhs for m in f.monomials() for c, s, _ in m.triples()}
    )
    fp = frechet_operator(sys.rhs)
    parts: list[tuple[int, int, LatticeMonomial, int]] = []
    for i in range(n):
        for j in range(n):
            cofactors = [
                m
                for m in power_products(pool, w, rm[i][j])
                if rank_of(m, w) == rm[i][j]
            ]
            # the shift powers of F'(u)[i][j], identity included
            shifts = {0} | set(fp.entries[i][j].locals)
            for a in sorted(shifts):
                for m in cofactors:
                    parts.append((i, j, m, a))
    tags = fresh_tags(len(parts), sys.params)
    basis = []
    for i, j, m, a in parts:
        op = DiffOperator.zero(n)
        entries = [list(row) for row in op.entries]
        entries[i][j] = OpEntry.local(LatticePoly.from_monomial(m), a)
        basis.append(DiffOperator(entries))
    return OperatorCandidate(tags, tuple(basis))


def log_density_rows(sys: DdeSystem) -> list[tuple[OpEntry, ...]]:
    """Linearization rows of the conserved logarithms.  log x_i is
    conserved when rhs_i / x_i is a forward difference; its row is the
    Laurent reciprocal 1/x_i in column i."""
    rows = []
    for i in range(sys.n):
        reciprocal = LatticePoly.var(i, 0, -1)
        canonical, _ = delta_decompose(sys.rhs[i] * reciprocal)
        if canonical.is_zero:
            row = [OpEntry.zero()] * sys.n
            row[i] = OpEntry.local(reciprocal)
            rows.append(tuple(row))
    return rows


def _entry_cof_rank(entry: OpEntry, w: WeightVector) -> Fraction | None:
    """Common rank of an entry's local cofactors, None for the zero entry."""
    ranks = {rank_of(m, w) for cof in entry.locals.values() for m in cof.monomials()}
    if not ranks:
        return None
    if len(ranks) > 1:
        raise ValueError("covariant entry is not uniform in rank")
    return ranks.pop()


def _signed_components(g: SymmetryResult) -> tuple[LatticePoly, ...]:
    """Orient a symmetry so its first nonzero component has a positive
    leading coefficient (fixes the sign convention of nonlocal blocks)."""
    for c in g.components:
        if not c.is_zero:
            _, lead = c.leading()
            if is_rational(lead) and fraction(lead) < 0:
                return tuple(-x for x in g.components)
            break
    return g.components


def default_covariants(
    sys: DdeSystem,
    w: WeightVector,
    symmetries: Sequence[SymmetryResult],
    rm: RankMatrix,
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> list[tuple[OpEntry, ...]]:
    """Covariant pool: detected logarithmic densities plus polynomial
    densities up to the rank admissible by the rank matrix."""
    n = sys.n
    rows = log_density_rows(sys)
    bound = None
    for g in symmetries:
        for j in range(n):
            b = min(rm[i][j] - g.ranks[i] + w[j] for i in range(n))
            bound = b if bound is None else max(bound, b)
    if bound is not None and bound >= 1:
        for rank in achievable_ranks(w, bound):
            cand = build_density_candidate(sys, w, rank)
            if cand is None:
                continue
            results, _ = solve_density(cand, sys, max_depth)
            for r in results:
                if not r.eq_conditions:
                    rows.append(linearization_row(r.density, n))
    return rows


def build_r1(
    sys: DdeSystem,
    w: WeightVector,
    rm: RankMatrix,
    symmetries: Sequence[SymmetryResult],
    covariants: Sequence[tuple[OpEntry, ...]],
    existing: int,
) -> OperatorCandidate:
    """One unknown per admissible pair: symmetry column, inverse
    difference, covariant row.  A pair is admissible when every nonzero
    outer-product entry lands exactly on the rank matrix."""
    n = sys.n
    ops: list[DiffOperator] = []
    for g in symmetries:
        comps = _signed_components(g)
        grank = g.ranks
        for row in covariants:
            cranks = [_entry_cof_rank(e, w) for e in row]
            if any(
                grank[i] + cranks[j] != rm[i][j]
                for i in range(n)
                for j in range(n)
                if not comps[i].is_zero and cranks[j] is not None
            ):
                continue
            entries = [[OpEntry.zero() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                if comps[i].is_zero:
                    continue
                left = OpEntry.sandwich(comps[i], LatticePoly.const(1))
                for j in range(n):
                    if row[j].is_zero:
                        continue
                    entries[i][j] = left.compose(row[j])
            op = DiffOperator(entries)
            if not op.is_zero:
                ops.append(op)
    tags = fresh_tags(existing + len(ops), sys.params)[existing:]
    return OperatorCandidate(tags, tuple(ops))


def build_candidate(
    sys: DdeSystem,
    w: WeightVector,
    rm: RankMatrix,
    symmetries: Sequence[SymmetryResult],
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> OperatorCandidate:
    r0 = build_r0(sys, w, rm)
    covariants = default_covariants(sys, w, symmetries, rm, max_depth)
    r1 = build_r1(sys, w, rm, symmetries, covariants, len(r0.unknowns))
    return OperatorCandidate(r0.unknowns + r1.unknowns, r0.basis + r1.basis)


def identity_residual(
    op: DiffOperator, sys: DdeSystem, fp: DiffOperator
) -> DiffOperator:
    """The defining-identity operator R'[F] + R o F' - F' o R of op, where
    fp is the linearization F' of the right-hand side F."""
    return op.frechet(sys.rhs) + op.compose(fp) - fp.compose(op)


def identity_vanishes(residual_op: DiffOperator, g: Sequence[LatticePoly]) -> bool:
    """Whether the defining-identity operator (see identity_residual)
    annihilates g."""
    return all(x.is_zero for x in residual_op.apply(list(g)))


def generation_step(
    op: DiffOperator, g: Sequence[LatticePoly], sys: DdeSystem
) -> tuple[list[LatticePoly] | None, bool]:
    """R G: its components, None when an antidifference term survives, and
    whether they satisfy the symmetry identity."""
    nxt = op.apply(list(g))
    if not all(x.is_local for x in nxt):
        return None, False
    polys = [x.local for x in nxt]
    return polys, all(x.is_zero for x in symmetry_residual(polys, sys))


class RecursionOutcome(NamedTuple):
    """What recursion_pipeline found, built once where the pipeline ends."""

    operator: DiffOperator | None
    coefficients: dict[str, Fraction]
    generated: tuple[tuple[int, tuple[LatticePoly, ...]], ...] = ()
    checks: tuple[str, ...] = ()
    failure_family: str | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.operator is not None


class _NoOperator(Exception):
    """Raised with (failure family, message) where a failure is found."""


def _slots(exprs: Sequence[ExtendedExpr]):
    """(slot key, polynomial) for each slot of an applied operator: per
    component, the local slot, then one slot per formal antidifference
    monomial in term order (its cofactor)."""
    for i, e in enumerate(exprs):
        yield (i, 0), e.local
        for m, cof in e.thetas.items():
            yield (i, 1, term_key(m)), cof


def _restriction_rows(
    columns: Iterable[Sequence[ExtendedExpr]],
) -> list[dict[str, Scalar]]:
    """Rows of one restriction: one column of applied expressions per
    space element, named by position and read as it is made."""
    return column_rows(map(str, itertools.count()), map(_slots, columns))


def _restrict(space: Space, columns: Iterable[Sequence[ExtendedExpr]]) -> Space:
    """The combinations of the space's elements whose columns sum to zero:
    one element per nullspace basis vector y, its vector and operator
    the sums of y_c times those of element c."""
    tags = tuple(map(str, range(len(space))))
    try:
        outcome = nullspace(LinearSystem.build(tags, _restriction_rows(columns)))
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
    out = []
    for y in outcome.basis:
        vec: dict[str, int | Fraction] = {}
        op = DiffOperator.zero(space[0][1].n)
        for tag, k in y.items():
            v, o = space[int(tag)]
            for t, x in v.items():
                vec[t] = vec.get(t, 0) + x * k
            op = op + o.scale(k)
        out.append((vec, op))
    return out


def solve_recursion(
    sys: DdeSystem,
    w: WeightVector,
    symmetries: Sequence[SymmetryResult],
    gap: int = 1,
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> RecursionOutcome:
    """Determine the candidate coefficients from consecutive symmetry
    pairs plus defining-identity probes, then verify the survivor."""
    try:
        coeffs, operator, fp = _determine(sys, w, symmetries, gap, max_depth)
    except _NoOperator as exc:
        return RecursionOutcome(None, {}, (), (), *exc.args)
    return _verify(sys, operator, coeffs, symmetries, fp, gap)


def _determine(
    sys: DdeSystem,
    w: WeightVector,
    symmetries: Sequence[SymmetryResult],
    gap: int,
    max_depth: int,
) -> tuple[dict[str, Fraction], DiffOperator, DiffOperator]:
    """The coefficients, the operator they make and F'."""
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

    cand = build_candidate(sys, w, rm, symmetries, max_depth)
    if not cand.unknowns:
        raise _NoOperator(
            "candidate", "empty operator candidate at the required ranks"
        )

    fp = frechet_operator(sys.rhs)
    space = [({t: 1}, op) for t, op in zip(cand.unknowns, cand.basis)]
    # R G(1) = mu G(1 + gap), a symmetry, so the probe on G(1) restricts nothing
    probed = 1  # symmetries whose identity probes restricted the space
    for k, (ga, gb) in enumerate(pairs):
        # pair k adds R Ga - mu Gb = 0, the scale unknown mu entering with
        # -Gb, then the probes on every symmetry up to Gb
        minus_gb = [ExtendedExpr(-c) for c in gb.components]
        applied = (op.apply(list(ga.components)) for _, op in space)
        scale = ({f"mu{k + 1}": 1}, DiffOperator.zero(sys.n))
        space = _restrict(space + [scale], itertools.chain(applied, [minus_gb]))
        for g in symmetries[probed : k + gap + 1]:
            probes = (identity_residual(op, sys, fp) for _, op in space)
            space = _restrict(space, (p.apply(list(g.components)) for p in probes))
        probed = k + gap + 1
        if len(space) == 1:
            break
    else:
        raise _NoOperator(
            "coefficient-determination",
            f"solution space still {len(space)}-dimensional after "
            "using every supplied symmetry pair",
        )
    # the nullspace basis is rational, so mu is too
    vec, operator = space[0]
    mu = Fraction(vec.get("mu1", 0))
    if not mu:
        raise _NoOperator(
            "generation",
            "no operator maps the first symmetry to the second (scale "
            "coefficient vanishes)",
        )
    coeffs = {tag: vec.get(tag, 0) / mu for tag in cand.unknowns}
    return coeffs, operator.scale(1 / mu), fp


def _verify(
    sys: DdeSystem,
    operator: DiffOperator,
    coeffs: dict[str, Fraction],
    symmetries: Sequence[SymmetryResult],
    fp: DiffOperator,
    gap: int,
) -> RecursionOutcome:
    """Probe the identity on every supplied symmetry, then generate from
    the first one: R G(1) must be G(1 + gap), and two levels beyond the
    supplied chain must come out local symmetries."""
    checks: list[str] = []
    generated: list[tuple[int, tuple[LatticePoly, ...]]] = []
    residual_op = identity_residual(operator, sys, fp)
    try:
        for k, g in enumerate(symmetries, start=1):
            if not identity_vanishes(residual_op, g.components):
                raise _NoOperator(
                    "verification:commutator-probe",
                    f"defining-identity residual applied to symmetry {k} is "
                    "nonzero",
                )
            checks.append(f"commutator residual on G({k}): zero")

        current = symmetries[0].components
        for level in range(1 + gap, len(symmetries) + 2 * gap + 1, gap):
            polys, holds = generation_step(operator, current, sys)
            if polys is None:
                raise _NoOperator(
                    "verification:nonlocal-obstruction",
                    f"generated level {level} retains an unresolved "
                    "antidifference term",
                )
            if not holds:
                raise _NoOperator(
                    "verification:symmetry-identity",
                    f"generated level {level} fails the symmetry identity",
                )
            if generated:
                checks.append(f"generated G({level}): local, symmetry identity holds")
            elif tuple(polys) != symmetries[gap].components:
                raise _NoOperator(
                    "verification:generation",
                    "operator applied to the first symmetry does not "
                    "reproduce the next supplied symmetry",
                )
            else:
                checks.append(f"R G(1) = G({1 + gap}) exactly")
            generated.append((level, tuple(polys)))
            current = polys
    except _NoOperator as exc:
        return RecursionOutcome(
            None, coeffs, tuple(generated), tuple(checks), *exc.args
        )
    return RecursionOutcome(operator, coeffs, tuple(generated), tuple(checks))


def recursion_pipeline(
    sys: DdeSystem,
    w: WeightVector,
    levels: int = DEFAULT_LEVELS,
    gap: int = 1,
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> tuple[RecursionOutcome, list[SymmetryResult]]:
    """Compute the symmetry chain, then solve for the operator.

    Returns the outcome plus the unconditional symmetries found, level by
    level, for reporting.
    """
    levels = max(levels, gap + 1)
    found: list[SymmetryResult] = []
    try:
        for level in range(1, levels + 1):
            ranks = level_ranks(w, level)
            cand = build_symmetry_candidate(sys, w, ranks)
            if cand is None:
                raise _NoOperator(
                    "symmetry-chain",
                    f"no symmetry candidate at rank vector "
                    f"{tuple(str(r) for r in ranks)}",
                )
            results, _ = solve_symmetry(cand, sys, w, max_depth=max_depth)
            unconditional = [r for r in results if not r.eq_conditions]
            found.extend(unconditional)
            if not unconditional:
                raise _NoOperator(
                    "symmetry-chain",
                    "no unconditional symmetry at rank vector "
                    f"({', '.join(str(r) for r in ranks)})",
                )
            if len(unconditional) > 1:
                raise _NoOperator(
                    "symmetry-chain",
                    f"ambiguous symmetry at level {level}: "
                    f"{len(unconditional)} independent solutions",
                )
    except _NoOperator as exc:
        return RecursionOutcome(None, {}, (), (), *exc.args), found
    outcome = solve_recursion(sys, w, found, gap=gap, max_depth=max_depth)
    return outcome, found
