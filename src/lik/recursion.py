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

probed against each known symmetry.  The survivor is verified by
generating two further symmetries, which must come out free of formal
antidifference terms and satisfy the symmetry identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .conservation import build_density_candidate, solve_density
from .expr import LatticeMonomial, LatticePoly, VarRef, delta_decompose
from .linalg import (
    LinearSolveError,
    LinearSystem,
    column_rows,
    fresh_tags,
    normalize_basis_vector,
    nullspace,
)
from .operators import DiffOperator, ExtendedExpr, OpEntry
from .params import ParamCoeff
from .scaling import WeightVector, achievable_ranks, power_products, rank_of
from .symmetry import (
    SymmetryResult,
    frechet_operator,
    linearization_row,
    symmetry_residual,
)
from .system import DdeSystem

RankMatrix = tuple[tuple[Fraction, ...], ...]


def rank_matrix(ga: SymmetryResult, gb: SymmetryResult) -> RankMatrix:
    """Entry (i, j) is rank(Gb_i) - rank(Ga_j) for the successor pair."""
    return tuple(
        tuple(rb - ra for ra in ga.ranks) for rb in gb.ranks
    )


@dataclass(frozen=True)
class LogDensity:
    """The non-polynomial density log of one component; only its
    linearization row (a Laurent reciprocal) is ever used."""

    comp: int


@dataclass(frozen=True)
class OperatorCandidate:
    n: int
    unknowns: tuple[str, ...]
    basis: tuple[DiffOperator, ...]  # one single-term operator per unknown

    def assemble(self, values: dict[str, ParamCoeff | Fraction]) -> DiffOperator:
        out = DiffOperator.zero(self.n)
        for tag, op in zip(self.unknowns, self.basis):
            v = values.get(tag)
            if v is None:
                continue
            v = v if isinstance(v, ParamCoeff) else ParamCoeff.from_value(v)
            if not v.is_zero:
                out = out + op.scale(v)
        return out


def _rhs_variable_pool(sys: DdeSystem) -> list[VarRef]:
    pool: set[VarRef] = set()
    for f in sys.rhs:
        pool.update(f.var_refs())
    return sorted(pool)


def _entry_shift_sets(sys: DdeSystem) -> list[list[set[int]]]:
    """Shift powers present in the linearization, identity included."""
    n = sys.n
    sets: list[list[set[int]]] = []
    for i in range(n):
        row = []
        for j in range(n):
            shifts = {x.shift for x in sys.rhs[i].var_refs() if x.comp == j}
            shifts.add(0)
            row.append(shifts)
        sets.append(row)
    return sets


def build_r0(
    sys: DdeSystem, w: WeightVector, rm: RankMatrix
) -> OperatorCandidate:
    """Local candidate: per entry, one unknown for each (shift power,
    rank-matching pool cofactor) combination."""
    n = sys.n
    pool = _rhs_variable_pool(sys)
    shift_sets = _entry_shift_sets(sys)
    parts: list[tuple[int, int, LatticeMonomial, int]] = []
    for i in range(n):
        for j in range(n):
            cofactors = [
                m
                for m in power_products(pool, w, rm[i][j])
                if rank_of(m, w) == rm[i][j]
            ]
            for a in sorted(shift_sets[i][j]):
                for m in cofactors:
                    parts.append((i, j, m, a))
    tags = fresh_tags(len(parts), sys.params)
    basis = []
    for i, j, m, a in parts:
        op = DiffOperator.zero(n)
        entries = [list(row) for row in op.entries]
        entries[i][j] = OpEntry.local(LatticePoly.from_monomial(m), a)
        basis.append(DiffOperator(entries))
    return OperatorCandidate(n, tags, tuple(basis))


def detect_log_densities(sys: DdeSystem) -> list[LogDensity]:
    """Components whose logarithm is conserved: rhs_i / x_i must be a
    forward difference."""
    out = []
    for i in range(sys.n):
        canonical, _ = delta_decompose(sys.rhs[i] * LatticePoly.var(i, 0, -1))
        if canonical.is_zero:
            out.append(LogDensity(i))
    return out


def covariant(
    rho: LatticePoly | LogDensity, n: int
) -> tuple[OpEntry, ...]:
    """Linearization row of a density: sum_k (d rho / d x_j[k]) D^k."""
    if isinstance(rho, LogDensity):
        row = [OpEntry.zero() for _ in range(n)]
        row[rho.comp] = OpEntry.local(LatticePoly.var(rho.comp, 0, -1))
        return tuple(row)
    if isinstance(rho, LatticePoly):
        return linearization_row(rho, n)
    raise TypeError(f"unsupported density description: {rho!r}")


def _entry_cof_rank(entry: OpEntry, w: WeightVector) -> Fraction | None:
    """Common rank of an entry's local cofactors, None for the zero entry."""
    ranks = set()
    for t in entry.locals:
        for m in t.cof.monomials():
            ranks.add(rank_of(m, w))
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
            if lead.is_rational and lead.as_fraction() < 0:
                return tuple(-x for x in g.components)
            break
    return g.components


def default_covariants(
    sys: DdeSystem,
    w: WeightVector,
    symmetries: Sequence[SymmetryResult],
    rm: RankMatrix,
    max_depth: int = 6,
) -> list[tuple[OpEntry, ...]]:
    """Covariant pool: detected logarithmic densities plus polynomial
    densities up to the rank admissible by the rank matrix."""
    n = sys.n
    rows = [covariant(ld, n) for ld in detect_log_densities(sys)]
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
                    rows.append(covariant(r.density, n))
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
            ok = True
            for i in range(n):
                for j in range(n):
                    crank = _entry_cof_rank(row[j], w)
                    if comps[i].is_zero or crank is None:
                        continue
                    if grank[i] + crank != rm[i][j]:
                        ok = False
            if not ok:
                continue
            entries = [[OpEntry.zero() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                if comps[i].is_zero:
                    continue
                left = OpEntry.sandwich(comps[i], LatticePoly.const(1), 0)
                for j in range(n):
                    if row[j].is_zero:
                        continue
                    entries[i][j] = left.compose(row[j])
            op = DiffOperator(entries)
            if not op.is_zero:
                ops.append(op)
    tags = fresh_tags(existing + len(ops), sys.params)[existing:]
    return OperatorCandidate(n, tags, tuple(ops))


def build_candidate(
    sys: DdeSystem,
    w: WeightVector,
    rm: RankMatrix,
    symmetries: Sequence[SymmetryResult],
    max_depth: int = 6,
) -> OperatorCandidate:
    r0 = build_r0(sys, w, rm)
    covariants = default_covariants(sys, w, symmetries, rm, max_depth)
    r1 = build_r1(sys, w, rm, symmetries, covariants, len(r0.unknowns))
    return OperatorCandidate(
        sys.n, r0.unknowns + r1.unknowns, r0.basis + r1.basis
    )


def identity_residual(
    op: DiffOperator, sys: DdeSystem, fp: DiffOperator
) -> DiffOperator:
    """The defining-identity operator R'[F] + R o F' - F' o R of op, where
    fp is the linearization F' of the right-hand side F."""
    return op.frechet(sys.rhs) + op.compose(fp) - fp.compose(op)


@dataclass
class RecursionOutcome:
    operator: DiffOperator | None
    coefficients: dict[str, Fraction] = field(default_factory=dict)
    generated: list[tuple[int, tuple[LatticePoly, ...]]] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    failure_family: str | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.operator is not None


def _collect_rows(
    applied: dict[str, list[ExtendedExpr]], n: int
) -> list[dict[str, ParamCoeff]]:
    """Rows of one constraint family from per-unknown application results.

    Each unknown's column has, per component, one local slot, then one slot
    per formal antidifference argument group in sorted key order (the
    group's cofactor).
    """
    columns: dict[str, list[LatticePoly]] = {tag: [] for tag in applied}
    zero = LatticePoly.zero()
    for i in range(n):
        keys = sorted(
            {
                arg.sort_key()
                for exprs in applied.values()
                for arg, _ in exprs[i].thetas
            }
        )
        for tag, exprs in applied.items():
            cofs = {arg.sort_key(): cof for arg, cof in exprs[i].thetas}
            columns[tag].append(exprs[i].local)
            columns[tag].extend(cofs.get(k, zero) for k in keys)
    return column_rows(list(columns), list(columns.values()))


def solve_recursion(
    sys: DdeSystem,
    w: WeightVector,
    symmetries: Sequence[SymmetryResult],
    gap: int = 1,
    max_depth: int = 6,
) -> RecursionOutcome:
    """Determine the candidate coefficients from consecutive symmetry
    pairs plus defining-identity probes, then verify the survivor."""
    n = sys.n
    if len(symmetries) < gap + 1:
        return RecursionOutcome(
            None,
            failure_family="symmetry-chain",
            message=f"need at least {gap + 1} symmetries for gap {gap}, "
            f"got {len(symmetries)}",
        )
    pairs = [
        (symmetries[k], symmetries[k + gap])
        for k in range(len(symmetries) - gap)
    ]
    rm = rank_matrix(*pairs[0])
    for ga, gb in pairs[1:]:
        if rank_matrix(ga, gb) != rm:
            return RecursionOutcome(
                None,
                failure_family="symmetry-chain",
                message="inconsistent rank gaps between supplied symmetries",
            )

    cand = build_candidate(sys, w, rm, symmetries, max_depth)
    if not cand.unknowns:
        return RecursionOutcome(
            None,
            failure_family="candidate",
            message="empty operator candidate at the required ranks",
        )

    fp = frechet_operator(sys.rhs)
    commutator_parts = [identity_residual(op, sys, fp) for op in cand.basis]

    probe_cache: dict[int, list[dict[str, ParamCoeff]]] = {}

    def probe_rows(sym_index: int) -> list[dict[str, ParamCoeff]]:
        if sym_index not in probe_cache:
            g = list(symmetries[sym_index].components)
            applied = {
                tag: part.apply(g)
                for tag, part in zip(cand.unknowns, commutator_parts)
            }
            probe_cache[sym_index] = _collect_rows(applied, n)
        return probe_cache[sym_index]

    pair_cache: dict[int, list[dict[str, ParamCoeff]]] = {}
    mu_tags = [f"mu{k + 1}" for k in range(len(pairs))]

    def pair_rows(k: int) -> list[dict[str, ParamCoeff]]:
        if k not in pair_cache:
            ga, gb = pairs[k]
            applied = {
                tag: op.apply(list(ga.components))
                for tag, op in zip(cand.unknowns, cand.basis)
            }
            # R Ga - mu Gb = 0: the scale unknown mu enters with -Gb
            applied[mu_tags[k]] = [ExtendedExpr(-c) for c in gb.components]
            pair_cache[k] = _collect_rows(applied, n)
        return pair_cache[k]

    solution: dict[str, ParamCoeff] | None = None
    last_dim = None
    for npairs in range(1, len(pairs) + 1):
        unknowns = cand.unknowns + tuple(mu_tags[:npairs])
        rows: list[dict[str, ParamCoeff]] = []
        for k in range(npairs):
            rows.extend(pair_rows(k))
        for s in range(min(npairs + gap, len(symmetries))):
            rows.extend(probe_rows(s))
        try:
            outcome = nullspace(LinearSystem.build(unknowns, rows))
        except LinearSolveError:
            return RecursionOutcome(
                None,
                failure_family="coefficient-determination",
                message="parameterized coefficient system: pin the system "
                "parameters to rationals first",
            )
        last_dim = outcome.dimension
        if outcome.dimension == 0:
            return RecursionOutcome(
                None,
                failure_family="generation",
                message="the generation and commutator constraints admit "
                "only the zero operator",
            )
        if outcome.dimension == 1:
            vec = outcome.basis[0]
            mu1 = vec.get(mu_tags[0])
            if mu1 is None or mu1.as_fraction() == 0:
                return RecursionOutcome(
                    None,
                    failure_family="generation",
                    message="no operator maps the first symmetry to the "
                    "second (scale coefficient vanishes)",
                )
            solution = normalize_basis_vector(vec, mu_tags[0], Fraction(1))
            break
    if solution is None:
        return RecursionOutcome(
            None,
            failure_family="coefficient-determination",
            message=f"solution space still {last_dim}-dimensional after "
            "using every supplied symmetry pair",
        )

    coeffs = {
        tag: solution.get(tag, ParamCoeff.zero()).as_fraction()
        for tag in cand.unknowns
    }
    operator = cand.assemble(coeffs)
    return _verify(sys, operator, coeffs, symmetries, fp, gap)


def _verify(
    sys: DdeSystem,
    operator: DiffOperator,
    coeffs: dict[str, Fraction],
    symmetries: Sequence[SymmetryResult],
    fp: DiffOperator,
    gap: int,
) -> RecursionOutcome:
    checks: list[str] = []
    out = RecursionOutcome(operator, coeffs, checks=checks)
    residual_op = identity_residual(operator, sys, fp)
    for k, g in enumerate(symmetries, start=1):
        res = residual_op.apply(list(g.components))
        if not all(x.is_zero for x in res):
            out.operator = None
            out.failure_family = "verification:commutator-probe"
            out.message = (
                f"defining-identity residual applied to symmetry {k} is nonzero"
            )
            return out
        checks.append(f"commutator residual on G({k}): zero")

    current = list(symmetries[0].components)
    total = len(symmetries) + 2 * gap
    level = 1
    first_regen = None
    while level + gap <= total:
        nxt = operator.apply(current)
        level += gap
        if not all(x.is_local for x in nxt):
            out.operator = None
            out.failure_family = "verification:nonlocal-obstruction"
            out.message = (
                f"generated level {level} retains an unresolved "
                "antidifference term"
            )
            return out
        polys = [x.local for x in nxt]
        res = symmetry_residual(polys, sys)
        if not all(x.is_zero for x in res):
            out.operator = None
            out.failure_family = "verification:symmetry-identity"
            out.message = f"generated level {level} fails the symmetry identity"
            return out
        if first_regen is None:
            first_regen = polys
            if gap < len(symmetries) and tuple(polys) != symmetries[gap].components:
                out.operator = None
                out.failure_family = "verification:generation"
                out.message = (
                    "operator applied to the first symmetry does not "
                    "reproduce the next supplied symmetry"
                )
                return out
            checks.append(f"R G(1) = G({1 + gap}) exactly")
        else:
            checks.append(f"generated G({level}): local, symmetry identity holds")
        out.generated.append((level, tuple(polys)))
        current = polys
    return out


def recursion_pipeline(
    sys: DdeSystem,
    w: WeightVector,
    levels: int = 3,
    gap: int = 1,
    max_depth: int = 6,
) -> tuple[RecursionOutcome, list]:
    """Compute the symmetry chain, then solve for the operator.

    Returns the outcome plus the per-level symmetry information for
    reporting.
    """
    from .symmetry import build_symmetry_candidate, level_ranks, solve_symmetry

    levels = max(levels, gap + 1)
    chain: list[SymmetryResult] = []
    level_info = []
    for level in range(1, levels + 1):
        ranks = level_ranks(sys, w, level, 1)
        cand = build_symmetry_candidate(sys, w, ranks)
        if cand is None:
            return (
                RecursionOutcome(
                    None,
                    failure_family="symmetry-chain",
                    message=f"no symmetry candidate at rank vector "
                    f"{tuple(str(r) for r in ranks)}",
                ),
                level_info,
            )
        results, branches = solve_symmetry(cand, sys, w, max_depth=max_depth)
        unconditional = [r for r in results if not r.eq_conditions]
        level_info.append((level, ranks, results, branches))
        if not unconditional:
            return (
                RecursionOutcome(
                    None,
                    failure_family="symmetry-chain",
                    message="no unconditional symmetry at rank vector "
                    f"({', '.join(str(r) for r in ranks)})",
                ),
                level_info,
            )
        if len(unconditional) > 1:
            return (
                RecursionOutcome(
                    None,
                    failure_family="symmetry-chain",
                    message=f"ambiguous symmetry at level {level}: "
                    f"{len(unconditional)} independent solutions",
                ),
                level_info,
            )
        chain.append(unconditional[0])
    outcome = solve_recursion(sys, w, chain, gap=gap, max_depth=max_depth)
    return outcome, level_info
