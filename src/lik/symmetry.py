"""Generalized symmetries and Fréchet derivatives.

A vector function G is a symmetry when Dt G = F'(u)[G] holds on
solutions, F' being the linearization of the right-hand side.  Candidate
components are linear combinations of rank-exact building blocks kept in
full shifted form (unlike densities, symmetry blocks are not reduced to
shift-equivalence representatives: distinct shifts of the same monomial
are independent directions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .expr import (
    LatticeMonomial,
    LatticePoly,
    dir_derivative,
    total_time_derivative,
)
from .linalg import (
    DEFAULT_BRANCH_DEPTH,
    Branch,
    LinearSystem,
    column_rows,
    fresh_tags,
    normalize_basis_vector,
    parametric_solve,
)
from .operators import DiffOperator, OpEntry
from .params import ParamCoeff
from .scaling import WeightVector, building_blocks, rank_of
from .system import DdeSystem


def linearization_row(p: LatticePoly, n: int) -> tuple[OpEntry, ...]:
    """Linearization of one scalar polynomial in n components: entry j is
    sum_k (dp / d x_j[k]) D^k, read off the derivative of p along formal
    variables x_{n+j}; each term of it is a cofactor of D^k times one
    x_{n+j}[k], the last factor of its flat monomial."""
    formal = [LatticePoly.var(n + j) for j in range(n)]
    entries: list[dict[int, dict]] = [{} for _ in range(n)]
    for m, c in dir_derivative(p, formal).terms():
        *rest, j, k, _ = m.flat
        entries[j - n].setdefault(k, {})[LatticeMonomial._of(tuple(rest))] = c
    return tuple(
        OpEntry({k: LatticePoly._of(t) for k, t in sorted(e.items())})
        for e in entries
    )


def frechet_operator(f: Sequence[LatticePoly]) -> DiffOperator:
    """Linearization of f as a matrix of local shift-operator terms."""
    return DiffOperator([linearization_row(fi, len(f)) for fi in f])


class SymmetryCandidate(NamedTuple):
    ranks: tuple[Fraction, ...]
    blocks: tuple[tuple[LatticeMonomial, ...], ...]  # per component
    unknowns: tuple[str, ...]  # flat, numbered across components


class SymmetryResult(NamedTuple):
    ranks: tuple[Fraction, ...]
    components: tuple[LatticePoly, ...]
    eq_conditions: tuple[ParamCoeff, ...] = ()


def build_symmetry_candidate(
    sys: DdeSystem, w: WeightVector, ranks: Sequence[Fraction]
) -> SymmetryCandidate | None:
    """One rank-exact block list per component, all shifts kept; None when
    some component has no block of its rank."""
    if len(ranks) != sys.n:
        raise ValueError("one target rank per component required")
    ranks = tuple(Fraction(r) for r in ranks)
    blocks = tuple(
        building_blocks(sys, w, r, canonicalize=False) for r in ranks
    )
    if any(not b for b in blocks):
        return None
    tags = fresh_tags(sum(len(b) for b in blocks), sys.params)
    return SymmetryCandidate(ranks, blocks, tags)


def symmetry_residual(
    g: Sequence[LatticePoly], sys: DdeSystem
) -> list[LatticePoly]:
    """Dt G - F'[G] with time derivatives eliminated on solutions; F'[G] is
    the directional derivative of the right-hand side F along G."""
    return [
        total_time_derivative(gi, sys) - dir_derivative(fi, g)
        for gi, fi in zip(g, sys.rhs)
    ]


def solve_symmetry(
    cand: SymmetryCandidate,
    sys: DdeSystem,
    w: WeightVector,
    normalize_tag: str | None = None,
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> tuple[list[SymmetryResult], list[Branch]]:
    """Impose the defining identity monomial-wise and solve.

    Each returned symmetry is scaled so the designated unknown (default:
    the last one, in deterministic order, with a nonzero value) equals 1.
    """
    n = sys.n
    units = [(i, m) for i, blocks in enumerate(cand.blocks) for m in blocks]
    columns = []
    for i, m in units:
        g = [LatticePoly.zero()] * n
        g[i] = LatticePoly.from_monomial(m)
        columns.append(enumerate(symmetry_residual(g, sys)))
    branches = parametric_solve(
        LinearSystem.build(cand.unknowns, column_rows(cand.unknowns, columns)),
        max_depth,
    )

    order = [normalize_tag] if normalize_tag else cand.unknowns[::-1]
    results: list[SymmetryResult] = []
    for br in branches:
        if br.outcome is None:
            continue
        for vec in br.outcome.basis:
            scaled = normalize_basis_vector(vec, ((tag, 1) for tag in order))
            vec2 = vec if scaled is None else scaled[1]
            acc = [LatticePoly.zero()] * n
            for tag, (i, m) in zip(cand.unknowns, units):
                c = vec2.get(tag)
                if c is not None:
                    acc[i] = acc[i] + LatticePoly.from_monomial(m, c)
            comps = tuple(acc)
            if all(c.is_zero for c in comps):
                continue
            if not _rank_uniform(comps, cand.ranks, w):
                continue
            results.append(SymmetryResult(cand.ranks, comps, br.eq_conditions))
    return results, branches


def _rank_uniform(
    comps: tuple[LatticePoly, ...], ranks: tuple[Fraction, ...], w: WeightVector
) -> bool:
    return all(rank_of(m, w) == r for c, r in zip(comps, ranks) for m in c.monomials())


def level_ranks(w: WeightVector, level: int, gap: int = 1) -> tuple[Fraction, ...]:
    """Rank vector of the level-th symmetry in the hierarchy: each
    component weight raised by level steps of the gap size."""
    return tuple(wi + level * gap for wi in w)

