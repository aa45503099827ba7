"""Dilation weights, ranks, and rank-targeted monomial generation.

Requiring every equation of the system to be uniform in rank (with the
time derivative carrying weight 1) gives a small linear system for the
component weights.  Weighted monomial enumeration plus t-derivative
completion then produces the building blocks for density and symmetry
candidates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .expr import (
    LatticeMonomial,
    LatticePoly,
    canonical_rep,
    term_key,
    total_time_derivative,
)
from .linalg import LinearSystem, nullspace
from .params import ParamCoeff
from .system import DdeSystem


class ScalingError(ValueError):
    """No unique positive rational weights: the system is not dilation
    invariant, or its weights are underdetermined."""


# One rational weight per component; the time derivative has weight 1.
WeightVector = tuple[Fraction, ...]


class WeightFamily(NamedTuple):
    """Underdetermined outcome: an affine family particular + span(directions).

    free_components lists indices whose weight is not pinned by the balance
    equations; a caller-supplied normalization resolves the family.
    """

    particular: tuple[Fraction, ...]
    directions: tuple[tuple[Fraction, ...], ...]
    free_components: tuple[int, ...]


def rank_of(m: LatticeMonomial, w: WeightVector) -> Fraction:
    """Total weight of a monomial; shift offsets are irrelevant."""
    f = m.flat
    return sum((e * w[c] for c, e in zip(f[0::3], f[2::3])), Fraction(0))


def _balance_rows(sys: DdeSystem) -> list[dict[int, Fraction]]:
    """Homogeneous rows a . w - b t = 0 over the columns w_0..w_(n-1), t:
    the lhs monomial of equation i has weight w_i + 1 and every rhs
    monomial must match it (b = 1); a pin w_i = v gives b = v."""
    n = sys.n
    rows: list[dict[int, Fraction]] = []
    for i, f in enumerate(sys.rhs):
        for m in f.monomials():
            row = {i: Fraction(-1), n: Fraction(-1)}
            for c, _, e in m.triples():
                row[c] = row.get(c, 0) + e
            rows.append(row)
    for i, val in sorted(sys.weight_pins.items()):
        rows.append({i: Fraction(1), n: -Fraction(val)})
    return rows


def compute_weights(sys: DdeSystem) -> WeightVector | WeightFamily:
    """Solve the rank-uniformity balance equations over the rationals.

    Parameters are weightless constants; weights are pinned only through
    sys.weight_pins.  Returns the weight tuple when the solution is unique
    (and positive), a WeightFamily when a free scale remains, and raises
    ScalingError when no positive solution exists.
    """
    n = sys.n
    columns = tuple(f"w{i}" for i in range(n)) + ("t",)
    system = LinearSystem.build(
        columns,
        (
            {columns[j]: ParamCoeff.from_value(c) for j, c in row.items()}
            for row in _balance_rows(sys)
        ),
    )
    # t is the last column, so the one basis vector holding it has t = 1;
    # every other vector is a direction whose last entry is its free column
    particular = None
    directions, free = [], []
    for vec in nullspace(system).basis:
        weights = tuple(
            vec.get(c, ParamCoeff.zero()).as_fraction() for c in columns[:n]
        )
        if "t" in vec:
            particular = weights
        else:
            directions.append(weights)
            free.append(max(i for i, v in enumerate(weights) if v))
    if particular is None:
        raise ScalingError(
            "system is not dilation invariant: rank balance equations "
            "are inconsistent"
        )
    if free:
        return WeightFamily(particular, tuple(directions), tuple(free))
    if any(v <= 0 for v in particular):
        raise ScalingError(
            "system is not dilation invariant: no positive rational weights "
            f"(solution was {tuple(str(v) for v in particular)})"
        )
    return particular


def power_products(
    pool: Sequence[tuple[int, int]], w: WeightVector, bound: Fraction
) -> tuple[LatticeMonomial, ...]:
    """All nonnegative power products of the pool's (component, shift)
    variables (the constant monomial included) of rank at most bound, in
    the deterministic term order.  Their weights must be positive."""
    out: list[LatticeMonomial] = []

    def extend(i: int, pairs: tuple, budget: Fraction):
        if i == len(pool):
            out.append(LatticeMonomial(pairs))
            return
        x = pool[i]
        wx = w[x[0]]
        e = 0
        while e * wx <= budget:
            extend(i + 1, pairs + ((x, e),) if e else pairs, budget - e * wx)
            e += 1

    if bound >= 0:
        extend(0, (), Fraction(bound))
    return tuple(sorted(out, key=term_key))


def monomials_upto_rank(
    w: WeightVector, max_rank: Fraction
) -> tuple[LatticeMonomial, ...]:
    """All zero-shift monomials with nonnegative exponents and rank in
    (0, max_rank], in the deterministic term order."""
    max_rank = Fraction(max_rank)
    if max_rank <= 0:
        raise ValueError("rank bound must be positive")
    if any(v <= 0 for v in w):
        raise ValueError("monomial enumeration needs strictly positive weights")
    pool = [(comp, 0) for comp in range(len(w))]
    return tuple(m for m in power_products(pool, w, max_rank) if not m.is_constant)


def derivative_completion(
    ms: Iterable[LatticeMonomial],
    w: WeightVector,
    target: Fraction,
    sys: DdeSystem,
    canonicalize: bool = True,
) -> tuple[LatticeMonomial, ...]:
    """Raise each monomial to the target rank with t-derivatives and collect
    the monomials that appear.

    A monomial of rank target - d contributes the monomials of its d-th
    t-derivative (d must be a nonnegative integer; other deficits drop).
    With canonicalize=True each collected monomial is replaced by its
    shift-equivalence representative and duplicates merge.
    """
    target = Fraction(target)
    collected: set[LatticeMonomial] = set()
    for m in ms:
        deficit = target - rank_of(m, w)
        if deficit < 0 or deficit.denominator != 1:
            continue
        p = LatticePoly.from_monomial(m)
        for _ in range(int(deficit)):
            p = total_time_derivative(p, sys)
        for mono in p.monomials():
            collected.add(canonical_rep(mono) if canonicalize else mono)
    return tuple(sorted(collected, key=term_key))


def building_blocks(
    sys: DdeSystem, w: WeightVector, target: Fraction, canonicalize: bool
) -> tuple[LatticeMonomial, ...]:
    """Candidate blocks of exactly the target rank: enumerate up to the
    rank, then complete with t-derivatives."""
    pool = monomials_upto_rank(w, Fraction(target))
    return derivative_completion(pool, w, Fraction(target), sys, canonicalize)


def achievable_ranks(w: WeightVector, max_rank: Fraction) -> list[Fraction]:
    """Distinct positive ranks realized by zero-shift monomials up to the
    bound, ascending."""
    ranks = {rank_of(m, w) for m in monomials_upto_rank(w, Fraction(max_rank))}
    return sorted(ranks)
