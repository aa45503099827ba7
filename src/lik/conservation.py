"""Polynomial conserved densities and fluxes.

A density rho = sum_k c_k b_k of a chosen rank is sought as a linear
combination of shift-canonical building blocks b_k.  The time derivative
of each block on solutions splits into a canonical part plus a forward
difference, Dt(b_k) = C_k + (D - I) J_k.  The canonical parts are the
columns of the linear system for the unknown coefficients: sum_k c_k C_k
must vanish monomial by monomial.  The difference parts supply the flux:

    Dt(rho) = (D - I) Jdec  on solutions,  Jdec = sum_k c_k J_k,
    so  Dt(rho) + (D - I)(-Jdec) = 0.

The stored flux is -Jdec, which satisfies the conservation identity
exactly; it coincides with the flux obtained by accumulating telescoping
corrections with the opposite sign convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .expr import (
    LatticeMonomial,
    LatticePoly,
    delta_decompose,
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
from .params import ParamCoeff
from .scaling import WeightVector, building_blocks
from .system import DdeSystem


class DensityCandidate(NamedTuple):
    rank: Fraction
    blocks: tuple[LatticeMonomial, ...]
    unknowns: tuple[str, ...]


class DensityResult(NamedTuple):
    rank: Fraction
    density: LatticePoly
    flux: LatticePoly
    normalization: str
    eq_conditions: tuple[ParamCoeff, ...] = ()


def build_density_candidate(
    sys: DdeSystem, w: WeightVector, rank: Fraction
) -> DensityCandidate | None:
    """Linear combination of the rank-complete canonical blocks; None when
    no block has the rank."""
    rank = Fraction(rank)
    blocks = building_blocks(sys, w, rank, canonicalize=True)
    if not blocks:
        return None
    tags = fresh_tags(len(blocks), sys.params)
    return DensityCandidate(rank, blocks, tags)


def _pure_power_normalization(
    vec: dict[str, ParamCoeff], cand: DensityCandidate
) -> tuple[dict[str, ParamCoeff], str]:
    """Scale so the first pure-power block x^k has coefficient 1/k, else the
    leading block has coefficient 1."""
    powers = {
        tag: m.flat[2]
        for tag, m in zip(cand.unknowns, cand.blocks)
        if len(m.flat) == 3 and m.flat[1] == 0
    }
    scaled = normalize_basis_vector(
        vec, ((tag, Fraction(1, k)) for tag, k in powers.items())
    )
    if scaled is not None:
        tag, vec = scaled
        return vec, f"coefficient of pure power set to 1/{powers[tag]}"
    scaled = normalize_basis_vector(vec, ((tag, 1) for tag in cand.unknowns))
    if scaled is not None:
        return scaled[1], "leading coefficient set to 1"
    return vec, "unnormalized (parametric leading coefficient)"


def solve_density(
    cand: DensityCandidate,
    sys: DdeSystem,
    max_depth: int = DEFAULT_BRANCH_DEPTH,
) -> tuple[list[DensityResult], list[Branch]]:
    """Determine the unknown coefficients; one result per solution basis
    vector on each branch with solutions.  Returns (results, branches)."""
    columns, fluxes = [], []
    for m in cand.blocks:
        canonical, j = delta_decompose(
            total_time_derivative(LatticePoly.from_monomial(m), sys)
        )
        columns.append(((0, canonical),))
        fluxes.append(j)
    branches = parametric_solve(
        LinearSystem.build(cand.unknowns, column_rows(cand.unknowns, columns)),
        max_depth,
    )

    results: list[DensityResult] = []
    for br in branches:
        if br.outcome is None:
            continue
        for vec in br.outcome.basis:
            vec2, note = _pure_power_normalization(vec, cand)
            rho = LatticePoly.zero()
            flux = LatticePoly.zero()
            for tag, m, j in zip(cand.unknowns, cand.blocks, fluxes):
                c = vec2.get(tag)
                if c is not None:
                    rho = rho + LatticePoly.from_monomial(m, c)
                    flux = flux - j * c
            if rho.is_zero:
                continue
            results.append(
                DensityResult(
                    rank=cand.rank,
                    density=rho,
                    flux=flux,
                    normalization=note,
                    eq_conditions=br.eq_conditions,
                )
            )
    return _drop_equivalent(results), branches


def _drop_equivalent(results: list[DensityResult]) -> list[DensityResult]:
    kept: list[DensityResult] = []
    for r in results:
        if any(
            r2.eq_conditions == r.eq_conditions
            and equivalent(r.density, r2.density) is not None
            for r2 in kept
        ):
            continue
        kept.append(r)
    return kept


def equivalent(rho1: LatticePoly, rho2: LatticePoly) -> Fraction | None:
    """Nonzero rational k with rho1 + k*rho2 a forward difference, else None.

    Both densities trivial counts as equivalent with k = -1.
    """
    c1, _ = delta_decompose(rho1)
    c2, _ = delta_decompose(rho2)
    if c1.is_zero and c2.is_zero:
        return Fraction(-1)
    if c1.is_zero or c2.is_zero:
        return None
    m1, a1 = c1.leading()
    a2 = c2.coeff(m1)
    if not (a1.is_rational and a2.is_rational):
        return None
    if a2.as_fraction() == 0:
        return None
    k = -a1.as_fraction() / a2.as_fraction()
    if (c1 + c2 * k).is_zero and k != 0:
        return k
    return None


def conservation_residual(
    rho: LatticePoly, flux: LatticePoly, sys: DdeSystem
) -> LatticePoly:
    """Dt(rho) + (D - I) flux; identically zero for a conservation law."""
    return total_time_derivative(rho, sys) + flux.shifted(1) - flux
