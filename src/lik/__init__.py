"""Symbolic integrability toolkit for polynomial lattice equations.

Computes dilation weights, polynomial conserved densities with fluxes,
generalized symmetries, and recursion operators (local plus nonlocal
parts) for first-order evolution differential-difference systems, and
verifies every result against its defining identity with exact rational
arithmetic.
"""

from .conservation import (
    DensityResult,
    build_density_candidate,
    conservation_residual,
    equivalent,
    is_trivial,
    solve_density,
)
from .expr import (
    LatticeMonomial,
    LatticePoly,
    VarRef,
    canonical_rep,
    delta_decompose,
    partial,
    render_poly,
    shift,
    total_time_derivative,
)
from .operators import DiffOperator, ExtendedExpr, OpEntry, render_operator
from .parser import (
    ParseError,
    parse_expression,
    parse_operator_matrix,
    parse_system,
    render_system,
)
from .recursion import (
    RecursionOutcome,
    rank_matrix,
    recursion_pipeline,
    solve_recursion,
)
from .scaling import (
    ScalingError,
    WeightFamily,
    WeightVector,
    compute_weights,
    derivative_completion,
    monomials_upto_rank,
    rank_of,
)
from .symmetry import (
    SymmetryResult,
    build_symmetry_candidate,
    frechet_apply,
    frechet_operator,
    solve_symmetry,
    symmetry_residual,
)
from .system import DdeSystem

__all__ = [
    "DdeSystem",
    "DensityResult",
    "DiffOperator",
    "ExtendedExpr",
    "LatticeMonomial",
    "LatticePoly",
    "OpEntry",
    "ParseError",
    "RecursionOutcome",
    "ScalingError",
    "SymmetryResult",
    "VarRef",
    "WeightFamily",
    "WeightVector",
    "build_density_candidate",
    "build_symmetry_candidate",
    "canonical_rep",
    "compute_weights",
    "conservation_residual",
    "delta_decompose",
    "derivative_completion",
    "equivalent",
    "frechet_apply",
    "frechet_operator",
    "is_trivial",
    "monomials_upto_rank",
    "parse_expression",
    "parse_operator_matrix",
    "parse_system",
    "partial",
    "rank_matrix",
    "rank_of",
    "recursion_pipeline",
    "render_operator",
    "render_poly",
    "render_system",
    "shift",
    "solve_density",
    "solve_recursion",
    "solve_symmetry",
    "symmetry_residual",
    "total_time_derivative",
]

__version__ = "0.1.0"
