"""Symbolic integrability toolkit for polynomial lattice equations.

Computes dilation weights, polynomial conserved densities with fluxes,
generalized symmetries, and recursion operators (local plus nonlocal
parts) for first-order evolution differential-difference systems, and
verifies every result against its defining identity with exact rational
arithmetic.
"""

__version__ = "0.1.0"
