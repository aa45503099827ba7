"""Evolution systems: first order in time, one discrete lattice index."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expr import LatticeMonomial, LatticePoly


@dataclass(frozen=True)
class DdeSystem:
    """N-component polynomial lattice system u_i' = rhs[i].

    Component indices follow lexicographic order of the declared names, so
    the shift-equivalence canonical form (which prefers the lowest
    component) is a pure function of the data.
    """

    names: tuple[str, ...]
    rhs: tuple[LatticePoly, ...]
    params: tuple[str, ...] = ()
    weight_pins: dict[int, Fraction] = field(default_factory=dict, compare=False)
    # Dt of each shift-canonical monomial (expr.total_time_derivative); not
    # an init field, so dataclasses.replace starts a fresh one
    dt_cache: dict[LatticeMonomial, LatticePoly] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if len(self.names) != len(self.rhs):
            raise ValueError("one right-hand side required per component")
        if list(self.names) != sorted(self.names):
            raise ValueError("component names must be indexed in sorted order")

    @property
    def n(self) -> int:
        return len(self.names)
