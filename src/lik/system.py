"""Evolution systems: first order in time, one discrete lattice index."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expr import LatticePoly


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

    def __post_init__(self):
        if len(self.names) != len(self.rhs):
            raise ValueError("one right-hand side required per component")
        if list(self.names) != sorted(self.names):
            raise ValueError("component names must be indexed in sorted order")

    @property
    def n(self) -> int:
        return len(self.names)
