"""Evolution systems: first order in time, one discrete lattice index."""

from __future__ import annotations

from fractions import Fraction

from .expr import LatticeMonomial, LatticePoly


class DdeSystem:
    """N-component polynomial lattice system u_i' = rhs[i].

    Component indices follow lexicographic order of the declared names, so
    the shift-equivalence canonical form (which prefers the lowest
    component) is a pure function of the data.  dt_cache holds the Dt of
    each shift-canonical monomial (expr.total_time_derivative).  Equality
    sees names, rhs and params only; repr leaves out dt_cache.
    """

    __slots__ = ("names", "rhs", "params", "weight_pins", "dt_cache")

    def __init__(
        self,
        names: tuple[str, ...],
        rhs: tuple[LatticePoly, ...],
        params: tuple[str, ...] = (),
        weight_pins: dict[int, Fraction] | None = None,
    ):
        if len(names) != len(rhs):
            raise ValueError("one right-hand side required per component")
        if list(names) != sorted(names):
            raise ValueError("component names must be indexed in sorted order")
        self.names, self.rhs, self.params = names, rhs, params
        self.weight_pins = {} if weight_pins is None else weight_pins
        self.dt_cache: dict[LatticeMonomial, LatticePoly] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DdeSystem):
            return NotImplemented
        return (self.names, self.rhs, self.params) == (
            other.names, other.rhs, other.params
        )

    def __repr__(self) -> str:
        return (
            f"DdeSystem(names={self.names!r}, rhs={self.rhs!r}, "
            f"params={self.params!r}, weight_pins={self.weight_pins!r})"
        )

    @property
    def n(self) -> int:
        return len(self.names)
