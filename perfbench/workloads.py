"""The benchmark's jobs: one ``lik`` command each, with its known answer.

Paths are relative to the root of the checkout.  ``expect`` is read by
``oracle.check_expected``; ``known_fault`` names a fault of the program
that makes the job fail on every run, so that the failure is counted
without making the run incorrect.
"""

from __future__ import annotations

from typing import NamedTuple

TODA = "systems/toda.dde"
VOLTERRA = "systems/volterra.dde"
BROKEN_TODA = "systems/broken_toda.dde"
PARAM_TODA = "systems/parameterized_toda.dde"
MOD_VOLTERRA = "perfbench/systems/modified_volterra.dde"
BOGOYAVLENSKII = "perfbench/systems/bogoyavlenskii.dde"
PARAM_VOLTERRA = "perfbench/systems/parameterized_volterra.dde"

W_TODA = {"u": "1", "v": "2"}
W_ONE = {"u": "1"}
AB1 = ("a = 1", "b = 1")


class Job(NamedTuple):
    name: str
    args: tuple[str, ...]  # lik arguments; the system file comes last
    expect: dict
    known_fault: str | None = None

    @property
    def system(self) -> str:
        return self.args[-1]

    @property
    def argv(self) -> tuple[str, ...]:
        """The lik command line: a JSON report, for the oracle to read."""
        return (self.args[0], "--json", *self.args[1:])


def _ranks(top: int, conditions=()) -> list:
    return [(r, conditions) for r in range(1, top + 1)]


def _levels(weights: tuple[int, ...], top: int, conditions=lambda level: ()) -> list:
    return [
        (tuple(w + level for w in weights), conditions(level))
        for level in range(1, top + 1)
    ]


WORKLOADS: dict[str, list[Job]] = {
    "densities": [
        Job("toda-densities-8", ("densities", "--max-rank", "8", TODA),
            {"exit": 0, "weights": W_TODA, "densities": _ranks(8)}),
        Job("volterra-densities-6", ("densities", "--max-rank", "6", VOLTERRA),
            {"exit": 0, "weights": W_ONE, "densities": _ranks(6)}),
        Job("bogoyavlenskii-densities-4",
            ("densities", "--max-rank", "4", BOGOYAVLENSKII),
            {"exit": 0, "weights": W_ONE, "densities": _ranks(4)}),
        Job("modified-volterra-densities-2",
            ("densities", "--max-rank", "2", MOD_VOLTERRA),
            {"exit": 0, "weights": {"u": "1/2"},
             "forms": [(1, "u[0]*u[1]"),
                       (2, "(1/2)*u[0]^2*u[1]^2 + u[0]*u[1]^2*u[2]")]},
            known_fault="scaling.derivative_completion drops seeds whose rank "
            "deficit is fractional (w(u) = 1/2), so neither density is found"),
    ],
    "recursion": [
        Job("toda-recursion", ("recursion", TODA),
            {"exit": 0, "weights": W_TODA, "symmetries": _levels((1, 2), 3),
             "operator": "verified"}),
        Job("volterra-recursion", ("recursion", VOLTERRA),
            {"exit": 0, "weights": W_ONE, "symmetries": _levels((1,), 3),
             "operator": "verified"}),
        Job("modified-volterra-recursion", ("recursion", MOD_VOLTERRA),
            {"exit": 0, "weights": {"u": "1/2"},
             "symmetries": [(("3/2",), ()), (("5/2",), ()), (("7/2",), ())],
             "operator": "verified"}),
        Job("broken-toda-recursion", ("recursion", BROKEN_TODA),
            {"exit": 2, "weights": W_TODA, "symmetries": _levels((1, 2), 1),
             "operator": "none", "family": "symmetry-chain"}),
        Job("bogoyavlenskii-recursion-2",
            ("recursion", "--levels", "2", BOGOYAVLENSKII),
            {"exit": 2, "weights": W_ONE, "symmetries": _levels((1,), 2),
             "operator": "optional", "family": "generation"}),
    ],
    "classification": [
        Job("param-toda-densities-6", ("densities", "--max-rank", "6", PARAM_TODA),
            {"exit": 0, "weights": W_TODA, "exact": True,
             "densities": [(1, ("a = 1",)), (2, ("a*b - 1 = 0",))]
             + [(r, AB1) for r in range(3, 7)]}),
        Job("param-toda-symmetries-2", ("symmetries", "--levels", "2", PARAM_TODA),
            {"exit": 0, "weights": W_TODA, "exact": True,
             "symmetries": _levels((1, 2), 2, lambda level: AB1 if level > 1 else ())}),
        Job("param-toda-symmetry-3-4", ("symmetries", "--ranks", "3,4", PARAM_TODA),
            {"exit": 0, "weights": W_TODA, "exact": True,
             "symmetries": [((3, 4), AB1)]}),
        Job("param-volterra-densities-5",
            ("densities", "--max-rank", "5", PARAM_VOLTERRA),
            {"exit": 0, "weights": W_ONE, "exact": True,
             "densities": _ranks(5, ("a = 1",))}),
        Job("param-volterra-symmetries-3",
            ("symmetries", "--levels", "3", PARAM_VOLTERRA),
            {"exit": 0, "weights": W_ONE, "exact": True,
             "symmetries": _levels((1,), 3, lambda level: ("a = 1",) if level > 1 else ())}),
    ],
}
