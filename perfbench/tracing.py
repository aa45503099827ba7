"""Spans and counts around the public functions of each lik layer.

The tracer patches each function where its callers look it up: module
functions in every ``lik`` module that bound them, methods on their class.
It keeps spans (name, start, end, parent) and counts in memory; ``metrics``
turns them into self time per layer and the counts of the table below.  A
function that the program no longer has is recorded as absent, and so is
every metric that depends only on absent functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" is patched on the class.
SPANS = [
    ("parser", "lik.parser", "parse_system"),
    ("parser", "lik.parser", "parse_expression"),
    ("parser", "lik.parser", "parse_operator_matrix"),
    ("scaling.weights", "lik.scaling", "compute_weights"),
    ("scaling.candidate", "lik.scaling", "building_blocks"),
    ("scaling.candidate", "lik.scaling", "monomials_upto_rank"),
    ("scaling.candidate", "lik.scaling", "derivative_completion"),
    ("scaling.candidate", "lik.scaling", "achievable_ranks"),
    ("expr.dt", "lik.expr", "total_time_derivative"),
    ("expr.delta", "lik.expr", "delta_decompose"),
    ("linalg.assembly", "lik.linalg", "LinearSystem.from_poly_coeffs"),
    ("linalg.assembly", "lik.linalg", "LinearSystem.build"),
    ("linalg.nullspace", "lik.linalg", "nullspace"),
    ("linalg.parametric", "lik.linalg", "parametric_solve"),
    ("linalg.factor", "lik.linalg", "_factor_irreducible"),
    ("conservation", "lik.conservation", "build_density_candidate"),
    ("conservation", "lik.conservation", "solve_density"),
    ("conservation", "lik.conservation", "conservation_residual"),
    ("conservation.equivalence", "lik.conservation", "equivalent"),
    ("symmetry", "lik.symmetry", "build_symmetry_candidate"),
    ("symmetry", "lik.symmetry", "solve_symmetry"),
    ("symmetry", "lik.symmetry", "frechet_operator"),
    ("symmetry.residual", "lik.symmetry", "symmetry_residual"),
    ("operators.compose", "lik.operators", "OpEntry.compose"),
    ("operators.compose", "lik.operators", "DiffOperator.compose"),
    ("operators.apply", "lik.operators", "OpEntry.apply"),
    ("operators.apply", "lik.operators", "DiffOperator.apply"),
    ("operators.frechet", "lik.operators", "OpEntry.frechet"),
    ("operators.frechet", "lik.operators", "DiffOperator.frechet"),
    ("recursion.candidate", "lik.recursion", "build_candidate"),
    ("recursion", "lik.recursion", "recursion_pipeline"),
    ("recursion", "lik.recursion", "solve_recursion"),
    ("cli.render", "lik.cli", "Report.to_json"),
    ("cli.render", "lik.cli", "Report.to_text"),
    ("cli", "lik.cli", "main"),
]

# Calls counted without a span: too many and too short to time one by one.
COUNTED = [
    ("params.ops", "lik.params", "ParamCoeff.__add__"),
    ("params.ops", "lik.params", "ParamCoeff.__sub__"),
    ("params.ops", "lik.params", "ParamCoeff.__mul__"),
    ("params.ops", "lik.params", "ParamCoeff.__neg__"),
]

# Per-layer metric -> (unit, how it is computed).  "self:X" is the self
# time of spans named X, "calls:X" their number, "count:X" a count kept by
# a hook or a counting wrapper, "distinct:X" the number of distinct
# arguments a hook saw.
METRICS = {
    "parser.s": ("s", "self:parser"),
    "scaling.weights_s": ("s", "self:scaling.weights"),
    "scaling.candidate_s": ("s", "self:scaling.candidate"),
    "scaling.blocks": ("count", "count:scaling.blocks"),
    "expr.dt_s": ("s", "self:expr.dt"),
    "expr.dt_calls": ("count", "calls:expr.dt"),
    "expr.delta_s": ("s", "self:expr.delta"),
    "params.ops": ("count", "count:params.ops"),
    "linalg.assembly_s": ("s", "self:linalg.assembly"),
    "linalg.rows": ("count", "count:linalg.rows"),
    "linalg.unknowns": ("count", "count:linalg.unknowns"),
    "linalg.nonzeros": ("count", "count:linalg.nonzeros"),
    "linalg.nullspace_s": ("s", "self:linalg.nullspace"),
    "linalg.nullity": ("count", "count:linalg.nullity"),
    "linalg.parametric_s": ("s", "self:linalg.parametric"),
    "linalg.branches": ("count", "count:linalg.branches"),
    "linalg.factor_s": ("s", "self:linalg.factor"),
    "linalg.factor_calls": ("count", "calls:linalg.factor"),
    "linalg.factor_distinct": ("count", "distinct:linalg.factor"),
    "conservation.self_s": ("s", "self:conservation"),
    "conservation.equivalence_s": ("s", "self:conservation.equivalence"),
    "conservation.basis": ("count", "count:conservation.basis"),
    "conservation.kept": ("count", "count:conservation.kept"),
    "symmetry.residual_s": ("s", "self:symmetry.residual"),
    "symmetry.self_s": ("s", "self:symmetry"),
    "operators.compose_s": ("s", "self:operators.compose"),
    "operators.apply_s": ("s", "self:operators.apply"),
    "operators.frechet_s": ("s", "self:operators.frechet"),
    "operators.calls": ("count", "calls:operators.compose,operators.apply,operators.frechet"),
    "recursion.candidate_s": ("s", "self:recursion.candidate"),
    "recursion.unknowns": ("count", "count:recursion.unknowns"),
    "recursion.self_s": ("s", "self:recursion"),
    "cli.render_s": ("s", "self:cli.render"),
    "cli.self_s": ("s", "self:cli"),
}


def _solved_system(tr: "Tracer", system) -> None:
    tr.counts["linalg.rows"] += len(system.rows)
    tr.counts["linalg.unknowns"] += len(system.unknowns)
    tr.counts["linalg.nonzeros"] += sum(
        1 for row in system.rows for c in row if not c.is_zero
    )


def _nullspace(tr, args, outcome):
    _solved_system(tr, args[0])
    tr.counts["linalg.nullity"] += outcome.dimension


def _parametric(tr, args, branches):
    _solved_system(tr, args[0])
    tr.counts["linalg.branches"] += len(branches)
    tr.counts["linalg.nullity"] += sum(
        b.outcome.dimension for b in branches if b.outcome is not None
    )


def _factor(tr, args, _result):
    tr.distinct["linalg.factor"].add(args[0].render())


def _blocks(tr, _args, blocks):
    tr.counts["scaling.blocks"] += len(blocks)


def _density(tr, _args, result):
    results, branches = result
    tr.counts["conservation.basis"] += sum(
        b.outcome.dimension for b in branches if b.outcome is not None
    )
    tr.counts["conservation.kept"] += len(results)


def _operator_candidate(tr, _args, cand):
    tr.counts["recursion.unknowns"] += len(cand.unknowns)


# attribute -> (hook, the metrics it feeds)
HOOKS = {
    "nullspace": (_nullspace, ("linalg.rows", "linalg.unknowns",
                               "linalg.nonzeros", "linalg.nullity")),
    "parametric_solve": (_parametric, ("linalg.rows", "linalg.unknowns",
                                       "linalg.nonzeros", "linalg.nullity",
                                       "linalg.branches")),
    "_factor_irreducible": (_factor, ("linalg.factor_distinct",)),
    "building_blocks": (_blocks, ("scaling.blocks",)),
    "solve_density": (_density, ("conservation.basis", "conservation.kept")),
    "build_candidate": (_operator_candidate, ("recursion.unknowns",)),
}


def _sources(metric: str, names: list[str]) -> set[str]:
    """The span or count names a metric is computed from: the spans whose
    hook feeds it, else the names in its recipe."""
    hooked = {
        name for name, _, attr in SPANS
        if metric in HOOKS.get(attr.rpartition(".")[2], (None, ()))[1]
    }
    return hooked or set(names)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.present: set[str] = set()  # span and count names that were patched
        self.broken: set[str] = set()  # metrics whose hook failed

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in SPANS:
            if self._patch(module, attr, lambda fn, n=name, a=attr: self._timed(n, fn, a)):
                self.present.add(name)
        for name, module, attr in COUNTED:
            if self._patch(module, attr, lambda fn, n=name: self._counted(n, fn)):
                self.present.add(name)

    def _patch(self, module: str, attr: str, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(member)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, member, type(raw)(make(raw.__func__)))
            else:
                setattr(owner, member, make(raw))
            return True
        orig = getattr(mod, member, None)
        if orig is None:
            return False
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "lik" or name.startswith("lik."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
        return True

    def _timed(self, name: str, fn, attr: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook, fed = HOOKS.get(attr.rpartition(".")[2], (None, ()))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, ValueError):
                    self.broken.update(fed)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, int]:
        """Span name -> summed self time in ns (duration minus the time
        covered by direct children)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, int] = defaultdict(int)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def metrics(self) -> dict[str, dict]:
        """Per-layer metric -> {"value", "unit"}, plus "absent": true for a
        metric the program no longer gives."""
        selfs = self.self_times()
        calls = Counter(name for name, *_ in self.spans)
        out = {}
        for metric, (unit, how) in METRICS.items():
            kind, _, names = how.partition(":")
            names = names.split(",")
            if kind == "self":
                value = sum(selfs.get(n, 0) for n in names) / 1e9
            elif kind == "calls":
                value = sum(calls[n] for n in names)
            elif kind == "distinct":
                value = sum(len(self.distinct[n]) for n in names)
            else:
                value = sum(self.counts[n] for n in names)
            out[metric] = {"value": value, "unit": unit}
            if metric in self.broken or not (_sources(metric, names) & self.present):
                out[metric]["absent"] = True
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
