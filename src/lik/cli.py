"""Command line interface: orchestration and deterministic reporting.

Subcommands
    weights     solve the dilation-weight balance
    densities   conserved densities at one rank or up to a bound
    symmetries  generalized symmetries at explicit ranks or by level
    recursion   recursion operator from a computed symmetry chain
    verify      recheck a density, symmetry, or operator file from scratch

Exit codes: 0 success, 1 usage or parse error (also a parameter exponent
past 2**31 - 1 while solving), 2 no result at the requested rank, 3
verification failure.  All symbolic output round-trips through the
expression grammar; identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .conservation import (
    build_density_candidate,
    conservation_residual,
    solve_density,
)
from .expr import LatticePoly, render_poly
from .linalg import DEFAULT_BRANCH_DEPTH, Branch
from .operators import DiffOperator, render_operator
from .params import ExponentOverflow, ParamCoeff
from .parser import (
    ParseError,
    parse_assignments,
    parse_expression,
    parse_operator_matrix,
    parse_rational,
    parse_system,
)
from .recursion import (
    DEFAULT_LEVELS,
    RecursionOutcome,
    generation_step,
    identity_residual,
    identity_vanishes,
    recursion_pipeline,
)
from .scaling import (
    ScalingError,
    WeightVector,
    achievable_ranks,
    compute_weights,
)
from .symmetry import (
    build_symmetry_candidate,
    frechet_operator,
    level_ranks,
    solve_symmetry,
    symmetry_residual,
)
from .system import DdeSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_RESULT = 2
EXIT_VERIFY_FAIL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 1 for usage problems
        raise UsageError(message)


def _render_condition(pc: ParamCoeff, rel: str) -> str:
    """pc rel 0, or p rel value when pc is linear in its one parameter p
    with rational coefficients."""
    params = sorted(pc.parameters())
    if len(params) == 1:
        p = params[0]
        if pc.degree_in(p) == 1:
            g = pc.coeff_of(p, 1)
            h = pc.coeff_of(p, 0)
            if g.is_rational and h.is_rational:
                val = -h.as_fraction() / g.as_fraction()
                return f"{p} {rel} {val}"
    return f"{pc.render()} {rel} 0"


class Report:
    """Accumulates results and renders them as text or JSON."""

    def __init__(self, command: str, sys_: DdeSystem):
        self.doc: dict = {
            "schema_version": "1",
            "command": command,
            "system": {
                "components": [
                    {"name": n, "rhs": render_poly(f, sys_.names)}
                    for n, f in zip(sys_.names, sys_.rhs)
                ],
                "params": list(sys_.params),
            },
            "weights": None,
            "densities": [],
            "symmetries": [],
            "recursion_operator": None,
            "conditions": [],
            "verification": [],
        }
        self.names = sys_.names
        self.recursion_verdict = ""  # the text verdict line, set by set_recursion

    def set_weights(self, w: WeightVector):
        self.doc["weights"] = {n: str(v) for n, v in zip(self.names, w)}

    def add_density(self, r):
        flux = render_poly(r.flux, self.names)  # schema v1 repeats it
        self.doc["densities"].append(
            {
                "rank": str(r.rank),
                "rho": render_poly(r.density, self.names),
                "flux": flux,
                "flux_decomposition": flux,
                "normalization": r.normalization,
                "conditions": [
                    _render_condition(c, "=") for c in r.eq_conditions
                ],
            }
        )

    def add_symmetry(self, r):
        self.doc["symmetries"].append(
            {
                "ranks": [str(x) for x in r.ranks],
                "components": {
                    n: render_poly(c, self.names)
                    for n, c in zip(self.names, r.components)
                },
                "conditions": [
                    _render_condition(c, "=") for c in r.eq_conditions
                ],
            }
        )

    def add_branches(self, subject: str, branches: list[Branch], found: str):
        for br in branches:
            if br.outcome is None:
                outcome = br.status
            elif any(b for b in br.outcome.basis):
                outcome = found
            else:
                outcome = "no candidate"
            self.doc["conditions"].append(
                {
                    "subject": subject,
                    "assumptions": [
                        _render_condition(c, "=") for c in br.eq_conditions
                    ],
                    "nonzero": [
                        _render_condition(c, "!=") for c in br.neq_conditions
                    ],
                    "outcome": outcome,
                }
            )

    def set_recursion(self, outcome: RecursionOutcome):
        if outcome.ok:
            levels = ", ".join(f"G({level})" for level, _ in outcome.generated)
            self.recursion_verdict = f"generates {levels}: verified"
            entries = render_operator(outcome.operator, self.names).split("\n")
        else:
            self.recursion_verdict = (
                f"no operator ({outcome.failure_family}): {outcome.message}"
            )
            entries = []
        self.doc["recursion_operator"] = {
            "entries": entries,
            "coefficients": {
                t: str(v) for t, v in sorted(
                    outcome.coefficients.items(),
                    key=lambda kv: (len(kv[0]), kv[0]),
                )
            },
            "verified": outcome.ok,
            "checks": list(outcome.checks),
            "failure_family": outcome.failure_family,
            "message": outcome.message,
        }

    def add_verification(self, subject: str, identity: str, ok: bool):
        self.doc["verification"].append(
            {
                "subject": subject,
                "identity": identity,
                "verdict": "pass" if ok else "fail",
            }
        )

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.doc, indent=2) + "\n"

    def to_text(self) -> str:
        d = self.doc
        lines: list[str] = ["system:"]
        for comp in d["system"]["components"]:
            lines.append(f"  {comp['name']}' = {comp['rhs']}")
        if d["system"]["params"]:
            lines.append("  params: " + ", ".join(d["system"]["params"]))
        if d["weights"] is not None:
            lines.append("weights:")
            for n in self.names:
                lines.append(f"  w({n}) = {d['weights'][n]}")
        if d["densities"]:
            lines.append("densities:")
            for e in d["densities"]:
                lines.append(f"  rank {e['rank']}:")
                if e["conditions"]:
                    lines.append(
                        "    conditions: " + ", ".join(e["conditions"])
                    )
                lines.append(f"    rho = {e['rho']}")
                lines.append(f"    flux = {e['flux']}")
                lines.append(
                    f"    flux_decomposition = {e['flux_decomposition']}"
                )
        if d["symmetries"]:
            lines.append("symmetries:")
            for e in d["symmetries"]:
                lines.append(f"  ranks ({', '.join(e['ranks'])}):")
                if e["conditions"]:
                    lines.append(
                        "    conditions: " + ", ".join(e["conditions"])
                    )
                for n in self.names:
                    lines.append(f"    G_{n} = {e['components'][n]}")
        if d["recursion_operator"] is not None:
            r = d["recursion_operator"]
            lines.append("recursion operator:")
            for entry in r["entries"]:
                lines.append(f"  {entry}")
            if r["coefficients"]:
                nonzero = {
                    t: v for t, v in r["coefficients"].items() if v != "0"
                }
                lines.append(
                    "  coefficients: "
                    + ", ".join(f"{t} = {v}" for t, v in nonzero.items())
                )
            for c in r["checks"]:
                lines.append(f"  check: {c}")
            lines.append(f"  verdict: {self.recursion_verdict}")
        if d["conditions"]:
            lines.append("conditions:")
            for e in d["conditions"]:
                parts = e["assumptions"] + e["nonzero"]
                label = "[" + ", ".join(parts) + "]" if parts else "[generic]"
                lines.append(f"  {e['subject']} {label}: {e['outcome']}")
        if d["verification"]:
            lines.append("verification:")
            for e in d["verification"]:
                lines.append(
                    f"  {e['subject']}: {e['identity']}: {e['verdict']}"
                )
        return "\n".join(lines) + "\n"


# -- argument handling -----------------------------------------------------------


def _parse_rational(text: str, positive: bool = False) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError:
        raise UsageError(f"bad rational value {text!r}") from None
    if positive and value <= 0:
        raise UsageError(f"value must be positive, got {text!r}")
    return value


def _load_system(path: str, weight_flags: list[str]) -> DdeSystem:
    sys_ = parse_system(_read_text(path))
    if weight_flags:
        pins = dict(sys_.weight_pins)
        index = {n: i for i, n in enumerate(sys_.names)}
        for flag in weight_flags:
            if "=" not in flag:
                raise UsageError(f"--weight expects name=value, got {flag!r}")
            name, val = (part.strip() for part in flag.split("=", 1))
            if name not in index:
                raise UsageError(f"unknown component {name!r} in --weight")
            pins[index[name]] = _parse_rational(val)
            if pins[index[name]] <= 0:
                raise UsageError(f"--weight {name} must be positive, got {val!r}")
        sys_ = DdeSystem(sys_.names, sys_.rhs, sys_.params, pins)
    return sys_


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _branch_depth(args) -> int:
    depth, source = args.branch_depth, "--branch-depth"
    if depth is None:
        env = os.environ.get("LIK_BRANCH_DEPTH")
        if not env:
            return DEFAULT_BRANCH_DEPTH
        try:
            depth = int(env)
        except ValueError:
            raise UsageError(f"bad LIK_BRANCH_DEPTH value {env!r}") from None
        source = "LIK_BRANCH_DEPTH"
    if depth < 0:
        raise UsageError(f"{source} must be at least 0, got {depth}")
    return depth


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("file", help="system definition file")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument(
        "--weight",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="pin a component weight (repeatable)",
    )
    sub.add_argument(
        "--branch-depth",
        type=int,
        default=None,
        help="parameter case-split depth "
        f"(default {DEFAULT_BRANCH_DEPTH}, env LIK_BRANCH_DEPTH)",
    )


def build_argparser() -> _Parser:
    top = _Parser(
        prog="lik",
        description="integrability toolkit for polynomial lattice equations",
    )
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("weights", help="solve the dilation-weight balance")
    _add_common(sub)

    sub = subs.add_parser("densities", help="conserved densities and fluxes")
    _add_common(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--rank", type=str, help="single density rank")
    group.add_argument("--max-rank", type=str, help="all ranks up to a bound")

    sub = subs.add_parser("symmetries", help="generalized symmetries")
    _add_common(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--ranks", type=str, help="comma-separated rank per component"
    )
    group.add_argument(
        "--levels", type=int, help="compute this many successive symmetries"
    )
    sub.add_argument("--gap", type=int, default=1, help="level step (default 1)")
    sub.add_argument(
        "--normalize", type=str, default=None, metavar="TAG",
        help="unknown tag scaled to 1 (default: last nonzero)",
    )

    sub = subs.add_parser("recursion", help="recursion operator")
    _add_common(sub)
    sub.add_argument(
        "--levels", type=int, default=DEFAULT_LEVELS,
        help=f"symmetry levels to compute first (default {DEFAULT_LEVELS})",
    )
    sub.add_argument("--gap", type=int, default=1, help="symmetry gap (default 1)")

    sub = subs.add_parser("verify", help="recheck results from their files")
    _add_common(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--density", type=str, metavar="FILE")
    group.add_argument("--symmetry", type=str, metavar="FILE")
    group.add_argument("--operator", type=str, metavar="FILE")

    return top


# -- subcommand implementations ----------------------------------------------------


def _cmd_weights(args, sys_: DdeSystem, w: WeightVector, report: Report) -> int:
    return EXIT_OK


def _cmd_densities(args, sys_: DdeSystem, w: WeightVector, report: Report) -> int:
    depth = _branch_depth(args)
    if args.rank is not None:
        ranks = [_parse_rational(args.rank, positive=True)]
    else:
        ranks = achievable_ranks(w, _parse_rational(args.max_rank, positive=True))
    found = 0
    for rank in ranks:
        cand = build_density_candidate(sys_, w, rank)
        if cand is None:
            continue
        results, branches = solve_density(cand, sys_, depth)
        for r in results:
            report.add_density(r)
            found += 1
        if sys_.params:
            report.add_branches(
                f"density rank {rank}", branches, "density found"
            )
    return EXIT_OK if found else EXIT_NO_RESULT


def _cmd_symmetries(args, sys_: DdeSystem, w: WeightVector, report: Report) -> int:
    depth = _branch_depth(args)
    if args.gap < 1:
        raise UsageError("--gap must be at least 1")
    rank_vectors = []
    if args.ranks is not None:
        parts = [p.strip() for p in args.ranks.split(",")]
        if len(parts) != sys_.n:
            raise UsageError(
                f"--ranks needs {sys_.n} comma-separated values for this system"
            )
        rank_vectors.append(
            tuple(_parse_rational(p, positive=True) for p in parts)
        )
    else:
        if args.levels < 1:
            raise UsageError("--levels must be at least 1")
        for level in range(1, args.levels + 1):
            rank_vectors.append(level_ranks(w, level, args.gap))
    found = 0
    for ranks in rank_vectors:
        cand = build_symmetry_candidate(sys_, w, ranks)
        if cand is None:
            continue
        if args.normalize is not None and args.normalize not in cand.unknowns:
            raise UsageError(
                f"--normalize {args.normalize!r} names no unknown of the "
                f"candidate at ranks ({', '.join(str(r) for r in ranks)}), "
                f"whose unknowns are {cand.unknowns[0]}..{cand.unknowns[-1]}"
            )
        results, branches = solve_symmetry(
            cand, sys_, w, normalize_tag=args.normalize, max_depth=depth
        )
        for r in results:
            report.add_symmetry(r)
            found += 1
        if sys_.params:
            report.add_branches(
                f"symmetry ranks ({', '.join(str(r) for r in ranks)})",
                branches,
                "symmetry found",
            )
    return EXIT_OK if found else EXIT_NO_RESULT


def _cmd_recursion(args, sys_: DdeSystem, w: WeightVector, report: Report) -> int:
    depth = _branch_depth(args)
    if args.gap < 1:
        raise UsageError("--gap must be at least 1")
    if args.levels < 1:
        raise UsageError("--levels must be at least 1")
    outcome, symmetries = recursion_pipeline(
        sys_, w, levels=args.levels, gap=args.gap, max_depth=depth
    )
    for r in symmetries:
        report.add_symmetry(r)
    report.set_recursion(outcome)
    if outcome.ok:
        return EXIT_OK
    family = outcome.failure_family or ""
    return EXIT_VERIFY_FAIL if family.startswith("verification") else EXIT_NO_RESULT


def _cmd_verify(args, sys_: DdeSystem, w: WeightVector | None, report: Report) -> int:
    if args.density:
        assigns = dict_of_assignments(args.density, sys_)
        for key in ("rho", "flux"):
            if key not in assigns:
                raise UsageError(f"density file must assign {key}")
        ok = conservation_residual(assigns["rho"], assigns["flux"], sys_).is_zero
        report.add_verification("density", "Dt(rho) + Delta(flux) = 0", ok)
    elif args.symmetry:
        assigns = dict_of_assignments(args.symmetry, sys_)
        comps = []
        for n in sys_.names:
            key = f"G_{n}"
            if key not in assigns:
                raise UsageError(f"symmetry file must assign {key}")
            comps.append(assigns[key])
        ok = all(x.is_zero for x in symmetry_residual(comps, sys_))
        report.add_verification("symmetry", "Dt(G) - F'[G] = 0", ok)
    else:
        text = _read_text(args.operator)
        op = parse_operator_matrix(text, sys_.names, sys_.params)
        ok = _verify_operator(sys_, op, report)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def dict_of_assignments(path: str, sys_: DdeSystem) -> dict[str, LatticePoly]:
    text = _read_text(path)
    out = {}
    for key, rhs, ln, col in parse_assignments(text):
        if key in out:
            raise ParseError(f"duplicate assignment for {key!r}", ln, 1)
        out[key] = parse_expression(rhs, sys_.names, sys_.params, line_no=ln, col=col)
    return out


def _verify_operator(sys_: DdeSystem, op: DiffOperator, report: Report) -> bool:
    """Generation plus defining-identity probes, recomputed from scratch.

    The seed of the chain is the time-translation symmetry, which is the
    right-hand side itself.
    """
    residual_op = identity_residual(op, sys_, frechet_operator(sys_.rhs))
    ok = True
    chain = [list(sys_.rhs)]
    for step in range(1, 4):
        polys, holds = generation_step(op, chain[-1], sys_)
        subject = f"operator: level {step + 1} from level {step}"
        if polys is None:
            report.add_verification(
                subject, "generated symmetry is local", False
            )
            ok = False
            break
        report.add_verification(subject, "Dt(G) - F'[G] = 0", holds)
        ok &= holds
        chain.append(polys)
    for k, g in enumerate(chain[:3], start=1):
        good = identity_vanishes(residual_op, g)
        report.add_verification(
            f"operator: probe on level {k}",
            "(R'[F] + R o F' - F' o R) G = 0",
            good,
        )
        ok &= good
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = build_argparser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "weights": _cmd_weights,
            "densities": _cmd_densities,
            "symmetries": _cmd_symmetries,
            "recursion": _cmd_recursion,
            "verify": _cmd_verify,
        }[args.command]
        sys_ = _load_system(args.file, args.weight)
        report = Report(args.command, sys_)
        try:
            w = compute_weights(sys_)
        except ScalingError:
            if args.command != "verify":  # verification needs no weights
                raise
            w = None
        else:
            report.set_weights(w)
        code = handler(args, sys_, w, report)
    except (UsageError, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScalingError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
