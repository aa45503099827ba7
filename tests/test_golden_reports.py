"""Golden JSON reports, checked byte for byte across processes.

Each command runs as ``python -m lik`` in fresh interpreters under two
different ``PYTHONHASHSEED`` values, so the comparison also covers
cross-process determinism (set and dict iteration order).  The files in
``tests/golden/`` hold the expected reports; regenerate one with

    PYTHONPATH=src python -m lik <args> > tests/golden/<name>.json

only when a report is meant to change.

The commands on parametric systems (the classification reports) run once
more with sympy blocked, so that no part of a report depends on it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HASH_SEEDS = ("0", "4021")
PARAM_TODA = "systems/parameterized_toda.dde"
PARAM_VOLTERRA = "perfbench/systems/parameterized_volterra.dde"
# recursion on it needs each row divided by its parameter-monomial factor
SCALED_VOLTERRA = "tests/golden/scaled_volterra.dde"
FREE_SCALE = "tests/golden/free_scale.dde"
TODA_OPERATOR = "tests/golden/toda_operator.txt"
BROKEN_OPERATOR = "tests/golden/broken_operator.txt"
BOGOYAVLENSKII = "perfbench/systems/bogoyavlenskii.dde"
# F' of a squared factor, u' = u[0]^2*(u[1] - u[-1]), with w(u) = 1/2
MOD_VOLTERRA = "perfbench/systems/modified_volterra.dde"
# two parameters: many pivots are products of earlier nonzero conditions
TWO_PARAM_BOGOYAVLENSKII = "tests/golden/bogoyavlenskii_two_params.dde"

CASES = [
    ("toda-densities-6", 0, ("densities", "--max-rank", "6", "systems/toda.dde")),
    ("toda-densities-rank-9", 0, ("densities", "--rank", "9", "systems/toda.dde")),
    ("toda-densities-10", 0, ("densities", "--max-rank", "10", "systems/toda.dde")),
    ("toda-symmetries-4", 0, ("symmetries", "--levels", "4", "systems/toda.dde")),
    ("toda-recursion", 0, ("recursion", "systems/toda.dde")),
    ("toda-recursion-4", 0, ("recursion", "--levels", "4", "systems/toda.dde")),
    # gap 2: the first pair probes G(1) to G(3); the space empties at G(2)
    (
        "toda-recursion-gap2",
        2,
        ("recursion", "--gap", "2", "--levels", "5", "systems/toda.dde"),
    ),
    (
        "bogoyavlenskii-densities-5",
        0,
        ("densities", "--max-rank", "5", BOGOYAVLENSKII),
    ),
    ("volterra-recursion", 0, ("recursion", "systems/volterra.dde")),
    (
        "modified-volterra-recursion-5",
        0,
        ("recursion", "--levels", "5", MOD_VOLTERRA),
    ),
    ("broken-toda-recursion", 2, ("recursion", "systems/broken_toda.dde")),
    # the tall 1302 x 27 coefficient system of nullity 0
    (
        "bogoyavlenskii-recursion-2",
        2,
        ("recursion", "--levels", "2", BOGOYAVLENSKII),
    ),
    ("param-toda-symmetries-3-4", 0, ("symmetries", "--ranks", "3,4", PARAM_TODA)),
    ("param-toda-densities-3", 0, ("densities", "--max-rank", "3", PARAM_TODA)),
    ("param-toda-densities-6", 0, ("densities", "--max-rank", "6", PARAM_TODA)),
    ("param-toda-symmetries-2", 0, ("symmetries", "--levels", "2", PARAM_TODA)),
    (
        "param-volterra-densities-5",
        0,
        ("densities", "--max-rank", "5", PARAM_VOLTERRA),
    ),
    (
        "param-volterra-symmetries-3",
        0,
        ("symmetries", "--levels", "3", PARAM_VOLTERRA),
    ),
    ("param-scaled-volterra-recursion", 0, ("recursion", SCALED_VOLTERRA)),
    (
        "param-bogoyavlenskii-densities-4",
        0,
        ("densities", "--max-rank", "4", TWO_PARAM_BOGOYAVLENSKII),
    ),
    ("free-scale-weights-pinned", 0, ("weights", "--weight", "u=3", FREE_SCALE)),
    (
        "toda-verify-operator",
        0,
        ("verify", "--operator", TODA_OPERATOR, "systems/toda.dde"),
    ),
    (
        "toda-verify-broken-operator",
        3,
        ("verify", "--operator", BROKEN_OPERATOR, "systems/toda.dde"),
    ),
]
CLASSIFICATION = [case for case in CASES if case[0].startswith("param-")]

# python -c prelude: every later "import sympy" raises ImportError
NO_SYMPY = (
    "import sys; sys.modules['sympy'] = None; "
    "from lik.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _env(**extra):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


@pytest.mark.parametrize(
    "name, exit_code, args", CASES, ids=[name for name, _, _ in CASES]
)
def test_report_matches_golden(name, exit_code, args):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    command, *rest = args
    argv = [sys.executable, "-m", "lik", command, "--json", *rest]
    procs = [
        subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    for seed, proc in zip(HASH_SEEDS, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == exit_code, f"PYTHONHASHSEED={seed}: {err}"
        assert out == expected, f"PYTHONHASHSEED={seed}: report differs"


@pytest.mark.parametrize(
    "name, exit_code, args", CLASSIFICATION, ids=[c[0] for c in CLASSIFICATION]
)
def test_report_without_sympy(name, exit_code, args):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    command, *rest = args
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY, command, "--json", *rest],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout == expected
