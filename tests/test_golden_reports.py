"""Golden JSON reports, checked byte for byte across processes.

Each command runs as ``python -m lik`` in fresh interpreters under two
different ``PYTHONHASHSEED`` values, so the comparison also covers
cross-process determinism (set and dict iteration order).  The files in
``tests/golden/`` hold the expected reports; regenerate one with

    PYTHONPATH=src python -m lik <args> > tests/golden/<name>.json

only when a report is meant to change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HASH_SEEDS = ("0", "4021")

CASES = [
    ("toda-densities-6", 0, ("densities", "--max-rank", "6", "systems/toda.dde")),
    ("toda-densities-rank-9", 0, ("densities", "--rank", "9", "systems/toda.dde")),
    ("toda-symmetries-4", 0, ("symmetries", "--levels", "4", "systems/toda.dde")),
    ("toda-recursion", 0, ("recursion", "systems/toda.dde")),
    ("volterra-recursion", 0, ("recursion", "systems/volterra.dde")),
    ("broken-toda-recursion", 2, ("recursion", "systems/broken_toda.dde")),
    (
        "param-toda-symmetries-3-4",
        0,
        ("symmetries", "--ranks", "3,4", "systems/parameterized_toda.dde"),
    ),
    (
        "param-toda-densities-3",
        0,
        ("densities", "--max-rank", "3", "systems/parameterized_toda.dde"),
    ),
]


@pytest.mark.parametrize(
    "name, exit_code, args", CASES, ids=[name for name, _, _ in CASES]
)
def test_report_matches_golden(name, exit_code, args):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    command, *rest = args
    argv = [sys.executable, "-m", "lik", command, "--json", *rest]
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    base_env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    procs = [
        subprocess.Popen(
            argv,
            cwd=ROOT,
            env={**base_env, "PYTHONHASHSEED": seed},
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
