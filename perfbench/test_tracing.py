"""Tests of the traced job runner.  Each test runs lik in a child process,
because the tracer patches lik for the life of the process."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "1"}

from tracing import METRICS  # noqa: E402


def run_job(spans: str, *args: str) -> dict:
    spawn = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    done = subprocess.run(
        [sys.executable, str(HERE / "job.py"), spawn, spans, *args],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_job_reports_every_layer_metric(tmp_path):
    spans_file = tmp_path / "spans.json"
    rec = run_job(str(spans_file), "densities", "--json", "--max-rank", "3",
                  "systems/toda.dde")
    assert rec["exit"] == 0
    assert json.loads(rec["stdout"])["densities"]
    layers = rec["layers"]
    assert set(layers) == set(METRICS)
    assert not any(v.get("absent") for v in layers.values())
    assert layers["conservation.kept"]["value"] == 3
    assert layers["expr.dt_calls"]["value"] > 0
    self_total = sum(v["value"] for v in layers.values() if v["unit"] == "s")
    assert 0 < self_total - layers["parser.s"]["value"] <= rec["wall_ns"] / 1e9
    spans = json.loads(spans_file.read_text())["spans"]
    assert any(name == "cli" and parent == -1 for name, _, _, parent in spans)


def test_untraced_job_has_no_layers():
    rec = run_job("-", "weights", "--json", "systems/volterra.dde")
    assert rec["exit"] == 0 and "layers" not in rec
    assert rec["setup_ns"] > 0 and rec["maxrss_kb"] > 0


def test_removed_function_is_absent_not_an_error():
    code = (
        "import sys; sys.path.insert(0, %r); import lik.cli, lik.linalg\n"
        "del lik.linalg._factor_irreducible\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "print(sorted(m for m, v in t.metrics().items() if v.get('absent')))\n"
    ) % str(HERE)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == (
        "['linalg.factor_calls', 'linalg.factor_distinct', 'linalg.factor_s']"
    )
