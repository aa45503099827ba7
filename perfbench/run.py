"""Benchmark for lik: runs one workload's jobs as a CLI user would.

    python3 perfbench/run.py --workload densities --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each job is one lik command in a fresh interpreter (perfbench/job.py),
run serially, one process at a time.  A round runs every job of the
workload once; a run repeats whole rounds for about --seconds and reports
medians over rounds.  The seed sets PYTHONHASHSEED of each job process
(different for every job and round) and nothing else.  Every report is
checked by the sympy oracle (oracle.py) and must be byte-identical across
the rounds of a run; a job that fails either check counts as failed.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_s       sum over jobs of the time inside lik.cli.main, report rendered
  setup_s      sum over jobs of the time from process start to lik imported
               and the system file parsed
  peak_rss_mb  highest peak resident memory of any job process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracing.py plus trace.overhead_s (traced minus untraced wall_s).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details of every round go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Job  # noqa: E402

MIN_ROUNDS = 3  # untraced rounds in a --trace 0 run: a median, and determinism
DEADLINE_S = 150  # a run stops starting rounds after this, whatever --seconds says
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def _env(hash_seed: int) -> dict[str, str]:
    """The caller's environment, with this checkout's lik first on the path,
    the given hash seed, and no LIK_* settings that could change a job."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIK_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _hash_seed(seed: int, round_no: int, job_no: int) -> int:
    return 1 + (seed * 1_000_003 + round_no * 1_009 + job_no) % 4_294_967_295


def _warm_up() -> None:
    """Import lik once so that the timed runs find compiled bytecode, and
    fail early when the checkout holds no program."""
    if not (ROOT / "src" / "lik" / "cli.py").is_file():
        raise ProgramMissing(f"no lik program under {ROOT / 'src'}")
    done = subprocess.run(
        [sys.executable, "-c", "import lik.cli"], env=_env(1), cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise ProgramMissing(f"cannot import lik: {done.stderr.strip()}")


def run_job(job: Job, hash_seed: int, spans_file: str, timeout: float) -> dict:
    spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(spawn), spans_file, *job.argv],
            env=_env(hash_seed), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"job process exited {done.returncode}: "
                         f"{done.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


class Checker:
    """Oracle verdict per job, computed once per distinct report, and the
    cross-process comparison of report digests."""

    def __init__(self):
        import oracle

        self.oracle = oracle
        self.schema = oracle.load_schema(ROOT)
        self.first_digest: dict[str, str] = {}
        self.verdicts: dict[str, tuple[list[str], list[str]]] = {}

    def check(self, job: Job, rec: dict) -> tuple[list[str], bool]:
        """(problems, expected): expected is true when the only problems
        are the wrong answers of a job with a known fault."""
        if "error" in rec:
            return [rec["error"]], False
        if rec["exit"] is None:
            return [f"lik crashed: {rec['stderr'].strip()[-400:]}"], False
        digest = hashlib.sha256(
            f"{rec['exit']}\n{rec['stdout']}".encode()
        ).hexdigest()
        first = self.first_digest.setdefault(job.name, digest)
        if digest != first:
            return ["report differs from the one of an earlier process"], False
        if digest not in self.verdicts:
            self.verdicts[digest] = self._verdict(job, rec)
        invalid, wrong = self.verdicts[digest]
        return invalid + wrong, bool(job.known_fault) and not invalid

    def _verdict(self, job: Job, rec: dict) -> tuple[list[str], list[str]]:
        oracle = self.oracle
        try:
            doc = json.loads(rec["stdout"])
            rhs, params = oracle.read_system((ROOT / job.system).read_text())
            lat = oracle.Lattice(rhs, params)
            invalid = oracle.check_report(lat, doc, self.schema)
            wrong = oracle.check_expected(lat, doc, rec["exit"], job.expect)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"], []
        return invalid, wrong


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[name]
    _warm_up()
    OUT.mkdir(exist_ok=True)
    checker = Checker()
    start = time.monotonic()
    rounds: list[dict] = []
    attempted = failed = 0
    unexpected: dict[str, None] = {}  # problems in first-seen order
    while True:
        traced = trace and len(rounds) % 2 == 1
        running = 0.0  # time spent in job processes, checks excluded
        records = []
        for job_no, job in enumerate(jobs):
            spans = str(OUT / f"spans-{job.name}.json") if traced else "-"
            remaining = DEADLINE_S - (time.monotonic() - start)
            t0 = time.monotonic()
            rec = run_job(job, _hash_seed(seed, len(rounds), job_no), spans,
                          max(remaining, 1.0))
            running += time.monotonic() - t0
            problems, expected = checker.check(job, rec)
            attempted += 1
            if problems:
                failed += 1
                if not expected:
                    unexpected.update((f"{job.name}: {p}", None) for p in problems)
            records.append({"job": job.name, "args": list(job.argv),
                            "problems": problems, **{k: v for k, v in rec.items()
                                                     if k not in ("stdout", "stderr")}})
        rounds.append({"traced": traced, "seconds": running, "jobs": records})
        measured = sum(r["seconds"] for r in rounds)
        longest = max(r["seconds"] for r in rounds)
        if (any("error" in r for r in records)
                or time.monotonic() - start + longest > DEADLINE_S):
            break
        plain = sum(not r["traced"] for r in rounds)
        enough = len(rounds) >= 2 if trace else plain >= MIN_ROUNDS
        if enough and measured + longest > seconds:
            break

    result = {"workload": name, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed,
              "correct": not unexpected, "problems": list(unexpected),
              "metrics": _metrics(rounds, trace), "rounds": rounds}
    tag = f"{name}-trace{int(trace)}-seed{seed}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Each job's median over the rounds, summed over jobs (the peak memory:
    the largest job median)."""
    per_job: dict[str, list[dict]] = {}
    for r in rounds:
        if not any("error" in j for j in r["jobs"]):
            for j in r["jobs"]:
                per_job.setdefault(j["job"], []).append(j)
    if not per_job:
        return {"wall_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0}

    def median(recs, key):
        return statistics.median(j[key] for j in recs)

    return {
        "wall_s": sum(median(v, "wall_ns") for v in per_job.values()) / 1e9,
        "setup_s": sum(median(v, "setup_ns") for v in per_job.values()) / 1e9,
        "peak_rss_mb": max(median(v, "maxrss_kb") for v in per_job.values()) / 1024,
    }


def _metrics(rounds: list[dict], trace: bool) -> dict[str, dict]:
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        return {m: {"value": v, "unit": E2E_UNITS[m]}
                for m, v in _end_to_end(plain).items()}
    traced_rounds = [r for r in rounds if r["traced"]
                     and not any("error" in j for j in r["jobs"])]
    out: dict[str, dict] = {}
    if traced_rounds:
        per_round = []
        for r in traced_rounds:
            layers: dict[str, dict] = {}
            for j in r["jobs"]:
                for m, v in j["layers"].items():
                    acc = layers.setdefault(m, {"value": 0, "unit": v["unit"]})
                    acc["value"] += v["value"]
                    if v.get("absent"):
                        acc["absent"] = True
            per_round.append(layers)
        for m, first in per_round[0].items():
            median = statistics.median if first["unit"] == "s" else statistics.median_low
            out[m] = {**first, "value": median(p[m]["value"] for p in per_round)}
        out["trace.overhead_s"] = {
            "value": _end_to_end(traced_rounds)["wall_s"] - _end_to_end(plain)["wall_s"],
            "unit": "s"}
    return out


def _print_summary(result: dict) -> None:
    name = result["workload"]
    last = result["rounds"][-1]
    print(f"workload {name}: {len(result['rounds'])} rounds, "
          f"{'traced and untraced' if result['trace'] else 'untraced'}")
    for j in last["jobs"]:
        status = "ok" if not j["problems"] else "FAILED: " + "; ".join(j["problems"])
        if "error" in j:
            print(f"  {j['job']:<32} {status}")
            continue
        print(f"  {j['job']:<32} exit {j['exit']}  wall {j['wall_ns'] / 1e9:8.4f} s"
              f"  setup {j['setup_ns'] / 1e9:6.4f} s  rss {j['maxrss_kb'] / 1024:6.1f} MB"
              f"  {status}")
    for m, v in result["metrics"].items():
        absent = "  (absent)" if v.get("absent") else ""
        print(f"  {m} = {v['value']:.6g} {v['unit']}{absent}")
    print(f"  jobs attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for p in result["problems"]:
        print(f"  problem: {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            _print_summary(results[-1])
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
