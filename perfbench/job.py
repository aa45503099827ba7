"""Run one lik command in this fresh interpreter and report what it cost.

    python3 perfbench/job.py SPAWN_NS SPANS_FILE LIK_ARGS...

SPAWN_NS is the CLOCK_MONOTONIC reading (ns) taken by the parent just
before it started this process; set-up time runs from there until lik is
imported and the system file (the last argument) is read and parsed.
SPANS_FILE is "-" for an untraced run; otherwise the layers are traced
and the spans written there.  The command's own output is captured, and
one JSON line goes to stdout: exit, stdout, stderr, setup_ns, wall_ns,
maxrss_kb (peak resident set), and with tracing the per-layer metrics.
"""

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def peak_rss_kb() -> int:
    """Peak resident set of this program image.  ru_maxrss would also
    count the parent's memory, which a forked child inherits until exec;
    VmHWM starts afresh at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spawn_ns, spans_file, args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import lik.cli
    import lik.parser

    tracer = None
    if spans_file != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args[-1], encoding="utf-8") as fh:
        lik.parser.parse_system(fh.read())
    setup_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn_ns

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = lik.cli.main(args)
        except Exception:  # a crash is a result of the job, reported as such
            code = None
            traceback.print_exc()
        wall_ns = time.perf_counter_ns() - start
    record = {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "setup_ns": setup_ns,
        "wall_ns": wall_ns,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.dump(spans_file)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
