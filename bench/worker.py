"""One benchmark pass in a fresh interpreter.

Reads a job from stdin as JSON: ``{"ops": [argv, ...], "trace": bool,
"spans_out": path or null}``.  Imports ``groupzagreb.cli`` (the import is not
timed; ``setup_s`` measures it separately), then calls ``cli.main(argv)`` for
each operation in turn with stdout and stderr captured.  Writes one JSON
object to stdout: per-operation exit code, output and wall time, the pass's
wall and CPU time, and the process's peak RSS.  With tracing on, the library's
layers are wrapped first (see tracing.py) and the per-layer metrics of the
pass are added.

Each pass runs in its own process so that nothing the library caches in one
pass, and no memory peak, carries over to the next.  A fixed piece of work
that does not touch the library is timed before and after the operations;
run.py scales the pass's times by it, because this machine's speed drifts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


CALIBRATION_SAMPLES = 5


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of fixed pure-Python work shaped like the library's
    inner loops: nested table indexing, dict and set updates, integer
    arithmetic.  It imports nothing from the library, so no change there
    moves it."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    n = 224
    table = [[(i * j + i) % n for j in range(n)] for i in range(n)]
    acc = 0
    for row in table:
        acc += sum(table[row[j]][j] for j in range(n))
    # small dict and set, so that the calibration does not raise the peak RSS
    counts: dict[int, int] = {}
    for i in range(120_000):
        counts[i % 997] = counts.get(i % 997, 0) + (i & 255)
    seen = set()
    for i in range(120_000):
        seen.add((i * 7919) % 1021)
    acc += len(seen) + sum(counts.values())
    return time.perf_counter() - wall0, time.process_time() - cpu0


def run_ops(main, ops):
    results = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:  # an operation that raises is a failed operation, not a dead pass
                rc = None
                traceback.print_exc()
        results.append({
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "wall_s": time.perf_counter() - start,
        })
    return results, time.perf_counter() - wall0, time.process_time() - cpu0


def main() -> int:
    job = json.load(sys.stdin)
    from groupzagreb import cli

    tracer = None
    entry = cli.main
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.wrap(tracing.ROOT_NAME, cli.main)

    calibration = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    ops, wall, cpu = run_ops(entry, job["ops"])
    calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    result = {
        "ops": ops,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration": calibration,
    }
    if tracer is not None:
        metrics, details = tracer.metrics()
        result["trace"] = metrics
        result["trace_details"] = details
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
