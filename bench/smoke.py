#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (a few seconds of work).

    python3 bench/smoke.py

For every workload in BENCHMARK.json it checks that an untraced run emits
exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, all correct, and that a deliberately wrong reference for each kind
of call is counted as a failed operation.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def _wrong(op: workloads.Op) -> workloads.Op:
    """A copy of ``op`` whose reference is off by one value."""
    bad = copy.deepcopy(op)
    if op.kind == "scan":
        bad.expect["sha256"] = "0" * 64
    elif op.kind == "row":
        bad.expect["row"]["m1_c"] = str(int(op.expect["row"]["m1_c"]) + 1)
    elif op.kind == "graph":
        bad.expect["rows"][1]["m2"] = str(int(op.expect["rows"][1]["m2"]) + 1)
    else:
        bad.expect["rc"] = 0
    return bad


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        size = workloads.TINY[workload]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(workload, 7, 0, trace, size)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={int(trace)}: metrics {sorted(got)} "
                                  f"!= BENCHMARK.json {key} {sorted(wanted)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={int(trace)}: not correct: {result}")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace={int(trace)}: a metric is not a number")

        workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.ROOT / "bench" / "out"))
        try:
            ops = workloads.make_ops(workload, size, 7, workdir)
            outcome = run.run_pass(ops, trace=False)
            for kind in sorted({op.kind for op in ops}):
                i = next(i for i, op in enumerate(ops) if op.kind == kind)
                tally = run.Tally(workloads.check)
                tally.add([_wrong(ops[i])], {"ops": [outcome["ops"][i]]})
                expect(tally.failed >= 1,
                       f"{workload}: a wrong {kind} reference was not counted as failed")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
