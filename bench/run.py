#!/usr/bin/env python3
"""Benchmark of the groupzagreb CLI.

    python3 bench/run.py --workload catalog_scan|large_groups|user_files|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
Each pass of a workload runs its CLI calls (``groupzagreb.cli.main``) in a
fresh interpreter (worker.py), and passes repeat until ``--seconds`` have
gone by.  Every output is checked against a reference that does not come
from the route under test (workloads.py); a failed check counts against
``failed`` and makes the exit code 1.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics, each the median over the run's samples:

  setup_s      a fresh interpreter importing groupzagreb.cli (at least 9 samples)
  wall_s       wall time of one pass: every CLI call of the workload
  cpu_s        user+sys CPU time of one pass
  peak_rss_mb  peak RSS of the pass's process

The shared machine this was built on changes speed by up to half over a few
minutes, for every process alike, which no number of samples in one run
averages away.  So the times are given at a fixed reference speed: each
pass's time is multiplied by CALIBRATION_REF_S over the time the worker took,
just before and after the pass, for fixed work that does not touch the
library (worker.calibrate); each set-up sample is paired with a bare
interpreter start and scaled by BARE_REF_S over it.  Both references are
the medians measured on that machine (2-core Xeon VM, Python 3.11).  The
lines before the JSON give the raw times too.

With ``--trace 1`` one untraced pass is followed by at least two traced ones
(tracing.py), and the JSON carries the per-layer metrics instead; their
counts must repeat exactly between traced passes.  The spans of the last
traced pass are written to bench/out/spans-<workload>.jsonl.

``--workload all`` runs the three workloads one after another, each in its
own process.  The lines before the JSON give the seed, sample counts,
failed/attempted and per-call times.  All processes of a run are kept on one
CPU, so that a pass and its calibration run on the same core.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("catalog_scan", "large_groups", "user_files")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES_PER_PASS = 3
MIN_SETUP_SAMPLES = 9
CALIBRATION_REF_S = 0.048  # median worker.calibrate() time on the reference machine
BARE_REF_S = 0.062  # median `python3 -c pass` start there
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI module, each after
    a bare interpreter start timed the same way; returns (bare, import)."""
    bare, imported = [], []
    for _ in range(samples):
        for code, times in (("pass", bare), ("import groupzagreb.cli", imported)):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"python3 -c {code!r} failed: {proc.stderr.strip()[-500:]}")
    return bare, imported


def run_pass(ops, trace: bool, spans_out: Path | None = None) -> dict:
    job = {"ops": [op.argv for op in ops], "trace": trace,
           "spans_out": str(spans_out) if spans_out else None}
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                              env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    if len(result["ops"]) != len(ops):
        raise BenchError("worker returned a result per call count that does not match")
    return result


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ops, result: dict) -> None:
        for op, r in zip(ops, result["ops"]):
            problems = self.check(op, r["rc"], r["stdout"], r["stderr"])
            self.attempted += op.units
            self.failed += len(problems)
            self.messages += problems


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict):
    """One benchmark run; returns (result object, summary lines)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ops = workloads.make_ops(workload, size, seed, workdir)
        tally = Tally(workloads.check)
        if trace:
            return _traced_run(workload, seed, seconds, ops, tally)
        return _timed_run(workload, seed, seconds, ops, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _scaled(passes, key: str, index: int) -> float:
    """Median over passes of ``key`` at the reference speed, from the
    calibration (wall, CPU) timed in the same worker."""
    return statistics.median(
        p[key] * CALIBRATION_REF_S / statistics.median(c[index] for c in p["calibration"])
        for p in passes)


def _timed_run(workload, seed, seconds, ops, tally):
    measure_setup(1)  # untimed: writes the bytecode cache, as an install would
    bare, imported = [], []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # set-up samples are spread over the run, as the machine's speed drifts
        b, i = measure_setup(SETUP_SAMPLES_PER_PASS)
        bare += b
        imported += i
        result = run_pass(ops, trace=False)
        tally.add(ops, result)
        passes.append(result)
    b, i = measure_setup(max(0, MIN_SETUP_SAMPLES - len(imported)))
    bare += b
    imported += i
    values = {
        "setup_s": statistics.median(imported) * BARE_REF_S / statistics.median(bare),
        "wall_s": _scaled(passes, "wall_s", 0),
        "cpu_s": _scaled(passes, "cpu_s", 1),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    lines = [
        f"workload={workload} seed={seed} trace=0 passes={len(passes)} "
        f"setup_samples={len(imported)} failed_ratio={tally.failed}/{tally.attempted}"
        f"={tally.failed / tally.attempted:.6g}",
        "  " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
        f"  raw: setup_s={statistics.median(imported):.6g} "
        f"bare_start_s={statistics.median(bare):.6g} wall_s={raw_wall:.6g} "
        f"(reference speed / this run's: {values['wall_s'] / raw_wall:.4g})",
    ]
    lines += _op_lines(ops, passes)
    lines += [f"  FAILED {m}" for m in tally.messages[:20]]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }
    return result, lines


def _traced_run(workload, seed, seconds, ops, tally):
    import tracing

    base = run_pass(ops, trace=False)
    tally.add(ops, base)
    traced = []
    spans_out = OUT / f"spans-{workload}.jsonl"
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        result = run_pass(ops, trace=True, spans_out=spans_out)
        tally.add(ops, result)
        traced.append(result)

    problems = []
    per_pass = [p["trace"] for p in traced]
    values = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            values[name] = statistics.median(p["wall_s"] for p in traced) - base["wall_s"]
        elif unit == "s":
            values[name] = statistics.median(m[name] for m in per_pass)
        else:
            seen = {m[name] for m in per_pass}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(seen)}")
            values[name] = per_pass[-1][name]
    for p in traced:
        details = p["trace_details"]
        root = p["trace"]["trace.root_s"]
        if abs(details["layer_self_sum_s"] - root) > 1e-6 * max(1.0, root):
            problems.append(f"layer self times sum to {details['layer_self_sum_s']}, "
                            f"root spans to {root}")
    for name in ("zagreb.route_mismatches", "formulas.diffs"):
        if values[name]:
            problems.append(f"{name} = {values[name]}")

    hi = traced[-1]["trace_details"]["p_hi_pct"]
    layers = " ".join(f"{layer}={values[f'{layer}.busy_s']:.4g}" for layer in tracing.LAYERS)
    lines = [
        f"workload={workload} seed={seed} trace=1 traced_passes={len(traced)} "
        f"failed_ratio={tally.failed}/{tally.attempted}",
        f"  self time (s): {layers} cli={values['cli.self_s']:.4g} "
        f"root={values['trace.root_s']:.4g} overhead={values['trace.overhead_s']:.4g}",
        f"  items={values['trace.items']} p50={values['trace.item_s.p50']:.4g}s "
        f"p{hi}={values['trace.item_s.p_hi']:.4g}s (trace.item_s.p_hi is p{hi})",
        f"  spans of the last traced pass: {spans_out.relative_to(ROOT)}",
    ]
    lines += [f"  FAILED {m}" for m in tally.messages[:20]]
    lines += [f"  CHECK {m}" for m in problems]
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in values.items()},
    }
    return result, lines


def _op_lines(ops, passes) -> list[str]:
    lines = []
    for i, op in enumerate(ops):
        walls = [p["ops"][i]["wall_s"] for p in passes]
        call = " ".join(Path(a).name if os.sep in a else a for a in op.argv)
        lines.append(f"  call {call}: median wall "
                     f"{statistics.median(walls):.4g} s over {len(walls)}")
    return lines


def _run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groupzagreb" / "cli.py").is_file():
        print(f"bench: error: no groupzagreb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workloads.SIZES[args.workload])
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
