"""qtlab benchmark: one workload per process, end-to-end or traced per layer.

    python3 bench/run.py --workload lab|wide|differential --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it sets the workload up several times (setup_s is the
median), runs enough passes to fill about S seconds, checks every output and
prints the end-to-end metrics.  Every time is read from a ``RefClock`` (see
refclock.py): wall time scaled to a reference host speed, so that the host's
changing speed states do not move the numbers.  With ``--trace 1`` it runs one untraced pass,
then the same pass with every layer wrapped (see tracer.py), requires the two
passes' outputs to be byte-identical and prints the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object; a fuller record,
with host metadata and, when traced, the spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import refclock
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("lab", "wide", "differential")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
              "peak_rss_mb": "MB"}
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")
SETUP_WARMUP = 3  # untimed set-ups first: the first imports read cold files
SETUP_REPS = 25
# Seconds one pass takes on the 2-core reference host; a run makes
# round(seconds / PASS_SECONDS) passes, at least one.
PASS_SECONDS = {"lab": 10.0, "wide": 30.0, "differential": 25.0}
# After the passes, operations quicker than CHEAP_OP_S are run again until
# each has this many timings (lab: its checks other than pnueli take a few
# milliseconds, and three readings of those spread 10% between runs).
OP_SAMPLES = {"lab": 15}
CHEAP_OP_S = 0.1


def fresh_workloads():
    """Import qtlab and the workload modules from scratch, so every setup
    repetition pays for the imports again."""
    for name in list(sys.modules):
        if name == "qtlab" or name.startswith("qtlab.") or name in ("generators", "workloads"):
            del sys.modules[name]
    module = importlib.import_module("workloads")
    qtlab_file = Path(sys.modules["qtlab"].__file__).resolve()
    if SRC.resolve() not in qtlab_file.parents:
        raise ImportError(f"qtlab was imported from {qtlab_file}, not from {SRC}")
    return module


def setup(workload: str, seed: int, workdir: Path, now):
    times = []
    for rep in range(SETUP_WARMUP + SETUP_REPS):
        gc.collect()  # each repetition starts from the same heap, untimed
        start = now()
        module = fresh_workloads()
        state = module.WORKLOADS[workload](seed, workdir)
        ops = state.ops()
        if rep >= SETUP_WARMUP:
            times.append(now() - start)
    return state, ops, statistics.median(times)


def run_pass(ops, now, tracer=None):
    """Run every operation once; returns (pass seconds, per-op seconds, outputs)
    as read from ``now``.  An operation that raises yields output None and
    counts as failed."""
    times: Dict[str, float] = {}
    outputs: Dict[str, Optional[str]] = {}
    gc.collect()
    start = now()
    for trace_id, (label, tag, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.trace_id, tracer.tag = trace_id, tag
        t0 = now()
        try:
            outputs[label] = thunk()
        except Exception:  # counted as a failed operation, the run goes on
            traceback.print_exc(file=sys.stderr)
            outputs[label] = None
        times[label] = now() - t0
    return now() - start, times, outputs


def count_failures(state, passes: List[Dict[str, Optional[str]]]) -> int:
    """Validate each operation's first output (untimed) and record its digest;
    every other execution must reproduce that digest byte for byte.  A pass
    may hold a subset of the operations."""
    failed = 0
    for label, first in passes[0].items():
        try:
            valid = first is not None and state.check(label, first)
        except Exception:  # an output the check cannot even read is wrong
            traceback.print_exc(file=sys.stderr)
            valid = False
        digest = hashlib.sha256(first.encode()).hexdigest() if valid else None
        for outputs in passes:
            if label not in outputs:
                continue
            out = outputs[label]
            if digest is None or out is None or hashlib.sha256(out.encode()).hexdigest() != digest:
                failed += 1
    return failed


def op_stats(passes_times: List[Dict[str, float]]) -> Dict[str, float]:
    """Median per distinct operation over the passes that ran it, then the
    median and the highest percentile with at least ten operations beyond it
    (the maximum when there are fewer than eleven operations)."""
    medians = {label: statistics.median(t[label] for t in passes_times if label in t)
               for label in passes_times[0]}
    per_op = sorted(medians.values())
    k = len(per_op) - 11 if len(per_op) >= 11 else len(per_op) - 1
    return {"p50": statistics.median(per_op), "tail": per_op[k],
            "tail_percentile": 100.0 * (k + 1) / len(per_op), "samples": len(per_op),
            "per_op": medians}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def metadata(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: int, workdir: Path, clock):
    state, ops, setup_s = setup(workload, seed, workdir, clock.now)
    n_passes = max(1, round(seconds / PASS_SECONDS[workload]))
    walls, raw_walls, times, outputs = [], [], [], []
    for _ in range(n_passes):
        raw_start = time.perf_counter()
        wall, t, out = run_pass(ops, clock.now)
        raw_walls.append(time.perf_counter() - raw_start)
        walls.append(wall)
        times.append(t)
        outputs.append(out)
    cheap = [op for op in ops if times[0][op[0]] < CHEAP_OP_S]
    for _ in range(OP_SAMPLES.get(workload, 0) - n_passes):
        _, t, out = run_pass(cheap, clock.now)
        times.append(t)
        outputs.append(out)
    rss = peak_rss_mb()
    failed = count_failures(state, outputs)
    stats = op_stats(times)
    values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
              "op_s_p50": stats["p50"], "op_s_tail": stats["tail"], "peak_rss_mb": rss}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    detail = {"passes": n_passes, "pass_wall_s": walls, "pass_raw_wall_s": raw_walls,
              "kernel_s_median": statistics.median(clock.kernel_s),
              "op_samples": stats["samples"],
              "op_tail_percentile": stats["tail_percentile"], "op_s": stats["per_op"]}
    return metrics, sum(map(len, outputs)), failed, detail


def measure_traced(workload: str, seed: int, workdir: Path, clock):
    state, ops, _ = setup(workload, seed, workdir, clock.now)
    plain_wall, _, plain = run_pass(ops, clock.now)
    tracer = tracing.Tracer(clock=clock.now)
    installed = tracing.Installed(tracer)
    try:
        traced_wall, _, traced = run_pass(ops, clock.now, tracer)
    finally:
        installed.remove()
    failed = count_failures(state, [plain, traced])
    metrics = {name: (value, tracing.unit_of(name)) for name, value in tracer.metrics().items()}
    for name, value in zip(TRACE_METRICS, (plain_wall, traced_wall, traced_wall - plain_wall)):
        metrics[name] = (value, "s")
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    with spans_path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, trace_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "trace_id": trace_id}) + "\n")
    detail = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, 2 * len(ops), failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtlab" / "__init__.py").is_file():
        print(f"error: qtlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    clock = refclock.RefClock().start()
    try:
        if args.trace:
            metrics, attempted, failed, detail = measure_traced(args.workload, args.seed,
                                                                workdir, clock)
        else:
            metrics, attempted, failed, detail = measure(args.workload, args.seed,
                                                         args.seconds, workdir, clock)
    finally:
        clock.stop()
    meta = metadata(args.workload, args.seed)
    record = {"meta": meta, "detail": detail, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# " + json.dumps({**meta, **{k: v for k, v in detail.items() if k != "op_s"}}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}.{name} {value:.6g} {unit}")
    print(f"{args.workload}.failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
