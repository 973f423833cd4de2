"""cmtorsion benchmark: one in-process command for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports cmtorsion from
src/ there, and fails without printing a result when that is missing.
The load is a closed loop with one client, one process and one thread.
Each run sets up three times and reports the median (set-up = importing
cmtorsion, input generation from the seed, a warm-up pass through every
layer, and any reports the workload precomputes) and measures operations
for S seconds, checking each answer right after its operation on time
the measurements leave out.  Every time is read from a clock that skips
calibration pauses and is scaled to a reference machine speed
(calibration.py).

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the loop runs traced for S/2 seconds, the same
operations are replayed untraced, and the last line carries the
per-layer metrics (self times from the spans, plus the tracing
overhead).  The spans are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from calibration import Calibrator
from tracing import NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


@dataclass
class Run:
    ops: list
    notes: list
    verdicts: list
    latencies: list
    wall: float


def load_workloads():
    src = ROOT / "src"
    if not (src / "cmtorsion" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmtorsion sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import cmtorsion
    import workloads
    if Path(cmtorsion.__file__).resolve().parent != src / "cmtorsion":
        raise SystemExit(f"error: imported cmtorsion from {cmtorsion.__file__}")
    return workloads


def reimport_cmtorsion():
    """Import the modules the workloads call afresh (the workloads keep
    using the first import); set-up time includes what importing costs."""
    for name in [m for m in sys.modules if m == "cmtorsion" or m.startswith("cmtorsion.")]:
        del sys.modules[name]
    for name in ("documents", "mt_torus", "alpha_engine", "finite_level"):
        importlib.import_module(f"cmtorsion.{name}")


def measure(workload, tr, clock, seconds=None, min_ops=1, count=None, check=None) -> Run:
    """Closed loop over workload.ops: until `seconds` have passed and at
    least `min_ops` ran, or for exactly `count` operations.  Each outcome
    is checked by `check` and dropped right after its operation, on time
    left out of `wall` and of the deadline."""
    ops, notes, verdicts, latencies = [], [], [], []
    plan = workload.ops
    start = clock()
    deadline = start + (seconds or 0.0)
    checking = 0.0
    i = 0
    while i < count if count is not None else (i < min_ops or clock() - checking < deadline):
        op = plan[i % len(plan)]
        tr.begin_op(i)
        t0 = clock()
        with tr.span("op"):
            try:
                out = workload.run(op, tr)
            except Exception as e:  # a failed operation is counted, not fatal
                out = ("error", f"{type(e).__name__}: {e}")
        t1 = clock()
        latencies.append(t1 - t0)
        ops.append(op)
        notes.append(workload.note(out))
        if check is not None:
            try:
                verdicts.append(check(op, out))
            except Exception as e:  # an answer the checker cannot read is wrong
                verdicts.append(f"unreadable answer: {type(e).__name__}: {e}")
        del out
        checking += clock() - t1
        i += 1
    return Run(ops, notes, verdicts, latencies, clock() - start - checking)


def percentile(latencies, pct: float) -> float:
    """Linear interpolation between the order statistics around pct."""
    xs = sorted(latencies)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(run: Run, setup_s: float, rss_kb: int, scale: float, tail_pct: float) -> dict:
    """`setup_s` comes scaled already; the loop's times are scaled here."""
    tail_s = percentile(run.latencies, tail_pct)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ops_per_s": (len(run.latencies) / (scale * run.wall), "1/s"),
        "p50_ms": (scale * 1e3 * statistics.median(run.latencies), "ms"),
        "tail_ms": (scale * 1e3 * tail_s, "ms"),
    }


def per_layer(spans, own_times, overhead: float, scale: float) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def pick(name):
        # the timed loop's spans; set-up spans for a layer the loop never calls
        loop = [s for s in by_name[name] if s.op is not None]
        return loop or by_name[name]

    def own(name):
        return scale * sum(own_times[s.sid] for s in pick(name))

    def mean_own(name, scale):
        n = len(pick(name))
        return scale * own(name) / n if n else 0.0

    builds, reports = pick("mt_torus.build"), pick("alpha_engine.report")
    envelopes, sweeps = pick("alpha_engine.envelope"), pick("finite_level.sweep")
    spans_total = sum(s.counts["spans"] for s in reports)
    rows = sum(s.counts["rows"] for s in sweeps)
    rss_kb = sum(s.counts["maxrss_kb"] for s in reports + envelopes)
    return {
        "documents.parse_ms": (mean_own("documents.parse", 1e3), "ms"),
        "documents.encode_ms": (mean_own("documents.encode", 1e3), "ms"),
        "mt_torus.build_ms": (mean_own("mt_torus.build", 1e3), "ms"),
        "mt_torus.build_calls": (len(builds), "count"),
        "mt_torus.useful_ratio": (
            sum(s.counts["built"] for s in builds) / len(builds) if builds else 0.0, "ratio"),
        "alpha_engine.report_ms": (mean_own("alpha_engine.report", 1e3), "ms"),
        "alpha_engine.spans_visited": (
            statistics.median_low(s.counts["spans"] for s in reports) if reports else 0, "count"),
        "alpha_engine.us_per_span": (
            1e6 * own("alpha_engine.report") / spans_total if spans_total else 0.0, "us"),
        "alpha_engine.envelope_ms": (mean_own("alpha_engine.envelope", 1e3), "ms"),
        "alpha_engine.envelope_subsets": (sum(s.counts["subsets"] for s in envelopes), "count"),
        "alpha_engine.maxrss_growth_mb": (rss_kb / 1024.0, "MB"),
        "finite_level.sweep_row_us": (1e6 * own("finite_level.sweep") / rows if rows else 0.0, "us"),
        "finite_level.degree_us": (mean_own("finite_level.degree", 1e6), "us"),
        "finite_level.staircase_us": (mean_own("finite_level.staircase", 1e6), "us"),
        "finite_level.rows": (rows, "count"),
        "bench.op_self_ms": (mean_own("op", 1e3), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    with Calibrator() as cal:
        tracer = Tracer(cal.now) if args.trace else NullTracer()
        setups = []
        for rep in range(SETUP_REPS):
            cal.sample()
            t = cal.now()
            reimport_cmtorsion()
            workload.setup(tracer if rep == SETUP_REPS - 1 else NullTracer())
            setups.append(cal.now() - t)
        cal.sample()
        # set-up is short, so it is scaled by the samples taken around it
        setup_scale = cal.scale()
        loop_start = len(cal.samples)
        if args.trace:
            run = measure(workload, tracer, cal.now, args.seconds / 2, workload.trace_min_ops,
                          check=workload.checker())
            plain_start = len(cal.samples)
            plain = measure(workload, NullTracer(), cal.now, count=len(run.ops))
        else:
            run = measure(workload, tracer, cal.now, args.seconds, workload.min_ops,
                          check=workload.checker())
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = cal.scale(loop_start)
    if args.trace:
        # each pass at the machine speed measured while it ran
        overhead = (run.wall * cal.scale(loop_start, plain_start)
                    / (plain.wall * cal.scale(plain_start))) - 1
        metrics = per_layer(tracer.spans, self_times(tracer.spans), overhead, scale)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(run, setup_scale * statistics.median(setups), rss_kb, scale,
                             workload.tail_percentile)

    failed = sum(v is not None for v in run.verdicts)
    for v in sorted({v for v in run.verdicts if v is not None})[:5]:
        print(f"FAIL {v}")
    tail_s = percentile(run.latencies, workload.tail_percentile)
    props = {
        "operations": len(run.ops), "wall_s": round(run.wall, 3),
        "fail_ratio": failed / len(run.ops),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": sum(t > tail_s for t in run.latencies),
        "setup_reps_s": [round(s, 4) for s in setups],
        "speed_scale": round(scale, 4), "setup_speed_scale": round(setup_scale, 4),
        "calibrations": len(cal.samples),
    }
    props.update(workload.properties(run.ops, run.notes, run.latencies))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("properties " + json.dumps(props, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
