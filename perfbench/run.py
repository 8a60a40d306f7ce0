#!/usr/bin/env python3
"""Benchmark of orbivertex: checked series from each route and the CLI.

Usage:
    python3 perfbench/run.py --workload transfer|closed|enumerate|cli_crosscheck|all
                             [--seed N] [--seconds S] [--trace 0|1] [--refs DIR]

Run it from the root of a checkout; it imports orbivertex from src/.  Each
pass of a workload runs in its own fresh Python process (see worker.py),
one pass at a time.  Passes repeat in whole cycles until --seconds have
passed; workloads.py says what a cycle is and how the seed picks inputs.

With --trace 0 it reports the end-to-end metrics: wall_s, the time of a
pass's tasks, mean over a cycle, median over cycles; setup_s, the median
time from launching a pass's process until orbivertex and the references
are loaded; peak_rss_mb, the largest peak RSS of a cycle's processes,
median over cycles.  Times are scaled to a nominal machine speed by the
worker's calibration samples (see scale_times).  With --trace 1 it alternates untraced and traced cycles and
reports the per-layer metrics of tracer.py, medians over traced cycles,
plus the traced wall time and its overhead over the untraced one.

Every task's result is compared with its committed reference after the
timed section.  The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 if every task
matched, 1 if any task raised or differed, and 2 (with no JSON line) if a
pass could not run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as layer_trace  # noqa: E402
import workloads  # noqa: E402

# the run must end within 180 s, whatever the passes do
DEADLINE_S = 170
# worker.calibrate() time at the nominal machine speed; times are scaled to it
NOMINAL_CALIBRATION_S = 0.04


class PassError(RuntimeError):
    pass


def run_pass(workload, tasks, trace, refs, deadline):
    spec = json.dumps({"workload": workload, "keys": [t.key for t in tasks],
                       "trace": trace, "refs": str(refs)})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before a pass of %s" % workload)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), spec],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError("a pass of %s did not end in time" % workload)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError("a pass of %s failed (exit %d):\n%s"
                        % (workload, proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return scale_times(out, out.pop("ready") - launched)


def scale_times(out, setup):
    """Scale a pass's times to the nominal machine speed.

    Each task's time is scaled by the worker's calibration samples taken
    during it, and set-up time by the sample taken right after set-up.
    """
    tasks = out["tasks"]
    out["raw_wall_s"] = sum(t["seconds"] for t in tasks)
    out["wall_s"] = sum(t["seconds"] * NOMINAL_CALIBRATION_S
                        / t["calibration_s"] for t in tasks)
    out["setup_s"] = (setup * NOMINAL_CALIBRATION_S
                      / out.pop("setup_calibration_s"))
    if out["layers"]:
        factor = out["wall_s"] / out["raw_wall_s"]
        out["layers"] = {k: v * factor if k.endswith("_s") else v
                         for k, v in out["layers"].items()}
    return out


def measure(workload, seed, seconds, trace, refs):
    """Run whole cycles until `seconds` have passed.  Returns the untraced
    and the traced cycles, each a list of pass results."""
    cycle = workloads.schedule(workload, seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        plain.append([run_pass(workload, p, False, refs, deadline)
                      for p in cycle])
        if trace:
            traced.append([run_pass(workload, p, True, refs, deadline)
                           for p in cycle])
        if time.monotonic() - start >= seconds:
            return plain, traced


def cycle_wall(cycle, key="wall_s"):
    return statistics.fmean(p[key] for p in cycle)


def end_to_end(cycles):
    return {
        "wall_s": statistics.median(cycle_wall(c) for c in cycles),
        "setup_s": statistics.median(p["setup_s"] for c in cycles for p in c),
        "peak_rss_mb": statistics.median(
            max(p["peak_rss_mb"] for p in c) for c in cycles),
    }


def per_layer(plain, traced):
    missing = sorted({m for c in traced for p in c for m in p["missing"]})
    per_cycle = [layer_trace.layer_metrics(
        layer_trace.combine(p["layers"] for p in c), len(c), missing)
        for c in traced]
    out = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    traced_wall = statistics.median(cycle_wall(c) for c in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - end_to_end(plain)["wall_s"]
    return out, missing


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_workload(name, args):
    """Measure one workload; print its summary lines and failures.  Returns
    (metrics, attempted, failed)."""
    plain, traced = measure(name, args.seed, args.seconds, args.trace,
                            args.refs)
    passes = [p for c in plain + traced for p in c]
    attempted = sum(len(p["tasks"]) for p in passes)
    errors = [(t["key"], t["error"]) for p in passes for t in p["tasks"]
              if t["error"]]
    for key, why in errors:
        print("%s: %s: %s" % (name, key, why), file=sys.stderr)
    e2e = end_to_end(plain)
    print("%s: %s | failed_ratio %.4f (1) of %d tasks | unscaled wall %.4f s"
          " | %d cycles of %d passes"
          % (name, " | ".join("%s %.4f %s" % (k, v, UNITS[k])
                              for k, v in e2e.items()),
             len(errors) / attempted, attempted,
             statistics.median(cycle_wall(c, "raw_wall_s") for c in plain),
             len(plain), len(plain[0])))
    if not args.trace:
        return ({k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
                attempted, len(errors))
    layers, missing = per_layer(plain, traced)
    if missing:
        print("%s: missing layers: %s" % (name, ", ".join(missing)))
    print("%s: traced wall %.4f s, overhead %.4f s" % (
        name, layers["trace.wall_s"], layers["trace.overhead_s"]))
    return ({k: {"value": v, "unit": layer_trace.LAYER_METRICS[k][0]}
             for k, v in layers.items()}, attempted, len(errors))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path, default=workloads.REFS_DIR,
                        help="reference directory (default: perfbench/refs)")
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run_workload(name, args)
            prefix = name + "." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except PassError as ex:
        print("benchmark: %s" % ex, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
