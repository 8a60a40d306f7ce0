#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and the working tree.

Usage, from the root of the repository:
    python3 tools/bench_pairs.py N WORKLOAD=FIRST-LAST [...]
                                [--parent REV] [--claimed TEXT]

The parent (default HEAD) is exported with `git archive` into a temporary
directory, and the working tree's files that git tracks or would add are
copied beside it, so that both sides run from fresh copies.  For each
WORKLOAD=FIRST-LAST, in the order given, and each seed in FIRST..LAST, it
runs `perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0`,
T the run_seconds of BENCHMARK.json, once on each side, one run at a
time: odd seeds run the parent first, even seeds the working tree first.
It writes BENCH_N.json at the root: per workload and end-to-end metric,
each side's per-seed values, median and quartiles (statistics.quantiles,
n=4), the pairs the change wins (lower is better for every end-to-end
metric) and its median over the parent's.
A run that ends without its JSON line stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    # quartiles need two runs a side
    name, _, span = text.partition("=")
    first, _, last = span.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        seeds = []
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            "expected WORKLOAD=FIRST-LAST with FIRST < LAST, got %r" % text)
    return name, seeds


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, into):
    """The committed files of rev, unpacked into the new directory `into`."""
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", into], input=git("archive", rev),
                   check=True)
    return into


def snapshot(into):
    """The working tree's tracked and addable files, copied into `into`."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in names:
        if name and (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def run(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; its JSON report, the last line of
    its stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("%s seed %d in %s failed (exit %d):\n%s" % (
            workload, seed, checkout, proc.returncode, proc.stderr[-2000:]))
    report = json.loads(lines[-1])
    print("%s seed %d, %s: wall_s %.5f" % (
        workload, seed, checkout, report["metrics"]["wall_s"]["value"]),
        flush=True)
    return report


def side(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def summary(pairs):
    """BENCH_*.json's entry for one workload from its (parent, change)
    reports, in seed order."""
    parents, changes = zip(*pairs)
    out = {"pairs": len(pairs)}
    for key, total in (("failed", sum), ("attempted", sum), ("correct", all)):
        out[key] = {"parent": total(r[key] for r in parents),
                    "change": total(r[key] for r in changes)}
    for metric, first in pairs[0][0]["metrics"].items():
        a = [r["metrics"][metric]["value"] for r in parents]
        b = [r["metrics"][metric]["value"] for r in changes]
        parent, change = side(a), side(b)
        out[metric] = {
            "unit": first["unit"], "parent": parent, "change": change,
            "change_better_pairs": sum(y < x for x, y in zip(a, b)),
            "change_over_parent": change["median"] / parent["median"],
            "parent_quartile_spread": parent["q3"] - parent["q1"]}
    return out


def cpu_name():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="writes BENCH_<n>.json")
    parser.add_argument("workloads", nargs="+", type=seeds_arg,
                        metavar="WORKLOAD=FIRST-LAST")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--claimed", default="none")
    args = parser.parse_args(argv)
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = dict(args.workloads)
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = export(args.parent, Path(tmp) / "parent")
        change_tree = snapshot(Path(tmp) / "change")
        results = {}
        for workload, span in seeds.items():
            pairs = []
            for seed in span:
                order = [parent_tree, change_tree]
                got = {path: run(path, workload, seed, seconds)
                       for path in (order if seed % 2 else order[::-1])}
                pairs.append((got[parent_tree], got[change_tree]))
            results[workload] = summary(pairs)
    report = {
        "what": "Paired runs of the parent commit and this change on the "
                "benchmark declared in BENCHMARK.json, made by "
                "tools/bench_pairs.py.",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %g --trace 0" % seconds,
        "parent": parent,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_name(),
                    "python": platform.python_version()},
        "order": "one run at a time, the parent from a git archive export "
                 "of its committed files, the change from a copy of the "
                 "working tree's tracked and addable files; "
                 "odd seeds run the parent first, even seeds the change "
                 "first; workloads in turn: " + ", then ".join(
                     "%s seeds %d-%d" % (w, s[0], s[-1])
                     for w, s in seeds.items()),
        "quartiles": "statistics.quantiles(runs, n=4) over the per-seed "
                     "run values",
        "claimed": args.claimed,
        "seeds": seeds,
        "workloads": results,
    }
    path = ROOT / ("BENCH_%d.json" % args.n)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main()
