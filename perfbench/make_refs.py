#!/usr/bin/env python3
"""Regenerate the benchmark's reference files under perfbench/refs/.

Usage: python3 perfbench/make_refs.py [--workload NAME ...]

A series task's reference is computed by its reference route (Task.ref in
workloads.py), never by the route under test.  A CLI task's reference is
the golden stdout and exit code of the CLI run in-process.  Every input
that any seed can draw gets a file.  All of them take about a minute.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from worker import load_package, run_cli


def reference(package, t):
    if t.is_cli:
        return run_cli(package, t.argv, None)
    fn = t.ref.resolve(package)
    s = fn(*t.ref.args, **dict(t.ref.kwargs))
    return {"route": t.ref.label(), "series": json.loads(s.to_json())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    package = load_package()
    for name in args.workload or sorted(workloads.WORKLOADS):
        for t in workloads.tasks(name):
            path = workloads.ref_path(workloads.REFS_DIR, name, t)
            start = time.perf_counter()
            data = {"task": t.run.label(), **reference(package, t)}
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(data, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            print("%s/%s  %.1fs" % (name, t.key, time.perf_counter() - start),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
