#!/usr/bin/env python3
"""The benchmark's own checks.  Takes about a minute.

Usage: python3 perfbench/selftest.py [-v]

Run from the root of a checkout.  The file name keeps pytest from
collecting it, so the repository's test suite runs no workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class Definitions(unittest.TestCase):
    def test_benchmark_json_lists_the_layer_metrics(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(tracer.LAYER_METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_task_has_a_reference_from_another_route(self):
        for name in workloads.WORKLOADS:
            for t in workloads.tasks(name):
                ref = workloads.load_ref(workloads.REFS_DIR, name, t)
                self.assertEqual(ref["task"], t.run.label())
                if not t.is_cli:
                    self.assertNotEqual(t.ref.func, t.run.func, t.key)
                    self.assertEqual(ref["route"], t.ref.label())

    def test_default_seed_starts_at_default_inputs(self):
        for name, slots in workloads.WORKLOADS.items():
            first = workloads.schedule(name, 0)[0]
            self.assertEqual(first, [s[0] for s in slots])

    def test_every_cycle_runs_every_input_equally_often(self):
        for name, slots in workloads.WORKLOADS.items():
            for seed in range(6):
                cycle = workloads.schedule(name, seed)
                for i, s in enumerate(slots):
                    drawn = sorted(p[i].key for p in cycle)
                    want = sorted(t.key for t in s) * (len(cycle) // len(s))
                    self.assertEqual(drawn, sorted(want), (name, seed))


class Runs(unittest.TestCase):
    def test_changed_coefficient_fails_the_run(self):
        with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
            refs = Path(tmp) / "refs"
            shutil.copytree(workloads.REFS_DIR, refs)
            t = workloads.tasks("enumerate")[0]
            path = workloads.ref_path(refs, "enumerate", t)
            data = json.loads(path.read_text())
            item = data["series"]["terms"][-1]
            item["coef"] = str(int(item["coef"]) + 1)
            path.write_text(json.dumps(data))
            code, result = bench("--workload", "enumerate", "--seconds", "0",
                                 "--refs", str(refs))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_traced_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            code, result = bench("--workload", "cli_crosscheck",
                                 "--seconds", "0", "--trace", "1")
            self.assertEqual(code, 0)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "ratio")})
        self.assertEqual(set(counts[0]),
                         {k for k, (u, _) in tracer.LAYER_METRICS.items()
                          if u in ("count", "ratio")})
        self.assertEqual(counts[0], counts[1])

    def test_cli_stdout_is_byte_identical_across_runs(self):
        tasks = workloads.schedule("cli_crosscheck", 0)[0]
        digests = []
        for _ in range(2):
            out = run.run_pass("cli_crosscheck", tasks, False,
                               workloads.REFS_DIR, time.monotonic() + 120)
            self.assertTrue(all(t["error"] is None for t in out["tasks"]))
            digests.append([t["digest"] for t in out["tasks"]])
        self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
