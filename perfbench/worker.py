"""One pass of a workload, in a fresh single-threaded Python process.

Usage: python3 -I perfbench/worker.py '<spec json>'

The spec names the workload, the task keys of this pass, the reference
directory and whether to trace.  The worker imports orbivertex from the
checkout's src/, loads the references of its tasks, signals ready, runs the
tasks one after another while a timer samples the machine's speed
(Speedometer), then compares every result with its reference
outside the timed section.  Its last stdout line is one JSON object.  It
exits 2 if the package or a reference cannot be loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("partition_core", "qseries", "pyramid", "rpc", "fock_transfer",
           "dt_vertex", "cli")


def load_package():
    sys.path[:0] = [str(SRC), str(HERE)]
    package = importlib.import_module("orbivertex")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError("orbivertex imported from %s, not %s"
                          % (package.__file__, SRC))
    for m in MODULES:
        importlib.import_module("orbivertex." + m)
    return package


def calibrate(rounds=30_000):
    """Seconds a fixed loop of tuple and dict work takes now.

    The loop does the kind of work the package's inner loops do (small
    tuples summed into dict keys), without calling the package.  The
    machine's speed drifts by up to 2x within seconds (shared cores), and
    this loop slows with it; the runner scales task times by it.
    """
    start = time.perf_counter()
    d = {}
    base = (1, 2, 3, 4)
    for i in range(rounds):
        exps = tuple(x + i % 7 for x in base)
        key = ((i % 13, i % 5), exps)
        d[key] = d.get(key, 0) + i
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine's speed while tasks run.

    A timer signal runs a short calibrate() every INTERVAL_S seconds inside
    the running task; samples are kept as (time, seconds per 30k rounds),
    and `spent` adds up the time the samples took from the tasks.
    """

    INTERVAL_S = 0.05
    ROUNDS = 1_500

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, rounds=30_000):
        dt = calibrate(rounds)
        self.samples.append((time.perf_counter(), dt * 30_000 / rounds))
        return dt

    def _tick(self, signum, frame):
        self.spent += self.sample(self.ROUNDS)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def around(self, start, stop):
        """Mean calibration time of the samples within one interval of the
        span [start, stop], or of the nearest sample if there is none."""
        def gap(sample):
            return max(start - sample[0], sample[0] - stop, 0)
        near = [c for t, c in self.samples if gap((t, c)) <= self.INTERVAL_S]
        return (sum(near) / len(near) if near
                else min(self.samples, key=gap)[1])


def run_cli(package, argv, tracer):
    buf = io.StringIO()
    span = tracer.begin("cli." + argv[0]) if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = package.cli.main(argv)
            except SystemExit as ex:
                code = ex.code
    finally:
        if span:
            tracer.end(span)
    out = buf.getvalue()
    if tracer:
        tracer.counts["cli.stdout_bytes"] += len(out.encode())
    return {"exit": code, "stdout": out}


def canonical(t, result):
    """The result in the form its reference file stores."""
    if t.is_cli:
        return result
    return json.loads(result.to_json())


def first_difference(got, want):
    """A description of the first difference, or None if equal."""
    if set(got) != set(want):
        return "fields differ: %s" % sorted(set(got) ^ set(want))
    for k in sorted(want):
        a, b = got[k], want[k]
        if k == "terms":
            g = {tuple(x["exp"]): x["coef"] for x in a}
            w = {tuple(x["exp"]): x["coef"] for x in b}
            for e in sorted(set(g) | set(w), key=lambda e: (sum(e), e)):
                if g.get(e, "0") != w.get(e, "0"):
                    return "coefficient of %s: %s != %s" % (
                        list(e), g.get(e, "0"), w.get(e, "0"))
        elif isinstance(b, str) and a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            return "%s differs from character %d" % (k, at)
        elif a != b:
            return "%s: %r != %r" % (k, a, b)
    return None


def main(spec):
    package = load_package()
    import workloads
    from tracer import Tracer

    tasks = [workloads.task(spec["workload"], k) for k in spec["keys"]]
    refs = [workloads.load_ref(spec["refs"], spec["workload"], t) for t in tasks]
    ready = time.monotonic()

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install(package)
    speed = Speedometer()
    speed.sample()
    results, spans = [], []
    # the timer would add its samples to the traced spans' time
    with speed if not tracer else contextlib.nullcontext():
        for t in tasks:
            spent, t0 = speed.spent, time.perf_counter()
            try:
                if t.is_cli:
                    results.append(run_cli(package, t.argv, tracer))
                else:
                    fn = t.run.resolve(package)
                    results.append(fn(*t.run.args, **dict(t.run.kwargs)))
            except Exception:
                results.append(traceback.format_exc())
            spans.append((t0, time.perf_counter(), speed.spent - spent))
    speed.sample()
    seconds = [stop - start - spent for start, stop, spent in spans]
    cal = [speed.around(start, stop) for start, stop, _ in spans]
    if tracer:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = []
    for t, ref, result, sec, c in zip(tasks, refs, results, seconds, cal):
        if isinstance(result, str):
            why, digest = "raised:\n" + result, None
        else:
            got = canonical(t, result)
            want = {k: ref[k] for k in ("exit", "stdout")} if t.is_cli \
                else ref["series"]
            why = first_difference(got, want)
            digest = hashlib.sha256(
                json.dumps(got, sort_keys=True).encode()).hexdigest()
        report.append({"key": t.key, "seconds": sec, "calibration_s": c,
                       "error": why, "digest": digest})
    print(json.dumps({
        "ready": ready, "setup_calibration_s": speed.samples[0][1],
        "peak_rss_mb": peak_kb / 1024,
        "tasks": report,
        "layers": tracer.raw() if tracer else None,
        "missing": tracer.missing if tracer else [],
    }))


if __name__ == "__main__":
    try:
        spec = json.loads(sys.argv[1])
    except (IndexError, ValueError):
        sys.exit(__doc__)
    try:
        main(spec)
    except (ImportError, OSError, KeyError) as ex:
        print("worker: cannot set up the pass: %s" % ex, file=sys.stderr)
        sys.exit(2)
