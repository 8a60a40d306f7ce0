"""Outside-in layer tracing for the benchmark's traced pass.

Tracer.install() replaces public orbivertex functions (and three Series
methods) with wrappers that record a span per call and a few counts.  A
function is replaced on its own module and on every orbivertex module that
imported the same object by name, so calls between modules are seen too.
uninstall() puts the originals back.

Spans stay in memory as [name, start, end, parent index, nested], where
nested says a span of the same name encloses it; a span's self time is its
duration minus the durations of its direct children.  A
wrapped name that a module no longer has is reported as missing.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _mul_hook(tr, args, kwargs, out):
    a, b = args
    c = tr.counts
    if hasattr(b, "terms"):
        c["qseries.mul.term_pairs"] += len(a.terms) * len(b.terms)
    c["qseries.mul.terms_out"] += len(out.terms)
    if tr.active["dt_vertex.vertex_closed_zn"]:
        c["dt_vertex.vertex_closed_zn.work_degree"] = max(
            c["dt_vertex.vertex_closed_zn.work_degree"], a.cutoff)


def _partners_hook(name, budgeted):
    def hook(tr, args, kwargs, out):
        lam = args[0]
        if budgeted:
            budget = _arg(args, kwargs, 1, "max_size") - sum(lam)
            primed = _arg(args, kwargs, 2, "primed", False)
        else:
            budget = None
            primed = _arg(args, kwargs, 1, "primed", False)
        tr.distinct[name].add((lam, budget, bool(primed)))
        tr.counts[name + ".results"] += len(out)
    return hook


def _partition_of(key):
    # a state is keyed by (partition, exponents); a state keyed by the
    # partition alone counts each key as its own partition
    if (isinstance(key, tuple) and len(key) == 2
            and isinstance(key[0], tuple) and isinstance(key[1], tuple)):
        return key[0]
    return key


def _gamma_hook(tr, args, kwargs, out):
    state = args[0]
    c = tr.counts
    c["fock_transfer.gamma_apply.states_in"] += len(state)
    c["fock_transfer.partitions"] += len({_partition_of(k) for k in state})
    c["fock_transfer.states_peak"] = max(c["fock_transfer.states_peak"],
                                         len(state))


def _configs_hook(tr, args, kwargs, out):
    tr.counts["dt_vertex.enumerate_one_leg.configs"] += sum(out.terms.values())


def _count_hook(name):
    def hook(tr, args, kwargs, out):
        tr.counts[name + ".count"] += len(out)
    return hook


# (module, attribute path, span name, hook run after each call)
WRAPS = (
    ("qseries", "Series.__mul__", "qseries.mul", _mul_hook),
    ("qseries", "Series.invert", "qseries.invert", None),
    ("qseries", "Series.__pow__", "qseries.pow", None),
    ("partition_core", "partners_above", "partition_core.partners_above",
     _partners_hook("partition_core.partners_above", True)),
    ("partition_core", "partners_below", "partition_core.partners_below",
     _partners_hook("partition_core.partners_below", False)),
    ("fock_transfer", "gamma_apply", "fock_transfer.gamma_apply", _gamma_hook),
    ("fock_transfer", "weight_apply", "fock_transfer.weight_apply", None),
    ("fock_transfer", "vertex_by_transfer", "fock_transfer.vertex_by_transfer",
     None),
    ("dt_vertex", "enumerate_one_leg", "dt_vertex.enumerate_one_leg",
     _configs_hook),
    ("dt_vertex", "skew_schur_specialized", "dt_vertex.skew_schur_specialized",
     None),
    ("dt_vertex", "vertex_closed_zn", "dt_vertex.vertex_closed_zn", None),
    ("pyramid", "enumerate_pyramids", "pyramid.enumerate_pyramids",
     _count_hook("pyramid.enumerate_pyramids")),
    ("rpc", "interlacing_families", "rpc.interlacing_families",
     _count_hook("rpc.interlacing_families")),
    ("rpc", "uniqueness_scan", "rpc.uniqueness_scan", None),
    ("cli", "main", "cli.main", None),
)

CLI_SUBCOMMANDS = ("verify", "vertex", "pyramid", "rpc", "uniqueness")

# name -> (unit, better).  Counts and
# times are means per pass over a cycle; *_peak and work_degree are maxima.
LAYER_METRICS = {
    "qseries.mul.calls": ("count", "lower"),
    "qseries.mul.self_s": ("s", "lower"),
    "qseries.mul.term_pairs": ("count", "lower"),
    "qseries.mul.terms_out": ("count", "lower"),
    "qseries.invert.calls": ("count", "lower"),
    "qseries.invert.incl_s": ("s", "lower"),
    "qseries.pow.calls": ("count", "lower"),
    "qseries.pow.incl_s": ("s", "lower"),
    "partition_core.partners_above.calls": ("count", "lower"),
    "partition_core.partners_above.self_s": ("s", "lower"),
    "partition_core.partners_above.results": ("count", "lower"),
    "partition_core.partners_above.distinct_ratio": ("ratio", "higher"),
    "partition_core.partners_below.calls": ("count", "lower"),
    "partition_core.partners_below.self_s": ("s", "lower"),
    "partition_core.partners_below.results": ("count", "lower"),
    "partition_core.partners_below.distinct_ratio": ("ratio", "higher"),
    "fock_transfer.gamma_apply.calls": ("count", "lower"),
    "fock_transfer.gamma_apply.self_s": ("s", "lower"),
    "fock_transfer.gamma_apply.states_in": ("count", "lower"),
    "fock_transfer.weight_apply.calls": ("count", "lower"),
    "fock_transfer.weight_apply.self_s": ("s", "lower"),
    "fock_transfer.states_peak": ("count", "lower"),
    "fock_transfer.partition_ratio": ("ratio", "higher"),
    "fock_transfer.vertex_by_transfer.incl_s": ("s", "lower"),
    "dt_vertex.enumerate_one_leg.self_s": ("s", "lower"),
    "dt_vertex.enumerate_one_leg.configs": ("count", "lower"),
    "dt_vertex.skew_schur_specialized.calls": ("count", "lower"),
    "dt_vertex.skew_schur_specialized.self_s": ("s", "lower"),
    "dt_vertex.vertex_closed_zn.incl_s": ("s", "lower"),
    "dt_vertex.vertex_closed_zn.work_degree": ("count", "lower"),
    "pyramid.enumerate_pyramids.self_s": ("s", "lower"),
    "pyramid.enumerate_pyramids.count": ("count", "lower"),
    "rpc.interlacing_families.self_s": ("s", "lower"),
    "rpc.interlacing_families.count": ("count", "lower"),
    "rpc.uniqueness_scan.incl_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    **{"cli.%s.incl_s" % c: ("s", "lower") for c in CLI_SUBCOMMANDS},
    "cli.stdout_bytes": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_MAXIMA = ("fock_transfer.states_peak", "dt_vertex.vertex_closed_zn.work_degree")
# metrics that a span other than their own name prefix feeds
_FED_BY = {
    "fock_transfer.states_peak": "fock_transfer.gamma_apply",
    "fock_transfer.partition_ratio": "fock_transfer.gamma_apply",
    "dt_vertex.vertex_closed_zn.work_degree": "qseries.mul",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.missing = []
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.active[name] > 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()
        self.active[rec[0]] -= 1

    def _wrapper(self, name, orig, hook):
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(rec)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        wrapper.__wrapped__ = orig
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package):
        """Wrap every name in WRAPS that the imported package still has."""
        modules = [getattr(package, m) for m in package.__all__
                   if hasattr(package, m)]
        for mod_name, path, name, hook in WRAPS:
            owner = getattr(package, mod_name, None)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, orig, hook)
            self._replace(owner, attr, wrapped)
            if not owner_path:
                # rebind copies made by `from module import name`
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig and mod is not owner:
                            self._replace(mod, key, wrapped)

    def _replace(self, owner, attr, value):
        # None: the attribute was inherited, and deleting the wrapper restores it
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def raw(self):
        """Per-pass sums: calls, self and inclusive seconds per span name,
        the counts, and distinct argument counts."""
        child = [0.0] * len(self.spans)
        for name, start, stop, parent, nested in self.spans:
            if parent >= 0:
                child[parent] += stop - start
        out = defaultdict(float)
        for i, (name, start, stop, parent, nested) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += stop - start - child[i]
            if not nested:
                out[name + ".incl_s"] += stop - start
        out.update(self.counts)
        for name, seen in self.distinct.items():
            out[name + ".distinct"] = len(seen)
        return dict(out)


def combine(raws):
    """Sum the raw dicts of one cycle's passes (maxima where they apply)."""
    out = defaultdict(float)
    for raw in raws:
        for k, v in raw.items():
            out[k] = max(out[k], v) if k in _MAXIMA else out[k] + v
    return out


def layer_metrics(total, passes, missing=()):
    """The LAYER_METRICS values (except trace.*) from a cycle's combined
    raw dict.  Metrics of a missing span are left out."""
    def ratio(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    derived = {
        "partition_core.partners_above.distinct_ratio": ratio(
            "partition_core.partners_above.distinct",
            "partition_core.partners_above.calls"),
        "partition_core.partners_below.distinct_ratio": ratio(
            "partition_core.partners_below.distinct",
            "partition_core.partners_below.calls"),
        "fock_transfer.partition_ratio": ratio(
            "fock_transfer.partitions", "fock_transfer.gamma_apply.states_in"),
    }
    out = {}
    for name in LAYER_METRICS:
        source = _FED_BY.get(name, name)
        if name.startswith("trace.") or any(
                source.startswith(m + ".") or source == m for m in missing):
            continue
        if name in derived:
            out[name] = derived[name]
        elif name in _MAXIMA:
            out[name] = total.get(name, 0)
        else:
            out[name] = total.get(name, 0) / passes
    return out
