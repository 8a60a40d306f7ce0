"""Workload definitions: the tasks each workload runs, the input variants a
seed may draw, and the route that produced each task's reference.

This module imports nothing from orbivertex, so the runner can plan a run
without loading the package.  A workload is a list of slots; a slot lists
the input variants of one task, the default input first.  A run repeats
whole cycles of passes.  Within a cycle every slot takes each of its
variants equally often, starting at a seed-drawn offset, so the seed
changes which inputs each fresh process gets but not the work a cycle
does.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import lcm
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

ANTI = "antidiagonal"
DIAG = "diagonal"
# the partitions of 3, the default leg (2, 1) first
LEGS3 = ((2, 1), (3,), (1, 1, 1))


def _fmt(x):
    return repr(x) if not isinstance(x, str) else '"%s"' % x


@dataclass(frozen=True)
class Call:
    """A call of one public orbivertex function, by module and name."""

    module: str
    func: str
    args: tuple = ()
    kwargs: tuple = ()          # (name, value) pairs

    def label(self):
        bits = [_fmt(a) for a in self.args]
        bits += ["%s=%s" % (k, _fmt(v)) for k, v in self.kwargs]
        return "%s.%s(%s)" % (self.module, self.func, ", ".join(bits))

    def resolve(self, package):
        """The function as its module exposes it now (wrapped or not)."""
        return getattr(getattr(package, self.module), self.func)


def call(module, func, *args, **kwargs):
    return Call(module, func, args, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class Task:
    """A call under test and the reference route for its result.

    ref is None for CLI tasks, whose reference is the golden stdout and
    exit code.
    """

    run: Call
    ref: Call | None = None
    key: str = field(init=False)

    def __post_init__(self):
        text = self.run.label().replace("()", "e")
        object.__setattr__(self, "key",
                           re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_"))

    @property
    def is_cli(self):
        return self.run.module == "cli"

    @property
    def argv(self):
        return list(self.run.args[0])


def cli_task(line):
    return Task(call("cli", "main", tuple(line.split())))


def _staircase_size(leg):
    return len(leg) if leg == tuple(range(len(leg), 0, -1)) else None


def _transfer():
    d = 9
    return [
        [Task(call("fock_transfer", "vertex_by_transfer", "z2z2", (), d),
              call("dt_vertex", "enumerate_3d", (), "z2z2", d))],
        [Task(call("fock_transfer", "vertex_by_transfer", "zn", (1,), d, n=n),
              call("dt_vertex", "enumerate_3d", (1,), "zn", d, n=n))
         for n in (4, 3)],
        [Task(call("fock_transfer", "vertex_by_transfer", "z2z2", (1,), d - 1,
                   mode="rpc_antidiagonal"),
              call("rpc", "generating_function", (1,), 0, ANTI, d - 1))],
    ]


def _closed():
    d, big = 15, 17
    return [
        [Task(call("dt_vertex", "vertex_closed_zn", n, ((), (), leg), d),
              call("dt_vertex", "enumerate_3d", leg, "zn", d, n=n))
         for n in (4, 3) for leg in LEGS3],
        [Task(call("dt_vertex", "vertex_closed_zn", n, (leg, (), ()), d),
              call("dt_vertex", "enumerate_one_leg", (leg, (), ()), "zn", d, n=n))
         for n in (3, 4) for leg in LEGS3],
        [Task(call("dt_vertex", "closed_z2z2_staircase", 2, big),
              call("dt_vertex", "enumerate_3d", (2, 1), "z2z2", big))],
        [Task(call("dt_vertex", "one_leg_zn_staircase", 4, 1, big),
              call("dt_vertex", "enumerate_3d", (1,), "zn", big, n=4))],
        [Task(call("dt_vertex", "corollary_rpc_closed", 2, big),
              call("rpc", "generating_function", (2, 1), 0, ANTI, big))],
        [Task(call("dt_vertex", "pyramid_closed", big),
              call("pyramid", "pyramid_series", big))],
    ]


def _z2z2_vertex_ref(leg, d):
    m = _staircase_size(leg)
    if m is not None:
        return call("dt_vertex", "closed_z2z2_staircase", m, d)
    return call("fock_transfer", "vertex_by_transfer", "z2z2", leg, d)


def _rpc_diag_ref(leg, d):
    # the shift argument does not enter the series, and at a staircase leg
    # both frames give the closed corollary
    m = _staircase_size(leg)
    if m is not None:
        return call("dt_vertex", "corollary_rpc_closed", m, d)
    return call("fock_transfer", "vertex_by_transfer", "z2z2", leg, d,
                mode="rpc_diagonal")


def _enumerate():
    d, r_anti, r_diag = 13, 11, 10
    return [
        [Task(call("dt_vertex", "enumerate_3d", leg, "z2z2", d),
              _z2z2_vertex_ref(leg, d)) for leg in LEGS3],
        [Task(call("dt_vertex", "enumerate_3d", (1,), "zn", d, n=n),
              call("dt_vertex", "vertex_closed_zn", n, ((), (), (1,)), d))
         for n in (4, 3)],
        [Task(call("pyramid", "pyramid_series", d),
              call("dt_vertex", "pyramid_closed", d))],
        [Task(call("rpc", "generating_function", (1,), 0, ANTI, r_anti),
              call("dt_vertex", "corollary_rpc_closed", 1, r_anti))],
        [Task(call("rpc", "generating_function", leg, 1, DIAG, r_diag),
              _rpc_diag_ref(leg, r_diag)) for leg in LEGS3],
    ]


def _cli_crosscheck():
    d = 6
    return [
        [cli_task("verify --degree %d" % d)],
        [cli_task("vertex --group zn --n %d --leg %s --method "
                  "enumerate,transfer,closed --verify --degree %d"
                  % (n, ",".join(map(str, leg)), d))
         for n in (3, 4) for leg in LEGS3],
        [cli_task("vertex --leg 2,1 --method closed,enumerate,transfer "
                  "--verify --degree %d" % d)],
        [cli_task("pyramid --degree 12 --method enumerate,closed --verify")],
        [cli_task("rpc --leg 2,1 --method interlacing,closed --verify "
                  "--degree 10 --format csv")],
        [cli_task("uniqueness --max-leg-size 8 --window 12")],
    ]


WORKLOADS = {
    "transfer": _transfer(),
    "closed": _closed(),
    "enumerate": _enumerate(),
    "cli_crosscheck": _cli_crosscheck(),
}


def tasks(workload):
    """Every task the workload can run, under any seed."""
    return [t for slot in WORKLOADS[workload] for t in slot]


def task(workload, key):
    for t in tasks(workload):
        if t.key == key:
            return t
    raise KeyError("no task %r in workload %r" % (key, workload))


def schedule(workload, seed):
    """The cycle of passes for a seed: one list of tasks per pass.

    Seed 0 starts every slot at its default input.
    """
    slots = WORKLOADS[workload]
    rng = random.Random(seed)
    offsets = [0 if seed == 0 else rng.randrange(len(s)) for s in slots]
    length = lcm(*(len(s) for s in slots))
    return [[s[(o + k) % len(s)] for s, o in zip(slots, offsets)]
            for k in range(length)]


def ref_path(refs_dir, workload, t):
    return Path(refs_dir) / workload / (t.key + ".json")


def load_ref(refs_dir, workload, t):
    with open(ref_path(refs_dir, workload, t)) as fh:
        return json.load(fh)


for _name in WORKLOADS:
    _keys = [t.key for t in tasks(_name)]
    if len(set(_keys)) != len(_keys):
        raise AssertionError("duplicate task keys in %s" % _name)
