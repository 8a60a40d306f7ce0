"""The cross-route checks over the routes of orbivertex.routes: a walk
over grid(), which compares the routes whose domains admit each input;
two tables of rows, DEEP for CI and TIER1 for what the walk cannot
state in tier-1; and the independence rule for every check.  Every route
comparison of tier-1 is a walk comparison or a row; the unit test files
keep what neither can state.

A row is (check, route, route, input, degree): the two routes must give
the same series at the input, up to the degree, and each field that the
input sets must be read by one of them.  routes.CHECKS, verify's rows,
have the same shape without the degree; the walk's comparisons have it
too (walk_rows).  Besides the rows of routes.ROUTES, a row may name
three test routes: "commute", the partner-free product of
oracles.commute_series; "barred", the slot route at the conjugate leg in
the other side slot with every color label j read as -j mod n; and
"restricted", z2z2 transfer at the leg with each color sent to its
restriction on a Z2 subgroup or the trivial group, which puts the leg in
the slot of RESTRICT.  Each refuses in its check what its function
cannot take, as a library row does: commute takes zn, or z2z2 in the
diagonal frame; barred zn in slot 1 or 2; and restricted zn at the (n,
slot) pairs of RESTRICT.  The walk computes every route at each grid
input that its check admits, and fails a route that raises there.

CI runs every DEEP row at its own degree, and the walk at DEEP_DEGREES,
in one step:

    cd tests && python -X dev -W error -c \\
        'from test_routes import run_deep; run_deep()'

Tier-1 runs every DEEP row at degree min(D, 6), so a broken row fails
first, the walk at DEGREES, and every TIER1 row at its own degree, a row
reusing the series of the row before it.  No comparison sits in both
tables.  The degrees live here, not in the library: they say how far the
tests look, not what a route is.
"""

import re
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from multiprocessing import get_context

import pytest

from orbivertex import routes
from orbivertex import partition_core as pc
from orbivertex.pyramid import ANTI, DIAG, _group_names, zn_names
from orbivertex.qseries import Series
from orbivertex.routes import Input, Route
from oracles import commute_series


def _commute(inp, d):
    mode = "zn" if inp.group == "zn" else "rpc_" + inp.frame
    return commute_series(mode, inp.leg, d, n=inp.n)


def _barred(inp, d):
    other = inp._replace(leg=pc.conjugate(inp.leg), slot=3 - inp.slot)
    bar = [-j % inp.n for j in range(inp.n)]
    return routes.ROUTES["slot_closed"].series(other, d).map_vars(
        _group_names(inp.group, inp.n), bar)


# (n, slot) -> the Z_n variable that each of q0, qa, qb, qc becomes: a
# Z2 subgroup of Z2 x Z2 fixes one axis, and puts the leg in that slot
RESTRICT = {(2, 3): (0, 1, 1, 0), (2, 2): (0, 0, 1, 1), (2, 1): (0, 1, 0, 1),
            (1, 3): (0, 0, 0, 0)}
# the grid and the rows visit a leg's (n, slot) pairs one after another
_Z2Z2 = lru_cache(maxsize=1)(routes.ROUTES["transfer"].series)


def _restricted(inp, d):
    # a box's color on a subgroup H is its Z2 x Z2 color restricted to H
    return _Z2Z2(Input(inp.leg), d).map_vars(
        zn_names(inp.n), RESTRICT[inp.n, inp.slot])


class Commute(Route):
    """commute_series' two modes: zn, its fields' domain, or z2z2 in the
    diagonal frame."""
    __slots__ = ()

    def check(self, inp):
        if inp.frame is None:
            return Route.check(self, inp)
        inp = Route.check(self._replace(group="z2z2", frame=True), inp)
        if inp.frame != DIAG:
            raise ValueError("frame must be %r, got %r" % (DIAG, inp.frame))
        return inp


class Barred(Route):
    """The slot route moved to the other side slot: slot 1 or 2."""
    __slots__ = ()

    def check(self, inp):
        inp = Route.check(self, inp)
        if inp.slot == 3:
            raise ValueError("slot must be 1 or 2, got 3")
        return inp


class Restricted(Route):
    """z2z2 transfer restricted: the (n, slot) pairs of RESTRICT."""
    __slots__ = ()

    def check(self, inp):
        inp = Route.check(self, inp)
        if (inp.n, inp.slot) not in RESTRICT:
            raise ValueError("(n, slot) must be one of %s, got %r"
                             % (sorted(RESTRICT), (inp.n, inp.slot)))
        return inp


# commute_series multiplies pair factors, as the closed products do
ALL = {**routes.ROUTES, "commute": Commute(_commute, "factors", group="zn"),
       "barred": Barred(_barred, "factors", group="zn", slot=True),
       "restricted": Restricted(_restricted, "partners", group="zn",
                                slot=True)}

LEGS = [(3, 1), (2, 2, 1)]
# (n, leg, side slot): (4) and (1,1,1,1) take the dual Jacobi-Trudi
# determinant, e_4; (3,1) in slot 1 and (2,2,1) in slot 2 exceed the
# output cutoff in the Schur function by 3 and 4
SIDE = ([(4, (4,), 1), (4, (1, 1, 1, 1), 2)]
        + [(n, leg, slot) for n in (3, 4) for leg in LEGS for slot in (1, 2)]
        + [(n, leg, slot) for n in (2, 5)
           for leg, slot in [((3, 1), 1), ((2, 2, 1), 2)]])

DEEP = [
    # the window is the proven minimum with no margin; verify checks it
    # only at the zero leg and Z4 (1)
    *[("transfer_window", a, b, inp, 18) for leg in LEGS
      for a, b, inp in [("transfer", "wide", Input(leg)),
                        ("rpc_transfer", "rpc_wide", Input(leg, frame=ANTI)),
                        ("rpc_transfer", "rpc_wide", Input(leg, frame=DIAG)),
                        ("transfer", "wide", Input(leg, "zn", 3)),
                        ("transfer", "wide", Input(leg, "zn", 4))]],
    # the three vertex routes; above the degree (n = 12 and 200) the
    # zero-leg table keeps only the runs of M~ that reach the cutoff, and
    # enumeration builds a color unit only for the residues its cells reach
    *[(check, "enumerate", route, inp, d)
      for inp, d in [(Input((2, 1)), 22), (Input((2, 1), "zn", 4), 22),
                     (Input((2, 1), "zn", 12), 10),
                     (Input((2, 1), "zn", 200), 2)]
      for check, route in [("enumerate_closed", "closed"),
                           ("enumerate_transfer", "transfer")]],
    # the walks against the closed products: the antidiagonal weights are
    # the only ones that read the corners, Durfee 2 from (4,3,2,1) on
    ("walk_closed", "interlacing", "rpc_closed",
     Input((3, 2, 1), frame=ANTI), 22),
    *[("walk_closed", "interlacing", "rpc_closed",
       Input(pc.staircase(m), frame=ANTI), 20) for m in (4, 5)],
    ("walk_closed", "interlacing", "rpc_closed", Input(frame=DIAG), 30),
    # closed products against transfer; n = 3 and 5 rebuild the rotation
    # table of the third slot for another n, and n = 6 and 8 decode the
    # closed product's packed result at 6 and 8 variables
    ("closed_transfer", "closed", "transfer", Input((4, 3, 2, 1)), 14),
    *[("closed_transfer", "closed", "transfer", Input(leg, "zn", n), d)
      for n, leg, d in [(4, (3, 1), 22), (3, (3, 1), 22), (3, (2, 2, 1), 22),
                        (5, (3, 1), 22), (5, (2, 2, 1), 22), (6, (3, 1), 18),
                        (8, (2, 1), 14)]],
    *[("closed_transfer", "closed", "transfer", inp, 26)
      for inp in [Input((2, 1)), Input((2, 1), "zn", 4)]],
    # the walk and transfer prune by one least-continuation bound,
    # partition_core.least_ahead, so one bug in it could make them agree;
    # commute_series runs no such bound
    *[row for leg in [(3, 1), (2, 2), (4, 1), (3, 1, 1)] for row in [
        ("walk_commute", "interlacing", "commute", Input(leg, frame=DIAG), 30),
        ("transfer_commute", "rpc_transfer", "commute",
         Input(leg, frame=DIAG), 30),
        ("walk_transfer", "interlacing", "rpc_transfer",
         Input(leg, frame=ANTI), 30)]],
    # a leg in slot 1 or 2 is the one place where the closed Zn formula's
    # skew Schur determinant is non-trivial; no CLI command reaches it
    *[("slot_closed_enumerate", "slot_closed", "slot_enumerate",
       Input(leg, "zn", n, slot=slot), 18) for n, leg, slot in SIDE],
    *[("slot_bar_symmetry", "slot_closed", "barred",
       Input(lam, "zn", n, slot=1), 30) for n in (3, 4, 5)
      for lam in [(3, 1), (2, 2, 1), (4,), (1, 1, 1, 1)]],
    # z2z2 transfer against the closed Z2 vertex in every slot: the one
    # check of a side slot by a route of another class than boxes
    *[("restricted_closed", "restricted", "slot_closed",
       Input(leg, "zn", 2, slot=slot), 30)
      for leg in [(3, 1), (2, 2, 1), (4, 1)] for slot in (1, 2, 3)],
]

# check -> why its rows may compare two routes of one class
SAME_CLASS = {
    "transfer_window": "checks the proven window: one bracket on the "
                       "window and on the window + 2",
    "walk_transfer": "no route of another class reaches a non-staircase "
                     "antidiagonal leg above degree 4; diagonal walks "
                     "also meet commute_series (walk_commute)",
    "slot_bar_symmetry": "a symmetry of one closed route, lambda in slot 1 "
                         "against lambda' in slot 2 relabelled",
}


# tier-1's own comparisons, each at its own degree, where the walk below
# cannot state them: a truncation boundary, a leg of size 6 or more,
# n = 12, 60 or 200, one class, or a degree above the walk's; or pending
PRUNE_LEGS = [(), (1,), (2, 1), (3, 1)]
# slot_closed's side-slot legs at D=8; but (3,2,1), z2z2 transfer's at 12
SWEEP = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (3, 2, 1)]


def shared_runs(rows=DEEP):
    """The rows cut into runs, one per input and degree, in first-seen
    order; a row can reuse a series of the row before it in its run."""
    runs = {}
    for row in rows:
        runs.setdefault(row[3:], []).append(row)
    return list(runs.values())


# truncation boundaries: a row's point is its own cutoff, where the walk
# runs each route at its table's degree and cuts the series
BOUNDARY = [
    # transfer keeps the terms with d + |mu| + ahead == cutoff, and every
    # cutoff puts that boundary on other terms; DEEP has z2z2 (2,1) at 6
    *[("enumerate_transfer", "enumerate", "transfer", Input(leg, group, n), d)
      for group, n in [("z2z2", None), ("zn", 3)] for leg in PRUNE_LEGS
      for d in range(11) if (leg, group, d) != ((2, 1), "z2z2", 6)],
    # degree 1 keeps exactly the partners of size cutoff - low and the
    # terms with d == room, as under enumeration
    *[("enumerate_transfer", "enumerate", "transfer", Input(leg, *g), 1)
      for g in [("z2z2",), ("zn", 3)] for leg in [(2,), (1, 1), (2, 2)]],
    *[("walk_transfer", "interlacing", "rpc_transfer", Input(leg, frame=f), 1)
      for f in (ANTI, DIAG) for leg in pc.partitions_up_to(4)]]

TIER1 = sum(shared_runs(BOUNDARY + [
    # above the walk's degree
    *[("enumerate_transfer", "enumerate", "transfer", inp, d)
      for inp, d in [*[(Input(leg), 12) for leg in SWEEP[:-1]],
                     *[(Input(leg, "zn", n), 12) for n in (3, 4)
                       for leg in [(1,), (2, 1)]], (Input(), 18)]],
    # pending; Z3 at PRUNE_LEGS is a boundary row
    *[("enumerate_transfer", "enumerate", "transfer", Input(leg, "zn", n), 8)
      for n in (2, 3, 4) for leg in pc.partitions_up_to(4)
      if n != 3 or leg not in PRUNE_LEGS],
    # the CLI's slot 3 at (3,2,1); n = 1 is the hook product
    *[("enumerate_closed", "enumerate", "closed", Input((3, 2, 1), "zn", n), 8)
      for n in range(1, 6)],
    ("transfer_commute", "transfer", "commute", Input((3, 1), "zn", 4), 20),
    ("closed_transfer", "closed", "transfer", Input((3, 1), "zn", 4), 20),
    # the walk and transfer share pc.least_ahead, commute_series runs no
    # such bound; above the walk's degree
    *[row for leg in pc.partitions_up_to(5) + [(3, 2, 1)] for row in [
        ("walk_commute", "interlacing", "commute", Input(leg, frame=DIAG), 12),
        ("walk_transfer", "interlacing", "rpc_transfer",
         Input(leg, frame=DIAG), 12)]],
    # every leg of size <= 4 reaches both corner parities of every kind of
    # slice (even, odd s > 0, odd s < 0) within degree 6, DEEP has (3,1)
    # and (2,2) at 6; no other class reaches an antidiagonal leg that is
    # not a staircase, and the walk meets the others in rpc_closed or
    # commute
    *[("walk_transfer", "interlacing", "rpc_transfer", Input(leg, frame=ANTI),
       6) for leg in pc.partitions_up_to(4)
      if not pc.is_staircase(leg) and leg not in [(3, 1), (2, 2)]],
    *[("walk_transfer", "interlacing", "rpc_transfer", Input(leg, frame=f), d)
      for leg, f, d in [((1,), ANTI, 11), ((2, 1), ANTI, 11), ((1,), DIAG, 11),
                        ((2, 1), DIAG, 11), ((2, 1), DIAG, 14)]],
    # the staircase products at m = 3..7 against the walks, enumeration
    # and transfer: every m mod 4 branch of both Z4 forms, shifts l = 2..4
    *[row for m in range(3, 8) for leg in [pc.staircase(m)] for row in [
        *[("walk_closed", "interlacing", "rpc_closed", Input(leg, frame=f), 8)
          for f in (ANTI, DIAG)],
        ("enumerate_closed", "enumerate", "closed", Input(leg), 8),
        ("closed_transfer", "closed", "transfer", Input(leg, "zn", 4), 8),
        ("branch_transfer", "zn_branch", "transfer", Input(leg, "zn", 4), 8)]],
    *[("walk_closed", "interlacing", "rpc_closed", Input(leg, frame=f), 22)
      for leg, f in [((1,), ANTI), ((), DIAG)]],
    ("closed_transfer", "rpc_closed", "rpc_transfer",
     Input((1,), frame=ANTI), 22),
    *[("closed_transfer", "closed", "transfer", inp, 22)
      for inp in [Input(), Input((1,)), Input((2, 1)),
                  Input((2, 1), "zn", 4)]],
    # the three vertex routes at (2,1); above the degree (n = 12, 60 and
    # 200) the zero-leg table keeps only the runs of M~ that reach the
    # cutoff, and enumeration builds a color unit only for the residues
    # its cells reach; DEEP has (2,1) at Z200, D=2
    *[(check, "enumerate", route, inp, d)
      for inp, d in [(Input((2, 1)), 16), (Input((2, 1), "zn", 4), 16),
                     *[(Input(leg, "zn", n), d) for n, d in [(12, 10), (60, 3)]
                       for leg in [(), (2, 1)]], (Input((), "zn", 200), 2)]
      for check, route in [("enumerate_closed", "closed"),
                           ("enumerate_transfer", "transfer")]],
    # in slot 1 or 2 the closed formula's renormalization shift has
    # negative exponents that the Schur part must cancel, and slot 1 takes
    # the barred values; no transfer mode reaches these slots; degree 8
    # pending but (3,2,1)
    *[("slot_closed_enumerate", "slot_closed", "slot_enumerate",
       Input(leg, "zn", n, slot=slot), d) for n, leg, slot, d in [
           *[(n, leg, slot, 8) for n in range(1, 6) for leg in SWEEP
             for slot in (1, 2)],
           *[(n, leg, slot, 12) for n in (3, 4)
             for leg in [(2, 1), (3,), (1, 1, 1)] for slot in (1, 2)],
           *[(n, (2, 1), slot, d) for n, d in [(12, 10), (60, 3), (200, 2)]
             for slot in (1, 2)]]],
    *[("slot_bar_symmetry", "slot_closed", "barred",
       Input(lam, "zn", n, slot=1), 16) for n in range(1, 6)
      for lam in pc.partitions_up_to(4)[1:]],
    # pending
    *[("restricted_closed", "restricted", "slot_closed",
       Input(leg, "zn", n, slot=slot), 10)
      for leg in pc.partitions_up_to(5) for n, slot in RESTRICT],
]), [])


def run(row, degree, kept=()):
    """Assert that the row's two routes agree at degree, reusing the
    series in kept; return {(route, input, degree): series}."""
    check, a, b, inp, _ = row
    got = {}
    for name in (a, b):
        route, key = ALL[name], (name, inp, degree)
        got[key] = kept[key] if key in kept else route.series(inp, degree)
    x, y = got.values()
    assert x == y, "%s: %s and %s differ at %r, degree %d" % (
        check, a, b, inp, degree)
    return got


def run_rows(rows):
    """Every row at its own degree, in order, a series that the row
    before computed reused."""
    kept = {}
    for row in rows:
        start = time.perf_counter()
        kept = run(row, row[4], kept)
        print("%-21s %-12s %-14s %r D=%d: %.2f s" % (
            *row[:5], time.perf_counter() - start), flush=True)


def grid(max_size=5):
    """Every leg of size <= max_size under z2z2 and Z1..Z5, with no frame
    and with each, in slots 1, 2 and 3: 1,026 inputs at the default."""
    return [Input(leg, group, n, frame, slot)
            for leg in pc.partitions_up_to(max_size)
            for group, n in [("z2z2", None)] + [("zn", n) for n in range(1, 6)]
            for frame in (None, ANTI, DIAG) for slot in (1, 2, 3)]


# the walk's degree per row, tier-1's and CI's: enumeration is the slow one
DEGREES = {**dict.fromkeys(ALL, 10), "enumerate": 8, "slot_enumerate": 8}
DEEP_DEGREES = {**dict.fromkeys(ALL, 16), "enumerate": 10,
                "slot_enumerate": 10}


def links(inp, degrees):
    """The rows of ALL whose check admits inp, and the walk's comparisons
    among them, rows ("walk", a, b, inp, degree), each at the lower of its
    two routes' degrees.  With two classes or more, the anchor is the row
    of the highest degree, the first in ALL on ties: each row of another
    class is compared with it, and each other row of its class with the
    best row of another class, so every admitted pair agrees.  A check
    that raises anything but ValueError raises here."""
    names = []
    for name, route in ALL.items():
        try:
            route.check(inp)
        except ValueError:
            continue
        names.append(name)
    if len({ALL[name].kind for name in names}) < 2:
        return names, []
    anchor = max(names, key=degrees.get)
    kind = ALL[anchor].kind
    best = max((n for n in names if ALL[n].kind != kind), key=degrees.get)
    pairs = [(a, best if ALL[a].kind == kind else anchor)
             for a in names if a != anchor]
    return names, [("walk", a, b, inp, min(degrees[a], degrees[b]))
                   for a, b in pairs]


def walk_rows(inputs, degrees):
    """The walk's comparisons at each input, as rows."""
    return [row for inp in inputs for row in links(inp, degrees)[1]]


def cut(s, degree):
    # the series' variables and its terms of degree <= degree
    return s.names, (s.terms if s.cutoff == degree else
                     {e: c for e, c in s.terms.items() if sum(e) <= degree})


def walk(inputs, degrees):
    """Every row of ALL at each input that its check admits, at the row's
    degree, and the walk's comparisons of its series cut to the lower
    degree; fail naming each row that raised and each pair that differs."""
    start, failed = time.perf_counter(), []
    for inp in inputs:
        names, rows = links(inp, degrees)
        got = {}
        for name in names:
            try:
                got[name] = ALL[name].series(inp, degrees[name])
            except Exception as e:
                failed.append("%s failed at %r: %r" % (name, inp, e))
        for _, a, b, _, d in rows:
            if a in got and b in got and cut(got[a], d) != cut(got[b], d):
                failed.append("%s and %s differ at %r, degree %d"
                              % (a, b, inp, d))
    if failed:
        raise AssertionError("\n".join(failed))
    print("walk over %d inputs: %.2f s" % (
        len(inputs), time.perf_counter() - start), flush=True)


def run_deep():
    """Every DEEP row at its own degree and the walk over the grid at
    DEEP_DEGREES, in two processes: the walk, then each shared run, a
    task each."""
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        jobs = [pool.submit(walk, grid(), DEEP_DEGREES)]
        jobs += [pool.submit(run_rows, run) for run in shared_runs()]
        for job in jobs:
            job.result()


def row_id(row):
    check, a, b, inp, d = row
    parts = [check, a, b, inp.group + str(inp.n or ""),
             ",".join(map(str, inp.leg)) or "0"]
    if inp.frame:
        parts.append(inp.frame)
    if inp.slot != 3:
        parts.append("slot%d" % inp.slot)
    return "-".join(parts + ["D%d" % d])


def test_deep_rows_are_distinct_and_shared_runs_cover_them():
    # DEEP at tier-1's degree and TIER1 list no comparison twice
    ids = [row_id((*row[:4], min(row[4], 6))) for row in DEEP]
    ids += map(row_id, TIER1)
    assert len(DEEP) == 79 and len(set(ids)) == len(ids)
    runs = shared_runs()
    assert sum(runs, []) == DEEP
    # enumeration at each (2,1) input, commute_series at each leg
    assert [len(run) for run in runs if len(run) > 1] == [2] * 8


@pytest.mark.parametrize("row", DEEP, ids=row_id)
def test_deep_row_at_degree_6(row):
    run(row, min(row[4], 6))


LAST = [{}]  # the series of the TIER1 row run last


@pytest.mark.parametrize("row", TIER1, ids=row_id)
def test_tier1_row(row):
    # a row reuses a series of the row before it; alone, it makes its own
    LAST[0] = run(row, row[4], LAST[0])


def same_class(rows):
    """The checks among rows that compare two routes of one class."""
    return {row[0] for row in rows if ALL[row[1]].kind == ALL[row[2]].kind}


def test_every_check_pairs_routes_of_different_classes():
    # verify's checks and the tests', each routes of two classes unless
    # SAME_CLASS says why not; verify's only same-class rows are
    # transfer's window check, SAME_CLASS' transfer_window
    assert {row[1:3] for row in routes.CHECKS
            if ALL[row[1]].kind == ALL[row[2]].kind} == {("transfer", "wide")}
    assert same_class(DEEP + TIER1) == set(SAME_CLASS)
    assert same_class(walk_rows(grid(), DEGREES)) == set()
    # a row given two routes of one class is caught
    assert same_class([("x", "transfer", "interlacing", Input())]) == {"x"}


def unread(rows):
    """(check, input, field) for each field that a row's input sets away
    from Input's default and neither of its routes' functions reads at
    degree 0, on the input that the route's check returns: the check
    itself reads every field, and a row of one group need not."""
    read, out = set(), set()

    class Spy(Input):
        # an Input that notes the name of each attribute read from it
        __slots__ = ()

        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    for check, a, b, inp, _ in rows:
        read.clear()
        for name in (a, b):
            route = ALL[name]
            route.fn(Spy(*route.check(inp)), 0)
            if route.group:     # its check admits no other group
                read.add("group")
        out |= {(check, inp, f) for f, v, d in zip(Input._fields, inp, Input())
                if v != d and f not in read}
    return out


def samples(route):
    """Inputs in the route's domain that set every field it takes: leg
    (1,), a staircase, in its group or in each, zn at n = 4 (all that
    zn_branch takes), a frame and slot 1 where it reads them."""
    return [Input((1,), g, 4 if g == "zn" else None,
                  DIAG if route.frame else None, 1 if route.slot else 3)
            for g in ([route.group] if route.group else ["z2z2", "zn"])]


def test_every_field_a_row_sets_is_read():
    # a route that ignores a field would compare another input than the
    # row names; rpc_closed takes a frame and reads none, since at a
    # staircase leg both frames give one series, so each of its rows
    # pairs it with the walk, which reads the frame
    assert unread(DEEP + TIER1 + walk_rows(grid(), DEGREES)) == set()
    assert unread([(*check, 0) for check in routes.CHECKS]) == set()
    alone = [(name, name, name, inp, 0)
             for name, route in routes.ROUTES.items() for inp in samples(route)]
    assert unread(alone) == {("rpc_closed", Input((1,), frame=DIAG),
                              "frame")}
    # a field that no function of the row reads is refused in its check
    bad = ("x", "enumerate", "transfer", Input((1,), slot=1), 4)
    with pytest.raises(ValueError, match="^slot must be 3, got 1$"):
        unread([bad])


BAD_SLOTS = [(name, slot) for name in ("slot_closed", "slot_enumerate")
             for slot in (0, 5, True)]
# rows of one group given another, or an n that z2z2 does not take
WRONG = "^group must be %r, got %r$"
BAD_GROUPS = [
    ("closed", Input((1,), n=4), "^n is for group zn, got n=4 with z2z2$"),
    ("zn_branch", Input((1,), "z2z2", 4), WRONG % ("zn", "z2z2")),
    ("slot_closed", Input((1,), "z2z2", 4, slot=1), WRONG % ("zn", "z2z2")),
    *[row for name in ("interlacing", "rpc_closed", "rpc_transfer")
      for row in [(name, Input((1,), "zn", 4, frame=ANTI),
                   WRONG % ("z2z2", "zn")),
                  (name, Input((1,), n=4, frame=ANTI),
                   "^n is for group zn, got n=4 with z2z2$")]]]
# a slot or a frame that a row does not read, and rpc_closed without a
# frame or with an unknown one
UNREAD = [
    *[(name, Input((1,), *group, frame=frame, slot=1),
       "^slot must be 3, got 1$")
      for name, group, frame in [("transfer", (), None), ("closed", (), None),
                                 ("enumerate", (), None),
                                 ("zn_branch", ("zn", 4), None),
                                 ("interlacing", (), ANTI)]],
    *[(name, Input((1,), frame=DIAG), "^frame is for rpc rows, got %r$" % DIAG)
      for name in ("closed", "enumerate", "transfer", "wide")],
    *[("rpc_closed", Input((1,), frame=frame), "^unknown frame %r$" % frame)
      for frame in (None, "bogus")]]
# an input that a row's fields would admit but its function cannot take
NARROW = [
    ("zn_branch", Input((1,), "zn", 3), "^n must be 4, got 3$"),
    ("commute", Input((1,), frame=ANTI),
     "^frame must be %r, got %r$" % (DIAG, ANTI)),
    ("barred", Input((1,), "zn", 3), "^slot must be 1 or 2, got 3$"),
    ("restricted", Input((1,), "zn", 3, slot=1),
     r"^\(n, slot\) must be one of .*, got \(3, 1\)$")]


@pytest.mark.parametrize("name, inp, message", [
    ("closed", Input((2,)), r"needs a staircase leg, got \(2,\)"),
    ("rpc_closed", Input((2,), frame=ANTI),
     r"needs a staircase leg, got \(2,\)"),
    ("zn_branch", Input((2,), "zn", 4), r"needs a staircase leg, got \(2,\)"),
    ("rpc_transfer", Input((1,)), "^unknown frame None$"),
    ("interlacing", Input((1,)), "^unknown frame None$"),
    *[(name, Input((1,), "zn", 4, slot=slot),
       "^slot must be 1, 2 or 3, got %r$" % slot) for name, slot in BAD_SLOTS],
    *BAD_GROUPS,
    *UNREAD,
    *NARROW,
], ids=["closed", "rpc_closed", "zn_branch", "rpc_transfer", "interlacing",
        *["%s-%r" % bad for bad in BAD_SLOTS],
        *["%s-%s-n%r" % (name, inp.group, inp.n)
          for name, inp, _ in BAD_GROUPS],
        *["%s-%s" % (name, "slot1" if inp.slot == 1 else "frame-%s" % inp.frame)
          for name, inp, _ in UNREAD],
        *[name + "-narrow" for name, _, _ in NARROW]])
def test_rows_reject_what_they_cannot_read(name, inp, message):
    # the staircase rows read only len(leg), so rpc_closed at (2,) gave the
    # product of (1,); rpc_transfer raised TypeError from "rpc_" + None;
    # the slot rows dropped a leg outside slots 1..3 and read True as 1;
    # zn_branch and slot_closed read no group, so z2z2 gave the Z4 series,
    # and the z2z2 rows read neither group nor n; the rows of UNREAD gave
    # the series without the slot or the frame; the rows of NARROW raised
    # inside their functions.  The check refuses each before the row's
    # function runs.
    def no_series(inp, degree):
        raise AssertionError("series computed at %r" % (inp,))

    with pytest.raises(ValueError, match=message):
        ALL[name]._replace(fn=no_series).series(inp, 3)


def test_the_walk_finds_every_admitted_pair_equal():
    # zn_branch took every zn n, commute the antidiagonal frame, barred
    # slot 3 and restricted every (n, slot); each then raised inside its
    # function, on 12, 19, 95 and 209 grid inputs
    assert len(grid()) == 1026
    walk(grid(), DEGREES)


def covered(rows, walked):
    """The rows whose two routes the walked rows link at the row's input,
    through comparisons at the row's degree or higher."""
    links = {}
    for _, a, b, inp, d in walked:
        links.setdefault(inp, []).append((a, b, d))
    out = []
    for row in rows:
        _, a, b, inp, degree = row
        pairs = [(x, y) for x, y, d in links.get(inp, ()) if d >= degree]
        reach = {a}
        for _ in pairs:   # each pass reaches one step further
            reach |= {y for pair in pairs for x, y in (pair, pair[::-1])
                      if x in reach}
        if b in reach:
            out.append(row)
    return out


# check -> how many of its TIER1 rows the walk covers too, pending retirement
PENDING = {"slot_closed_enumerate": 70, "restricted_closed": 76,
           "enumerate_transfer": 32}


def test_no_hand_listed_row_repeats_the_walk():
    # a row at a truncation boundary is there for its own cutoff, which
    # the walk does not run; every other covered row is pending
    rows = [row for row in TIER1 if row not in BOUNDARY]
    walked = walk_rows(grid(), DEGREES)
    assert Counter(row[0] for row in covered(rows, walked)) == PENDING
    # the walk stops at m = 2; the rows keep each m mod 4 of both Z4 forms
    for check in ("closed_transfer", "branch_transfer"):
        assert {len(r[3].leg) % 4 for r in TIER1 if r[0] == check
                and r[3].n == 4 and pc.is_staircase(r[3].leg)} == {0, 1, 2, 3}


def _plus_one(s):
    # the series with 1 more of its first variable
    return Series(s.names, s.cutoff,
                  {**s.terms, (1, 0): s.coefficient((1, 0)) + 1})


def _raise(s):
    raise KeyError("x")


@pytest.mark.parametrize("name, tamper, message", [
    ("restricted", _plus_one,
     "(?m)^restricted and slot_closed differ at %s, degree 10$"),
    ("slot_enumerate", _raise,
     r"^slot_enumerate failed at %s: KeyError\('x'\)$")])
def test_the_walk_names_a_row_that_breaks(monkeypatch, name, tamper, message):
    # one row adds a term, or raises, at one input of Z2, whose series
    # have two variables; barred, of slot_closed's class, also meets the
    # row that adds a term
    bad, fn = Input((2, 1), "zn", 2, slot=1), ALL[name].fn
    monkeypatch.setitem(ALL, name, ALL[name]._replace(
        fn=lambda inp, d: tamper(fn(inp, d)) if inp == bad else fn(inp, d)))
    with pytest.raises(AssertionError, match=message % re.escape(repr(bad))):
        walk([bad._replace(slot=slot) for slot in (1, 2, 3)], DEGREES)
