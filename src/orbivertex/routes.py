"""The one table of series routes, the CLI's view of it and verify's
checks.  A row holds fn(input, degree); its independence class: boxes
(enumeration), partners (the walk and transfer) or factors (the closed
products); and its one domain, which Route.check enforces for every
caller before Route.series runs fn.  Rows look their functions up when
run, so a patched or wrapped module name reaches them.  An input is an
Input or the CLI's parsed arguments, missing fields the defaults.
"""

from collections import namedtuple

from . import dt_vertex, fock_transfer, rpc
from . import partition_core as pc
from .pyramid import ANTI, DIAG, _group_names


class Input(namedtuple("Input", "leg group n frame slot",
                       defaults=((), "z2z2", None, None, 3))):
    __slots__ = ()


class Route(namedtuple("Route", "fn kind group n frame slot stairs",
                       defaults=(None, None, False, False, None))):
    __slots__ = ()

    def check(self, inp):
        """inp as an Input in the row's domain: the row's group (None: any)
        at an n it takes, the row's n if it names one; a frame only if the
        row reads one; slot 3, or 1, 2 or 3 if it reads the slot; a
        staircase leg in group stairs."""
        inp = Input._make(getattr(inp, f, d)
                          for f, d in Input._field_defaults.items())
        if self.group and inp.group != self.group:
            raise ValueError("group must be %r, got %r"
                             % (self.group, inp.group))
        _group_names(inp.group, inp.n)
        if self.n is not None and inp.n != self.n:
            raise ValueError("n must be %d, got %r" % (self.n, inp.n))
        if self.frame:
            rpc._check_frame(inp.frame)
        elif inp.frame is not None:
            raise ValueError("frame is for rpc rows, got %r" % (inp.frame,))
        if type(inp.slot) is not int or inp.slot not in (
                (1, 2, 3) if self.slot else (3,)):
            raise ValueError("slot must be %s, got %r" % (
                "1, 2 or 3" if self.slot else "3", inp.slot))
        if inp.group == self.stairs and not pc.is_staircase(tuple(inp.leg)):
            raise ValueError("staircase product needs a staircase leg, got %r"
                             % (inp.leg,))
        return inp

    def series(self, inp, degree):
        """The row's series at inp, checked, up to degree."""
        return self.fn(self.check(inp), degree)


ROUTES = {
    "closed": Route(lambda inp, d: (
        dt_vertex.vertex_closed_zn(inp.n, ((), (), inp.leg), d)
        if inp.group == "zn" else dt_vertex.closed_z2z2_staircase(
            len(inp.leg), d)), "factors", stairs="z2z2"),
    "enumerate": Route(lambda inp, d: dt_vertex.enumerate_3d(
        inp.leg, inp.group, d, n=inp.n), "boxes"),
    "transfer": Route(lambda inp, d: fock_transfer.vertex_by_transfer(
        inp.group, inp.leg, d, n=inp.n), "partners"),
    # the series is the same at every shift (see generating_function)
    "interlacing": Route(lambda inp, d: rpc.generating_function(
        inp.leg, 0, inp.frame, d), "partners", group="z2z2", frame=True),
    # at a staircase leg both frames give this one series
    "rpc_closed": Route(lambda inp, d: dt_vertex.corollary_rpc_closed(
        len(inp.leg), d), "factors", group="z2z2", frame=True,
        stairs="z2z2"),
    # library-only rows
    "rpc_transfer": Route(lambda inp, d: fock_transfer.vertex_by_transfer(
        "z2z2", inp.leg, d, "rpc_" + inp.frame), "partners", group="z2z2",
        frame=True),
    # transfer's products on the window + 2, against which it checks it
    "wide": Route(lambda inp, d: fock_transfer._wide(
        inp.group, inp.leg, d, n=inp.n), "partners"),
    "rpc_wide": Route(lambda inp, d: fock_transfer._wide(
        "z2z2", inp.leg, d, "rpc_" + inp.frame), "partners", group="z2z2",
        frame=True),
    "zn_branch": Route(lambda inp, d: dt_vertex.one_leg_zn_staircase(
        inp.n, len(inp.leg), d), "factors", group="zn", n=4, stairs="zn"),
    "slot_closed": Route(lambda inp, d: dt_vertex.vertex_closed_zn(
        inp.n, tuple(inp.leg if s == inp.slot else () for s in (1, 2, 3)),
        d), "factors", group="zn", slot=True),
    "slot_enumerate": Route(lambda inp, d: dt_vertex.enumerate_one_leg(
        tuple(inp.leg if s == inp.slot else () for s in (1, 2, 3)),
        inp.group, d, n=inp.n), "boxes", slot=True),
}

# subcommand -> {method: row}, the first method the default; pyramid is
# rpc at leg () in the diagonal frame, which its parser sets
CLI = {"vertex": {m: m for m in ("closed", "enumerate", "transfer")},
       "pyramid": {"closed": "rpc_closed", "enumerate": "interlacing"},
       "rpc": {"interlacing": "interlacing", "closed": "rpc_closed"}}

# verify's checks, in report order: (name, row, row, input); each that
# runs transfer has a second row, transfer against wide
CHECKS = [
    ("zero_leg_enumerate_transfer", "enumerate", "transfer", Input()),
    ("zero_leg_enumerate_transfer", "transfer", "wide", Input()),
    ("zero_leg_enumerate_closed", "enumerate", "closed", Input()),
    ("zero_leg_z4_transfer_closed", "transfer", "closed", Input((), "zn", 4)),
    ("zero_leg_z4_transfer_closed", "transfer", "wide", Input((), "zn", 4)),
    ("staircase_m1_enumerate_closed", "enumerate", "closed", Input((1,))),
    ("staircase_m2_enumerate_closed", "enumerate", "closed", Input((2, 1))),
    ("staircase_m1_z4_branch", "transfer", "zn_branch", Input((1,), "zn", 4)),
    ("staircase_m1_z4_branch", "transfer", "wide", Input((1,), "zn", 4)),
    ("pyramid_enumerate_closed", "interlacing", "rpc_closed",
     Input(frame=DIAG)),
    ("rpc_m1_interlacing_closed", "interlacing", "rpc_closed",
     Input((1,), frame=ANTI)),
]
