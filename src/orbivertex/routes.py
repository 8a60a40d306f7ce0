"""The one table of series routes, the CLI's view of it and verify's
checks.  A row holds series(input, degree); its independence class:
boxes (enumeration), partners (the interlacing walk and transfer) or
factors (the closed products); staircase(input), whether the leg must be
a staircase; and transfer's windows(input, degree) = (window, the series,
its bracket on window + 2).  Rows look their functions up when run, so a
patched or wrapped module name reaches them.  An input is an Input or the
CLI's parsed arguments; the slot rows put the leg in slot 1, 2 or 3, and
a row of one group refuses another group or an n that it does not read.
"""

from collections import namedtuple

from . import dt_vertex, fock_transfer, rpc
from . import partition_core as pc
from .pyramid import ANTI, DIAG, _group_names


class Input(namedtuple("Input", "leg group n frame slot",
                       defaults=((), "z2z2", None, None, 3))):
    __slots__ = ()


class Route(namedtuple("Route", "series kind staircase windows",
                       defaults=(lambda inp: False, None))):
    __slots__ = ()


def _staircase_m(leg):
    """m of the staircase leg (m, ..., 1), which is all that the staircase
    products read; any other leg raises, also when staircase is skipped."""
    if not pc.is_staircase(tuple(leg)):
        raise ValueError("staircase product needs a staircase leg, got %r"
                         % (leg,))
    return len(leg)


def _group(inp, group):
    """inp, if its group is the row's and its n one that group takes; the
    CLI's pyramid and rpc namespaces lack both, read as Input's defaults."""
    got = getattr(inp, "group", "z2z2")
    if got != group:
        raise ValueError("group must be %r, got %r" % (group, got))
    _group_names(group, getattr(inp, "n", None))
    return inp


def _slot_legs(inp):
    """The three legs, inp.leg in slot inp.slot: the int 1, 2 or 3."""
    if type(inp.slot) is not int or inp.slot not in (1, 2, 3):
        raise ValueError("slot must be 1, 2 or 3, got %r" % (inp.slot,))
    return tuple(inp.leg if s == inp.slot else () for s in (1, 2, 3))


ROUTES = {
    "closed": Route(lambda inp, d: (
        dt_vertex.vertex_closed_zn(inp.n, ((), (), inp.leg), d)
        if inp.group == "zn" else dt_vertex.closed_z2z2_staircase(
            _staircase_m(_group(inp, "z2z2").leg), d)), "factors",
        lambda inp: inp.group == "z2z2"),
    "enumerate": Route(lambda inp, d: dt_vertex.enumerate_3d(
        inp.leg, inp.group, d, n=inp.n), "boxes"),
    "transfer": Route(lambda inp, d: fock_transfer.vertex_by_transfer(
        inp.group, inp.leg, d, n=inp.n), "partners", windows=lambda inp, d:
        fock_transfer._window_pair(inp.group, inp.leg, d, n=inp.n)),
    # the series is the same at every shift (see generating_function)
    "interlacing": Route(lambda inp, d: rpc.generating_function(
        _group(inp, "z2z2").leg, 0, inp.frame, d), "partners"),
    "rpc_closed": Route(lambda inp, d: dt_vertex.corollary_rpc_closed(
        _staircase_m(_group(inp, "z2z2").leg), d), "factors",
        lambda inp: True),
    # library-only rows
    "rpc_transfer": Route(lambda inp, d: fock_transfer.vertex_by_transfer(
        "z2z2", _group(inp, "z2z2").leg, d,
        "rpc_" + rpc._check_frame(inp.frame)), "partners"),
    "zn_branch": Route(lambda inp, d: dt_vertex.one_leg_zn_staircase(
        _group(inp, "zn").n, _staircase_m(inp.leg), d), "factors",
        lambda inp: True),
    "slot_closed": Route(lambda inp, d: dt_vertex.vertex_closed_zn(
        _group(inp, "zn").n, _slot_legs(inp), d), "factors"),
    "slot_enumerate": Route(lambda inp, d: dt_vertex.enumerate_one_leg(
        _slot_legs(inp), inp.group, d, n=inp.n), "boxes"),
}

# subcommand -> {method: row}, the first method the default; pyramid is
# rpc at leg () in the diagonal frame, which its parser sets
CLI = {"vertex": {m: m for m in ("closed", "enumerate", "transfer")},
       "pyramid": {"closed": "rpc_closed", "enumerate": "interlacing"},
       "rpc": {"interlacing": "interlacing", "closed": "rpc_closed"}}

# verify's checks, in report order: (name, row, row, input)
CHECKS = [
    ("zero_leg_enumerate_transfer", "enumerate", "transfer", Input()),
    ("zero_leg_enumerate_closed", "enumerate", "closed", Input()),
    ("zero_leg_z4_transfer_closed", "transfer", "closed", Input((), "zn", 4)),
    ("staircase_m1_enumerate_closed", "enumerate", "closed", Input((1,))),
    ("staircase_m2_enumerate_closed", "enumerate", "closed", Input((2, 1))),
    ("staircase_m1_z4_branch", "transfer", "zn_branch", Input((1,), "zn", 4)),
    ("pyramid_enumerate_closed", "interlacing", "rpc_closed",
     Input(frame=DIAG)),
    ("rpc_m1_interlacing_closed", "interlacing", "rpc_closed",
     Input((1,), frame=ANTI)),
]
