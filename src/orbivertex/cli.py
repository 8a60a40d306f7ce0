"""Command line front end: compute vertex/pyramid series, cross-verify the
independent pipelines, and run the uniqueness scan.  Emits JSON or CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import fock_transfer
from . import partition_core as pc
from . import rpc
from .dt_vertex import (closed_z2z2_staircase, corollary_rpc_closed,
                        enumerate_3d, one_leg_zn_staircase, vertex_closed_zn)
from .fock_transfer import vertex_by_transfer
from .pyramid import ANTI, DIAG, _group_names


def _partition_arg(text):
    try:
        return pc.parse_partition(text)
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex))


def _methods_arg(allowed):
    def conv(text):
        out = []
        for x in text.split(","):
            x = x.strip()
            if x not in allowed:
                raise argparse.ArgumentTypeError(
                    "method must be one of %s" % ",".join(sorted(allowed)))
            if x not in out:
                out.append(x)
        return tuple(out)
    return conv


def _shifts_arg(text):
    # repeated shifts are dropped, first occurrences kept in order
    try:
        return tuple(dict.fromkeys(int(x) for x in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "shifts must be comma-separated integers")


def _monomial(names, exps):
    bits = []
    for name, e in zip(names, exps):
        if e == 1:
            bits.append(name)
        elif e:
            bits.append("%s^%d" % (name, e))
    return "*".join(bits) if bits else "1"


def _differ(what, a, b):
    """Print "<what> at <monomial>: x != y" for the first monomial, by
    degree and then exponents, at which a and b differ; return whether
    they differ."""
    if a.terms == b.terms:
        return False
    for e in sorted(set(a.terms) | set(b.terms), key=lambda e: (sum(e), e)):
        x, y = a.coefficient(e), b.coefficient(e)
        if x != y:
            print("%s at %s: %d != %d" % (what, _monomial(a.names, e), x, y))
            return True
    return False


def _emit(args, report, header, rows):
    """Write `report` as one line of compact, key-sorted JSON, or the
    iterable `rows` under `header` as CSV, to --output or stdout."""
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vertex_check(args):
    # --n defaults to None, so that one given under z2z2 reaches the check
    if args.group == "zn" and args.n is None:
        args.n = 4
    _group_names(args.group, args.n)


def _vertex_fields(args):
    rec = {"vertex": "one_leg" if args.leg else "zero_leg",
           "group": args.group, "leg": list(args.leg)}
    if args.group == "zn":
        rec["n"] = args.n
    return rec


def _vertex_closed(args):
    if args.group == "zn":
        return vertex_closed_zn(args.n, ((), (), args.leg), args.degree)
    return closed_z2z2_staircase(len(args.leg), args.degree)


def _interlacing(args):
    # the series is the same at every shift (see generating_function)
    return rpc.generating_function(args.leg, 0, args.frame, args.degree)


def _rpc_closed(args):
    return corollary_rpc_closed(len(args.leg), args.degree)


# subcommand -> (input check, record fields besides method and series,
# {method: (series of the parsed args, whether it needs a staircase leg,
# independence class)}), the first method the default.  The class names
# what a route rests on: boxes (enumerate_3d), partners (the interlacing
# walk and transfer) or factors (the closed products).  Rows look their
# functions up when run, so a patched module name reaches the route.
_ANY_LEG, _STAIRCASE = (lambda args: False), (lambda args: True)
_RPC_ROUTES = {"interlacing": (_interlacing, _ANY_LEG, "partners"),
               "closed": (_rpc_closed, _STAIRCASE, "factors")}
_ROUTES = {
    "vertex": (_vertex_check, _vertex_fields, {
        "closed": (_vertex_closed, lambda args: args.group == "z2z2",
                   "factors"),
        "enumerate": (lambda args: enumerate_3d(
            args.leg, args.group, args.degree, n=args.n), _ANY_LEG, "boxes"),
        "transfer": (lambda args: vertex_by_transfer(
            args.group, args.leg, args.degree, n=args.n), _ANY_LEG,
            "partners"),
    }),
    # rpc at leg () in the diagonal frame, which its parser sets
    "pyramid": (lambda args: None, lambda args: {
        "vertex": "pyramid", "group": "z2z2", "leg": []},
        {"closed": _RPC_ROUTES["closed"],
         "enumerate": _RPC_ROUTES["interlacing"]}),
    "rpc": (lambda args: None, lambda args: {
        "vertex": "rpc", "group": "z2z2", "leg": list(args.leg),
        "frame": args.frame}, _RPC_ROUTES),
}


def _series(args):
    """Every requested method's series; under --verify each is compared
    with the first."""
    check, fields, routes = _ROUTES[args.command]
    if args.verify and len(args.method) < 2:
        raise ValueError("--verify needs at least two methods")
    check(args)
    for method in args.method:
        if routes[method][1](args) and not pc.is_staircase(args.leg):
            raise ValueError("%s form needs a staircase leg, got %r"
                             % (method, args.leg))
    named = [(method, routes[method][0](args)) for method in args.method]
    base_label, base = named[0]
    comparisons = [("mismatch %s vs %s" % (base_label, label), base, s)
                   for label, s in named[1:] if args.verify]
    records = [dict(fields(args), method=method, series=s.to_record())
               for method, s in named]
    header = ["method"] + records[0]["series"]["vars"] + ["coef"]
    return comparisons, {"results": records}, header, (
        [rec["method"]] + item["exp"] + [item["coef"]]
        for rec in records for item in rec["series"]["terms"])


def _uniqueness(args):
    if args.window is None:
        # edge_bound(v') + l <= max_leg_size + 1 + l for every leg scanned
        args.window = args.max_leg_size + 1 + max(args.shifts)
    scan = rpc.uniqueness_scan(args.max_leg_size, args.shifts, args.window)
    rows = [{"leg": list(v), "shift": l, "symmetric": ok}
            for (v, l), ok in sorted(scan.items())]
    symmetric = sorted({tuple(r["leg"]) for r in rows if r["symmetric"]})
    expected = {tuple(pc.staircase(m)) for m in range(args.max_leg_size + 1)
                if pc.size(pc.staircase(m)) <= args.max_leg_size}
    report = {"window": args.window, "shifts": list(args.shifts),
              "max_leg_size": args.max_leg_size,
              "results": rows,
              "symmetric_legs": [list(v) for v in symmetric],
              "staircases_only": set(symmetric) == expected}
    return [], report, ["leg", "shift", "symmetric"], (
        [pc.format_partition(r["leg"]), r["shift"], int(r["symmetric"])]
        for r in rows)


def _verify(args):
    """Per check its two routes, then a transfer route's brackets on its
    window and window + 2.  Every check in the report is ok."""
    d = args.degree
    en = enumerate_3d((), "z2z2", d)
    # (window, transfer series on it, the series on window + 2)
    z2z2 = fock_transfer._window_pair("z2z2", (), d)
    z4 = fock_transfer._window_pair("zn", (), d, n=4)
    z4_m1 = fock_transfer._window_pair("zn", (1,), d, n=4)
    # (check name, route, route, transfer windows or None)
    battery = [
        ("zero_leg_enumerate_transfer", en, z2z2[1], z2z2),
        ("zero_leg_enumerate_closed", en, closed_z2z2_staircase(0, d), None),
        ("zero_leg_z4_transfer_closed", z4[1],
         vertex_closed_zn(4, ((), (), ()), d), z4),
        *[("staircase_m%d_enumerate_closed" % m,
           enumerate_3d(pc.staircase(m), "z2z2", d),
           closed_z2z2_staircase(m, d), None) for m in (1, 2)],
        ("staircase_m1_z4_branch", z4_m1[1], one_leg_zn_staircase(4, 1, d),
         z4_m1),
        ("pyramid_enumerate_closed", rpc.generating_function((), 0, DIAG, d),
         corollary_rpc_closed(0, d), None),
        ("rpc_m1_interlacing_closed", rpc.generating_function((1,), 0, ANTI, d),
         corollary_rpc_closed(1, d), None),
    ]
    comparisons = []
    for name, a, b, pair in battery:
        comparisons.append(("mismatch in " + name, a, b))
        if pair is not None:
            window, first, second = pair
            comparisons.append(
                ("transfer window %d not stable in %s: windows %d and %d "
                 "differ" % (window, name, window, window + 2), first, second))
    report = {"checks": [{"check": name, "ok": True} for name, *_ in battery],
              "ok": True}
    return comparisons, report, ["check", "ok"], ([c[0], 1] for c in battery)


def _run(args):
    """Build the subcommand's comparisons and report; bad input fails in
    the build before any series is computed.  Print every comparison that
    differs and return 1, or emit the report and return 0."""
    comparisons, report, header, rows = args.build(args)
    if any([_differ(*c) for c in comparisons]):     # a list: print each
        return 1
    _emit(args, report, header, rows)
    return 0


def _add_common(p, command):
    methods = _ROUTES[command][2]
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--method", type=_methods_arg(methods),
                   default=(next(iter(methods)),))
    p.add_argument("--verify", action="store_true")
    _add_output(p)
    p.set_defaults(build=_series)


def _add_output(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)


@functools.cache
def build_parser():
    """The orbivertex argument parser, built once per process.

    main() calls it on every invocation, so an in-process caller that
    runs many commands builds the six parsers and their arguments once; a
    one-shot console call builds it once either way, and gains and loses
    nothing.  Sharing is safe: parse_args fills a fresh namespace on each
    call, and the parser holds only the converters and build functions,
    which keep no state and look up the names they use when called.
    """
    parser = argparse.ArgumentParser(
        prog="orbivertex",
        description="orbifold vertex and pyramid partition series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vertex", help="one-leg vertex series")
    p.add_argument("--group", choices=("z2z2", "zn"), default="z2z2")
    p.add_argument("--n", type=int, default=None,
                   help="order of the group Zn (default 4)")
    p.add_argument("--leg", type=_partition_arg, default=())
    _add_common(p, "vertex")

    p = sub.add_parser("pyramid", help="pyramid partition series")
    p.set_defaults(leg=(), frame=DIAG)
    _add_common(p, "pyramid")

    p = sub.add_parser("rpc", help="restricted pyramid series")
    p.add_argument("--leg", type=_partition_arg, default=())
    p.add_argument("--frame", choices=(ANTI, DIAG), default=ANTI)
    _add_common(p, "rpc")

    p = sub.add_parser("uniqueness", help="symmetric interlacing scan")
    p.add_argument("--max-leg-size", type=int, default=6)
    p.add_argument("--window", type=int, default=None,
                   help="default max-leg-size + 1 + the largest shift, a "
                   "bound observed, not proven, to settle every verdict")
    p.add_argument("--shifts", type=_shifts_arg, default=(0, 1))
    _add_output(p)
    p.set_defaults(build=_uniqueness)

    p = sub.add_parser("verify", help="cross-check the three pipelines")
    p.add_argument("--degree", type=int, default=6)
    _add_output(p)
    p.set_defaults(build=_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "degree", 0) < 0:
        parser.error("degree must be >= 0")
    if args.output:
        folder = os.path.dirname(args.output) or "."
        if not os.path.isdir(folder):
            parser.error("output directory %s does not exist" % folder)
        if os.path.isdir(args.output):
            parser.error("output %s is a directory" % args.output)
    try:
        return _run(args)
    except ValueError as ex:
        parser.error(str(ex))


if __name__ == "__main__":
    sys.exit(main())
