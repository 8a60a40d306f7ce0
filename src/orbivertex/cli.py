"""Command line front end: vertex and pyramid series by the routes of
orbivertex.routes, their cross-checks and the uniqueness scan, as JSON
or CSV."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import partition_core as pc
from . import routes, rpc
from .pyramid import ANTI, DIAG


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


def _differ(what, a, b):
    """Print "<what> at <monomial>: x != y" for the first monomial, by
    degree and then exponents, at which a and b differ; return whether
    they differ."""
    if a.terms == b.terms:
        return False
    for e in sorted(set(a.terms) | set(b.terms), key=lambda e: (sum(e), e)):
        x, y = a.coefficient(e), b.coefficient(e)
        if x != y:
            monomial = "*".join(name if k == 1 else "%s^%d" % (name, k)
                                for name, k in zip(a.names, e) if k) or "1"
            print("%s at %s: %d != %d" % (what, monomial, x, y))
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
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as ex:
            # main turns it into a usage error, exit 2, not 1 (a mismatch)
            raise ValueError("cannot write %s: %s"
                             % (args.output, ex.strerror or ex)) from ex
    else:
        sys.stdout.write(text)


def _fields(args):
    """A record's fields besides method and series."""
    rec = {"vertex": args.command, "group": "z2z2", "leg": list(args.leg)}
    if args.command == "rpc":
        rec["frame"] = args.frame
    elif args.command == "vertex":
        rec.update(vertex="one_leg" if args.leg else "zero_leg",
                   group=args.group)
        if args.group == "zn":
            rec["n"] = args.n
    return rec


def _series(args):
    """Every requested method's series; under --verify each is compared
    with the first."""
    if args.verify and len(args.method) < 2:
        raise ValueError("--verify needs at least two methods")
    # --n defaults to None, so that one given under z2z2 is refused
    if args.command == "vertex" and args.group == "zn" and args.n is None:
        args.n = 4
    rows = [routes.ROUTES[routes.CLI[args.command][m]] for m in args.method]
    for route in rows:      # every method's input, before any series
        route.check(args)
    named = [(method, route.series(args, args.degree))
             for method, route in zip(args.method, rows)]
    base_label, base = named[0]
    comparisons = [("mismatch %s vs %s" % (base_label, label), base, s)
                   for label, s in named[1:] if args.verify]
    records = [dict(_fields(args), method=method, series=s.to_record())
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
              "max_leg_size": args.max_leg_size, "results": rows,
              "symmetric_legs": [list(v) for v in symmetric],
              "staircases_only": set(symmetric) == expected}
    return [], report, ["leg", "shift", "symmetric"], (
        [pc.format_partition(r["leg"]), r["shift"], int(r["symmetric"])]
        for r in rows)


def _verify(args):
    """Every row of routes.CHECKS, each (row, input) run once; the report
    names each check once, in first-seen order."""
    run = functools.cache(lambda row, inp: routes.ROUTES[row].series(
        inp, args.degree))
    comparisons = [("mismatch in %s: %s vs %s" % (name, a, b), run(a, inp),
                    run(b, inp)) for name, a, b, inp in routes.CHECKS]
    names = dict.fromkeys(name for name, *_ in routes.CHECKS)
    report = {"checks": [{"check": c, "ok": True} for c in names], "ok": True}
    return comparisons, report, ["check", "ok"], ([name, 1] for name in names)


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
    methods = routes.CLI[command]
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
    """The orbivertex argument parser, built once per process, so that an
    in-process caller of main() builds it once.  Sharing is safe: each
    parse_args fills a fresh namespace, and the parser holds only
    stateless converters and build functions."""
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

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    parser = args.parser    # the subcommand's, for its usage line
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
