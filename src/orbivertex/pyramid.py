"""Pyramid partitions of the length-two empty-room configuration: the
slicing frames and colors that the routes share, and the pyramids as
the restricted configurations of the empty leg.

Bricks sit at integer positions (x, y, z), z >= 0 the depth, in four
colors '0', 'a', 'b', 'c', and are sliced in two frames:

* diagonal frame: slice index k = x - y; each slice is single-colored,
  with color depending only on k mod 4 (_DIAG_COLOR);
* antidiagonal frame: slice index k = x + y; each slice is colored as a
  checkerboard in its cell coordinates.

A slice is recorded as a partition sigma: cell (i, j) -- row i, offset j
within the row -- is occupied iff j < sigma[i].  Brick addresses, the
pyramid as bricks and the chain checker are the paper's objects that no
route runs; tests/paper.py keeps them as references for the walk.

Pyramids are the restricted pyramid configurations of the empty leg, so
enumerate_pyramids and pyramid_series are the forward slice sweep of rpc
at leg (), shift 0, in the diagonal frame: the first lists the families
in depth-first order, the second counts them without listing any (see
pyramid_series).
"""

from __future__ import annotations

from .qseries import Series, _check_int

DIAG = "diagonal"
ANTI = "antidiagonal"

# variable slot order used by every four-color series in the package
VARS_Z2Z2 = ("q0", "qa", "qb", "qc")


def zn_names(n):
    """Variable names of the Zn series, one per residue; n an int >= 1."""
    if n is None or _check_int(n, "n") < 1:
        raise ValueError("n must be >= 1 for group zn, got %r" % (n,))
    return tuple("qt%d" % i for i in range(n))


def _group_names(group, n):
    """Variable names of group "z2z2" (n None) or "zn" (int n >= 1)."""
    if group not in ("z2z2", "zn"):
        raise ValueError("unknown group %r" % (group,))
    if group == "z2z2" and n is not None:
        raise ValueError("n is for group zn, got n=%r with z2z2" % (n,))
    return VARS_Z2Z2 if group == "z2z2" else zn_names(n)


# diagonal slice color by k mod 4
_DIAG_COLOR = {0: "0", 1: "b", 2: "c", 3: "a"}
# color letter -> slot in VARS_Z2Z2
COLOR_SLOT = {"0": 0, "a": 1, "b": 2, "c": 3}


def _odd_offset(k):
    # the x+y (diagonal frame) or x-y (antidiagonal frame) parity offset
    if k % 2 == 0:
        return 0
    return 1 if k > 0 else -1


def enumerate_pyramids(max_bricks):
    """All pyramid partitions with at most max_bricks bricks, as their
    diagonal slice dicts {k: partition}: rpc.interlacing_families((),
    max_bricks), in its depth-first order.

    They are the second-type interlacing families of the empty leg (see
    pyramid_series).  A negative bound raises in interlacing_families,
    before any slice is walked: it used to return no pyramid at all, not
    even the empty one.
    """
    # rpc imports this module for its geometry, so import it here
    from . import rpc
    return rpc.interlacing_families((), max_bricks)


def series_from_packed(names, cutoff, counts):
    """Series from {packed exponents: count}, one digit of base
    cutoff + 1 per name; the Series checks them against `names`.

    The enumerators pack their weights this way, so that adding a brick
    or box adds one int.  They unpack here rather than through the packed
    codec of qseries, which the closed route uses, so that one codec bug
    cannot make the enumeration and closed routes agree.
    """
    base = cutoff + 1
    terms = {}
    for w, c in counts.items():
        exps = []
        for _ in names:
            w, x = divmod(w, base)
            exps.append(x)
        terms[tuple(exps)] = c
    return Series(names, cutoff, terms)


def pyramid_series(cutoff):
    """Generating function of pyramid partitions, graded by color counts,
    complete through total degree `cutoff` (one brick = one degree).
    Kept as a library name; it returns rpc.generating_function at the
    empty leg, shift 0, in the diagonal frame, which the CLI calls
    directly and which counts the families without listing them.  The
    two count the same objects with the same weights; the pyramid as
    bricks, restriction, validate() and color() are those of
    tests/paper.py:

    * the empty leg has no Frobenius coordinates, so rpc.corners gives
      every slice the corner (0, 0) and restriction keeps every brick;
    * validate() is check_type_interlacing at leg (), so the slice
      families of the pyramids are the second-type families of () by
      definition: the edge set of () is {t <= -1}, so the edge value at
      -s is -1 for s <= 0 and +1 for s >= 1, and slice s lies above
      slice s - 1 left of the center and below it from slice 1 on,
      primed exactly at even s;
    * rpc.slice_color_counts colors diagonal slice k _DIAG_COLOR[k % 4],
      as color() does.

    So the second-type families of () are exactly the diagonal slice
    families of the pyramids, and each weighs its color counts.
    """
    # rpc imports this module for its geometry, so import it here
    from . import rpc
    return rpc.generating_function((), 0, DIAG, cutoff)
