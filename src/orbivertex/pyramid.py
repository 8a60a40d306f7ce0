"""Pyramid partitions of the length-two empty-room configuration.

Bricks live at integer positions (x, y, z), z >= 0 the depth.  The base
brick sits at the origin; depth-1 bricks sit at (-1, 0, 1) and (1, 0, 1)
and deeper layers continue the same double-staircase pattern.  Each brick
carries one of the four colors '0', 'a', 'b', 'c'.

Two slicing frames are used throughout:

* diagonal frame: slice index k = x - y; each slice is single-colored,
  with color depending only on k mod 4;
* antidiagonal frame: slice index k = x + y; each slice is colored as a
  checkerboard in its cell coordinates.

A slice is recorded as a partition sigma: cell (i, j) -- row i, offset j
within the row -- is occupied iff j < sigma[i].  Valid pyramids are
exactly the finitely-supported slice families that interlace along the
chain: check_type_interlacing at the empty leg, the one chain checker of
the package, which rpc applies at every leg; see validate().

They are the restricted pyramid configurations of the empty leg, so
enumerate_pyramids and pyramid_series are the forward slice sweep of rpc
at leg (), shift 0, in the diagonal frame: the first lists the families
in depth-first order, the second counts them without listing any (see
pyramid_series).
"""

from __future__ import annotations

from . import partition_core as pc
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


def address_to_position(frame, k, i, j):
    """Position (x, y, z) of brick (i, j) on slice k of the given frame;
    k, i and j must be ints, i and j non-negative."""
    for t in (k, i, j):
        _check_int(t, "brick address")
    if i < 0 or j < 0:
        raise ValueError("brick coordinates must be non-negative")
    other = 2 * (i - j) + _odd_offset(k)
    z = abs(k) + 2 * (i + j)
    if frame == DIAG:
        x = (k + other) // 2
        y = (other - k) // 2
    elif frame == ANTI:
        x = (k + other) // 2
        y = (k - other) // 2
    else:
        raise ValueError("unknown frame %r" % frame)
    return (x, y, z)


def position_to_address(frame, x, y, z):
    """Inverse of address_to_position; None if no brick sits there.
    x, y and z must be ints."""
    for t in (x, y, z):
        _check_int(t, "brick position")
    if frame == DIAG:
        k, other = x - y, x + y
    elif frame == ANTI:
        k, other = x + y, x - y
    else:
        raise ValueError("unknown frame %r" % frame)
    rest = other - _odd_offset(k)
    if rest % 2:
        return None
    half = rest // 2                      # i - j
    span2 = z - abs(k)                    # 2 * (i + j)
    if span2 < 0 or span2 % 2:
        return None
    tot = span2 // 2
    i = (tot + half) // 2
    j = (tot - half) // 2
    if (tot + half) % 2 or i < 0 or j < 0:
        return None
    return (k, i, j)


def convert_frame(frame, k, i, j):
    """Re-address a brick in the opposite frame."""
    pos = address_to_position(frame, k, i, j)
    target = ANTI if frame == DIAG else DIAG
    addr = position_to_address(target, *pos)
    if addr is None:
        raise AssertionError("brick %r lost in frame conversion" % ((k, i, j),))
    return addr


def color(frame, k, i, j):
    """Color letter of a brick given in either frame, from its position,
    so its address is checked in both."""
    x, y, _ = address_to_position(frame, k, i, j)
    return _DIAG_COLOR[(x - y) % 4]


def check_type_interlacing(slices, v):
    """Second-type interlacing of a finitely-supported slice family:
    eta_k and eta_{k-1} interlace in the direction given by the conjugate
    edge value at -k, primed exactly at even k.  Empty families pass.
    """
    conj = pc.conjugate(v)
    support = [k for k, s in slices.items() if s]
    if not support:
        return True
    lo, hi = min(support), max(support)
    for s in range(lo, hi + 2):
        a = tuple(slices.get(s, ()))
        b = tuple(slices.get(s - 1, ()))
        tau = pc.edge_value(conj, -s)
        primed = (s % 2 == 0)
        # tau=+1: eta_s <= eta_{s-1}; tau=-1: eta_s >= eta_{s-1}
        ok = pc.interlaces(b, a, primed) if tau == 1 else pc.interlaces(a, b, primed)
        if not ok:
            return False
    return True


class PyramidPartition:
    """Finite brick pyramid, stored as its diagonal slices."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = {_check_int(k, "slice index"): pc.check_partition(tuple(v))
                       for k, v in slices.items() if tuple(v)}

    @classmethod
    def from_bricks(cls, positions):
        by_slice = {}
        for (x, y, z) in positions:
            addr = position_to_address(DIAG, x, y, z)
            if addr is None:
                raise ValueError("no brick at position %r" % ((x, y, z),))
            k, i, j = addr
            by_slice.setdefault(k, set()).add((i, j))
        return cls({k: _cells_to_partition(cells) for k, cells in by_slice.items()})

    def size(self):
        return sum(sum(v) for v in self.slices.values())

    def bricks(self):
        """All brick positions, sorted."""
        out = []
        for k, sigma in self.slices.items():
            for i, row in enumerate(sigma):
                for j in range(row):
                    out.append(address_to_position(DIAG, k, i, j))
        return sorted(out)

    def antidiagonal_slices(self):
        """The same bricks re-sliced by x + y, as {k: partition}."""
        by_slice = {}
        for (x, y, z) in self.bricks():
            k, i, j = position_to_address(ANTI, x, y, z)
            by_slice.setdefault(k, set()).add((i, j))
        return {k: _cells_to_partition(cells) for k, cells in by_slice.items()}

    def validate(self):
        """Check the full interlacing chain, the second-type interlacing
        of the empty leg (see pyramid_series); raises ValueError if
        broken."""
        if not check_type_interlacing(self.slices, ()):
            raise ValueError("slices do not interlace: %r" % (self.slices,))
        return True

    def color_counts(self):
        """Brick counts per color, in VARS_Z2Z2 slot order."""
        counts = [0, 0, 0, 0]
        for k, sigma in self.slices.items():
            counts[COLOR_SLOT[_DIAG_COLOR[k % 4]]] += sum(sigma)
        return tuple(counts)

    def __eq__(self, other):
        return isinstance(other, PyramidPartition) and self.slices == other.slices

    def __hash__(self):
        return hash(tuple(sorted(self.slices.items())))

    def __repr__(self):
        return "PyramidPartition(%r)" % (self.slices,)


def _cells_to_partition(cells):
    """Rows of occupied (i, j) cells -> partition; cells must be left-justified."""
    if not cells:
        return ()
    rows = {}
    for (i, j) in cells:
        rows.setdefault(i, set()).add(j)
    nrows = max(rows) + 1
    parts = []
    for i in range(nrows):
        js = rows.get(i, set())
        if js != set(range(len(js))):
            raise ValueError("slice cells not left-justified in row %d" % i)
        parts.append(len(js))
    # weak decrease with interior zeros included also rules out gap rows
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("slice rows not a partition: %r" % (parts,))
    return tuple(x for x in parts if x)


def enumerate_pyramids(max_bricks):
    """All pyramid partitions with at most max_bricks bricks, in the
    depth-first order of rpc.interlacing_families((), max_bricks).

    They are the second-type interlacing families of the empty leg (see
    pyramid_series).  A negative bound raises in interlacing_families,
    before any slice is walked: it used to return no pyramid at all, not
    even the empty one.
    """
    # rpc imports this module for its geometry, so import it here
    from . import rpc
    return [PyramidPartition(f) for f in rpc.interlacing_families((), max_bricks)]


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
    two count the same objects with the same weights:

    * the empty leg has no Frobenius coordinates, so rpc.corners gives
      every slice the corner (0, 0) and restriction keeps every brick;
    * validate() is check_type_interlacing at leg (), so the slice
      families of the pyramids are the second-type families of () by
      definition: edge_value((), -s) is -1 for s <= 0 and +1 for s >= 1,
      so slice s lies above slice s - 1 left of the center and below it
      from slice 1 on, primed exactly at even s;
    * rpc.slice_color_counts colors diagonal slice k _DIAG_COLOR[k % 4],
      as color() does.

    So the second-type families of () are exactly the diagonal slice
    families of the pyramids, and each weighs its color counts.
    """
    # rpc imports this module for its geometry, so import it here
    from . import rpc
    return rpc.generating_function((), 0, DIAG, cutoff)
