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
chain; see validate().

enumerate_pyramids lists those families; pyramid_series counts them by a
memoized walk over the slice tails on either side of the center, without
listing any.
"""

from __future__ import annotations

from . import partition_core as pc
from .qseries import Series

DIAG = "diagonal"
ANTI = "antidiagonal"
FRAMES = (DIAG, ANTI)

# variable slot order used by every four-color series in the package
VARS_Z2Z2 = ("q0", "qa", "qb", "qc")


def zn_names(n):
    """Variable names of the Zn series, one per residue."""
    return tuple("qt%d" % i for i in range(n))


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
    """Position (x, y, z) of brick (i, j) on slice k of the given frame."""
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
    """Inverse of address_to_position; None if no brick sits there."""
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
    """Color letter of a brick given in either frame."""
    if frame == DIAG:
        return _DIAG_COLOR[k % 4]
    x, y, _ = address_to_position(frame, k, i, j)
    return _DIAG_COLOR[(x - y) % 4]


def chain_relation(k):
    """(tau, primed) linking slice k to slice k+1 in either frame.

    tau=+1 means slice_k <= slice_{k+1} (interlacing upward), tau=-1 the
    reverse; the relation is primed exactly when k is odd.
    """
    tau = 1 if k < 0 else -1
    return tau, (k % 2 != 0)


class PyramidPartition:
    """Finite brick pyramid, stored as its diagonal slices."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = {int(k): pc.check_partition(tuple(v))
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

    def slice(self, k):
        return self.slices.get(k, ())

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
        """Check the full interlacing chain; raises ValueError if broken."""
        if not self.slices:
            return True
        lo, hi = min(self.slices), max(self.slices)
        for k in range(lo - 1, hi + 1):
            a, b = self.slice(k), self.slice(k + 1)
            tau, primed = chain_relation(k)
            if not pc.interlaces_tau(a, b, tau, primed):
                raise ValueError("slices %d and %d do not interlace" % (k, k + 1))
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


def _right_tails(parent, k, budget):
    """All chains (slice_k, slice_{k+1}, ...) ending in empties, k >= 1."""
    tau, primed = chain_relation(k - 1)
    assert tau == -1
    for opt in pc.partners_below(parent, primed):
        cost = sum(opt)
        if cost > budget:
            continue
        if not opt:
            yield []
            continue
        for rest in _right_tails(opt, k + 1, budget - cost):
            yield [opt] + rest


def _left_tails(child, k, budget):
    """All chains (..., slice_{k-1}, slice_k is `child`) going left, k <= 0."""
    tau, primed = chain_relation(k - 1)
    assert tau == 1
    for opt in pc.partners_below(child, primed):
        cost = sum(opt)
        if cost > budget:
            continue
        if not opt:
            yield []
            continue
        for rest in _left_tails(opt, k - 1, budget - cost):
            yield rest + [opt]


def _slice_families(max_bricks):
    """Every pyramid with at most max_bricks bricks, as its diagonal
    slice family {k: partition}; the partners are valid partitions, so
    the slices need no further check."""
    for center in pc.partitions_up_to(max_bricks):
        c = sum(center)
        if not center:
            yield {}
            continue
        for right in _right_tails(center, 1, max_bricks - c):
            rc = sum(sum(s) for s in right)
            for left in _left_tails(center, 0, max_bricks - c - rc):
                slices = {0: center}
                for d, s in enumerate(right):
                    slices[d + 1] = s
                for d, s in enumerate(reversed(left)):
                    slices[-(d + 1)] = s
                yield slices


def enumerate_pyramids(max_bricks):
    """All pyramid partitions with at most max_bricks bricks.

    A negative bound raises: it used to return no pyramid at all, not
    even the empty one.
    """
    if max_bricks < 0:
        raise ValueError("max_bricks must be >= 0")
    return [PyramidPartition(f) for f in _slice_families(max_bricks)]


def series_from_packed(names, cutoff, counts, nvars):
    """Series from {packed exponents: count}, nvars digits of base
    cutoff + 1; the Series checks them against `names`.

    The enumerators pack their weights this way, so that adding a brick
    or box adds one int.  They unpack here rather than through the packed
    codec of qseries, which the closed route uses, so that one codec bug
    cannot make the enumeration and closed routes agree.
    """
    base = cutoff + 1
    terms = {}
    for w, c in counts.items():
        exps = []
        for _ in range(nvars):
            w, x = divmod(w, base)
            exps.append(x)
        terms[tuple(exps)] = c
    return Series(names, cutoff, terms)


def pyramid_series(cutoff, names=VARS_Z2Z2):
    """Generating function of pyramid partitions, graded by color counts,
    complete through total degree `cutoff` (one brick = one degree).

    The pyramids are counted, not listed: a pyramid is its center slice
    0 with a right tail (slices 1, 2, ...) and a left tail (slices -1,
    -2, ...), each a chain of partners below its neighbour toward the
    center that ends at an empty slice, as in _slice_families.  tails()
    returns {packed weight: count} over every tail that leaves `parent`
    at slice k within `budget` bricks.  That set is fixed by the key
    (parent, k mod 4, side of k, budget): on one side every relation has
    the same direction (chain_relation), primed on alternate slices, and
    a slice's color is fixed by k mod 4, so the relations and colors of
    all later slices repeat with k mod 4.  The right and left tails of a
    center are independent except through the shared budget, which the
    brick-count digit `top` of each packed weight carries across; no
    digit carries, since a chain of at most `cutoff` bricks has at most
    `cutoff` of any color.  Each step of tails() spends at least one
    brick, so it recurses at most `cutoff` deep.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    base = cutoff + 1
    top = base ** len(COLOR_SLOT)
    # one brick on slice k: its color digit plus one in the count digit
    units = [base ** COLOR_SLOT[_DIAG_COLOR[r]] + top for r in range(4)]
    memo = {}

    def tails(parent, k, budget):
        key = (parent, k % 4, k > 0, budget)
        out = memo.get(key)
        if out is not None:
            return out
        out = {}
        step = 1 if k > 0 else -1
        # the relation between slice k and its neighbour toward the center
        _, primed = chain_relation(k - 1 if k > 0 else k)
        unit = units[k % 4]
        for opt in pc.partners_below(parent, primed):
            cost = sum(opt)
            if cost > budget:
                continue
            if not opt:
                out[0] = out.get(0, 0) + 1
                continue
            w0 = unit * cost
            for w, c in tails(opt, k + step, budget - cost).items():
                out[w + w0] = out.get(w + w0, 0) + c
        memo[key] = out
        return out

    counts = {}
    for center in pc.partitions_up_to(cutoff):
        size = sum(center)
        wc = units[0] * size
        for wr, cr in tails(center, 1, cutoff - size).items():
            # wr // top: the bricks of the right tail
            for wl, cl in tails(center, -1, cutoff - size - wr // top).items():
                w = (wc + wr + wl) % top
                counts[w] = counts.get(w, 0) + cr * cl
    return series_from_packed(names, cutoff, counts, len(COLOR_SLOT))
