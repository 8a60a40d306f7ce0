"""The paper's brick-level objects that no route runs, as test references.

The routes need only the slice corners (rpc.corners) and the one slice
walk (rpc._slice_walk).  Here are the rest: a single edge value and one
pair of the interlacing order, brick addresses in the two frames (see
pyramid) and their colors, the chain checker, the pyramid as bricks,
restriction to a leg's family and its preimage realize, and the cyclic
symmetry of the vertex.  The tests check the routes against them, so
they live with the tests, where no route can come to share them.  They
call rpc.corners and dt_vertex.enumerate_one_leg through their modules,
so a test that patches either there sees whether it was reached.
"""

from __future__ import annotations

from orbivertex import dt_vertex, rpc
from orbivertex import partition_core as pc
from orbivertex.pyramid import ANTI, COLOR_SLOT, DIAG, VARS_Z2Z2, _DIAG_COLOR, _odd_offset
from orbivertex.qseries import _check_int


def edge_value(p, t):
    """+1 if t lies in the edge set {p_j - j - 1 : j >= 0} of p, else -1;
    p_j is 0 past the last part, so far negative t give +1 and far
    positive t give -1."""
    hit = any(pc.part(p, j) - j - 1 == t for j in range(max(len(p), -t)))
    return 1 if hit else -1


def interlaces(lam, mu, primed=False):
    """True iff lam >= mu in the interlacing order.

    Unprimed: lam_0 >= mu_0 >= lam_1 >= mu_1 >= ...  Primed is the same
    after conjugating both, equivalently lam[i] - mu[i] in {0, 1} per row.
    """
    part, rows = pc.part, range(max(len(lam), len(mu)))
    if primed:
        return all(part(lam, i) - part(mu, i) in (0, 1) for i in rows)
    return all(part(lam, i) >= part(mu, i) >= part(lam, i + 1) for i in rows)


def address_to_position(frame, k, i, j):
    """Position (x, y, z), z >= 0 the depth, of brick (i, j) (row i,
    offset j) on slice k of the frame; k, i and j must be ints, i and j
    non-negative.  The base brick sits at the origin, depth-1 bricks at
    (-1, 0, 1) and (1, 0, 1), deeper ones in the same double staircase."""
    for t in (k, i, j):
        _check_int(t, "brick address")
    if i < 0 or j < 0:
        raise ValueError("brick coordinates must be non-negative")
    other = 2 * (i - j) + _odd_offset(k)
    y = (other - k) // 2 if rpc._check_frame(frame) == DIAG else (k - other) // 2
    return ((k + other) // 2, y, abs(k) + 2 * (i + j))


def position_to_address(frame, x, y, z):
    """Inverse of address_to_position, of ints x, y, z; None if no brick
    sits there."""
    for t in (x, y, z):
        _check_int(t, "brick position")
    k, other = (x - y, x + y) if rpc._check_frame(frame) == DIAG else (x + y, x - y)
    rest = other - _odd_offset(k)
    span2 = z - abs(k)                    # 2 * (i + j)
    if rest % 2 or span2 < 0 or span2 % 2:
        return None
    half, tot = rest // 2, span2 // 2     # i - j, i + j
    i, j = (tot + half) // 2, (tot - half) // 2
    if (tot + half) % 2 or i < 0 or j < 0:
        return None
    return (k, i, j)


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
    for s in range(min(support), max(support) + 2):
        a, b = tuple(slices.get(s, ())), tuple(slices.get(s - 1, ()))
        tau, primed = edge_value(conj, -s), (s % 2 == 0)
        # tau=+1: eta_s <= eta_{s-1}; tau=-1: eta_s >= eta_{s-1}
        if not (interlaces(b, a, primed) if tau == 1 else interlaces(a, b, primed)):
            return False
    return True


class PyramidPartition:
    """Finite brick pyramid, stored as its diagonal slices: cell (i, j)
    of slice k is occupied iff j < sigma[i].  Valid pyramids are exactly
    the finitely-supported slice families that pass check_type_interlacing
    at the empty leg; see validate()."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = {_check_int(k, "slice index"): pc.check_partition(tuple(v))
                       for k, v in slices.items() if tuple(v)}

    @classmethod
    def from_bricks(cls, positions):
        return cls(_slices(DIAG, positions))

    def size(self):
        return sum(sum(v) for v in self.slices.values())

    def bricks(self):
        """All brick positions, sorted."""
        return sorted(address_to_position(DIAG, k, i, j)
                      for k, sigma in self.slices.items()
                      for i, row in enumerate(sigma) for j in range(row))

    def antidiagonal_slices(self):
        """The same bricks re-sliced by x + y, as {k: partition}."""
        return _slices(ANTI, self.bricks())

    def validate(self):
        """Check the full interlacing chain, the second-type interlacing of
        the empty leg (see pyramid.pyramid_series); ValueError if broken."""
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


def _slices(frame, positions):
    """{k: partition} of the bricks at the positions, sliced in the frame."""
    by_slice = {}
    for pos in positions:
        addr = position_to_address(frame, *pos)
        if addr is None:
            raise ValueError("no brick at position %r" % (pos,))
        by_slice.setdefault(addr[0], set()).add(addr[1:])
    return {k: _cells_to_partition(cells) for k, cells in by_slice.items()}


def _cells_to_partition(cells):
    """Rows of occupied (i, j) cells -> partition; cells must be left-justified."""
    rows = [i for i, _ in cells]
    parts = [rows.count(i) for i in range(max(rows, default=-1) + 1)]
    for i, row in enumerate(parts):
        if {j for r, j in cells if r == i} != set(range(row)):
            raise ValueError("slice cells not left-justified in row %d" % i)
    # weak decrease with interior zeros included also rules out gap rows
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("slice rows not a partition: %r" % (parts,))
    return tuple(x for x in parts if x)


def restrict(p, v, l, frame):
    """Slice family of the bricks of p inside the regions, re-based at the
    corners: {k: partition}, empty slices dropped."""
    rpc._check_shift(l, frame)
    slices = p.slices if frame == DIAG else p.antidiagonal_slices()
    at = rpc.corners(v, l, slices)
    cut = ((k, tuple(x - cj for x in sigma[ci:] if x > cj))
           for (k, sigma), (ci, cj) in zip(slices.items(), at))
    return {k: eta for k, eta in cut if eta}


def restrict_positions(p, v, l, frame):
    """The same restriction as a set of physical brick positions: the
    family of restrict() at its un-rebased cells (ci + i, cj + j)."""
    family = restrict(p, v, l, frame)
    return frozenset(
        address_to_position(frame, k, ci + i, cj + j)
        for (k, eta), (ci, cj) in zip(family.items(), rpc.corners(v, l, family))
        for i, row in enumerate(eta) for j in range(row))


def realize(slices, v, l, frame):
    """A pyramid whose restriction at (v, l, frame) is the given family.

    The family must satisfy the second-type interlacing for v.  With
    theta rows and xi columns bounding every slice of the family, each
    slice k of a window -2 half - 1 .. 2 half past the family and the
    leg's edges is its region corner (ci, cj) padded: ci full rows of
    length cj + xi, then cj + eta_k[r] for r < theta.  Two tails of
    staircase blocks close the pyramid off past the window, each read
    from the corner (ci, cj) of its end slice -2 half or 2 half; the m-th
    pair of slices out, m >= 1, is
    * left: ci rows of length L = cj + xi + 1 - m on the inner slice,
      L - 1 on the outer one, then theta rows of min(L, cj);
    * right: ci - max(0, m - theta) rows of length cj + xi, then
      theta - m rows of cj, on both slices.
    So the chain conditions hold across the region corners.
    """
    rpc._check_shift(l, frame)
    family = {_check_int(k, "slice index"): pc.check_partition(tuple(s))
              for k, s in slices.items() if tuple(s)}
    if not check_type_interlacing(family, v):
        raise ValueError("family does not satisfy the interlacing condition")
    support = max((abs(k) for k in family), default=0)
    half = (max(support + 1, pc.edge_bound(pc.conjugate(v)), 2) + 1) // 2
    theta = max((len(s) for s in family.values()), default=0)
    xi = max((s[0] for s in family.values()), default=0)

    window = range(-2 * half - 1, 2 * half + 1)
    corner = dict(zip(window, rpc.corners(v, l, window)))
    built = {}
    for k, (ci, cj) in corner.items():
        eta = family.get(k, ())
        built[k] = [cj + xi] * ci + [cj + pc.part(eta, r) for r in range(theta)]
    ci, cj = corner[-2 * half]
    for m in range(1, cj + xi + 1):
        for k, length in ((-2 * half - 2 * m, cj + xi + 1 - m),
                          (-2 * half - 2 * m - 1, cj + xi - m)):
            built[k] = [length] * ci + [min(length, cj)] * theta
    ci, cj = corner[2 * half]
    for m in range(1, ci + theta + 1):
        rows = [cj + xi] * (ci - max(0, m - theta)) + [cj] * (theta - m)
        built[2 * half + 2 * m - 1] = built[2 * half + 2 * m] = rows

    for k, rows in built.items():
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise AssertionError("constructed slice %d not a partition: %r"
                                 % (k, rows))
    final = {k: tuple(x for x in rows if x) for k, rows in built.items()}
    if frame == ANTI:
        final = _slices(DIAG, (address_to_position(ANTI, k, i, j)
                               for k, sigma in final.items()
                               for i, row in enumerate(sigma) for j in range(row)))
    p = PyramidPartition(final)
    p.validate()
    return p


def symmetry_check(leg, shift, cutoff):
    """Compare the third-slot series against the leg moved 'shift' slots
    forward, with the matching cyclic variable relabeling.  Enumeration
    on both sides; group is the order-four product of two involutions.
    """
    v = pc.check_partition(tuple(leg))
    _check_int(shift, "shift")
    if shift == 1:
        legs, assign = (v, (), ()), (0, 3, 1, 2)
    elif shift == 2:
        legs, assign = ((), v, ()), (0, 2, 3, 1)
    else:
        raise ValueError("shift must be 1 or 2")
    lhs = dt_vertex.enumerate_3d(v, "z2z2", cutoff)
    rhs = dt_vertex.enumerate_one_leg(legs, "z2z2", cutoff)
    return lhs == rhs.map_vars(VARS_Z2Z2, assign)
