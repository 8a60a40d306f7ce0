"""Restricted pyramid configurations.

For a partition v (the leg) and an integer shift l >= 0, every slice k of
a pyramid gets a rectangular admissible region whose corner, corners(),
counts v's Frobenius coordinates below |k| by parity.  Restricting a pyramid
keeps the bricks inside the regions and re-bases each slice at its
corner; the resulting slice families are exactly the finitely-supported
families satisfying a directed interlacing condition.  Restriction, its
preimage construction realize and the chain checker are the paper's
objects that no route runs; tests/paper.py keeps them as references.
One forward sweep over the slices finds the families: interlacing_families
lists them through it, each family weighing itself, and
generating_function counts them, each weighing its packed color counts.
At the empty leg every corner is (0, 0) and the families are the
pyramids themselves, so pyramid.enumerate_pyramids and
pyramid.pyramid_series are this walk there.

Everything is stated per frame (diagonal or antidiagonal); corner offsets
are identical in the two frames, the brick content is not.
"""

from __future__ import annotations

from functools import lru_cache

from . import partition_core as pc
from .pyramid import (
    _DIAG_COLOR, ANTI, DIAG, VARS_Z2Z2, COLOR_SLOT, _odd_offset,
    series_from_packed,
)
from .qseries import _check_cutoff, _check_int


def _check_frame(frame):
    """frame, checked: an unknown one would be read as the antidiagonal
    one."""
    if frame not in (DIAG, ANTI):
        raise ValueError("unknown frame %r" % (frame,))
    return frame


def _check_shift(l, frame=DIAG):
    """l, once checked before any work, and the frame: a float would be
    carried into the corners, and a negative shift has no region."""
    _check_frame(frame)
    if _check_int(l, "shift l") < 0:
        raise ValueError("shift l must be >= 0")
    return l


def corners(v, l, ks):
    """Admissible corners [(row, column)] of the slices ks, in order; ks
    is any iterable of ints, in any order and with repeats.

    With v's Frobenius coordinates, arms a_i = v_i - i - 1 and legs
    b_i = v'_i - i - 1 for i below the Durfee size, and with
    rows = l + max(#odd b, #even a), cols = l + max(#even b, #odd a):
        k <= 0:  (rows - #{odd b < -k},  cols - #{even b < -k})
        k > 0:   (rows - #{even a < k},  cols - #{odd a < k})

    This is the paper's form l + rho - eps: eps1(x) counts the +1 edge
    values of v' at even spots 0..2x, eps2(x) at odd spots 1..2x + 1,
    eps3(x) the -1 values at even spots -2..-2x, eps4(x) at odd spots
    -1..-2x + 1, rho1 = max(eps2, eps4), rho2 = max(eps1, eps3) at their
    limits, and with h = (k + 1) // 2 the corner minus (l, l) is
        h <= 0:  (rho1 - eps2(-h - 1), rho2 - eps1(-h - 1 + k % 2))
        h > 0:   (rho1 - eps4(h),      rho2 - eps3(h - k % 2))
    Proof: the edge set {v'_j - j - 1 : j >= 0} of v' holds exactly the
    b_i at spots t >= 0 (v'_j <= j past the Durfee size) and misses
    exactly the -a_i - 1 at spots t < 0 (it and {i - v_i} split the
    integers).  So eps1(x) = #{even b <= 2x}, eps2(x) = #{odd b <= 2x + 1},
    eps3(x) = #{odd a <= 2x - 1} and eps4(x) = #{even a <= 2x - 2}: their
    limits give rows and cols, and as a count of one parity skips the
    values of the other, each bound is the threshold above (for odd
    k < 0, eps2(-h - 1) = #{odd b <= -2h - 1} = #{odd b < -k}).

    The counts come from prefix tables, built once per call: for
    t = 0..top, with top one past the largest coordinate, the even and
    odd arms below t and the even and odd legs below t.  No coordinate
    reaches top, so the counts below |k| are the counts below
    t = min(|k|, top), and each slice reads one entry of its side.
    """
    _check_shift(l)
    v = pc.check_partition(tuple(v))
    arms = [x - i - 1 for i, x in enumerate(v) if x > i]
    legs = [x - i - 1 for i, x in enumerate(pc.conjugate(v)) if x > i]
    top = max(arms + legs, default=-1) + 1

    def below(coords):
        # [(#even x < t, #odd x < t) for t = 0..top]
        hit = set(coords)
        counts, even_odd = [(0, 0)], [0, 0]
        for t in range(top):
            if t in hit:
                even_odd[t % 2] += 1
            counts.append(tuple(even_odd))
        return counts

    arm, leg = below(arms), below(legs)
    (even_arms, odd_arms), (even_legs, odd_legs) = arm[top], leg[top]
    rows = l + max(odd_legs, even_arms)
    cols = l + max(even_legs, odd_arms)
    right = [(rows - even, cols - odd) for even, odd in arm]
    left = [(rows - odd, cols - even) for even, odd in leg]
    out = []
    for k in ks:
        if _check_int(k, "slice index") > 0:
            out.append(right[k] if k < top else right[top])
        else:
            out.append(left[-k] if -k < top else left[top])
    return out


# ---------------------------------------------------------------------------
# interlacing families and generating functions
# ---------------------------------------------------------------------------


def _slice_range(conj, cutoff):
    """The slices _slice_walk may reach with at most `cutoff` bricks."""
    span = cutoff + pc.edge_bound(conj) + 2
    return range(-span, span + 1)


def _slice_walk(v, cutoff, slice_weight):
    """{weight: count} over the finitely-supported second-type families
    of v with at most `cutoff` bricks.  A family weighs the sum, left to
    right (w + w0), of slice_weight(s, eta) over its slices s, empty ones
    included; each (s, eta) is weighed once per call.

    Slices are fixed left to right over _slice_range, from
    left = -(cutoff + b + 2), b = edge_bound(conj), in one forward sweep.
    Slice s lies below slice s - 1 where tau, the edge value of conj at
    -s (pc.edge_values), is +1, above it where tau is -1, primed exactly
    at even s; so every s <= -b has tau = -1 and every s >= b has
    tau = +1.  After slice s the state holds the unfinished families
    through s as {slice s: {bricks left: {weight: count}}}.  Each step
    lists the partners of each previous slice once, for the largest budget
    among its buckets less what the chain prune below already charges it
    (partners_above's list at a smaller budget is the part of that list
    that fits it), and carries every bucket that still fits.

    * Merging is exact.  Take two partial families through slice s with
      the same slice s and the same bricks left.  Their continuations are
      the same set: slice s + 1's direction and primed flag depend on
      s + 1 only, its partners on slice s only, the budget tests below on
      the bricks left only, and every later slice is chosen the same way.
      A continuation only adds its weight after theirs, so their weight
      dicts can be added.
    * First slice: slice left is empty.  A slice of c >= 1 bricks there
      would be contained in each of the slices left + 1, ..., -b, since
      each lies above its predecessor; that is cutoff + 3 slices of at
      least one brick.  So the sweep starts from the empty family,
      weighing slice_weight(left, ()).
    * Chain prune: a slice opt at s is skipped once need = |opt| +
      ahead(opt, s - left) exceeds the bricks left, ahead the total size
      of the least continuation over the later slices of the range
      (pc.least_ahead proves that no continuation of opt takes fewer
      bricks), so none fits the budget.  Every kept slice passes
      |opt| <= bricks left, so no family over budget is counted.  An
      upward partner contains the previous slice, and the least
      continuation is monotone under containment, so only partners of
      size <= top - ahead(prev, s - left) are listed.  The least
      continuation keeps opt through the upward run up to the next
      downward step following[i], i = s - left, so need >= |opt| *
      (following[i] - i), and only partners of size <= top //
      (following[i] - i) are listed either, as fock_transfer._bracket does.
    * Early stop: once slice s - 1 is empty with s >= b, the family is
      complete.  Every later slice has tau = +1, and the only partition
      below () is (), primed or not, so by induction every later slice
      is empty; the family adds slice_weight(s, ()) and leaves the
      state.  So the sweep ends by slice right = cutoff + b + 2: a
      non-empty slice right - 1 would need the cutoff + 3 slices b - 1,
      ..., right - 1 all non-empty, and the state is empty after it.

    Families come out in the order they complete; interlacing_families
    sorts them into depth-first order.
    """
    conj = pc.conjugate(pc.check_partition(tuple(v)))
    b = pc.edge_bound(conj)
    slices = _slice_range(conj, cutoff)
    left = slices.start
    # steps[s - left]: (slice s lies below slice s - 1, slice s is primed)
    taus = pc.edge_values(conj, [-s for s in slices])
    steps = [(tau == 1, s % 2 == 0) for s, tau in zip(slices, taus)]
    ahead, following = pc.least_ahead(steps)
    weigh = lru_cache(maxsize=None)(slice_weight)
    out = {}
    state = {(): {cutoff: {weigh(left, ()): 1}}}
    for i, s in enumerate(slices[1:], 1):     # i = s - left
        down, primed = steps[i]
        needs = {}
        grown = {}
        for prev, buckets in state.items():
            if not prev and s >= b:
                w0 = weigh(s, ())
                for counts in buckets.values():
                    for w, c in counts.items():
                        w = w + w0
                        out[w] = out.get(w, 0) + c
                continue
            top = max(buckets)
            if down:
                options = pc.partners_below(prev, primed)
            else:
                options = pc.partners_above(prev, min(
                    top - ahead(prev, i), top // (following[i] - i)), primed)
            for opt in options:
                need = needs.get(opt)
                if need is None:
                    need = needs[opt] = sum(opt) + ahead(opt, i)
                if need > top:
                    continue
                cost = sum(opt)
                w0 = weigh(s, opt)
                into = grown.setdefault(opt, {})
                for rem, counts in buckets.items():
                    if need > rem:
                        continue
                    dst = into.setdefault(rem - cost, {})
                    for w, c in counts.items():
                        w = w + w0
                        dst[w] = dst.get(w, 0) + c
        state = grown
    return out


def interlacing_families(v, budget):
    """All finitely-supported second-type families with total size <= budget,
    in depth-first order: _slice_walk with each family weighing the tuple
    of its (index, slice) pairs, sorted.  A budget that is not an int
    raises TypeError (True would be read as 1), a negative one ValueError.

    Depth-first order fixes the slices of _slice_range left to right,
    trying the partners of the previous slice in generator order.
    partners_below and partners_above list them in ascending
    lexicographic order of the partner, or of its conjugate when primed
    (even s).  Two distinct families first differ at some slice s, where
    their previous slices agree, so depth first puts first the one whose
    slice s comes first in that order.  That is the lexicographic order
    of the key below: per slice of the range, the slice, conjugated at
    even s.  Complete families have only empty slices past their end,
    and partitions compare as tuples here just as when padded by zeros.
    """
    if _check_int(budget, "budget") < 0:
        raise ValueError("budget must be >= 0")
    walk = _slice_walk(v, budget, lambda s, eta: ((s, eta),) if eta else ())
    slices = _slice_range(pc.conjugate(v), budget)

    def depth_first(family):
        f = dict(family)
        return tuple(pc.conjugate(f.get(s, ())) if s % 2 == 0
                     else f.get(s, ()) for s in slices)

    return [dict(f) for f in sorted(walk, key=depth_first)]


_EVEN_PAIR = ("0", "c")     # parity 0 color, parity 1 color on even slices
_ODD_POS_PAIR = ("b", "a")
_ODD_NEG_PAIR = ("a", "b")


def slice_color_counts(k, eta, frame, corner_parity):
    """Brick counts per color for one restricted slice, VARS_Z2Z2 slots."""
    if _check_int(corner_parity, "corner parity") not in (0, 1):
        raise ValueError("corner parity must be 0 or 1, got %d"
                         % corner_parity)
    counts = [0, 0, 0, 0]
    total = sum(eta)
    if _check_frame(frame) == DIAG:
        counts[COLOR_SLOT[_DIAG_COLOR[k % 4]]] = total
        return tuple(counts)
    if k % 2 == 0:
        pair = _EVEN_PAIR
    elif k > 0:
        pair = _ODD_POS_PAIR
    else:
        pair = _ODD_NEG_PAIR
    # cells (i, j) of eta with i + j + corner_parity even
    even_cells = sum((row + 1 - ((i + corner_parity) % 2)) // 2
                     for i, row in enumerate(eta))
    counts[COLOR_SLOT[pair[0]]] = even_cells
    counts[COLOR_SLOT[pair[1]]] = total - even_cells
    return tuple(counts)


def generating_function(v, l, frame, cutoff):
    """Color-graded generating function of restricted configurations.

    The families of interlacing_families(v, cutoff), counted by
    _slice_walk with each slice weighing its packed color counts, which
    depend only on (k, slice) and the corner parity of k, read once per
    call.  The shift only translates every region corner by (l, l), and
    the slices are re-based at their corners, so the series is the same
    for every l >= 0: l is only checked, as corners() does, and the rpc
    command passes 0.
    """
    _check_shift(l, frame)
    _check_cutoff(cutoff)
    v = pc.check_partition(tuple(v))
    slices = _slice_range(pc.conjugate(v), cutoff)
    parity = [(ci + cj) % 2 for ci, cj in corners(v, 0, slices)]
    base = cutoff + 1
    units = [base ** slot for slot in range(len(COLOR_SLOT))]

    def weight(s, eta):
        counts = slice_color_counts(s, eta, frame, parity[s - slices.start])
        return sum(u * c for u, c in zip(units, counts))

    counts = _slice_walk(v, cutoff, weight)
    return series_from_packed(VARS_Z2Z2, cutoff, counts)


# ---------------------------------------------------------------------------
# uniqueness of the restriction across frames
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _window_runs(K):
    """The window |k| <= K, 0 <= i, j <= K of antidiagonal cells (k, i, j)
    whose diagonal address (dk, di, dj) lies in the same window, cut into
    diagonal runs: tuples (k + K, h, dk + K, a, b, hi + 1), one per
    slice k and h = i - j, covering the cells j = lo..hi.

    Run form, from the brick addresses of tests/paper.py,
    address_to_position(ANTI, k, i, j) and position_to_address(DIAG, x,
    y, z).  With off(k) the odd offset (0 for even k, else the sign of
    k), the cell sits at
    other = 2h + off(k), z = |k| + 2(i + j), x + y = k, x - y = other.
    So dk = x - y = 2h + off(k) depends on (k, h) only; the diagonal
    reading rest = (x + y) - off(dk) = k - off(dk) gives di - dj = rest/2,
    and z - |dk| = 2(di + dj) gives di + dj = 2j + c/2 with
    c = |k| + 2h - |dk|, since i + j = 2j + h.  Hence
        di = j + a, dj = j + b, a = (c + rest)/4, b = (c - rest)/4,
    with a and b constant along the run.  By cases:
        k even:         h >= 0: a = max(k, 0)/2,     b = max(-k, 0)/2
                        h < 0:  a = h + max(k, 0)/2, b = h + max(-k, 0)/2
        k odd, k > 0:   h >= 0: a = (k - 1)/2,       b = 0
                        h < 0:  a = h + (k + 1)/2,   b = h
        k odd, k < 0:   h >= 1: a = 0,               b = (1 - k)/2
                        h <= 0: a = h,               b = h + (-k - 1)/2
    so a and b are integers, both >= min(h, 0), and one of them equals
    it: min(a, b) = min(h, 0).  A run starts at
    lo = max(0, -h), which keeps j >= 0 and i = j + h >= 0, so
    di = j + a >= j + min(h, 0) >= 0 and likewise dj >= 0 on every cell:
    each is a brick of the diagonal frame, and no cell needs its own
    conversion.  The window keeps j + h, j + a, j + b <= K, so
    hi = K - max(0, h, a, b), and |dk| <= K drops whole runs.

    On a run, "(i, j) lies in the region complement of corner (ci, cj)"
    is i >= ci and j >= cj, that is j >= max(ci - h, cj); in the diagonal
    frame it is j >= max(dci - a, dcj - b).  A threshold T picks the
    cells j = max(T, lo)..hi (none once T > hi), so the two frames agree
    on every cell of the run iff their min(max(T, lo), hi + 1) agree.

    Runs come nearest the apex first, by the depth z of their first cell:
    the corners sit near the apex, so a non-symmetric leg's scan meets a
    run that differs early (after 15 runs on average for the legs up to
    8 in window 12, of 313).  The runs depend only on K (the leg and
    shift only move the corners), so they are built once per K.  A
    negative window would compare nothing and call every leg symmetric,
    so it raises.
    """
    if K < 0:
        raise ValueError("window must be >= 0, got %d" % K)
    runs = []
    for k in range(-K, K + 1):
        for h in range(-K, K + 1):
            dk = 2 * h + _odd_offset(k)
            if abs(dk) > K:
                continue
            rest = k - _odd_offset(dk)
            c = abs(k) + 2 * h - abs(dk)
            a, b = (c + rest) // 4, (c - rest) // 4
            lo, hi = max(0, -h), K - max(0, h, a, b)
            if lo <= hi:
                runs.append((abs(k) + 2 * (2 * lo + h),
                             (k + K, h, dk + K, a, b, hi + 1)))
    runs.sort()
    return tuple(run for _, run in runs)


def _slack(at, runs, cap):
    """The leg's slack: the largest end - min(A, D) over the runs whose
    shift-0 thresholds A = max(ci - h, cj), D = max(dci - a, dcj - b)
    differ, -1 if none does, from the shift-0 corners `at` of the slices
    -K..K; the walk stops once it exceeds cap, the largest shift asked.

    Shift l adds l to every corner, so a run's thresholds are A + l and
    D + l, clamped to lo..end (see _window_runs).  The clamp to lo never
    binds: corners are >= 0, so A >= max(-h, 0) = lo, and D >= lo as
    min(a, b) = min(h, 0).  So the run agrees at l iff min(A + l, end)
    == min(D + l, end), iff A == D or l >= end - min(A, D), and the leg
    is symmetric at l iff l >= its slack: a shift only shrinks the part
    of the window where the frames can differ.
    """
    slack = -1
    for k, h, dk, a, b, end in runs:
        ci, cj = at[k]
        dci, dcj = at[dk]
        mine, theirs = max(ci - h, cj), max(dci - a, dcj - b)
        if mine != theirs:
            gap = end - min(mine, theirs)
            if gap > slack:
                slack = gap
                if slack > cap:
                    break
    return slack


def uniqueness_scan(max_leg_size, l_values, K):
    """{(leg, l): complements-equal} over all legs up to the given size.

    A negative size would scan nothing, a negative shift has no region
    and a negative window calls every leg symmetric, so each raises
    before any leg is scanned, as does a size, shift or window that is
    not an int.  A repeated shift is scanned once.

    One corners() call and one _slack walk per leg settle every shift,
    l >= slack, so a symmetric verdict stays so at every larger shift.

    Too small a K calls non-staircase legs symmetric ((12) and (1^12) at
    K = 10).  K = max_leg_size + 1 + max(l_values) covers edge_bound(v')
    + l for every leg, as edge_bound(v') = max(len v, v_0 + 1); that it
    suffices is observed (legs up to 14 against K + 10), not proven.
    """
    if _check_int(max_leg_size, "max leg size") < 0:
        raise ValueError("max leg size must be >= 0, got %d" % max_leg_size)
    l_values = tuple(map(_check_shift, dict.fromkeys(l_values)))
    # the int check comes first: the cached runs would answer True as 1
    runs = _window_runs(_check_int(K, "window"))   # raises if K < 0
    out = {}
    for v in pc.partitions_up_to(max_leg_size) if l_values else ():
        slack = _slack(corners(v, 0, range(-K, K + 1)), runs, max(l_values))
        for l in l_values:
            out[(v, l)] = l >= slack
    return out
