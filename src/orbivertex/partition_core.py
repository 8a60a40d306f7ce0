"""Integer partitions: interlacing and its least continuation, edge
sequences, diagonals, hooks.

Partitions are plain tuples of weakly decreasing positive ints, trailing
zeros trimmed, so they hash and compare for free.  The empty partition
is ().

Cell convention used across the package: (i, j) is a cell of p iff
j < conjugate(p)[i], i.e. i indexes columns and j indexes rows.  Both
indices start at 0.

Border strips are not here: no route moves them, and the even-mode
exponential of the operator identities takes them from the test oracles.
The one-pair interlacing test and the single edge value, which no route
reads, are the references interlaces and edge_value of tests/paper.py.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .qseries import _check_int


def check_partition(p):
    """Raise if p is not a valid partition tuple of ints."""
    if not isinstance(p, tuple):
        raise TypeError("partition must be a tuple, got %r" % (p,))
    for x in p:
        _check_int(x, "part")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError("parts not weakly decreasing: %r" % (p,))
    if p and p[-1] <= 0:
        raise ValueError("parts must be positive (trim zeros): %r" % (p,))
    return p


def _check_legs(legs):
    """The three leg partitions, checked, at most one of them non-empty."""
    legs = tuple(legs)
    if len(legs) != 3:
        raise ValueError("need three legs, got %d" % len(legs))
    legs = tuple(check_partition(tuple(x)) for x in legs)
    if sum(1 for x in legs if x) > 1:
        raise ValueError("at most one non-empty leg")
    return legs


def parse_partition(text):
    """Parse 'a,b,c' (weakly decreasing positive ints) into a tuple.

    The empty string denotes the empty partition.  Raises ValueError on
    anything else, including increasing or non-positive parts.
    """
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError("cannot parse partition from %r" % text)
    return check_partition(parts)


def format_partition(p):
    return ",".join(str(x) for x in p)


def size(p):
    return sum(p)


def part(p, i):
    """i-th part, 0 beyond the end."""
    return p[i] if 0 <= i < len(p) else 0


def conjugate(p):
    """Transpose of the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def cells(p):
    """All cells (i, j): i = column, j = row, j-th row has p[j] cells."""
    for j, row in enumerate(p):
        for i in range(row):
            yield (i, j)


def contains_cell(p, i, j):
    return 0 <= j < len(p) and 0 <= i < p[j]


def partners_below(lam, primed=False):
    """All mu with lam >= mu in the interlacing order (finitely many).

    Unprimed partners come in ascending lexicographic order.  Primed ones
    come in the order of the unprimed partners of conjugate(lam) that they
    conjugate: each such m is carried onto conjugate(m) by rewriting only
    the rows of its strip.  Column j of lam has lamc_j = conjugate(lam)[j]
    cells and m_j lies in [lamc_{j+1}, lamc_j], so the rows
    m_j..lamc_j - 1 all have length j + 1 in lam; in conjugate(m) exactly
    those rows lose their last cell and read j.  The rows that j = 0
    empties are the last ones, so conjugate(m) keeps the first m_0.
    Memoized on (lam, bool(primed)); the result is a shared tuple.
    """
    return _partners_below(lam, bool(primed))


@lru_cache(maxsize=None)
def _partners_below(lam, primed):
    if primed:
        lamc = conjugate(lam)
        out = []
        for m in _partners_below(lamc, False):
            nu = list(lam)
            for j in range(1, len(lamc)):
                lo, hi = part(m, j), lamc[j]
                if lo < hi:
                    nu[lo:hi] = [j] * (hi - lo)
            out.append(tuple(nu[:part(m, 0)]))
        return tuple(out)
    # mu_i ranges over [lam_{i+1}, lam_i], so every choice is weakly
    # decreasing already and only its last part, bounded below by 0, can
    # need trimming
    ranges = [range(part(lam, i + 1), part(lam, i) + 1)
              for i in range(len(lam))]
    return tuple(mu[:-1] if mu and not mu[-1] else mu
                 for mu in itertools.product(*ranges))


def partners_above(lam, max_size, primed=False):
    """All mu with mu >= lam in the interlacing order and |mu| <= max_size.

    Unprimed partners come in ascending lexicographic order: the first
    row, whose only cap is the budget, runs outermost over one product of
    the lower rows' ranges (row i in [lam_i, lam_{i-1}], one row past lam
    included), each choice kept while its growth fits what the first row
    left of the budget.  Primed ones come in the order of the unprimed
    partners of conjugate(lam) at the same budget, each m carried onto
    conjugate(m) by rewriting only the rows of its strip: m_j lies in
    [lamc_j, lamc_{j-1}] for lamc = conjugate(lam), so the rows
    lamc_j..m_j - 1 all have length j in lam, and in conjugate(m) exactly
    those rows gain a cell and read j + 1.
    Memoized on (lam, max_size - |lam|, bool(primed)); the result is a
    shared tuple, empty when max_size < |lam|.
    """
    return _partners_above(lam, max_size - sum(lam), bool(primed))


@lru_cache(maxsize=None)
def _partners_above(lam, budget, primed):
    if budget < 0:
        return ()
    if primed:
        lamc = conjugate(lam)
        out = []
        for m in _partners_above(lamc, budget, False):
            nu = list(lam) + [0] * (part(m, 0) - len(lam))
            for j, hi in enumerate(m):
                lo = part(lamc, j)
                if lo < hi:
                    nu[lo:hi] = [j + 1] * (hi - lo)
            out.append(tuple(nu))
        return tuple(out)
    if not lam:
        return ((),) + tuple((x,) for x in range(1, budget + 1))
    # mu has at most one more nonzero row than lam; row i >= 1 lies in
    # [lam_i, lam_{i-1}] (lam_i = 0 past the end), cut to the budget, and
    # only the extra row can be 0
    ranges = [range(lo, min(hi, lo + budget) + 1)
              for lo, hi in zip(lam[1:] + (0,), lam)]
    base = sum(lam) - lam[0]
    lower = [(sum(tail) - base, tail[:-1] if not tail[-1] else tail)
             for tail in itertools.product(*ranges)]
    out = []
    for first in range(lam[0], lam[0] + budget + 1):
        left = budget - (first - lam[0])
        out.extend((first,) + tail for grow, tail in lower if grow <= left)
    return tuple(out)


def least_ahead(steps):
    """ahead(mu, i): the least total size of the slices that the steps
    after step i produce from a slice mu, where steps[i] = (down, primed)
    says whether step i moves down and whether it is primed.

    The least partner of each step is contained in every partner: an
    upward partner contains its source (row by row, primed or not), an
    unprimed downward partner nu of mu has nu_j >= mu_{j+1}, so it
    contains mu with its first row removed, and a primed one has
    nu_j >= mu_j - 1, so it contains mu with its first column removed.
    Each least partner is monotone under containment, so by induction
    every slice of every continuation contains the slice of the greedy
    chain that takes the least partner at each step, and the chain's
    total size bounds theirs from below.  The chain keeps mu up to the
    next downward step and moves only there; chain() sums it from one
    downward step on, memoized per call on (slice, step).

    Returns (ahead, following), following[i] the first downward step
    after step i, len(steps) if none, so the following[i] - i - 1 steps
    right after step i are the upward run that keeps mu.
    """
    n = len(steps)
    following = [n] * n
    for i in range(n - 2, -1, -1):
        following[i] = i + 1 if steps[i + 1][0] else following[i + 1]
    memo = {}

    def chain(mu, d):
        got = memo.get((mu, d))
        if got is None:
            nu = tuple(x - 1 for x in mu if x > 1) if steps[d][1] else mu[1:]
            e = following[d]
            got = (e - d) * sum(nu) + (chain(nu, e) if nu and e < n else 0)
            memo[(mu, d)] = got
        return got

    def ahead(mu, i):
        d = following[i]
        return (d - i - 1) * sum(mu) + (chain(mu, d) if mu and d < n else 0)

    return ahead, following


# ---------------------------------------------------------------------------
# Edge sequence (Maya coding)
# ---------------------------------------------------------------------------

def edge_set_members(p):
    """The finite descending list of edge-set members > -len(p)-1.

    The full edge set is this list together with every integer
    <= -len(p)-1.
    """
    return [p[j] - j - 1 for j in range(len(p))]


def edge_values(p, ts):
    """+1 per t in ts in the edge set {p_j - j - 1 : j >= 0} of p, else -1
    (far negative t give +1, far positive t -1), reading the set once."""
    low = -len(p) - 1
    members = set(edge_set_members(p))
    return [1 if t <= low or t in members else -1 for t in ts]


def edge_bound(p):
    """Some b >= 1 with edge_values -1 at t >= b and +1 at t <= -b."""
    return max(part(p, 0), len(p) + 1)


# ---------------------------------------------------------------------------
# Diagonals, residues, hooks
# ---------------------------------------------------------------------------

def _check_n(n):
    """n of Z_n, an int >= 1, checked once per count."""
    if _check_int(n, "n") < 1:
        raise ValueError("n must be >= 1, got %r" % (n,))
    return n


def residue_count(p, k, n):
    """Number of cells with i - j = k (mod n)."""
    k %= _check_n(n)
    return sum(1 for (i, j) in cells(p) if (i - j) % n == k)


def hook_color_count(p, i, j, n):
    """Residue histogram of the hook of cell (i, j).

    The hook is the cell itself, the cells to its right in the same row,
    and the cells below it in the same column; entry k counts hook cells
    with i' - j' = k (mod n).
    """
    _check_n(n)
    if not contains_cell(p, i, j):
        raise ValueError("cell (%d, %d) not in %r" % (i, j, p))
    pc = conjugate(p)
    hist = [0] * n
    hist[(i - j) % n] += 1
    for ii in range(i + 1, p[j]):          # arm
        hist[(ii - j) % n] += 1
    for jj in range(j + 1, pc[i]):         # leg
        hist[(i - jj) % n] += 1
    return tuple(hist)


def renormalization_exponent(p, k, n):
    """Sum of floor((i + k) / n) over the cells of p (i = column index)."""
    _check_n(n)
    return sum((i + k) // n for (i, j) in cells(p))


def is_staircase(p):
    """True iff p = (m, m-1, ..., 1) for some m >= 0."""
    return p == staircase(len(p))


def staircase(m):
    return tuple(range(m, 0, -1))


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, descending-lex order, as tuples."""
    if n < 0:
        return ()
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for x in range(min(maxpart, remaining), 0, -1):
            rec(remaining - x, x, prefix + (x,))

    rec(n, n, ())
    return tuple(out)


def partitions_up_to(n):
    """All partitions of size <= n."""
    out = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out
