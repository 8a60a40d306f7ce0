"""Transfer-matrix evaluation of half-vertex operator products.

The two public operators are the transfer step on a plain state, a row
vector over the partition basis whose coefficients are truncated
polynomials: a dict {partition: {exponent tuple: coefficient}} with one
entry per partition whose polynomial has at least one term.
gamma_apply() moves to interlacing partners (plain or primed) once per
partition, whatever its polynomial; weight_apply() is diagonal and
multiplies a partition's whole polynomial by one monomial.  They are
kept plain for the operator identities of the tests, whose even-mode
exponential E(x^2) and state helpers live with the test oracles.

vertex_by_transfer() assembles the weighted products whose brackets give
the zero- and one-leg orbifold series and the two restricted pyramid
series, evaluating each product once on a window its docstring proves
large enough.  Its bracket does not call the public operators: it walks
its own state, {partition: {degree: {packed exponents: coefficient}}},
in which one step is a transition with argument 1 followed by the next
slice's weight, truncated as it goes and pruned by the least size that
the steps still ahead force on the slices to come.  A slice weighs its
cells by one or two colors: one color table per mode gives the pair of
each kind of slice, and the slice's corner parity, read off the leg's
diagonals, swaps it.
"""

from __future__ import annotations

from . import partition_core as pc
from .pyramid import _DIAG_COLOR, COLOR_SLOT, VARS_Z2Z2, _group_names, zn_names
from .qseries import Series, _check_cutoff


def checkerboard_counts(lam):
    """(cells with row = col mod 2, the other cells)."""
    ev = od = 0
    for i, j in pc.cells(lam):
        if (i + j) % 2 == 0:
            ev += 1
        else:
            od += 1
    return ev, od


def weight_apply(state, exps_fn, cutoff):
    """Diagonal step: multiply each partition's polynomial by its monomial.

    exps_fn(lam) is evaluated once per partition; terms pushed past the
    cutoff are dropped, and so is a partition left with none.
    """
    out = {}
    for lam, poly in state.items():
        w = exps_fn(lam)
        room = cutoff - sum(w)
        moved = {tuple(a + b for a, b in zip(exps, w)): coef
                 for exps, coef in poly.items() if sum(exps) <= room}
        if moved:
            out[lam] = moved
    return out


def gamma_apply(state, tau, primed, arg, cutoff):
    """Transition step with argument monomial arg = (coef, exps).

    tau=+1 moves to partitions interlacing above the current one, tau=-1
    below; the argument enters with the absolute size change as exponent.
    Partners are enumerated once per partition.  Upward growth is bounded
    by the lowest degree in that partition's polynomial, and each term is
    then checked against the cutoff on its own.  An upward step has
    infinitely many partners, so its argument must have positive degree
    for the truncation to bound them.
    """
    ac, ae = arg
    step = sum(ae)
    if tau == 1 and step <= 0:
        raise ValueError("upward argument needs positive degree")
    out = {}
    for lam, poly in state.items():
        size = sum(lam)
        if tau == 1:
            grow = (cutoff - min(map(sum, poly))) // step
            nxts = pc.partners_above(lam, size + max(0, grow), primed)
        else:
            nxts = pc.partners_below(lam, primed)
        for mu in nxts:
            diff = abs(sum(mu) - size)
            room = cutoff - diff * step
            factor = ac ** diff
            moved = {tuple(a + diff * b for a, b in zip(e, ae)): c * factor
                     for e, c in poly.items() if sum(e) <= room}
            if not moved:
                continue
            target = out.get(mu)
            if target is None:
                out[mu] = moved
            else:
                for e, c in moved.items():
                    target[e] = target.get(e, 0) + c
    return out


# ---------------------------------------------------------------------------
# slice colors
# ---------------------------------------------------------------------------

# The colors of a slice's cells with row = col mod 2 and of the others, at
# corner parity 0, for an even slice, an odd slice s > 0 and an odd slice
# s < 0; corner parity 1 swaps the pair.  Kept apart from rpc's own
# color pairs on purpose: one color bug must not make two routes agree.
_PAIRS = {"standard": ("0c", "ab", "ba"),
          "rpc_antidiagonal": ("0c", "ba", "ab")}


def _slice_slots(mode, s, n, parity):
    """(variable slot of the cells of slice s with row = col mod 2, slot
    of the others) at the slice's corner parity, which only standard and
    rpc_antidiagonal read."""
    if mode == "zn":
        return s % n, s % n
    if mode == "rpc_diagonal":
        slot = COLOR_SLOT[_DIAG_COLOR[s % 4]]
        return slot, slot
    pair = _PAIRS[mode][0 if s % 2 == 0 else 1 if s > 0 else 2]
    return COLOR_SLOT[pair[parity]], COLOR_SLOT[pair[1 - parity]]


def _diagonal_parities(v, ks):
    """[number of cells of v with column - row = k, mod 2, for k in ks],
    read from one pass over v's rows.  Row j holds one cell on each
    diagonal -j .. v_j - j - 1, so it flips the parity of the diagonals
    from -j on and flips it back from v_j - j on; the parity of diagonal
    k is the sum of the flips at or below k, mod 2."""
    low = -len(v)
    flips = [0] * (pc.part(v, 0) - low + 1)
    for j, x in enumerate(v):
        flips[-j - low] ^= 1
        flips[x - j - low] ^= 1
    parity = 0
    for i, f in enumerate(flips):
        parity = flips[i] = parity ^ f
    # every flip has its pair at or below v_0, so the parity is 0 past it
    return [flips[k - low] if 0 <= k - low < len(flips) else 0 for k in ks]


def _bracket(v, cutoff, mode, n, window):
    """<empty| weighted transfer product on slices -window..window |empty>.

    The walk keeps its own layout, {partition: {degree: {packed
    exponents: coefficient}}}: exponent tuples packed into one int with
    base cutoff + 1 per variable (degrees stay <= cutoff, so no digit
    carries), grouped by total degree.  Step t moves each partition to its
    interlacing partners and multiplies in the weight of the partner's
    slice -(t + 1) at once, so a weight step is one int addition per term
    and a partner takes only the degree buckets that the size its least
    continuation still forces on it (_least_ahead, vertex_by_transfer)
    leaves <= cutoff.  The partner's weight is read off the two slots of
    its slice (_slice_slots), once per partner and step, with the
    slice's corner parity, read before the walk by _diagonal_parities:
    under standard the parity of the leg's cells on the slice's diagonal,
    under rpc_antidiagonal that parity XOR |v| mod 2 (below).
    The codec is private to this route on purpose: one codec bug must not
    make two routes agree.

    Antidiagonal corner parity.  rpc.corners puts the corner of slice k
    at shift 0 at (rows - #{odd b < -k}, cols - #{even b < -k}) for
    k <= 0 and (rows - #{even a < k}, cols - #{odd a < k}) for k > 0,
    where a_i = v_i - i - 1 and b_i = v'_i - i - 1, i < d, are v's
    Frobenius coordinates (d its Durfee size), rows = max(B_o, A_e) and
    cols = max(B_e, A_o), A_e and A_o counting the even and odd a, B_e
    and B_o the even and odd b.  The corner sum is rows + cols minus
    #{b < -k} or #{a < k}.  Row i of v meets diagonal k >= 0 iff
    a_i >= k, and column i meets diagonal k <= 0 iff b_i >= -k, so that
    sum is rows + cols - d + (cells of v on diagonal k) for every k.  As
    A_e + A_o = B_e + B_o = d, B_o - A_e = A_o - B_e, so rows + cols is
    A_o + B_o or A_e + B_e = 2d - (A_o + B_o), in both cases A_o + B_o
    mod 2; and |v| = sum (a_i + b_i + 1) = A_o + B_o + d mod 2.  Hence
    rows + cols - d = |v| mod 2, and the corner parity of slice k is the
    diagonal parity of k XOR |v| mod 2; this route reads no corner.

    Retiring finished terms.  Once every step left in the window moves
    down (edge value -1), the empty partition's terms are final: the only
    partner below () is (), primed or not, and its weight, of degree
    |()| = 0, is the constant 1, so each later step would copy them
    unchanged (with r = 0 the room of () is the full cutoff).  They leave
    the walk into the result instead, at every such step, since a
    non-empty partition may still move down to ().
    """
    names = zn_names(n) if mode == "zn" else VARS_Z2Z2
    base = cutoff + 1
    powers = [base ** i for i in range(len(names))]
    conj = pc.conjugate(v)
    rpc = mode in ("rpc_antidiagonal", "rpc_diagonal")
    steps = range(-window, window + 1)
    slices = [-(t + 1) for t in steps]
    parities = [0] * len(slices)
    if mode in ("standard", "rpc_antidiagonal"):
        flip = sum(v) % 2 if mode == "rpc_antidiagonal" else 0
        parities = [p ^ flip for p in _diagonal_parities(v, slices)]
    taus = pc.edge_values(conj, steps)
    # runs[i]: the upward steps right after step i, inside the window
    runs = [0] * len(taus)
    for i in range(len(taus) - 2, -1, -1):
        if taus[i + 1] == 1:
            runs[i] = runs[i + 1] + 1
    ahead = _least_ahead([(tau == -1, rpc and t % 2 == 0)
                          for t, tau in zip(steps, taus)])
    # every step from index settled on moves down
    settled = 1 + max((i for i, tau in enumerate(taus) if tau == 1),
                      default=-1)
    # the weight step of slice -window, on the empty partition, is 1
    state = {(): {0: {0: 1}}}
    done = {}
    for i, (t, tau, r) in enumerate(zip(steps, taus, runs)):
        if i >= settled:
            _retire(state, done)
        primed = rpc and t % 2 == 0
        a, b = _slice_slots(mode, slices[i], n, parities[i])
        pa, pb = powers[a], powers[b]
        seen = {}
        out = {}
        for lam, buckets in state.items():
            low = min(buckets)
            if tau == 1:
                nxts = pc.partners_above(lam, (cutoff - low) // (1 + r), primed)
            else:
                nxts = pc.partners_below(lam, primed)
            for mu in nxts:
                hit = seen.get(mu)
                if hit is None:
                    size = sum(mu)
                    room = cutoff - size - ahead(mu, i)
                    w = None
                    if room >= 0:
                        if a == b:
                            w = size * pa
                        else:
                            ev, od = checkerboard_counts(mu)
                            w = ev * pa + od * pb
                    hit = seen[mu] = (size, room, w)
                size, room, w = hit
                if room < low:
                    continue
                target = out.get(mu)
                if target is None:
                    target = out[mu] = {}
                for d, terms in buckets.items():
                    if d > room:
                        continue
                    dst = target.get(d + size)
                    if dst is None:
                        target[d + size] = {k + w: c for k, c in terms.items()}
                    else:
                        for k, c in terms.items():
                            k += w
                            dst[k] = dst.get(k, 0) + c
        state = out
    _retire(state, done)
    terms = {}
    for k, c in done.items():
        exps = []
        for _ in names:
            k, x = divmod(k, base)
            exps.append(x)
        terms[tuple(exps)] = c
    return Series(names, cutoff, terms)


def _least_ahead(steps):
    """ahead(mu, i): the least total size of the slices that the steps
    after step i produce from a slice mu, where steps[i] = (down, primed)
    says whether step i moves down and whether it is primed.

    The least partner of each step is contained in every partner: an
    upward partner contains its source, an unprimed downward partner nu
    of mu has nu_j >= mu_{j+1}, so it contains mu with its first row
    removed, and a primed one has nu_j >= mu_j - 1, so it contains mu
    with its first column removed.  Each least partner is monotone under
    containment, so by induction every slice of every continuation
    contains the slice of the greedy chain that takes the least partner
    at each step, and the chain's total size bounds theirs from below.
    The chain keeps mu up to the next downward step and moves only
    there; chain() sums it from one downward step on, memoized per call
    on (slice, step).
    """
    n = len(steps)
    # following[i]: the first downward step after step i, n if none
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

    return ahead


def _retire(state, done):
    """Move the terms of the empty partition out of the walk's state into
    done, {packed exponents: coefficient}."""
    for bucket in state.pop((), {}).values():
        for k, c in bucket.items():
            done[k] = done.get(k, 0) + c


def _transfer_args(group, leg, cutoff, mode, n):
    """Checked (leg, mode, n, window) of vertex_by_transfer."""
    _check_cutoff(cutoff)
    v = pc.check_partition(tuple(leg))
    _group_names(group, n)
    modes = (("zn",) if group == "zn"
             else ("standard", "rpc_antidiagonal", "rpc_diagonal"))
    mode = modes[0] if mode is None else mode
    if mode not in modes:
        raise ValueError("unknown mode %r; group %s takes mode %s"
                         % (mode, group, " or ".join(modes)))
    t0 = max(len(v), pc.part(v, 0)) + 1
    window = cutoff + t0 + 4
    if window % 2:
        window += 1
    return v, mode, n, window


def vertex_by_transfer(group, leg, cutoff, mode=None, n=None):
    """Vertex or restricted-pyramid series via operator transfer.

    group "z2z2" with mode standard (the default) / rpc_antidiagonal /
    rpc_diagonal, or group "zn" (needs n >= 1; mode zn, the default).
    Another mode under zn, standard included, or an n under z2z2,
    raises.  The leg sits in the third slot; the other two are empty.

    Why the window suffices: the weight of a slice is a monomial of
    total degree equal to its size (_slice_slots splits its cells
    between one or two color variables), so every non-empty slice costs
    at least 1 degree.  Outside the leg region, |t| >= t0, the
    transitions are fixed: on the left slices can only grow towards
    t = -t0, and on the right they can only shrink away from t = t0.  A
    slice non-empty at |t| = t0 + k therefore forces k + 1 non-empty
    slices, more than the cutoff allows once k >= cutoff, so every window
    of at least cutoff + t0 gives the same truncation.  The window used
    adds a margin of 4, rounded up to even, and the product is evaluated
    on it once.  The tests and the `verify` command compare it with the
    minimum window and with the window + 2.

    Why truncating inside each step loses nothing: every exponent is
    non-negative, so no later step lowers a term's degree.  A term of
    degree d that moves to the partner mu at once takes the weight of
    mu's slice, which adds exactly |mu|.  Every later slice of the
    window, up to the last, contains the slice that the least
    continuation of mu has there, the chain that takes at each later
    step the least partner: mu itself upward, mu without its first row
    downward and unprimed, mu without its first column downward and
    primed; so the later weight steps add at least ahead, that chain's
    total size (_least_ahead proves it).  The term's final degree is
    therefore at least d + |mu| + ahead.  A term with
    d + |mu| + ahead > cutoff can reach no coefficient of degree
    <= cutoff, and the walk drops it when it moves (d > room, with
    room = cutoff - |mu| - ahead); a term with equality is kept.  Every
    term of a partition has degree at least its lowest degree, low, so a
    partner with room < low receives nothing and is skipped.  The chain
    keeps mu through the r steps right after this one, inside the
    window, whose edge value is +1, so ahead >= r * |mu|, and upward
    only partners of size <= (cutoff - low) // (1 + r) are enumerated at
    all.  Left of the leg region every step is upward, so a slice k
    steps left of t = -t0 holds at most cutoff / (k + 1) cells, and the
    margin steps carry only the empty partition.
    """
    v, mode, n, window = _transfer_args(group, leg, cutoff, mode, n)
    return _bracket(v, cutoff, mode, n, window)


def _window_pair(group, leg, cutoff, n=None):
    """(window, bracket on window, bracket on window + 2) for `verify`."""
    v, mode, n, window = _transfer_args(group, leg, cutoff, None, n)
    return (window, _bracket(v, cutoff, mode, n, window),
            _bracket(v, cutoff, mode, n, window + 2))
