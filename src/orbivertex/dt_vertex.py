"""One-leg orbifold vertex series by box enumeration, on column heights
in the leg's own frame, and by the closed MacMahon-type products, each
one table of family entries: the Zn zero-leg vertex and its rotations,
times a Schur function or hook factors for Zn, and the staircase tails,
at the end, for Z2 x Z2 and Z4.  Operator transfer lives in
fock_transfer, the restricted pyramid series in rpc; all three routes
return Series truncated by total degree, to agree term by term.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import sub

from . import partition_core as pc
from .pyramid import VARS_Z2Z2, _group_names, series_from_packed
from .qseries import (
    Factors, Series, _check_cutoff, _check_exps, _check_int, _decoded, _pack,
    _pass, _steps, term,
)

_Z2Z2_SLOT = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}


# ---------------------------------------------------------------------------
# Direct enumeration
# ---------------------------------------------------------------------------


def enumerate_one_leg(legs, group, cutoff, n=None):
    """Count extra-box configurations over at most one leg cylinder.

    legs = (first, second, third) leg partitions.  Cylinder boxes weigh
    nothing; each extra box weighs one unit of its color variable.  The
    cylinders run along the first, second and third axis respectively.

    Box (r, c, h) lies h up the leg's axis (the third with no leg) over
    cell (r, c) across it, at place(r, c, h) = (x1, x2, x3), where its
    color is read.  top holds the column heights, width cells a row; leg
    cells, row -1 and column -1 stay full (cutoff + 1).  The extra boxes
    form a down-set exactly when top is weakly decreasing along rows and
    columns, so the next box of column x is addable when top[x - width]
    and top[x - 1] exceed its height; the root, the empty down-set, has
    the leg's outer corners as addable boxes.  A node with down-set D
    and addable list L forbids the boxes its ancestors skipped; a
    down-set E > D with no forbidden box holds a box of L, and lies
    under child i (D + L[i], forbidding L[:i]) for the first such L[i]
    only.  The child's list is L[i + 1:] plus the boxes L[i] completed,
    never addable before, so not forbidden: the next box of column x
    and, if at height h, of x + width and x + 1.  So each down-set of
    size <= cutoff is reached once.

    The last two levels close in one call: at room 2, last counts each
    box x of the child's list and each child of x directly, the rest of
    the list, at heights that adding x leaves alone, and the boxes x
    completes.  Their tests read top next to x, never at x: the boxes
    at x + width and x + 1 need column x above h, which adding x makes
    true.  So last writes no top and makes no call.  Each box it counts
    lies in a down-set of size <= cutoff, so its unit index is < cutoff.

    No index wraps: a box (r, c, h) with r >= len(leg) needs the boxes
    (len(leg)..r - 1, c, h), none in the leg, so r < len(leg) + cutoff
    and len(leg) + cutoff + 2 rows, border included, hold every
    successor; so do leg[0] + cutoff + 2 columns, x + 1 within its row.
    A column holds at most cutoff boxes, so a unit, the packed color
    of each height of a column, reads heights below cutoff.  The color
    has period 2 (z2z2) or n (zn) in each coordinate, so one unit is
    built per residue pair (r, c) mod period that the cells reach, at
    most min(period**2, cells).  Weights are packed ints, base
    cutoff + 1, so no digit carries; they are unpacked once, at the end.
    """
    _check_cutoff(cutoff)
    legs = pc._check_legs(legs)
    names = _group_names(group, n)
    axis = next((i for i, p in enumerate(legs) if p), 2)
    leg = legs[axis]
    period = 2 if n is None else n

    def place(r, c, h):
        return ((h, c, r), (r, h, c), (c, r, h))[axis]

    def slot(x1, x2, x3):
        if n is None:
            return _Z2Z2_SLOT[((x1 + x3) % 2, (x2 + x3) % 2)]
        return (x1 - x2) % n

    base = full = cutoff + 1
    width = pc.part(leg, 0) + cutoff + 2
    cells = [(r, c) for r in range(-1, len(leg) + cutoff + 1)
             for c in range(-1, width - 1)]
    units = {(i, j): tuple(base ** slot(*place(i, j, h))
                           for h in range(cutoff))
             for i, j in {(r % period, c % period) for r, c in cells}}
    unit = [units[(r % period, c % period)] for r, c in cells]
    top = [full if min(r, c) < 0 or c < pc.part(leg, r) else 0
           for r, c in cells]
    counts = {0: 1}
    get = counts.get

    def last(cands, w):
        for i, x in enumerate(cands):
            h = top[x]
            v = w + unit[x][h]
            counts[v] = get(v, 0) + 1
            for y in cands[i + 1:]:
                u = v + unit[y][top[y]]
                counts[u] = get(u, 0) + 1
            if top[x - width] > h + 1 and top[x - 1] > h + 1:
                u = v + unit[x][h + 1]
                counts[u] = get(u, 0) + 1
            if top[x + width] == h and top[x + width - 1] > h:
                u = v + unit[x + width][h]
                counts[u] = get(u, 0) + 1
            if top[x + 1] == h and top[x + 1 - width] > h:
                u = v + unit[x + 1][h]
                counts[u] = get(u, 0) + 1

    def rec(cands, w, room):
        # room >= 2: how many more boxes may follow the one added here
        for i, x in enumerate(cands):
            h = top[x]
            v = w + unit[x][h]
            counts[v] = get(v, 0) + 1
            nxt = cands[i + 1:]
            top[x] = g = h + 1
            if top[x - width] > g and top[x - 1] > g:
                nxt.append(x)
            if top[x + width] == h and top[x + width - 1] > h:
                nxt.append(x + width)
            if top[x + 1] == h and top[x + 1 - width] > h:
                nxt.append(x + 1)
            rec(nxt, v, room - 1) if room > 2 else last(nxt, v)
            top[x] = h

    roots = [x for x, t in enumerate(top)
             if not t and top[x - width] and top[x - 1]]
    if cutoff > 2:
        rec(roots, 0, cutoff - 1)
    elif cutoff == 2:
        last(roots, 0)
    elif cutoff == 1:
        for x in roots:
            counts[unit[x][0]] = get(unit[x][0], 0) + 1
    return series_from_packed(names, cutoff, counts)


def enumerate_3d(v, group, cutoff, n=None):
    """Vertex series for a single leg in the third slot."""
    return enumerate_one_leg(((), (), v), group, cutoff, n)


# ---------------------------------------------------------------------------
# Skew Schur specialization
# ---------------------------------------------------------------------------


def skew_schur_specialized(mu, eta, variables, cutoff, names):
    """Skew Schur function of mu/eta at finitely many monomial values.

    variables is a sequence of Terms (c, e) over `names`, checked as
    Series terms are (_check_int, _check_exps); anything else, a plain 0
    included, raises TypeError.  A Term with c = 0 is skipped, and a
    degree-zero Term must be exactly 1.  Expanded by _jacobi_trudi, of
    order min(mu_1, len(mu)), into one Series.
    """
    xi = pc.check_partition(tuple(mu))
    et = pc.check_partition(tuple(eta))
    vals = []
    for t in variables:
        c, e = t
        _check_int(c, "coefficient")
        _check_exps(e, names)
        if c:
            if not any(e) and c != 1:
                raise ValueError("degree-0 value %r is not 1" % (t,))
            vals.append((c, tuple(e)))
    out = Series(names, cutoff)
    if any(pc.part(et, r) > pc.part(xi, r) for r in range(len(et))):
        return out
    out.terms = _jacobi_trudi(xi, et, vals, cutoff, len(names),
                              pc.part(xi, 0) < len(xi))
    return out


def _jacobi_trudi(mu, eta, vals, cutoff, nvars, dual):
    """s_{mu/eta} at the values (c, e), eta inside mu, as a dict truncated
    at cutoff: det(h_{mu_i - eta_j - i + j}) of order len(mu), or when
    dual the equal det(e_{mu'_i - eta'_j - i + j}) of order mu_1, on graded
    parts at base cutoff + 1, decoded once.  Values x go in highest degree
    first, so the h_k stay small while most products pass the cutoff; x
    is a one-step _pass from h_(k-1) into h_k, k up, as h_(k-1) already
    holds x, or e_(k-1) into e_k, k down, as e_(k-1) does not.  Each
    minor, memoized by its columns, adds a pass of +-h_d (or e_d), the
    sign in its steps, over a smaller nonempty minor along its first row."""
    if dual:
        mu, eta = pc.conjugate(mu), pc.conjugate(eta)
    base = cutoff + 1
    ell = len(mu)
    need = [[mu[i] - pc.part(eta, j) + j - i for j in range(ell)]
            for i in range(ell)]
    # eta fits in mu, so need[i][i] >= 0 and kmax >= 0
    kmax = max((d for row in need for d in row), default=0)
    h = [[{} for _ in range(base)] for _ in range(kmax + 1)]
    h[0][0][0] = 1  # h_0 = 1, whose exponents pack to 0
    # with kmax = 0 no h_k takes a value
    for c, e in sorted(vals, key=lambda v: -sum(v[1])) if kmax else ():
        step = [(sum(e), _pack(e, base), c)]
        for k in range(kmax, 0, -1) if dual else range(1, kmax + 1):
            if any(h[k - 1]):
                _pass(h[k], step, cutoff, False, h[k - 1])
    memo = {(): h[0]}

    def minor(cols):
        acc = memo.get(cols)
        if acc is None:
            i = ell - len(cols)
            acc = memo[cols] = [{} for _ in range(base)]
            for p, j in enumerate(cols):
                d = need[i][j]
                if 0 <= d and any(h[d]):
                    rest = minor(cols[:p] + cols[p + 1:])
                    if any(rest):
                        _pass(acc, _steps(h[d], (-1) ** p), cutoff, False,
                              rest)
        return acc

    return _decoded(minor(tuple(range(ell))), base, nvars)


# ---------------------------------------------------------------------------
# Closed product formulas, cyclic group of order n
# ---------------------------------------------------------------------------


def _qq_exps(n, t):
    # exponent vector of the running variable product at offset t: the
    # count of u in 1..t with u = j mod n, negated over t+1..0 when t < 0
    return tuple((t - (j or n)) // n + 1 for j in range(n))


def _bar_exps(e, n):
    # indexwise negation of the color labels
    return tuple(e[(-j) % n] for j in range(n))


def _schur_values(n, work, bar):
    # the principal values qq(r), r = 0..work, of degree r, indexwise
    # negated when bar
    return [(1, _bar_exps(_qq_exps(n, r), n) if bar else _qq_exps(n, r))
            for r in range(work + 1)]


@lru_cache(maxsize=None)
def _zero_zn(n, cutoff, k=0, power=1):
    """The Zn zero-leg vertex M(1)^n prod M~(qt_a ... qt_b), 0 < a <= b < n,
    each index moved k places up mod n, to `power`, as a cached table of
    the entries that add a factor at the cutoff.
    Exact: a rotation fixes q = qt_0 ... qt_(n-1) and M(1), sends x q^j to
    the rotated x times q^j, and keeps degrees, so no truncation differs.
    Bound: M~(x) = M(x) M(x^-1) has the factors x q^j and x^-1 q^j,
    j >= 1, of degrees |x| + jn and jn - |x| >= n - |x|, so a run with
    |x| = b - a + 1 < n - cutoff adds none and is left out.  The kept
    runs have b >= a + n - 1 - cutoff; there are at most cutoff (cutoff
    + 1) / 2 of them, whatever n."""
    return (("M", (1, (0,) * n), n * power, 0),) + tuple(
        ("Mt", (1, tuple(int(a <= (i - k) % n <= b) for i in range(n))),
         power, 0)
        for a in range(1, n) for b in range(max(a, a + n - 1 - cutoff), n))


def _rotation_exponents(nu, n):
    return tuple(-2 * pc.residue_count(nu, k, n)
                 + pc.residue_count(nu, k + 1, n)
                 + pc.residue_count(nu, k - 1, n) for k in range(n))


def vertex_closed_zn(n, legs, cutoff):
    """Closed formula for the cyclic vertex with legs (lam, mu, nu).

    The paper's formula sums s_{lam'/eta} s_{mu/eta} over eta inside
    iota = (min(lam'_r, mu_r))_r, at the values qq(r - nu_r) / qq(-tm)
    for mu and the barred qq(r - nu'_r) / qq(-tl) for lam', where
    tl = len(nu) and tm = nu_1; shifts it by the monomial -(g + gbar)
    + |lam| bar(qq(-tl)) + |mu| qq(-tm), g and gbar the renormalization
    exponents of lam and, indexwise negated, of mu'; and multiplies in
    the zero-leg product and the hook and rotation factors of nu.  With
    two legs a negative exponent survives specialization, so _check_legs
    rejects them first.  With one, lam' or mu is empty, so iota = (),
    eta = () and one Schur function remains, s_{lam'} or s_mu, or
    s_() = 1 for a third leg or none; every factor of an empty leg is 1,
    so each slot takes this one path.  A side leg has nu = (), so
    tl = tm = 0, no rotation and no hook; its values are qq(r) / qq(0) =
    qq(r) and its shift -(g + gbar), to which the empty one of lam and
    mu' adds 0.  A third leg has g = gbar = 0 and |lam| = |mu| = 0.  The
    zero-leg product, its rotation by k to each power e_k != 0
    (_zero_zn) and the hooks form one Factors.  The shift has degree
    -sum(g), so the Schur function runs to cutoff + sum(g), and the
    shifted terms enter a Series at the cutoff, where a surviving
    negative exponent raises.  The product needs only the cutoff: every
    term of that Series has degree >= 0, so a factor of degree > cutoff
    lands above it.
    """
    names = _group_names("zn", n)
    _check_cutoff(cutoff)
    lam, mu, nu = pc._check_legs(legs)
    table = _zero_zn(n, cutoff)
    for k, e in enumerate(_rotation_exponents(nu, n)):
        if e:
            table += _zero_zn(n, cutoff, k, e)
    out = _product(table, 0, cutoff, names)
    # prod over the cells of nu of 1 / (1 - colored hook monomial)
    for i, j in pc.cells(nu):
        out._add((1, pc.hook_color_count(nu, i, j, n)), 1)
    # g + gbar, gbar_k the exponent of mu' at -k mod n
    muc = pc.conjugate(mu)
    g = [pc.renormalization_exponent(lam, k, n)
         + pc.renormalization_exponent(muc, -k % n, n) for k in range(n)]
    work = cutoff + sum(g)
    schur = skew_schur_specialized(pc.conjugate(lam) or mu, (),
                                   _schur_values(n, work, bool(lam)),
                                   work, names)
    master = Series(names, cutoff, {tuple(map(sub, e, g)): c
                                    for e, c in schur.terms.items()})
    return out.times(master)


# ---------------------------------------------------------------------------
# Closed products as data: the staircase formulas over four variables
# ---------------------------------------------------------------------------

# A product is a table of entries (family, x, power, shift), each the
# factor family(x; shift * ell) ** power that Factors.walk adds over q,
# the product of all the variables.  At the staircase leg
# (m, m-1, ..., 1), ell = ceil(m / 2), and "{main}" and "{other}" in a
# family name stand for the suffixes m mod 2 and 1 - m mod 2; M, Mt and
# Mh take no shift, so their entries carry 0 and _product passes none.
# x is a Term over (q0, qa, qb, qc) for Z2 x Z2 and the qt for Zn.
_A, _B, _C = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_AB, _ABC = (0, 1, 1, 0), (0, 1, 1, 1)


def _tail(family, sign, power, y1, y2, y3):
    """The staircase tail F{other}(s y3; ell) * prod F{main}(s x; ell)
    over x in (y1, y2, y1 y2 y3), to `power`, as table entries; F is the
    family, s the sign, and the y are exponent vectors.

    At m = 0 it is 1: ell = 0, and at l = 0 each of Mt0, Mt1, Mh0 and Mh1
    is a MacMahon factor times its inverse (M(x q^0) M(x)^-1, with the
    Pochhammer power -l = 0), so no tail entry adds a factor.
    """
    y123 = tuple(map(sum, zip(y1, y2, y3)))
    return ((family + "{other}", term(sign, y3), power, 1),) + tuple(
        (family + "{main}", term(sign, y), power, 1) for y in (y1, y2, y123))


# pyramid partitions: M(1)^4 M~(qa qc) M~(qb qc) / prod M~(-x) over
# x in (qa, qb, qc, qa qb qc), where M(1)^4 = M~(1)^2
_PYRAMID = (("Mt", term(1, (0, 0, 0, 0)), 2, 0),
            ("Mt", term(1, (0, 1, 0, 1)), 1, 0),
            ("Mt", term(1, (0, 0, 1, 1)), 1, 0)) + tuple(
    ("Mt", term(-1, x), -1, 0) for x in (_A, _B, _C, _ABC))
# the zero-leg vertex: the pyramid product times M~(qa qb)
_NOLEGS = _PYRAMID + (("Mt", term(1, _AB), 1, 0),)
# the restricted-pyramid corollary: the pyramid product times this tail
_RPC_TAIL = _tail("Mt", -1, -1, _A, _B, _C)
# Upsilon, the staircase leg over the zero-leg vertex
_UPSILON = (("Mt{main}", term(1, _AB), 1, 2),) + _RPC_TAIL
# phi, the bridge from the Z4 vertex to the Z2 x Z2 vertex
_PHI = (tuple(("Mh", term(1, x), 1, 0) for x in (_A, _B, _C, _ABC))
        + (("Mt", term(1, _AB), 1, 0), ("Mt{main}", term(1, _AB), 1, 2))
        + _tail("Mh", 1, -1, _A, _B, _C))
# the Z4 staircase leg over the zero-leg Z4 vertex, in (q0, q1, q2, q3)
_Z4_TAIL = _tail("Mt", 1, 1, (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def _product(table, m, cutoff, names=VARS_Z2Z2, swap=None):
    """The table's product as Factors over `names`, q their product, at
    the staircase leg of size m, an int >= 0 (True would be read as 1, a
    float as a family name).  Equal entries add powers, then each walks
    once into the one product.

    swap is the paper's branch rule: at m mod 4 in {1, 2} it relabels
    the base by swap, an involution fixing q that exchanges the tail's
    last variable y3 with q0, and takes y3 = q0.  Relabeling the whole
    product does both: swap fixes or exchanges y1 and y2, both under
    {main}.  It is done on each entry's x, before the walk, and that is
    exact: every factor of an entry is (+-x)^i q^j, so relabeling x
    relabels each factor, and keeps its degree, so the cutoff drops the
    same ones.  As swap is an involution, variable k of the relabeled x
    is variable swap[k] of x.
    """
    if _check_int(m, "m") < 0:
        raise ValueError("m must be >= 0")
    main, other, ell = str(m % 2), str(1 - m % 2), (m + 1) // 2
    powers = Counter()
    for family, (c, e), power, shift in table:
        if swap and m % 4 in (1, 2):
            e = tuple(e[k] for k in swap)
        powers[family.format(main=main, other=other), (c, e), shift] += power
    out = Factors(names, cutoff)
    for (name, x, shift), power in powers.items():
        if power:
            out.walk(name, x, shift * ell if shift else None, power)
    return out


def one_leg_zn_staircase(n, m, cutoff):
    """Branch form of the order-four vertex with a staircase third leg:
    the zero-leg Z4 vertex times _Z4_TAIL, as one table."""
    names = _group_names("zn", n)
    if n != 4:
        raise ValueError("staircase branch form needs n = 4")
    return _product(_Z4_TAIL + _zero_zn(4, cutoff), m, cutoff, names,
                    (2, 3, 0, 1)).series()


def pyramid_closed(cutoff):
    """Closed form of the pyramid partition generating function, kept as
    a library name: it equals corollary_rpc_closed(0, cutoff)."""
    return _product(_PYRAMID, 0, cutoff).series()


def upsilon(m, cutoff):
    """Staircase-leg correction factor for the zero-leg closed product."""
    return _product(_UPSILON, m, cutoff).series()


def closed_z2z2_staircase(m, cutoff):
    """The one-leg vertex at the staircase leg of size m: the zero-leg
    product times Upsilon.  At m = 0 it is the zero-leg vertex: Upsilon's
    entries are Mt0 at l = 0 and the tail, and each adds no factor (see
    _tail)."""
    return _product(_NOLEGS + _UPSILON, m, cutoff).series()


def phi(m, cutoff):
    """Bridge factor between the two one-leg vertices at a staircase leg."""
    return _product(_PHI, m, cutoff).series()


def corollary_rpc_closed(m, cutoff):
    """Closed form for the restricted pyramid series at a staircase leg:
    the pyramid product times _RPC_TAIL, which is 1 at m = 0."""
    return _product(_PYRAMID + _RPC_TAIL, m, cutoff, VARS_Z2Z2,
                    (3, 1, 2, 0)).series()
