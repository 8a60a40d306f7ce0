"""One-leg orbifold vertex series by direct box enumeration and by the
closed MacMahon-type product formulas.

The cyclic formula is the paper's skew Schur sum; the staircase products
are tables of family entries over one staircase tail, at the end.
The operator-transfer route lives in fock_transfer; the restricted
pyramid generating functions live in rpc.  Everything here returns
Series objects truncated by total degree, and the three routes are meant
to agree coefficient by coefficient.
"""

from __future__ import annotations

from collections import Counter

from . import partition_core as pc
from .pyramid import VARS_Z2Z2, _group_names, series_from_packed, zn_names
from .qseries import (
    Factors, Series, _check_cutoff, _check_exps, _check_int, family_factors,
    macmahon_factors, mul_terms, term, term_one,
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

    The configurations are the down-sets of the boxes outside the
    cylinders, each reached once: a node adds one candidate box (a box
    whose predecessors outside the cylinders are all present), and its
    children may add only the candidates after it plus the boxes it
    completes.  Per call, each box visited gets a table entry once (its
    color unit and its successors outside the cylinders), and each
    successor a count of its missing predecessors, decremented on add
    and restored on backtrack.  Weights are packed ints, base cutoff + 1
    per variable, so no digit carries; they are unpacked once, at the end.

    The first candidates are the boxes outside the cylinders whose
    predecessors all lie in the cylinder.  Such a box b has coordinate 0
    along the leg's axis: its predecessor along that axis has the same
    cross-section as b, so it too would lie outside the cylinder.  Each
    non-zero other coordinate x of b has its predecessor inside the
    cylinder, whose cross-section fits in a dims x dims square, so
    x - 1 < dims.  Hence range(dims + 1) in every coordinate holds all
    first candidates; with no leg, only the origin qualifies.
    """
    _check_cutoff(cutoff)
    lam, mu, nu = pc._check_legs(legs)
    names = _group_names(group, n)
    if group == "z2z2":
        def slot(x1, x2, x3):
            return _Z2Z2_SLOT[((x1 + x3) % 2, (x2 + x3) % 2)]
    else:
        def slot(x1, x2, x3):
            return (x1 - x2) % n

    def in_cyl(x1, x2, x3):
        return (pc.contains_cell(lam, x2, x3)
                or pc.contains_cell(mu, x3, x1)
                or pc.contains_cell(nu, x1, x2))

    dims = max(pc.part(lam, 0), len(lam), pc.part(mu, 0), len(mu),
               pc.part(nu, 0), len(nu))
    base = cutoff + 1
    # a box of a down-set of size c has coordinates at most dims + c - 1,
    # so the successors of every box entered stay below `side`
    side = cutoff + dims + 2
    unit, succs, missing = {}, {}, {}

    def preds_outside(x1, x2, x3):
        return ((x1 > 0 and not in_cyl(x1 - 1, x2, x3))
                + (x2 > 0 and not in_cyl(x1, x2 - 1, x3))
                + (x3 > 0 and not in_cyl(x1, x2, x3 - 1)))

    def enter(b):
        # table entry of box b, and predecessor counts of its successors
        x3, rest = divmod(b, side * side)
        x2, x1 = divmod(rest, side)
        unit[b] = base ** slot(x1, x2, x3)
        out = []
        for y, step in (((x1 + 1, x2, x3), 1), ((x1, x2 + 1, x3), side),
                        ((x1, x2, x3 + 1), side * side)):
            if not in_cyl(*y):
                s = b + step
                out.append(s)
                if s not in missing:
                    missing[s] = preds_outside(*y)
        succs[b] = tuple(out)

    initial = []
    for x3 in range(dims + 1):
        for x2 in range(dims + 1):
            for x1 in range(dims + 1):
                if not in_cyl(x1, x2, x3) and not preds_outside(x1, x2, x3):
                    b = x1 + side * (x2 + side * x3)
                    enter(b)
                    initial.append(b)

    counts = {0: 1}
    get = counts.get

    def rec(cands, w, room):
        # room: how many more boxes may follow the one added here
        if not room:
            for b in cands:
                x = w + unit[b]
                counts[x] = get(x, 0) + 1
            return
        for i, b in enumerate(cands):
            x = w + unit[b]
            counts[x] = get(x, 0) + 1
            nxt = cands[i + 1:]
            bs = succs[b]
            for s in bs:
                m = missing[s] - 1
                missing[s] = m
                if not m:
                    if s not in unit:
                        enter(s)
                    nxt.append(s)
            if nxt:
                rec(nxt, x, room - 1)
            for s in bs:
                missing[s] += 1

    if cutoff >= 1:
        rec(initial, 0, cutoff - 1)
    return series_from_packed(names, cutoff, counts, len(names))


def enumerate_3d(v, group, cutoff, n=None):
    """Vertex series for a single leg in the third slot."""
    return enumerate_one_leg(((), (), v), group, cutoff, n)


def symmetry_check(leg, shift, cutoff):
    """Compare the third-slot series against the leg moved 'shift' slots
    forward, with the matching cyclic variable relabeling.  Enumeration
    on both sides; group is the order-four product of two involutions.
    """
    v = pc.check_partition(tuple(leg))
    _check_int(shift, "shift")
    lhs = enumerate_3d(v, "z2z2", cutoff)
    if shift == 1:
        legs, assign = (v, (), ()), (0, 3, 1, 2)
    elif shift == 2:
        legs, assign = ((), v, ()), (0, 2, 3, 1)
    else:
        raise ValueError("shift must be 1 or 2")
    rhs = enumerate_one_leg(legs, "z2z2", cutoff).map_vars(VARS_Z2Z2, assign)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Skew Schur specialization
# ---------------------------------------------------------------------------


def _complete_homogeneous(vals, names, cutoff, kmax):
    h = [Series.one(names, cutoff)]
    h += [Series.zero(names, cutoff) for _ in range(kmax)]
    for c, e in vals:
        # h_k gains x * h_k-1, where h_k-1 already includes x
        for k in range(1, kmax + 1):
            mul_terms(h[k - 1].terms, {e: c}, cutoff, h[k].terms)
    return h


def skew_schur_specialized(mu, eta, variables, cutoff, names):
    """Skew Schur function of mu/eta at finitely many monomial values.

    variables is a sequence of Terms over `names` (or plain 0 entries),
    checked as Series terms are (_check_int, _check_exps); zero entries
    are skipped, degree-zero entries must be exactly 1.  Expanded through
    the determinant in complete homogeneous functions.
    """
    xi = pc.check_partition(tuple(mu))
    et = pc.check_partition(tuple(eta))
    vals = []
    for t in variables:
        if t == 0:
            continue
        c, e = t
        _check_int(c, "coefficient")
        _check_exps(e, names)
        if c:
            if not any(e) and c != 1:
                raise ValueError("degree-0 value %r is not 1" % (t,))
            vals.append((c, tuple(e)))
    if any(pc.part(et, r) > pc.part(xi, r) for r in range(len(et))):
        return Series.zero(names, cutoff)
    ell = len(xi)
    if ell == 0:
        return Series.one(names, cutoff)
    need = [[xi[i] - pc.part(et, j) + j - i for j in range(ell)]
            for i in range(ell)]
    kmax = max(max(row) for row in need)
    h = _complete_homogeneous(vals, names, cutoff, max(kmax, 0))
    memo = {}

    def minor(cols):
        if not cols:
            return Series.one(names, cutoff)
        got = memo.get(cols)
        if got is not None:
            return got
        i = ell - len(cols)
        acc = Series.zero(names, cutoff)
        sign = 1
        for p, j in enumerate(cols):
            d = need[i][j]
            if 0 <= d:
                block = h[d]
                if block.terms:
                    acc = acc + (block * minor(cols[:p] + cols[p + 1:])).scaled(sign)
            sign = -sign
        memo[cols] = acc
        return acc

    return minor(tuple(range(ell)))


# ---------------------------------------------------------------------------
# Closed product formulas, cyclic group of order n
# ---------------------------------------------------------------------------


def _qq_exps(n, t):
    # exponent vector of the running variable product at offset t
    e = [0] * n
    if t >= 0:
        for u in range(1, t + 1):
            e[u % n] += 1
    else:
        for u in range(t + 1, 1):
            e[u % n] -= 1
    return tuple(e)


def _bar_exps(e, n):
    # indexwise negation of the color labels
    return tuple(e[(-j) % n] for j in range(n))


def _schur_values(part, n, work, bar):
    # the monomials qq(r - part_r) / qq(-part_0), r >= 0, of degree 0..work,
    # indexwise negated when bar
    base = _qq_exps(n, -pc.part(part, 0))
    vals = []
    for r in range(work + pc.part(part, 0) + 2):
        e = tuple(a - b for a, b in
                  zip(_qq_exps(n, r - pc.part(part, r)), base))
        if bar:
            e = _bar_exps(e, n)
        if 0 <= sum(e) <= work:
            vals.append((1, e))
    return vals


def _zero_zn(n, names, cutoff):
    # the zero-leg cyclic vertex, as Factors
    qall = term(1, (1,) * n)
    out = macmahon_factors(term_one(n), qall, names, cutoff) ** n
    for a in range(1, n):
        for b in range(a, n):
            x = term(1, tuple(1 if a <= i <= b else 0 for i in range(n)))
            out = out * family_factors("Mt", names, cutoff, x, qall)
    return out


def _hook_factors(nu, n, names, cutoff):
    # prod over the cells of nu of 1 / (1 - colored hook monomial)
    return Factors(names, cutoff, Counter(
        (1, pc.hook_color_count(nu, i, j, n)) for (i, j) in pc.cells(nu)))


def _rotation_exponents(nu, n):
    return tuple(-2 * pc.residue_count(nu, k, n)
                 + pc.residue_count(nu, k + 1, n)
                 + pc.residue_count(nu, k - 1, n) for k in range(n))


def vertex_closed_zn(n, legs, cutoff):
    """Full closed formula for the cyclic vertex with legs (lam, mu, nu).

    The general formula sums over partitions eta inside
    iota = (min(lam'_r, mu_r))_r of the skew Schur product
    s_{lam'/eta} * s_{mu/eta} at the specialized values.  At most one leg
    may be non-empty: with two, a negative exponent survives
    specialization, so such input is rejected before any work.  Then lam'
    or mu is empty, iota = (), and the sum has the single term eta = (),
    which is s_{lam'} * s_mu with one factor equal to 1.  That product,
    shifted by the renormalization and leg-size monomial, times the
    MacMahon, hook and rotation factors is the result; a negative
    exponent surviving in it raises.
    """
    names = _group_names("zn", n)
    _check_cutoff(cutoff)
    lam, mu, nu = pc._check_legs(legs)
    lamc = pc.conjugate(lam)
    muc = pc.conjugate(mu)
    nuc = pc.conjugate(nu)
    g = [pc.renormalization_exponent(lam, k, n) for k in range(n)]
    gbar = [0] * n
    for k in range(n):
        gbar[(-k) % n] += pc.renormalization_exponent(muc, k, n)
    tl, tm = len(nu), pc.part(nu, 0)
    work = cutoff + sum(g) + sum(gbar) + tl * pc.size(lam) + tm * pc.size(mu)

    zero = _zero_zn(n, names, work)
    fixed = zero * _hook_factors(nu, n, names, work)
    for k, e in enumerate(_rotation_exponents(nu, n)):
        if e:
            rot = zero.map_vars(names, tuple((i + k) % n for i in range(n)))
            fixed = fixed * rot ** e

    # len(nu) is the first part of nu', so tl and tm are the offsets
    # that _schur_values reads off nu' and nu
    vals_l = _schur_values(nuc, n, work, True)
    vals_m = _schur_values(nu, n, work, False)
    schur = (skew_schur_specialized(lamc, (), vals_l, work, names)
             * skew_schur_specialized(mu, (), vals_m, work, names))
    base_l, base_m = _qq_exps(n, -tl), _qq_exps(n, -tm)
    shift = tuple(-(a + b) + pc.size(lam) * u + pc.size(mu) * v
                  for a, b, u, v in zip(g, gbar, _bar_exps(base_l, n), base_m))
    master = mul_terms(schur.terms, {shift: 1}, cutoff)
    return fixed.times(master, cutoff)


# ---------------------------------------------------------------------------
# Closed products as data: the staircase formulas over four variables
# ---------------------------------------------------------------------------

# A product is a table of entries (family, x, power, shift), each the
# factor family(x; shift * ell) ** power of qseries.family_factors, with
# q the product of all four variables.  At the staircase leg
# (m, m-1, ..., 1), ell = ceil(m / 2), and "{main}" and "{other}" in a
# family name stand for the suffixes m mod 2 and 1 - m mod 2; Mt and Mh
# take no shift, so their entries carry 0.  x is a Term over
# (q0, qa, qb, qc) for Z2 x Z2 and (q0, q1, q2, q3) for Z4.
_Q = term(1, (1, 1, 1, 1))
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


def _product(table, m, cutoff, names=VARS_Z2Z2):
    """The table's product as Factors at the staircase leg of size m, an
    int >= 0: True would be read as 1, and a float as a family name."""
    if _check_int(m, "m") < 0:
        raise ValueError("m must be >= 0")
    main, other, ell = str(m % 2), str(1 - m % 2), (m + 1) // 2
    out = Factors(names, cutoff)
    for family, x, power, shift in table:
        name = family.format(main=main, other=other)
        out = out * family_factors(name, names, cutoff, x, _Q,
                                   l=shift * ell) ** power
    return out


def _branch(m, factors, swap):
    """The paper's branch rule: at m mod 4 in {1, 2} it relabels the base
    by `swap`, an involution fixing q that exchanges the tail's last
    variable y3 with q0, and takes y3 = q0.  Relabeling the whole product
    does both: swap fixes or exchanges y1 and y2, both under {main}."""
    if m % 4 in (1, 2):
        return factors.map_vars(factors.names, swap)
    return factors


def one_leg_zn_staircase(n, m, cutoff):
    """Branch form of the order-four vertex with a staircase third leg:
    the zero-leg Z4 vertex times _Z4_TAIL."""
    if n != 4:
        raise ValueError("staircase branch form needs n = 4")
    names = zn_names(4)
    out = _product(_Z4_TAIL, m, cutoff, names) * _zero_zn(4, names, cutoff)
    return _branch(m, out, (2, 3, 0, 1)).series()


def closed_z2z2_nolegs(cutoff):
    """Zero-leg closed product over the variables q0, qa, qb, qc."""
    return _product(_NOLEGS, 0, cutoff).series()


def pyramid_closed(cutoff):
    """Closed form of the pyramid partition generating function."""
    return _product(_PYRAMID, 0, cutoff).series()


def upsilon(m, cutoff):
    """Staircase-leg correction factor for the zero-leg closed product."""
    return _product(_UPSILON, m, cutoff).series()


def closed_z2z2_staircase(m, cutoff):
    """The one-leg vertex at the staircase leg of size m: the zero-leg
    product times Upsilon."""
    return _product(_NOLEGS + _UPSILON, m, cutoff).series()


def phi(m, cutoff):
    """Bridge factor between the two one-leg vertices at a staircase leg."""
    return _product(_PHI, m, cutoff).series()


def corollary_rpc_closed(m, cutoff):
    """Closed form for the restricted pyramid series at a staircase leg:
    the pyramid product times _RPC_TAIL, which is 1 at m = 0."""
    out = _product(_PYRAMID + _RPC_TAIL, m, cutoff)
    return _branch(m, out, (3, 1, 2, 0)).series()
