"""One-leg orbifold vertex series by direct box enumeration and by the
closed MacMahon-type product formulas.

The operator-transfer route lives in fock_transfer; the restricted
pyramid generating functions live in rpc.  Everything here returns
Series objects truncated by total degree, and the three routes are meant
to agree coefficient by coefficient.
"""

from __future__ import annotations

from collections import Counter

from . import partition_core as pc
from .pyramid import VARS_Z2Z2, series_from_packed, zn_names
from .qseries import (
    Factors, Series, family_factors, macmahon_factors, mul_terms,
    term, term_mul, term_neg, term_one, term_var,
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
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    lam, mu, nu = (pc.check_partition(tuple(x)) for x in legs)
    if sum(1 for x in (lam, mu, nu) if x) > 1:
        raise ValueError("at most one non-empty leg")
    if group == "z2z2":
        names = VARS_Z2Z2

        def slot(x1, x2, x3):
            return _Z2Z2_SLOT[((x1 + x3) % 2, (x2 + x3) % 2)]
    elif group == "zn":
        if not n or n < 1:
            raise ValueError("zn group needs n >= 1")
        names = zn_names(n)

        def slot(x1, x2, x3):
            return (x1 - x2) % n
    else:
        raise ValueError("unknown group %r" % group)

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


def skew_schur_specialized(mu, eta, variables, cutoff, names=None):
    """Skew Schur function of mu/eta at finitely many monomial values.

    variables is a sequence of Terms (or plain 0/1 entries) with
    non-negative exponents; zero entries are skipped, degree-zero entries
    must be exactly 1.  Expanded through the determinant in complete
    homogeneous functions.
    """
    xi = pc.check_partition(tuple(mu))
    et = pc.check_partition(tuple(eta))
    vals = []
    for t in variables:
        if t == 0:
            continue
        if t == 1:
            t = (1, (0,) * (len(names) if names else 1))
        c, e = int(t[0]), tuple(t[1])
        if c == 0:
            continue
        if any(x < 0 for x in e):
            raise ValueError("negative exponent in value %r" % (t,))
        if not any(e) and c != 1:
            raise ValueError("degree-0 value %r is not 1" % (t,))
        vals.append((c, e))
    if names is None:
        nv = len(vals[0][1]) if vals else 1
        names = tuple("x%d" % i for i in range(nv))
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
        term(1, pc.hook_color_count(nu, i, j, n)) for (i, j) in pc.cells(nu)))


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    lam, mu, nu = (pc.check_partition(tuple(x)) for x in legs)
    if sum(1 for x in (lam, mu, nu) if x) > 1:
        raise ValueError("at most one non-empty leg")
    names = zn_names(n)
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
    fixed = fixed.series()

    base_l = _qq_exps(n, -tl)
    base_m = _qq_exps(n, -tm)
    vals_l = []
    for r in range(work + tl + 2):
        e = tuple(a - b for a, b in
                  zip(_qq_exps(n, r - pc.part(nuc, r)), base_l))
        e = _bar_exps(e, n)
        if 0 <= sum(e) <= work:
            vals_l.append(term(1, e))
    vals_m = []
    for r in range(work + tm + 2):
        e = tuple(a - b for a, b in
                  zip(_qq_exps(n, r - pc.part(nu, r)), base_m))
        if 0 <= sum(e) <= work:
            vals_m.append(term(1, e))

    schur = (skew_schur_specialized(lamc, (), vals_l, work, names)
             * skew_schur_specialized(mu, (), vals_m, work, names))
    shift = tuple(-(a + b) + pc.size(lam) * u + pc.size(mu) * v
                  for a, b, u, v in zip(g, gbar, _bar_exps(base_l, n), base_m))
    master = mul_terms(schur.terms, {shift: 1}, cutoff)
    return Series(names, cutoff, mul_terms(master, fixed.terms, cutoff))


def _staircase(m):
    """Family suffixes and shift of the staircase leg (m, m-1, ..., 1):
    (main, other, ell) with main = m mod 2 and other its complement, as
    the strings "0" and "1" that end the shifted family names, and
    ell = ceil(m / 2)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return str(m % 2), str(1 - m % 2), (m + 1) // 2


def one_leg_zn_staircase(n, m, cutoff):
    """Branch form of the order-four vertex with a staircase third leg."""
    if n != 4:
        raise ValueError("staircase branch form needs n = 4")
    main, other, ell = _staircase(m)
    names = zn_names(4)
    zero = _zero_zn(4, names, cutoff)
    if m == 0:
        return zero.series()
    q = term(1, (1, 1, 1, 1))
    if m % 4 in (0, 3):
        out, xlast = zero, term_var(4, 2)
    else:
        out, xlast = zero.map_vars(names, (2, 3, 0, 1)), term_var(4, 0)
    x1, x3 = term_var(4, 1), term_var(4, 3)
    out = out * family_factors("Mt" + other, names, cutoff, xlast, q, l=ell)
    for x in (x3, x1, term_mul(x1, x3, xlast)):
        out = out * family_factors("Mt" + main, names, cutoff, x, q, l=ell)
    return out.series()


# ---------------------------------------------------------------------------
# Closed product formulas, product of two involutions
# ---------------------------------------------------------------------------


def _standard_vars():
    return (term_var(4, 1), term_var(4, 2), term_var(4, 3),
            term(1, (1, 1, 1, 1)))


def _pyramid_factors(cutoff):
    names = VARS_Z2Z2
    xa, xb, xc, q = _standard_vars()
    out = macmahon_factors(term_one(4), q, names, cutoff) ** 4
    out = out * family_factors("Mt", names, cutoff, term_mul(xa, xc), q)
    out = out * family_factors("Mt", names, cutoff, term_mul(xb, xc), q)
    for x in (xa, xb, xc, term_mul(xa, xb, xc)):
        out = out / family_factors("Mt", names, cutoff, term_neg(x), q)
    return out


def _nolegs_factors(cutoff):
    xa, xb, _, q = _standard_vars()
    return _pyramid_factors(cutoff) * family_factors(
        "Mt", VARS_Z2Z2, cutoff, term_mul(xa, xb), q)


def closed_z2z2_nolegs(cutoff):
    """Zero-leg closed product over the variables q0, qa, qb, qc."""
    return _nolegs_factors(cutoff).series()


def pyramid_closed(cutoff):
    """Closed form of the pyramid partition generating function."""
    return _pyramid_factors(cutoff).series()


def _upsilon_factors(vars, m, cutoff, names):
    main, other, ell = _staircase(m)
    xa, xb, xc, q = vars or _standard_vars()
    xab = term_mul(xa, xb)
    out = family_factors("Mt" + main, names, cutoff, xab, q, l=2 * ell)
    out = out / family_factors("Mt" + other, names, cutoff, term_neg(xc), q, l=ell)
    for x in (xa, xb, term_mul(xab, xc)):
        out = out / family_factors("Mt" + main, names, cutoff, term_neg(x), q, l=ell)
    return out


def upsilon(vars, m, cutoff, names=VARS_Z2Z2):
    """Staircase-leg correction factor for the zero-leg closed product."""
    return _upsilon_factors(vars, m, cutoff, names).series()


def closed_z2z2_staircase(m, cutoff):
    return (_nolegs_factors(cutoff)
            * _upsilon_factors(None, m, cutoff, VARS_Z2Z2)).series()


def phi(vars, m, cutoff, names=VARS_Z2Z2):
    """Bridge factor between the two one-leg vertices at a staircase leg."""
    main, other, ell = _staircase(m)
    xa, xb, xc, q = vars or _standard_vars()
    xab = term_mul(xa, xb)
    xabc = term_mul(xab, xc)
    out = Factors(names, cutoff)
    for x in (xa, xb, xc, xabc):
        out = out * family_factors("Mh", names, cutoff, x, q)
    out = out * family_factors("Mt", names, cutoff, xab, q)
    out = out * family_factors("Mt" + main, names, cutoff, xab, q, l=2 * ell)
    out = out / family_factors("Mh" + other, names, cutoff, xc, q, l=ell)
    for x in (xa, xb, xabc):
        out = out / family_factors("Mh" + main, names, cutoff, x, q, l=ell)
    return out.series()


def corollary_rpc_closed(m, cutoff):
    """Closed form for the restricted pyramid series at a staircase leg.

    m = 0 degenerates to the plain pyramid generating function.
    """
    main, other, ell = _staircase(m)
    names = VARS_Z2Z2
    base = _pyramid_factors(cutoff)
    if m == 0:
        return base.series()
    xa, xb, xc, q = _standard_vars()
    if m % 4 in (0, 3):
        out, xlast = base, xc
    else:
        out, xlast = base.map_vars(names, (3, 1, 2, 0)), term_var(4, 0)
    out = out / family_factors("Mt" + other, names, cutoff, term_neg(xlast), q, l=ell)
    for x in (xa, xb, term_mul(xa, xb, xlast)):
        out = out / family_factors("Mt" + main, names, cutoff, term_neg(x), q, l=ell)
    return out.series()
