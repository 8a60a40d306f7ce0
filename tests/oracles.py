"""Independent recomputations used as oracles by the test suite.

Everything here is deliberately built on different machinery than src/:
series arithmetic goes through sympy polynomials, products of binomial
factors are also expanded by the graded Euler recurrence on exponent
tuples, the q-Pochhammer symbol is its factor multiset written out,
pyramids are enumerated as down-sets of the brick poset generated from
raw quiver walks, one-leg box configurations are grown as sets one box
at a time, and border strips are found by scanning skew diagrams.
Frozen literals in the tests were produced by these functions.  The
paper's brick-level definitions they check against come from paper.py.

Two sections serve the operator identities of the transfer step.  The
Fock-state helpers and the even-mode exponential E(x^2) act on the state
layout of fock_transfer.gamma_apply and weight_apply; E takes its strips
from the skew-diagram scan, since no route in src/ moves strips.  The
commutation route writes the zn and diagonal RPC brackets as a product,
over pairs of edge steps, of one exchange rule, pair_factor, with no
partner generator; it reads the edge sequence as transfer does, so each
comparison of the two adds a third route.

The last section differs:
it keeps the paper's definition of the slice corners, four cumulative
edge counters read through a four-case slice map, the least
continuation of a slice by a minimum over every chain of interlacing
partitions, and four straightforward forms of RPC-layer loops (a
per-cell frame conversion, an unpruned slice walk, a sum over the listed
families and a sum over every slice assignment, the last free of the
partner generators) as references for the shortcuts that replaced them
in src/.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import sympy
from sympy import Poly, expand


# ---------------------------------------------------------------------------
# sympy-backed truncated series
# ---------------------------------------------------------------------------


def strunc(expr, gens, D):
    """Drop monomials of total degree > D from a polynomial expression."""
    p = Poly(expand(expr), *gens)
    terms = [coef * sympy.prod(g ** m for g, m in zip(gens, monom))
             for monom, coef in p.terms() if sum(monom) <= D]
    return expand(sum(terms)) if terms else sympy.Integer(0)


def smul(a, b, gens, D):
    return strunc(expand(a * b), gens, D)


def sinv(a, gens, D):
    """Inverse of a series with constant term +-1, truncated at D."""
    c0 = Poly(expand(a), *gens).coeff_monomial(tuple([0] * len(gens)))
    assert c0 in (1, -1)
    h = strunc(c0 * a - 1, gens, D)
    out = sympy.Integer(1)
    powh = sympy.Integer(1)
    sign = -1
    for _ in range(D):
        powh = smul(powh, h, gens, D)
        if powh == 0:
            break
        out = out + sign * powh
        sign = -sign
    return strunc(c0 * out, gens, D)


def spoch(a, q, gens, D):
    """(a; q)_infinity truncated at total degree D; a, q monomial exprs."""
    out = sympy.Integer(1)
    k = 0
    while True:
        f = expand(a * q ** k)
        fd = Poly(f, *gens).total_degree()
        if f == 0 or fd > D:
            break
        assert fd > 0
        out = smul(out, 1 - f, gens, D)
        k += 1
    return out


def smac(x, q, gens, D):
    """M(x, q) truncated at total degree D; x, q monomial exprs (x may be 1)."""
    out = sympy.Integer(1)
    n = 1
    while True:
        f = expand(x * q ** n)
        if f == 0:
            break
        fd = Poly(f, *gens).total_degree()
        if fd > D:
            break
        assert fd > 0
        invf = sinv(1 - f, gens, D)
        for _ in range(n):
            out = smul(out, invf, gens, D)
        n += 1
    return strunc(out, gens, D)


def dict_mul(a, b, cap):
    """The product of two {exponent tuple: coefficient} dicts, every pair
    of terms, truncated at total degree cap, zeros dropped; the package's
    products run through qseries._pass instead."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= cap:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def term_var(nvars, idx, coef=1):
    """The Term coef * x_idx over nvars variables."""
    e = [0] * nvars
    e[idx] = 1
    return (coef, tuple(e))


def term_mul(*ts):
    """The Term product of ts, all of one arity."""
    coef = 1
    exps = None
    for c, e in ts:
        coef *= c
        exps = e if exps is None else tuple(a + b for a, b in zip(exps, e))
    return (coef, exps)


def term_pow(t, k):
    """The Term t**k; k < 0 needs the coefficient +-1.  The tests build
    the a of a factor walk with it; Factors.walk forms its own."""
    c, e = t
    if k < 0 and c not in (1, -1):
        raise ValueError("cannot invert coefficient %d" % c)
    return (c ** abs(k), tuple(x * k for x in e))


def term_neg(t):
    return (-t[0], t[1])


def series_to_dict(expr, gens):
    """Expression -> {exponent tuple: int} with zeros dropped."""
    if expr == 0:
        return {}
    p = Poly(expand(expr), *gens)
    out = {}
    for monom, coef in p.terms():
        c = int(coef)
        if c:
            out[tuple(int(m) for m in monom)] = c
    return out


def decoded_digits(parts, base, nvars):
    """qseries._decoded one digit at a time: each nonzero entry's packed
    key unpacked by nvars divmods by base, lowest variable first, with no
    tables."""
    out = {}
    for part in parts:
        for key, v in part.items():
            if v:
                digits = []
                for _ in range(nvars):
                    key, d = divmod(key, base)
                    digits.append(d)
                out[tuple(digits)] = v
    return out


def pochhammer_factors(a, q, names, cutoff):
    """(a; q)_infinity = prod_{k>=0} (1 - a q^k) as Factors: the multiset
    {a q^k: -1} over the k with deg(a q^k) <= cutoff, written out and
    entered through the checked Factors constructor, not qseries' factor
    walk.  a and q are Terms, q of positive degree."""
    from orbivertex.qseries import Factors

    (ac, ae), (qc, qe) = a, q
    assert sum(qe) > 0
    mult = {}
    k = 0
    while sum(ae) + k * sum(qe) <= cutoff:
        mult[(ac * qc ** k, tuple(x + k * y for x, y in zip(ae, qe)))] = -1
        k += 1
    return Factors(names, cutoff, mult)


def factors_series_euler(fs):
    """Factors.series() by the graded Euler recurrence on exponent tuples,
    a second expansion of the product independent of Factors.times.

    Let E = sum_i x_i d/dx_i, which multiplies a term of total degree N
    by N.  For f = prod (1 - c x^e)^(-k),

        E log f = g = sum k*|e| * sum_{r>=1} c^r x^(r*e),

    so E f = f*g, and comparing degree-N parts gives

        N * f_N = sum_{j=1..N} g_j * f_{N-j}.

    Each factor has integer coefficients, so f does, and the division by
    N is exact; a remainder raises ArithmeticError.
    """
    from orbivertex.qseries import Series

    D = fs.cutoff
    g = [{} for _ in range(D + 1)]
    for (c, e), k in fs.mult.items():
        d = sum(e)
        for r in range(1, D // d + 1):
            key = tuple(r * x for x in e)
            g[r * d][key] = g[r * d].get(key, 0) + k * d * c ** r
    f = [{(0,) * len(fs.names): 1}]
    for N in range(1, D + 1):
        acc = {}
        for j in range(1, N + 1):
            for eg, cg in g[j].items():
                for ef, cf in f[N - j].items():
                    key = tuple(a + b for a, b in zip(eg, ef))
                    acc[key] = acc.get(key, 0) + cg * cf
        part = {}
        for key, v in acc.items():
            q, r = divmod(v, N)
            if r:
                raise ArithmeticError("inexact division by %d" % N)
            if q:
                part[key] = q
        f.append(part)
    return Series(fs.names, D, {e: c for part in f for e, c in part.items()})


# ---------------------------------------------------------------------------
# pyramid bricks from raw quiver walks
# ---------------------------------------------------------------------------

_EDGES = {
    "v1": ({"0": "a", "c": "b"}, (-1, 0, 1)),
    "v2": ({"0": "b", "c": "a"}, (1, 0, 1)),
    "w1": ({"a": "0", "b": "c"}, (0, -1, 1)),
    "w2": ({"a": "c", "b": "0"}, (0, 1, 1)),
}


def brick_poset(max_depth):
    """Walk the quiver from vertex '0'; return {position: color} for all
    brick positions with depth <= max_depth."""
    seen = {(0, 0, 0): "0"}
    frontier = [((0, 0, 0), "0")]
    for _ in range(max_depth):
        nxt = []
        for pos, vert in frontier:
            for name, (step, vec) in _EDGES.items():
                if vert in step:
                    npos = tuple(p + v for p, v in zip(pos, vec))
                    nvert = step[vert]
                    if npos in seen:
                        assert seen[npos] == nvert, "color clash at %r" % (npos,)
                    else:
                        seen[npos] = nvert
                        nxt.append((npos, nvert))
        frontier = nxt
    return seen


def pyramid_downsets(max_bricks):
    """All down-sets (<= max_bricks) of the brick poset, as frozensets."""
    bricks = brick_poset(max_bricks + 1)
    positions = {p for p in bricks if p[2] <= max_bricks}

    def parents(p):
        out = []
        for _, (step, vec) in _EDGES.items():
            q = tuple(a - b for a, b in zip(p, vec))
            if q in bricks and q[2] == p[2] - 1:
                out.append(q)
        return out

    # order by depth first, so every parent precedes its children
    ordered = sorted(positions, key=lambda p: (p[2], p[0], p[1]))
    order = {p: idx for idx, p in enumerate(ordered)}
    results = []

    def addable(current, after_idx):
        for p in ordered:
            if order[p] <= after_idx or p in current:
                continue
            if all(q in current for q in parents(p)):
                yield p

    def rec(current, last_idx):
        results.append(frozenset(current))
        if len(current) == max_bricks:
            return
        for p in addable(current, last_idx):
            current.add(p)
            rec(current, order[p])
            current.remove(p)

    rec(set(), -1)
    return results, bricks


def pyramid_series_dict(max_bricks):
    """{(n0, na, nb, nc): count} over pyramids with <= max_bricks bricks."""
    downsets, bricks = pyramid_downsets(max_bricks)
    slot = {"0": 0, "a": 1, "b": 2, "c": 3}
    out = {}
    for ds in downsets:
        counts = [0, 0, 0, 0]
        for p in ds:
            counts[slot[bricks[p]]] += 1
        key = tuple(counts)
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# border strips by skew-diagram scan
# ---------------------------------------------------------------------------


def _cells(p):
    return {(i, j) for j, row in enumerate(p) for i in range(row)}


def diagonal_count(p, k):
    """Number of cells (i, j) of p (column i, row j) with i - j = k: the
    reference for fock_transfer's diagonal parities."""
    return sum(1 for (i, j) in _cells(p) if i - j == k)


def checkerboard_cells(p):
    """(cells (i, j) of pc.cells(p) with i + j even, the other cells): the
    reference for fock_transfer.checkerboard_counts, which counts by rows."""
    from orbivertex import partition_core as pc
    ev = sum(1 for i, j in pc.cells(p) if (i + j) % 2 == 0)
    return ev, sum(p) - ev


def _sym_partitions_of(n):
    from sympy.utilities.iterables import partitions as sym_parts
    out = []
    for d in sym_parts(n):
        parts = []
        for val, mult in sorted(d.items(), reverse=True):
            parts.extend([val] * mult)
        out.append(tuple(parts))
    if n == 0:
        out = [()]
    return out


def add_strips_oracle(lam, length):
    """All (mu, sign) with mu/lam a border strip of the given length."""
    out = []
    lc = _cells(lam)
    for mu in _sym_partitions_of(sum(lam) + length):
        mc = _cells(mu)
        if not lc <= mc:
            continue
        skew = mc - lc
        if len(skew) != length:
            continue
        # no 2x2 block
        if any({(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew
               for (i, j) in skew):
            continue
        # connected through edge adjacency
        todo = [next(iter(skew))]
        seen = {todo[0]}
        while todo:
            (i, j) = todo.pop()
            for q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if q in skew and q not in seen:
                    seen.add(q)
                    todo.append(q)
        if seen != skew:
            continue
        rows = len({j for (_, j) in skew})
        out.append((mu, (-1) ** (rows + 1)))
    return sorted(out)


@lru_cache(maxsize=None)
def border_strips(lam, length, sign=1):
    """add_strips_oracle as a shared tuple for sign=+1; for sign=-1 the
    (mu, strip sign) with lam/mu a border strip, read off the additions
    to the partitions of |lam| - length."""
    if sign > 0:
        return tuple(add_strips_oracle(lam, length))
    if sum(lam) < length:
        return ()
    return tuple((mu, s) for mu in _sym_partitions_of(sum(lam) - length)
                 for nu, s in border_strips(mu, length) if nu == lam)


def qq_exps_loop(n, t):
    """Exponent vector of the running variable product at offset t, one
    unit at a time: +1 at u mod n for u in 1..t, -1 for u in t+1..0."""
    e = [0] * n
    if t >= 0:
        for u in range(1, t + 1):
            e[u % n] += 1
    else:
        for u in range(t + 1, 1):
            e[u % n] -= 1
    return tuple(e)


def skew_schur_tableaux(mu, eta, values, nvars, cutoff):
    """s_{mu/eta} at the monomial values (coef, exps), as an {exponents:
    coefficient} dict truncated at total degree cutoff: the sum over the
    semistandard tableaux of shape mu/eta (rows weakly, columns strictly
    increasing), entries indexing values, of the product of the entries'
    values.  The reference for dt_vertex.skew_schur_specialized, which
    expands the Jacobi-Trudi determinant instead."""
    if len(eta) > len(mu) or any(b > a for a, b in zip(mu, eta)):
        return {}
    eta = tuple(eta) + (0,) * (len(mu) - len(eta))
    cells = [(r, c) for r in range(len(mu)) for c in range(eta[r], mu[r])]
    fill, out = {}, {}

    def rec(idx, coef, exps):
        if sum(exps) > cutoff:
            return
        if idx == len(cells):
            out[exps] = out.get(exps, 0) + coef
            return
        r, c = cells[idx]
        # the cells left of and above (r, c) come earlier, if in the shape
        lo = max(fill.get((r, c - 1), 0), fill.get((r - 1, c), -1) + 1)
        for t in range(lo, len(values)):
            vc, ve = values[t]
            fill[(r, c)] = t
            rec(idx + 1, coef * vc, tuple(a + b for a, b in zip(exps, ve)))
        fill.pop((r, c), None)

    rec(0, 1, (0,) * nvars)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Fock states and the even-mode exponential E(x^2)
# ---------------------------------------------------------------------------

# A state is the layout of fock_transfer.gamma_apply and weight_apply:
# {partition: {exponent tuple: coefficient}}, coefficients ints or
# Fractions along the way.


def empty_state(nvars):
    return {(): {(0,) * nvars: 1}}


def basis_state(lam, nvars):
    return {tuple(lam): {(0,) * nvars: 1}}


def normalize_state(state):
    """Integral Fractions become ints; zero terms and empty partitions go."""
    out = {}
    for lam, poly in state.items():
        kept = {e: int(c) if c.denominator == 1 else c
                for e, c in poly.items() if c}
        if kept:
            out[lam] = kept
    return out


def e_apply(state, sign, xsq, cutoff):
    """exp(sum_k arg^(2k)/k * strip move of 2k) on a state.

    xsq = (coef, exps) is the square of the argument and must have
    positive degree so the expansion truncates.  sign=+1 adds border
    strips of even length with their signs, sign=-1 removes them.  The
    moves of one length commute, so the exponential is the product over
    k of sum_j (arg^(2k)/k)^j / j! * (strip move of 2k)^j.
    """
    xc, xe = xsq
    step = sum(xe)
    if step <= 0:
        raise ValueError("squared argument needs positive degree")
    cur = state
    for k in range(1, cutoff // step + 1):
        nxt = {}
        for lam, poly in cur.items():
            low = min(map(sum, poly))
            j, frontier = 0, {lam: 1}
            while frontier:
                factor = Fraction(xc ** (k * j), k ** j * factorial(j))
                if factor.denominator == 1:
                    factor = factor.numerator   # ints stay ints
                room = cutoff - j * k * step
                for l2, s2 in frontier.items():
                    out = nxt.setdefault(l2, {})
                    for exps, coef in poly.items():
                        if sum(exps) <= room:
                            e2 = tuple(a + j * k * b for a, b in zip(exps, xe))
                            out[e2] = out.get(e2, 0) + coef * s2 * factor
                j += 1
                if low + j * k * step > cutoff:
                    break
                moved = {}
                for l2, s2 in frontier.items():
                    for l3, s3 in border_strips(l2, 2 * k, sign):
                        moved[l3] = moved.get(l3, 0) + s2 * s3
                frontier = {l3: s3 for l3, s3 in moved.items() if s3}
        cur = nxt
    return normalize_state(cur)


def scalar_apply(state, series, cutoff):
    """Multiply a state by a scalar Series (same variable slots)."""
    return normalize_state({lam: dict_mul(poly, series.terms, cutoff)
                            for lam, poly in state.items()})


def series_sum(*series):
    """The sum of Series over the same variables and cutoff, entered
    through the checked constructor: the package multiplies series but
    never adds them."""
    from orbivertex.qseries import Series

    first = series[0]
    terms = {}
    for s in series:
        assert (s.names, s.cutoff) == (first.names, first.cutoff)
        for e, c in s.terms.items():
            terms[e] = terms.get(e, 0) + c
    return Series(first.names, first.cutoff, terms)


def collect(state, names, cutoff):
    """Empty-partition component of a finished bra vector, as a Series;
    a coefficient that is not an integer raises."""
    from orbivertex.qseries import Series

    terms = {}
    for exps, coef in state.get((), {}).items():
        if Fraction(coef).denominator != 1:
            raise AssertionError("non-integer bracket coefficient %r" % coef)
        terms[exps] = int(coef)
    return Series(names, cutoff, terms)


# ---------------------------------------------------------------------------
# commutation route: the bracket as a product over exchanged step pairs
# ---------------------------------------------------------------------------


def pair_factor(primed_i, primed_j):
    """(c, k) of the scalar (1 - c w)^(-k), w = xy, that an up-step
    transfer with argument x followed by a down-step with argument y
    picks up when the two swap: (1 - w)^(-1) when both are primed or
    both unprimed, (1 + w) otherwise."""
    return (1, 1) if primed_i == primed_j else (-1, -1)


def commute_series(mode, v, cutoff, n=None):
    """fock_transfer.vertex_by_transfer in mode zn or rpc_diagonal, leg v
    in the third slot, as the product over every up-step i and later
    down-step j of the edge sequence of conjugate(v) of
    pair_factor(primed_i, primed_j) at w = the product of the one-cell
    weights of the slices -(t + 1), t = i..j-1.

    In these modes every cell of a slice has one color, so swapping every
    such pair until the down-steps come first leaves this product times
    <empty|empty>.  A pair with j - i > cutoff has degree > cutoff.
    Up-steps lie at t <= len(v) - 1 and down-steps at t >= -v_0, so a
    pair with an end outside |t| <= cutoff + max(len(v), v_0) + 1 is
    such a pair.  Steps are primed at even t in rpc_diagonal, never in
    zn.  No partner generator, weight selector or transfer argument
    check is read.
    """
    from orbivertex.pyramid import COLOR_SLOT, VARS_Z2Z2, zn_names
    from orbivertex.qseries import Factors

    if mode == "zn":
        names = zn_names(n)
        slot = lambda s: s % n
    elif mode == "rpc_diagonal":
        names = VARS_Z2Z2
        slot = lambda s: COLOR_SLOT["0bca"[s % 4]]
    else:
        raise ValueError("commute_series takes mode zn or rpc_diagonal")
    v = tuple(v)
    conj = tuple(sum(1 for x in v if x > j) for j in range(v[0] if v else 0))
    members = {conj[j] - j - 1 for j in range(len(conj))}
    window = cutoff + max(len(v), len(conj)) + 1
    up = {t: t < -len(conj) or t in members
          for t in range(-window, window + 1)}
    primed = lambda t: mode == "rpc_diagonal" and t % 2 == 0
    mult = {}
    for i in range(-window, window + 1):
        if not up[i]:
            continue
        exps = [0] * len(names)
        for j in range(i + 1, min(i + cutoff, window) + 1):
            exps[slot(-j)] += 1
            if not up[j]:
                c, k = pair_factor(primed(i), primed(j))
                key = (c, tuple(exps))
                mult[key] = mult.get(key, 0) + k
    return Factors(names, cutoff, mult).series()


# ---------------------------------------------------------------------------
# one-leg box configurations as down-sets, grown one box at a time
# ---------------------------------------------------------------------------

# A group is given by the weight vectors of its generators on C^3 and
# their orders; box (a, b, c) is the monomial x^a y^b z^c, and its
# character (one weight per generator) picks its variable.  Z2 x Z2 acts
# by (x, y, z) -> (-x, y, -z) and (x, -y, -z); Zn by (w x, y / w, z).
_Z2Z2_VARIABLE = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}   # q0 qa qb qc


def _character(box, weights, order):
    return tuple(sum(w * x for w, x in zip(ws, box)) % order for ws in weights)


def one_leg_downsets_series(legs, group, cutoff, n=None):
    """{exponents: count} over the down-sets of size <= cutoff of the box
    poset N^3 minus the leg cylinders.

    legs = (first, second, third): cylinders along the first, second and
    third axis, cross-section cells (column, row).  Every down-set of
    size k + 1 is a down-set of size k plus one minimal box of the rest,
    so the sets are grown level by level and deduplicated as frozensets.
    """
    lam, mu, nu = (_cells(tuple(p)) for p in legs)
    if group == "z2z2":
        weights, order, nvars = ((1, 0, 1), (0, 1, 1)), 2, 4
        variable = _Z2Z2_VARIABLE.__getitem__
    else:
        weights, order, nvars = ((1, -1, 0),), n, n
        variable = lambda ch: ch[0]

    def in_cyl(box):
        a, b, c = box
        return (b, c) in lam or (c, a) in mu or (a, b) in nu

    def preds(box):
        return [tuple(x - (j == i) for j, x in enumerate(box))
                for i in range(3) if box[i]]

    def succs(box):
        return [tuple(x + (j == i) for j, x in enumerate(box)) for i in range(3)]

    def addable(current, box):
        return (box not in current and not in_cyl(box)
                and all(p in current or in_cyl(p) for p in preds(box)))

    # a cube well past the leg, so that no bound on the minimal boxes is
    # taken from the code under test
    side = cutoff + 2 * sum(sum(p) for p in legs) + 1
    minimal = [box for box in itertools.product(range(side), repeat=3)
               if addable(frozenset(), box)]
    out = {(0,) * nvars: 1}
    level = {frozenset()}
    for _ in range(cutoff):
        grown = set()
        for current in level:
            near = set(minimal)
            for box in current:
                near.update(succs(box))
            for box in near:
                if addable(current, box):
                    grown.add(current | {box})
        for ds in grown:
            exps = [0] * nvars
            for box in ds:
                exps[variable(_character(box, weights, order))] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
        level = grown
    return out


# ---------------------------------------------------------------------------
# RPC layer: the paper's epsilon-counter corners, per-cell window
# comparison, unpruned interlacing walk and the generating function summed
# over listed or over all families
# ---------------------------------------------------------------------------


class EpsilonTable:
    """The four cumulative edge counters of a leg partition.

    eps(1, x) counts +1 edge values of the conjugate at even spots 0..2x,
    eps(2, x) the same at odd spots 1..2x+1; eps(3, x) counts -1 values at
    even spots -2..-2x, eps(4, x) at odd spots -1..-2x+1.  All four are
    non-decreasing, step by 0/1 and stabilize; rho1/rho2 are the limits
    paired for the row/column corner offsets.
    """

    def __init__(self, v):
        from orbivertex import partition_core as pc

        self.v = pc.check_partition(tuple(v))
        self.conj = pc.conjugate(self.v)
        self.bound = pc.edge_bound(self.conj) + 2
        # every spot read below lies in -2 * bound .. 2 * bound - 1
        low = -2 * self.bound
        values = pc.edge_values(self.conj, range(low, 2 * self.bound))
        e = lambda t: values[t - low]
        self._e1 = list(itertools.accumulate((e(2 * t) + 1) // 2
                                             for t in range(self.bound)))
        self._e2 = list(itertools.accumulate((e(2 * t + 1) + 1) // 2
                                             for t in range(self.bound)))
        self._e3 = list(itertools.accumulate((1 - e(-2 * t)) // 2
                                             for t in range(1, self.bound + 1)))
        self._e4 = list(itertools.accumulate((1 - e(-2 * t + 1)) // 2
                                             for t in range(1, self.bound + 1)))
        self.rho1 = max(self._e2[-1], self._e4[-1])
        self.rho2 = max(self._e1[-1], self._e3[-1])

    def eps(self, which, x):
        if which in (1, 2):
            if x < 0:
                return 0
            table = self._e1 if which == 1 else self._e2
            return table[min(x, len(table) - 1)]
        if which in (3, 4):
            if x < 1:
                return 0
            table = self._e3 if which == 3 else self._e4
            return table[min(x - 1, len(table) - 1)]
        raise ValueError("which must be 1..4")


def region_by_eps(v, l, k, table=None):
    """The corner of slice k in the paper's form, l + rho - eps, through
    the four-case slice map: the reference for rpc.corners."""
    t = table if table is not None else EpsilonTable(v)
    if k % 2 == 0:
        h = k // 2
        if h <= 0:
            return (l + t.rho1 - t.eps(2, -h - 1), l + t.rho2 - t.eps(1, -h - 1))
        return (l + t.rho1 - t.eps(4, h), l + t.rho2 - t.eps(3, h))
    h = (k + 1) // 2
    if h <= 0:
        return (l + t.rho1 - t.eps(2, -h - 1), l + t.rho2 - t.eps(1, -h))
    return (l + t.rho1 - t.eps(4, h), l + t.rho2 - t.eps(3, h - 1))


def region_complement_equal_per_cell(v, l, K):
    """Whether the region complements of leg v at shift l agree across
    frames inside the window K, as rpc.uniqueness_scan decides, converting
    every window cell on its own: antidiagonal address -> physical
    position -> diagonal address."""
    from orbivertex.pyramid import ANTI, DIAG
    from orbivertex.rpc import corners
    from paper import address_to_position, position_to_address

    at = {k: corners(v, l, (k,))[0] for k in range(-K, K + 1)}
    for k in range(-K, K + 1):
        ci, cj = at[k]
        for i in range(K + 1):
            for j in range(K + 1):
                pos = address_to_position(ANTI, k, i, j)
                dk, di, dj = position_to_address(DIAG, *pos)
                if abs(dk) > K or di > K or dj > K:
                    continue
                dci, dcj = at[dk]
                if (i >= ci and j >= cj) != (di >= dci and dj >= dcj):
                    return False
    return True


def step_patterns(longest):
    """Every tuple of at most `longest` sweep steps (down, primed): up,
    primed up, down and primed down."""
    kinds = list(itertools.product((False, True), repeat=2))
    return [p for n in range(longest + 1)
            for p in itertools.product(kinds, repeat=n)]


@lru_cache(maxsize=None)
def _interlacing_options(prev, down, primed, top):
    """Every partition of size <= top that may follow prev on a step
    (down, primed), found by testing paper.interlaces on each."""
    from orbivertex import partition_core as pc
    from paper import interlaces

    return tuple(nu for nu in pc.partitions_up_to(top)
                 if (interlaces(prev, nu, primed) if down
                     else interlaces(nu, prev, primed)))


@lru_cache(maxsize=None)
def least_continuation(mu, pattern, top=7):
    """The least total size of the slices that the steps of pattern, a
    tuple of (down, primed) pairs, produce from the slice mu, over every
    chain whose slices have size <= top: the reference for
    partition_core.least_ahead, the bound of both sweeps.  An upward
    step is offered every partner up to size top, the ones strictly
    larger than mu included."""
    if not pattern:
        return 0
    (down, primed), rest = pattern[0], pattern[1:]
    return min(sum(nu) + least_continuation(nu, rest, top)
               for nu in _interlacing_options(mu, down, primed, top))


def interlacing_families_unpruned(v, budget):
    """rpc.interlacing_families walking every slice out to the far end of
    its range, with no early stop once the families can only stay empty."""
    from orbivertex import partition_core as pc
    from paper import edge_value

    conj = pc.conjugate(v)
    b = pc.edge_bound(conj)
    left = -(budget + b + 2)
    right = budget + b + 2
    out = []

    def rec(s, prev, used, current):
        if s > right:
            if not prev:
                out.append(dict(current))
            return
        primed = (s % 2 == 0)
        if edge_value(conj, -s) == 1:
            options = pc.partners_below(prev, primed)
        else:
            options = pc.partners_above(prev, budget - used, primed)
        for opt in options:
            cost = sum(opt)
            if used + cost > budget:
                continue
            if opt:
                if used + cost + max(0, -b - s) * cost > budget:
                    continue
                current[s] = opt
                rec(s + 1, opt, used + cost, current)
                del current[s]
            else:
                rec(s + 1, (), used, current)

    rec(left, (), 0, {})
    return out


def generating_function_listed(v, frame, cutoff):
    """rpc.generating_function as a sum over the families listed by
    interlacing_families_unpruned, not by rpc's own walk, adding each
    slice's color counts as exponent tuples (no packed weights and no
    memo).  The families are re-based at their region corners, so the
    shift l does not enter."""
    from orbivertex.pyramid import VARS_Z2Z2
    from orbivertex.qseries import Series
    from orbivertex.rpc import corners, slice_color_counts

    parity = {}
    terms = {}
    for family in interlacing_families_unpruned(v, cutoff):
        exps = [0, 0, 0, 0]
        for k, eta in family.items():
            if k not in parity:
                parity[k] = sum(corners(v, 0, (k,))[0]) % 2
            counts = slice_color_counts(k, eta, frame, parity[k])
            exps = [a + c for a, c in zip(exps, counts)]
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return Series(VARS_Z2Z2, cutoff, terms)


def generating_function_brute(v, frame, cutoff):
    """rpc.generating_function without the partner generators: every
    assignment of partitions (from sympy) to the slices
    |k| <= cutoff + b + 2, b = edge_bound(conj), with at most `cutoff`
    bricks in all, kept iff paper.check_type_interlacing accepts it (it
    reads paper.interlaces), each slice weighing its color counts at the
    parity of its corner's coordinate sum."""
    from orbivertex import partition_core as pc
    from orbivertex.pyramid import VARS_Z2Z2
    from orbivertex.qseries import Series
    from orbivertex.rpc import corners, slice_color_counts
    from paper import check_type_interlacing

    span = cutoff + pc.edge_bound(pc.conjugate(v)) + 2
    slices = range(-span, span + 1)
    by_size = [_sym_partitions_of(n) for n in range(1, cutoff + 1)]
    parity = {k: sum(at) % 2 for k, at in zip(slices, corners(v, 0, slices))}
    terms = {}

    def rec(i, left, family):
        if i == len(slices):
            if check_type_interlacing(family, v):
                exps = [0, 0, 0, 0]
                for k, eta in family.items():
                    counts = slice_color_counts(k, eta, frame, parity[k])
                    exps = [a + c for a, c in zip(exps, counts)]
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + 1
            return
        rec(i + 1, left, family)
        for n, etas in enumerate(by_size[:left], 1):
            for eta in etas:
                family[slices[i]] = eta
                rec(i + 1, left - n, family)
            del family[slices[i]]

    rec(0, cutoff, {})
    return Series(VARS_Z2Z2, cutoff, terms)
