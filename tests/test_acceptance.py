"""Acceptance battery: one test per criterion, exact equality throughout.

Every comparison is coefficientwise at tolerance zero. Degrees and basis
sizes here are the contract; the unit test files and the TIER1 rows of
tests/test_routes.py reach D=22.
"""

import random
from collections import Counter

from orbivertex import partition_core as pc
from orbivertex.dt_vertex import (
    closed_z2z2_staircase, corollary_rpc_closed, enumerate_3d, phi,
    pyramid_closed, upsilon, vertex_closed_zn,
)
from orbivertex.fock_transfer import (
    checkerboard_counts, gamma_apply, vertex_by_transfer, weight_apply,
)
from orbivertex.pyramid import ANTI, DIAG, VARS_Z2Z2, enumerate_pyramids, pyramid_series
from orbivertex.qseries import Factors, Series, term
from oracles import (
    basis_state, collect, e_apply, empty_state, normalize_state, pair_factor,
    pochhammer_factors, scalar_apply, series_sum, term_mul, term_pow, term_var,
)
from orbivertex.rpc import generating_function, interlacing_families, uniqueness_scan
from paper import (
    PyramidPartition, edge_value, interlaces, realize, restrict,
    restrict_positions,
)

D = 6
XY = ("x", "y")
X = (1, (1, 0))
XSQ = (1, (2, 0))
Y = (1, (0, 1))
YSQ = (1, (0, 2))


def basis(lam):
    return basis_state(lam, 2)


def small_basis(maxsize=4):
    return [lam for n in range(maxsize + 1) for lam in pc.partitions_of(n)]


def eq(a, b):
    return normalize_state(a) == normalize_state(b)


def exchange(primed_i, primed_j):
    """pair_factor at w = xy, as Factors."""
    c, k = pair_factor(primed_i, primed_j)
    return Factors(XY, D, {(c, (1, 1)): k})


def nonneg(s):
    return all(c >= 0 for c in s.terms.values())


def test_criterion_1_zero_leg_z2z2_triple_agreement():
    # three independent pipelines, no legs, full degree-6 window
    a = enumerate_3d((), "z2z2", D)
    b = vertex_by_transfer("z2z2", (), D)
    c = closed_z2z2_staircase(0, D)
    assert a == b
    assert b == c


def test_criterion_2_zero_leg_z4_transfer_vs_closed():
    a = vertex_by_transfer("zn", (), D, n=4)
    b = vertex_closed_zn(4, ((), (), ()), D)
    assert a == b


def test_criterion_3_one_leg_staircase_product_formula():
    # m = 1..4 covers both parity branches and both half-step depths
    base = closed_z2z2_staircase(0, D)
    for m in (1, 2, 3, 4):
        lhs = enumerate_3d(pc.staircase(m), "z2z2", D)
        assert lhs == base * upsilon(m, D), m
        assert lhs == closed_z2z2_staircase(m, D), m


def test_criterion_4_z2z2_z4_bridge_both_branch_families():
    for m in (1, 2, 3, 4):
        lhs = enumerate_3d(pc.staircase(m), "z2z2", D)
        z4 = vertex_closed_zn(4, ((), (), pc.staircase(m)), D)
        if m % 4 in (0, 3):
            z4 = z4.map_vars(VARS_Z2Z2, (0, 2, 3, 1))
        else:
            z4 = z4.map_vars(VARS_Z2Z2, (3, 2, 0, 1))
        assert lhs == z4 * phi(m, D), m


def test_criterion_5_symmetric_interlacing_iff_staircase():
    out = uniqueness_scan(12, (0, 1, 2), 20)
    assert len(out) == 3 * len(pc.partitions_up_to(12))
    for (v, l), flag in out.items():
        assert flag == pc.is_staircase(v), (v, l)
    pyramids = list(map(PyramidPartition, enumerate_pyramids(8)))
    for v in [(1,), (2, 1)]:
        for p in pyramids:
            assert restrict_positions(p, v, 0, ANTI) == restrict_positions(p, v, 0, DIAG)
    for v in [(2,), (3, 1)]:
        assert any(restrict_positions(p, v, 0, ANTI) != restrict_positions(p, v, 0, DIAG)
                   for p in pyramids)


def test_criterion_6_restricted_pyramid_identities():
    for m in (1, 2, 3):
        v = pc.staircase(m)
        assert generating_function(v, 0, ANTI, D) == generating_function(v, 0, DIAG, D), m
    # non-staircase witness: frames disagree already in the qc coefficient
    a = generating_function((2,), 0, ANTI, D)
    d = generating_function((2,), 0, DIAG, D)
    assert a.coefficient((0, 0, 0, 1)) == 0
    assert d.coefficient((0, 0, 0, 1)) == 1
    for v in [(1,), (2,), (2, 1)]:
        for frame in (ANTI, DIAG):
            base = generating_function(v, 0, frame, D)
            for l in (1, 2):
                assert generating_function(v, l, frame, D) == base, (v, l, frame)


def test_criterion_7_pyramid_baseline_and_leg_corollary():
    assert pyramid_series(D) == pyramid_closed(D)
    for m in (1, 2):
        assert corollary_rpc_closed(m, D) == generating_function(pc.staircase(m), 0, ANTI, D), m


def test_criterion_8_operator_identity_suite():
    # every exchange scalar comes from the one pair_factor rule; the
    # unprimed transfer is E(x^2) times the primed one, so E's scalar
    # against a transfer is the unprimed pair's over the primed pair's
    flags = [(a, b) for a in (False, True) for b in (False, True)]
    pair = {ab: exchange(*ab) for ab in flags}
    quotients = []
    for b in (False, True):
        mult = Counter(pair[False, b].mult)
        mult.subtract(pair[True, b].mult)
        quotients.append(Factors(XY, D, mult).series())
    sq_inv, sq_neg = quotients
    for lam in small_basis(4):
        # creation/annihilation exchange, every pair of primed flags
        for pi, pj in flags:
            lhs = gamma_apply(gamma_apply(basis(lam), 1, pi, X, D), -1, pj, Y, D)
            rhs = gamma_apply(gamma_apply(basis(lam), -1, pj, Y, D), 1, pi, X, D)
            f = pair[pi, pj].series()
            assert eq(lhs, scalar_apply(rhs, f, D)), (lam, pi, pj)
        # unprimed transfer factors through the primed one and E(x^2)
        lhs = gamma_apply(basis(lam), 1, False, X, D)
        rhs = e_apply(gamma_apply(basis(lam), 1, True, X, D), 1, XSQ, D)
        assert eq(lhs, rhs), lam
        lhs = gamma_apply(basis(lam), -1, False, X, D)
        rhs = e_apply(gamma_apply(basis(lam), -1, True, X, D), -1, XSQ, D)
        assert eq(lhs, rhs), lam
        # E commutes with same-sign transfers
        for primed in (False, True):
            for sign in (1, -1):
                a = e_apply(gamma_apply(basis(lam), sign, primed, X, D), sign, YSQ, D)
                b = gamma_apply(e_apply(basis(lam), sign, YSQ, D), sign, primed, X, D)
                assert eq(a, b), (lam, primed, sign)
        # E against opposite-sign transfers: (1 - x^2 y^2)^(-1) with the
        # unprimed transfer, (1 - x^2 y^2) with the primed one
        lhs = gamma_apply(e_apply(basis(lam), 1, XSQ, D), -1, False, Y, D)
        rhs = e_apply(gamma_apply(basis(lam), -1, False, Y, D), 1, XSQ, D)
        assert eq(lhs, scalar_apply(rhs, sq_inv, D)), lam
        lhs = e_apply(gamma_apply(basis(lam), 1, False, X, D), -1, YSQ, D)
        rhs = gamma_apply(e_apply(basis(lam), -1, YSQ, D), 1, False, X, D)
        assert eq(lhs, scalar_apply(rhs, sq_inv, D)), lam
        lhs = e_apply(gamma_apply(basis(lam), 1, True, X, D), -1, YSQ, D)
        rhs = gamma_apply(e_apply(basis(lam), -1, YSQ, D), 1, True, X, D)
        assert eq(lhs, scalar_apply(rhs, sq_neg, D)), lam
        lhs = gamma_apply(e_apply(basis(lam), 1, XSQ, D), -1, True, Y, D)
        rhs = e_apply(gamma_apply(basis(lam), -1, True, Y, D), 1, XSQ, D)
        assert eq(lhs, scalar_apply(rhs, sq_neg, D)), lam
        # annihilating E acts on the vacuum as identity, exactly
        vac = empty_state(2)
        assert eq(e_apply(vac, -1, XSQ, D), vac)
        # creating E pairs to the vacuum only from the empty partition, exactly
        s = collect(e_apply(basis(lam), 1, XSQ, D), XY, D)
        if lam == ():
            assert s == Series(XY, D, {(0, 0): 1})
        else:
            assert s == Series(XY, D)

    def q_gh(lam):
        ev, od = checkerboard_counts(lam)
        return (ev, od, 0)

    def q_g(lam):
        return (sum(lam), 0)

    for lam in small_basis(4):
        st = basis_state(lam, 3)
        lhs = weight_apply(e_apply(st, -1, (1, (1, 1, 2)), D), q_gh, D)
        rhs = e_apply(weight_apply(st, q_gh, D), -1, (1, (0, 0, 2)), D)
        assert eq(lhs, rhs), lam
        lhs = e_apply(weight_apply(st, q_gh, D), 1, (1, (1, 1, 2)), D)
        rhs = weight_apply(e_apply(st, 1, (1, (0, 0, 2)), D), q_gh, D)
        assert eq(lhs, rhs), lam
        st = basis_state(lam, 2)
        lhs = weight_apply(e_apply(st, -1, (1, (2, 2)), D), q_g, D)
        rhs = e_apply(weight_apply(st, q_g, D), -1, (1, (0, 2)), D)
        assert eq(lhs, rhs), lam
        lhs = e_apply(weight_apply(st, q_g, D), 1, (1, (2, 2)), D)
        rhs = weight_apply(e_apply(st, 1, (1, (0, 2)), D), q_g, D)
        assert eq(lhs, rhs), lam


def test_criterion_9_property_suite():
    # ring axioms on random truncated series
    rng = random.Random(11)
    for _ in range(12):
        a = Series(VARS_Z2Z2, 5)
        b = Series(VARS_Z2Z2, 5)
        c = Series(VARS_Z2Z2, 5)
        for s in (a, b, c):
            for _ in range(8):
                e = tuple(rng.randrange(0, 3) for _ in VARS_Z2Z2)
                s._add([(e, rng.randrange(-5, 6))])
        assert a * series_sum(b, c) == series_sum(a * b, a * c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * Series(VARS_Z2Z2, 5, {(0, 0, 0, 0): 1}) == a
    # MacMahon shift: M(x, q) = M(x/q, q) * (x; q)_inf
    q = term(1, (1, 1, 1, 1))
    for x in (term_var(4, 1), term(1, (0, 1, 1, 0)), term(1, (1, 1, 1, 1))):
        lhs = Factors(VARS_Z2Z2, D).walk("M", x).series()
        rhs = (Factors(VARS_Z2Z2, D).walk("M", term_mul(x, term_pow(q, -1))).series()
               * pochhammer_factors(x, q, VARS_Z2Z2, D).series())
        assert lhs == rhs, x
    # edge sequences balance their charges
    for p in pc.partitions_up_to(8):
        plus = [t for t in pc.edge_set_members(p) if t >= 0]
        minus = [t for t in range(-pc.edge_bound(p), 0) if edge_value(p, t) != 1]
        assert len(plus) == len(minus), p
    # interlacing agrees with the conjugate-column description
    smalls = pc.partitions_up_to(5)
    for a in smalls:
        for b in smalls:
            ca, cb = pc.conjugate(a), pc.conjugate(b)
            via_columns = all(pc.part(ca, i) - pc.part(cb, i) in (0, 1)
                              for i in range(max(len(ca), len(cb))))
            assert interlaces(a, b) == via_columns, (a, b)
            assert interlaces(a, b, primed=True) == interlaces(ca, cb), (a, b)
    # realize inverts restrict on every admissible family
    for v in [(), (1,), (2,), (2, 1)]:
        for fam in interlacing_families(v, 4):
            for l in (0, 1):
                for frame in (DIAG, ANTI):
                    p = realize(fam, v, l, frame)
                    assert restrict(p, v, l, frame) == fam, (v, fam, l, frame)
    # closed and transfer outputs count something: no negative coefficients
    assert nonneg(pyramid_closed(D))
    assert nonneg(vertex_by_transfer("z2z2", (), D))
    for m in (0, 1, 2, 3, 4):
        assert nonneg(closed_z2z2_staircase(m, D)), m
    for m in (1, 2):
        assert nonneg(corollary_rpc_closed(m, D)), m
    for n in (1, 2, 3, 4):
        assert nonneg(vertex_closed_zn(n, ((), (), ()), D)), n
    for legs in [(((2,), (), ()), 4), (((), (1, 1), ()), 4), (((), (), (2, 1)), 4)]:
        assert nonneg(vertex_closed_zn(4, legs[0], legs[1])), legs
