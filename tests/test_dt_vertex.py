import random

import pytest
import sympy

from orbivertex import partition_core as pc
from orbivertex import dt_vertex, rpc
from orbivertex.dt_vertex import (
    closed_z2z2_staircase, corollary_rpc_closed, enumerate_3d,
    enumerate_one_leg, one_leg_zn_staircase, phi, pyramid_closed,
    skew_schur_specialized, symmetry_check, upsilon, vertex_closed_zn,
    _NOLEGS, _UPSILON, _hook_factors, _jacobi_trudi, _product, _qq_exps,
    _rotation_exponents, _zero_zn,
)
from orbivertex.fock_transfer import vertex_by_transfer, zn_names
from orbivertex.pyramid import ANTI, DIAG, VARS_Z2Z2, pyramid_series
from orbivertex.qseries import Series, family_factors, mul_terms, term, term_mul

import oracles
from oracles import term_var


def test_enumerate_z2z2_no_leg_low_terms():
    e = enumerate_3d((), "z2z2", 3)
    assert e.coefficient((0, 0, 0, 0)) == 1
    assert e.coefficient((1, 0, 0, 0)) == 1
    assert e.coefficient((0, 1, 0, 0)) == 0
    assert e.coefficient((1, 1, 0, 0)) == 1
    assert e.coefficient((1, 0, 1, 0)) == 1
    assert e.coefficient((1, 0, 0, 1)) == 1
    assert e.coefficient((2, 0, 0, 0)) == 0
    for exps in [(2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
                 (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)]:
        assert e.coefficient(exps) == 1
    assert sum(e.terms.values()) == 1 + 1 + 3 + 6


def test_enumerate_leg_examples():
    assert enumerate_3d((1,), "z2z2", 0).terms == {(0, 0, 0, 0): 1}
    e = enumerate_3d((1,), "z2z2", 2)
    assert e.coefficient((0, 1, 0, 0)) == 1
    assert e.coefficient((0, 0, 1, 0)) == 1
    assert e.coefficient((1, 0, 0, 0)) == 0
    assert e.coefficient((0, 0, 0, 1)) == 0


def test_enumerate_zn_low_terms():
    e2 = enumerate_3d((), "zn", 2, n=2)
    assert e2.coefficient((1, 1)) == 2
    assert e2.coefficient((2, 0)) == 1
    assert e2.coefficient((0, 2)) == 0
    e4 = enumerate_3d((), "zn", 2, n=4)
    assert e4.coefficient((1, 1, 0, 0)) == 1
    assert e4.coefficient((1, 0, 0, 1)) == 1
    assert e4.coefficient((2, 0, 0, 0)) == 1
    assert e4.coefficient((1, 0, 1, 0)) == 0
    leg = enumerate_3d((1,), "zn", 1, n=4)
    assert leg.coefficient((0, 1, 0, 0)) == 1
    assert leg.coefficient((0, 0, 0, 1)) == 1
    assert leg.coefficient((1, 0, 0, 0)) == 0
    assert leg.coefficient((0, 0, 1, 0)) == 0


def test_enumerate_matches_transfer():
    for leg in [(), (2,)]:
        assert enumerate_3d(leg, "z2z2", 4) == vertex_by_transfer("z2z2", leg, 4)
    assert enumerate_3d((1,), "zn", 3, n=4) == vertex_by_transfer("zn", (1,), 3, n=4)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_one_leg(((1,), (1,), ()), "z2z2", 2)
    with pytest.raises(ValueError):
        enumerate_3d((1,), "zn", 2)
    with pytest.raises(ValueError):
        enumerate_3d((1,), "z3z3", 2)
    # the z2z2 coloring has no n; it used to be ignored
    for n in (-7, 4):
        with pytest.raises(ValueError, match="n is for group zn"):
            enumerate_one_leg(((2, 1), (), ()), "z2z2", 3, n=n)


def test_enumerate_rejects_negative_cutoff():
    # the packed weights have base cutoff + 1: -1 used to divide by zero
    for group, n in (("z2z2", None), ("zn", 3)):
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            enumerate_3d((), group, -1, n=n)
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            enumerate_one_leg(((2, 1), (), ()), group, -3, n=n)


def _one_leg_slots(max_size):
    yield ((), (), ())
    for leg in pc.partitions_up_to(max_size):
        if leg:
            yield from [((), (), leg), (leg, (), ()), ((), leg, ())]


@pytest.mark.parametrize("group, n", [
    ("z2z2", None), ("zn", 1), ("zn", 2), ("zn", 3), ("zn", 4)])
def test_enumerate_one_leg_matches_downset_oracle(group, n):
    for legs in _one_leg_slots(3):
        for cutoff in (0, 6):
            got = enumerate_one_leg(legs, group, cutoff, n=n)
            want = oracles.one_leg_downsets_series(legs, group, cutoff, n)
            assert got.terms == want, (legs, cutoff)


def test_enumerate_one_leg_degree_one_counts_outer_corners():
    # the boxes that can come first sit at the outer corners of the leg
    for legs in _one_leg_slots(5):
        leg = max(legs, key=len)
        corners = sum(1 for j in range(len(leg) + 1)
                      if j == 0 or pc.part(leg, j) < leg[j - 1])
        for group, n in [("z2z2", None), ("zn", 3)]:
            s = enumerate_one_leg(legs, group, 1, n=n)
            got = sum(c for e, c in s.terms.items() if sum(e) == 1)
            assert got == corners, (legs, group)


def test_symmetry_check():
    assert symmetry_check((), 1, 3)
    assert symmetry_check((1,), 1, 4)
    assert symmetry_check((1,), 2, 4)
    assert symmetry_check((2, 1), 2, 5)
    with pytest.raises(ValueError):
        symmetry_check((1,), 3, 2)


def test_symmetry_check_rejects_non_int_shift():
    # True was read as shift 1 and 1.0 compared equal to it
    for shift in (True, 1.0):
        with pytest.raises(TypeError, match="shift must be an int"):
            symmetry_check((1,), shift, 2)


def test_skew_schur_basics():
    names = ("x1", "x2")
    x1, x2 = term_var(2, 0), term_var(2, 1)
    s = skew_schur_specialized((1,), (), (x1, x2), 4, names)
    assert s.coefficient((1, 0)) == 1 and s.coefficient((0, 1)) == 1
    assert s.coefficient((0, 0)) == 0
    s = skew_schur_specialized((1, 1), (), (x1, x2), 4, names)
    assert s.terms == {(1, 1): 1}
    s = skew_schur_specialized((2,), (), (x1, x2), 4, names)
    assert s.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    s = skew_schur_specialized((2, 1), (2, 1), (x1, x2), 4, names)
    assert s.terms == {(0, 0): 1}
    assert skew_schur_specialized((1,), (2,), (x1, x2), 4, names).terms == {}


def test_skew_schur_zero_and_one_values():
    names = ("x1", "x2")
    x2 = term_var(2, 1)
    s = skew_schur_specialized((1,), (), (term_var(2, 0), x2, 0, 0), 4, names)
    assert s.terms == {(1, 0): 1, (0, 1): 1}
    s = skew_schur_specialized((1,), (), (term(1, (0, 0)), x2), 4, names)
    assert s.coefficient((0, 0)) == 1 and s.coefficient((0, 1)) == 1
    with pytest.raises(ValueError):
        skew_schur_specialized((1,), (), (term(2, (0, 0)),), 4, names)


SCHUR_VALUES = [term(1, (1, 0, 0)), term(-1, (0, 1, 0)), term(2, (1, 0, 1)),
                term(1, (0, 0, 0))]


def test_skew_schur_matches_tableau_sum():
    # the signed minors of the determinant against the tableau sum, at
    # values of both signs, a coefficient 2 and the degree-0 value 1, with
    # a cutoff that cuts through the tableaux; a tall mu takes the dual
    # determinant, whose e_k vanish for k above the number of values, as
    # at (1^5) with four values or (2, 1, 1) with two
    names = ("x", "y", "z")
    shapes = pc.partitions_up_to(6)
    for values in (SCHUR_VALUES, SCHUR_VALUES[:2]):
        for mu in shapes:
            for eta in shapes:
                for cutoff in (3, 6):
                    got = skew_schur_specialized(mu, eta, values, cutoff, names)
                    want = oracles.skew_schur_tableaux(mu, eta, values, 3,
                                                       cutoff)
                    assert got.terms == want, (mu, eta, len(values), cutoff)


def test_skew_schur_direct_and_dual_determinants_agree():
    # every tall mu of size <= 7, over every eta inside it: the h_k
    # determinant of order len(mu) and the e_k one of order mu_1
    for mu in pc.partitions_up_to(7):
        if pc.part(mu, 0) >= len(mu):
            continue
        for eta in pc.partitions_up_to(pc.size(mu)):
            if all(pc.part(eta, r) <= pc.part(mu, r) for r in range(len(eta))):
                for cutoff in (4, 7):
                    args = (mu, eta, SCHUR_VALUES, cutoff, 3)
                    assert (_jacobi_trudi(*args, False)
                            == _jacobi_trudi(*args, True)), args


def test_jacobi_trudi_multiplies_no_empty_h(monkeypatch):
    # an h_(k-1) (or e_(k-1)) that holds no term below the cutoff adds
    # nothing to h_k, so no mul_terms call gets one
    seen = []

    def counted(a, b, cap, out=None):
        seen.append(bool(a))
        return mul_terms(a, b, cap, out)

    monkeypatch.setattr(dt_vertex, "mul_terms", counted)
    # the first value, of degree 2, leaves h_2 empty at cutoff 3: its
    # square passes the cutoff
    for mu, dual in [((4, 2, 1), False), ((2, 1, 1, 1), True)]:
        _jacobi_trudi(mu, (1,), SCHUR_VALUES, 3, 3, dual)
    assert seen and all(seen)


def test_qq_exps_closed_form_matches_the_loop():
    for n in range(1, 8):
        for t in range(-40, 41):
            assert _qq_exps(n, t) == oracles.qq_exps_loop(n, t), (n, t)


def test_vertex_z1_leg_hook_values():
    v = vertex_closed_zn(1, ((), (), (2,)), 4)
    assert v.coefficient((1,)) == 2
    assert v.coefficient((2,)) == 6
    assert v == enumerate_3d((2,), "zn", 4, n=1)
    q = sympy.symbols("q")
    expected = oracles.smul(
        oracles.smac(1, q, [q], 4),
        oracles.smul(oracles.sinv(1 - q, [q], 4),
                     oracles.sinv(1 - q ** 2, [q], 4), [q], 4),
        [q], 4)
    assert v.terms == oracles.series_to_dict(expected, [q])


def test_vertex_closed_zn_no_legs_matches_enumeration():
    for n in (1, 2, 3, 4):
        v = vertex_closed_zn(n, ((), (), ()), 4)
        assert v == enumerate_3d((), "zn", 4, n=n)
        assert v.coefficient((0,) * n) == 1


def test_vertex_closed_zn_side_legs_match_enumeration():
    for legs in [((2,), (), ()), ((), (2,), ()), ((1, 1), (), ())]:
        v = vertex_closed_zn(2, legs, 4)
        assert v == enumerate_one_leg(legs, "zn", 4, n=2)
    v = vertex_closed_zn(4, ((1,), (), ()), 3)
    assert v == enumerate_one_leg(((1,), (), ()), "zn", 3, n=4)


def test_vertex_closed_zn_third_leg():
    v = vertex_closed_zn(4, ((), (), (2, 1)), 4)
    assert v == enumerate_3d((2, 1), "zn", 4, n=4)
    assert v == vertex_by_transfer("zn", (2, 1), 4, n=4)


def test_vertex_closed_zn_random_single_legs():
    rng = random.Random(77)
    pool = [p for k in range(4) for p in pc.partitions_of(k)]
    for _ in range(10):
        n = rng.choice([1, 2, 3, 4])
        slot = rng.randrange(3)
        legs = [(), (), ()]
        legs[slot] = rng.choice(pool)
        legs = tuple(legs)
        assert vertex_closed_zn(n, legs, 3) == enumerate_one_leg(legs, "zn", 3, n=n)


def test_vertex_closed_zn_hook_and_rotation_internals():
    names = zn_names(4)
    assert _rotation_exponents((2, 1), 4) == (0, -1, 2, -1)
    for v in [(), (1,), (2, 1), (3, 1, 1)]:
        assert sum(_rotation_exponents(v, 4)) == 0
    hook = _hook_factors((2, 1), 4, names, 3).series()
    # the hook product is 1 / prod (1 - t) over these three t
    for exps in [(0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 1)]:
        hook = hook * Series(names, 3, {(0,) * 4: 1, exps: -1})
    assert hook.terms == {(0,) * 4: 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_leg_table_rotates_its_factors(n):
    # the rotated table's product is the zero-leg product with every key
    # moved k places up mod n and every multiplicity times e: a rotation
    # fixes q and M(1) and keeps degrees, so the cutoff drops the same
    # factors
    names = zn_names(n)
    zero = _product(_zero_zn(n), 0, 12, names).mult
    for k in range(n):
        for e in (-2, 1, 3):
            want = {(c, x[n - k:] + x[:n - k]): m * e
                    for (c, x), m in zero.items()}
            got = _product(_zero_zn(n, k, e), 0, 12, names).mult
            assert got == want, (k, e)


def test_product_walks_each_distinct_entry_once(monkeypatch):
    # equal entries add their powers before any walk, and an entry whose
    # powers cancel is not walked at all
    walked = []

    def counted(name, names, cutoff, x, q, l=None):
        walked.append((name, x, l))
        return family_factors(name, names, cutoff, x, q, l=l)

    monkeypatch.setattr(dt_vertex, "family_factors", counted)
    names = zn_names(4)
    assert _product(_zero_zn(4) + _zero_zn(4, 0, -1), 0, 12, names).mult == {}
    assert walked == []
    twice = _product(_zero_zn(4) + _zero_zn(4), 0, 12, names)
    assert len(walked) == len(set(walked)) == len(_zero_zn(4))
    assert twice.mult == _product(_zero_zn(4, 0, 2), 0, 12, names).mult


def test_vertex_closed_zn_rejects_bad_input():
    with pytest.raises(ValueError, match="at most one non-empty leg"):
        vertex_closed_zn(1, ((1,), (1,), ()), 3)
    with pytest.raises(ValueError, match="at most one non-empty leg"):
        vertex_closed_zn(4, ((1,), (1,), (1,)), 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        vertex_closed_zn(0, ((), (), ()), 3)


def test_vertex_closed_zn_rejects_two_legs_before_any_work():
    # at this cutoff the full computation would not finish in a test run
    with pytest.raises(ValueError, match="at most one non-empty leg"):
        vertex_closed_zn(4, ((2, 1), (), (1,)), 40)


@pytest.mark.parametrize("legs", [
    ((2, 1),), ((), (), (), ()), (), ((), (2, 1)),
], ids=["one", "four", "none", "two"])
def test_leg_count_must_be_three(legs):
    # one leg was read as the first slot's, four empty legs as no leg,
    # and () and two legs failed inside the unpacking
    n = len(legs)
    with pytest.raises(ValueError, match="need three legs, got %d" % n):
        enumerate_one_leg(legs, "z2z2", 3)
    with pytest.raises(ValueError, match="need three legs, got %d" % n):
        enumerate_one_leg(legs, "zn", 3, n=4)
    with pytest.raises(ValueError, match="need three legs, got %d" % n):
        vertex_closed_zn(4, legs, 3)


def test_one_leg_zn_staircase_both_branches():
    # m = 0..7 runs every m mod 4 branch at shifts ell = 0..4
    for m in range(8):
        a = one_leg_zn_staircase(4, m, 8)
        b = vertex_closed_zn(4, ((), (), pc.staircase(m)), 8)
        assert a == b, m
    with pytest.raises(ValueError):
        one_leg_zn_staircase(3, 1, 4)
    with pytest.raises(ValueError):
        one_leg_zn_staircase(4, -1, 4)


def test_one_leg_zn_staircase_low_terms():
    v1 = one_leg_zn_staircase(4, 1, 3)
    assert v1.coefficient((0, 1, 0, 0)) == 1
    assert v1.coefficient((0, 0, 0, 1)) == 1
    assert v1.coefficient((1, 0, 0, 0)) == 0
    assert v1.coefficient((0, 0, 1, 0)) == 0
    v3 = one_leg_zn_staircase(4, 3, 2)
    assert v3.coefficient((0, 1, 0, 0)) == 2
    assert v3.coefficient((0, 0, 0, 1)) == 2
    assert v3.coefficient((1, 0, 0, 0)) == 0
    assert one_leg_zn_staircase(4, 1, 3) == vertex_by_transfer("zn", (1,), 3, n=4)


def test_closed_z2z2_nolegs():
    # the zero-leg vertex is the staircase product at m = 0, where
    # Upsilon adds no factor to the zero-leg table
    c = closed_z2z2_staircase(0, 4)
    assert c == enumerate_3d((), "z2z2", 4)
    assert c == vertex_by_transfer("z2z2", (), 4)
    for d in range(19):
        zero_leg = _product(_NOLEGS, 0, d)
        assert _product(_NOLEGS + _UPSILON, 0, d).mult == zero_leg.mult, d
        assert closed_z2z2_staircase(0, d) == zero_leg.series(), d


def test_upsilon_factor():
    u = upsilon(1, 3)
    assert u.coefficient((0, 0, 0, 0)) == 1
    assert u.coefficient((0, 1, 0, 0)) == 1
    assert u.coefficient((0, 0, 1, 0)) == 1
    assert u.coefficient((1, 0, 0, 0)) == -1
    assert u.coefficient((0, 0, 0, 1)) == 0
    assert upsilon(0, 4).terms == {(0, 0, 0, 0): 1}
    for m in (1, 2, 3):
        lhs = enumerate_3d(pc.staircase(m), "z2z2", 4)
        assert lhs == closed_z2z2_staircase(m, 4)


def test_phi_bridges_the_two_vertices():
    for m in range(8):
        lhs = enumerate_3d(pc.staircase(m), "z2z2", 8)
        z4 = vertex_closed_zn(4, ((), (), pc.staircase(m)), 8)
        if m % 4 in (0, 3):
            z4 = z4.map_vars(VARS_Z2Z2, (0, 2, 3, 1))
        else:
            z4 = z4.map_vars(VARS_Z2Z2, (3, 2, 0, 1))
        assert lhs == z4 * phi(m, 8), m


def test_pyramid_closed_matches_enumeration():
    pz = pyramid_closed(4)
    assert pz == pyramid_series(4)
    assert pz.coefficient((1, 0, 0, 0)) == 1
    assert pz.coefficient((1, 1, 0, 0)) == 1
    assert pz.coefficient((1, 0, 1, 0)) == 1
    assert pz.coefficient((1, 0, 0, 1)) == 0
    assert pz.coefficient((2, 0, 0, 0)) == 0


def test_corollary_rpc_closed():
    assert corollary_rpc_closed(0, 8) == pyramid_closed(8)
    for m in range(8):
        v = pc.staircase(m)
        a = corollary_rpc_closed(m, 8)
        assert a == rpc.generating_function(v, 0, ANTI, 8), m
        assert a == rpc.generating_function(v, 0, DIAG, 8), m


def test_counting_walks_match_closed_products_degree_22():
    assert pyramid_series(22) == pyramid_closed(22)
    assert rpc.generating_function((1,), 0, ANTI, 22) == corollary_rpc_closed(1, 22)


@pytest.mark.parametrize("route", [
    lambda d: closed_z2z2_staircase(0, d),
    lambda d: pyramid_closed(d),
    lambda d: closed_z2z2_staircase(1, d),
    lambda d: one_leg_zn_staircase(4, 1, d),
    lambda d: corollary_rpc_closed(1, d),
    lambda d: upsilon(1, d),
    lambda d: phi(1, d),
    lambda d: vertex_closed_zn(2, ((), (), (1,)), d),
    lambda d: pyramid_series(d),
    lambda d: rpc.generating_function((1,), 0, ANTI, d),
], ids=["nolegs", "pyramid_closed", "z2z2_staircase", "zn_staircase",
        "corollary", "upsilon", "phi", "vertex_closed_zn", "pyramid_series",
        "rpc"])
def test_series_routes_reject_negative_cutoff(route):
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        route(-1)
    s = route(0)
    assert s.terms == {(0,) * len(s.names): 1}


@pytest.mark.parametrize("route", [
    lambda d: pyramid_closed(d),
    lambda d: vertex_closed_zn(4, ((2, 1), (), ()), d),
    lambda d: enumerate_3d((2, 1), "z2z2", d),
    lambda d: vertex_by_transfer("z2z2", (2, 1), d),
    lambda d: rpc.generating_function((2, 1), 0, ANTI, d),
], ids=["closed", "closed_zn", "enumerate", "transfer", "rpc"])
@pytest.mark.parametrize("cutoff", [60.0, 60.5, True])
def test_series_routes_reject_non_int_cutoff(route, cutoff):
    # int() used to read 2.7 as 2, and 2.0 gave a Series whose JSON
    # printed float exponents; at 60 any work before the check would
    # not end in time
    with pytest.raises(TypeError, match="cutoff must be an int"):
        route(cutoff)


@pytest.mark.parametrize("build", [
    lambda d: Series(VARS_Z2Z2, d, {(0, 0, 0, 0): 1}),
    lambda d: skew_schur_specialized((2, 1), (), [term_var(2, 0), term_var(2, 1)],
                                     d, ("x", "y")),
    lambda d: skew_schur_specialized((1,), (2,), [term_var(2, 0)], d, ("x", "y")),
], ids=["one", "skew_schur", "skew_schur_zero"])
def test_series_constructors_reject_negative_cutoff(build):
    # they used to return an empty series of cutoff -1
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        build(-1)
    build(0)


def test_anti_frame_restriction_factors_the_vertex():
    names = VARS_Z2Z2
    xa, xb, xc = (term_var(4, i) for i in (1, 2, 3))
    q = term(1, (1, 1, 1, 1))
    for m in (1, 2):
        sub, ell = m % 2, (m + 1) // 2
        fam = "Mt1" if sub else "Mt0"
        gf = rpc.generating_function(pc.staircase(m), 0, ANTI, 4)
        if m % 4 in (0, 3):
            gf = gf.map_vars(names, (0, 2, 1, 3))
        else:
            gf = gf.map_vars(names, (3, 1, 2, 0))
        rhs = (family_factors("Mt", names, 4, term_mul(xa, xb), q).series()
               * family_factors(fam, names, 4, term_mul(xa, xb), q, l=2 * ell).series()
               * gf)
        assert closed_z2z2_staircase(m, 4) == rhs


def test_diag_frame_restriction_matches_z4_vertex():
    names = VARS_Z2Z2
    xa, xb, xc = (term_var(4, i) for i in (1, 2, 3))
    q = term(1, (1, 1, 1, 1))
    x0 = term_var(4, 0)
    for m in (1, 2):
        sub, ell = m % 2, (m + 1) // 2
        fam = "Mh1" if sub else "Mh0"
        other = "Mh0" if sub else "Mh1"
        if m % 4 in (0, 3):
            xlast, triple = xc, term_mul(xa, xb, xc)
        else:
            xlast, triple = x0, term_mul(xa, xb, x0)
        # the series times the four shifted families is the Z4 vertex
        # times the four unshifted ones
        lhs = rpc.generating_function(pc.staircase(m), 0, DIAG, 4)
        for name, x in ((fam, xa), (fam, xb), (other, xlast), (fam, triple)):
            lhs = lhs * family_factors(name, names, 4, x, q, l=ell).series()
        rhs = one_leg_zn_staircase(4, m, 4).map_vars(names, (0, 2, 3, 1))
        for x in (xa, xb, xlast, triple):
            rhs = rhs * family_factors("Mh", names, 4, x, q).series()
        assert lhs == rhs


def test_closed_series_coefficients_nonnegative():
    series = [closed_z2z2_staircase(0, 5), pyramid_closed(5),
              corollary_rpc_closed(2, 5),
              one_leg_zn_staircase(4, 3, 5),
              vertex_closed_zn(3, ((), (), (2, 1)), 4),
              closed_z2z2_staircase(2, 5)]
    for s in series:
        assert all(c >= 0 for c in s.terms.values())


SWEEP_LEGS = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (3, 2, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("leg", SWEEP_LEGS)
def test_vertex_closed_zn_matches_enumeration_degree_8(n, leg):
    for legs in [((), (), leg), (leg, (), ()), ((), leg, ())]:
        assert vertex_closed_zn(n, legs, 8) == enumerate_one_leg(legs, "zn", 8, n=n)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("leg", [(2, 1), (3,), (1, 1, 1)])
def test_vertex_closed_zn_side_slots_match_enumeration_degree_12(n, leg):
    # in a side slot the renormalization shift has negative exponents
    # that the Schur part must cancel before Factors.times; no transfer
    # mode reaches these slots, and the first takes the barred values
    for legs in [(leg, (), ()), ((), leg, ())]:
        got = vertex_closed_zn(n, legs, 12)
        assert got == enumerate_one_leg(legs, "zn", 12, n=n), legs


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("slot", range(3))
def test_vertex_closed_zn_makes_no_series_product(monkeypatch, n, slot):
    # a side leg is one Schur function times the zero-leg product, and a
    # third leg needs none: the Schur factor of the empty slot is 1
    def refuse(self, other):
        raise AssertionError("Series product in vertex_closed_zn")

    calls = []

    def counted(*args):
        calls.append(args[0])
        return skew_schur_specialized(*args)

    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(dt_vertex, "skew_schur_specialized", counted)
    legs = [(), (), ()]
    legs[slot] = (2, 1)
    got = vertex_closed_zn(n, tuple(legs), 6)
    assert len(calls) == (slot < 2)
    assert got == enumerate_one_leg(tuple(legs), "zn", 6, n=n)


@pytest.mark.parametrize("group, closed", [
    ("z2z2", lambda d: closed_z2z2_staircase(2, d)),
    ("zn", lambda d: vertex_closed_zn(4, ((), (), (2, 1)), d)),
], ids=["z2z2", "z4"])
def test_three_routes_agree_at_leg_21_degree_16(group, closed):
    # all three routes at one leg, above the degrees of the slot sweeps
    n = 4 if group == "zn" else None
    want = enumerate_3d((2, 1), group, 16, n=n)
    assert closed(16) == want
    assert vertex_by_transfer(group, (2, 1), 16, n=n) == want


@pytest.mark.parametrize("m", range(8))
def test_closed_z2z2_staircase_matches_enumeration_degree_8(m):
    assert closed_z2z2_staircase(m, 8) == enumerate_3d(pc.staircase(m), "z2z2", 8)


@pytest.mark.parametrize("value, error, message", [
    ((1.5, (1, 0)), TypeError, "coefficient must be an int"),
    ((1, (1.5, 0)), TypeError, "exponent must be an int"),
    ((1, (1, 0, 0)), ValueError, "arity mismatch"),
    ((1, (1,)), ValueError, "arity mismatch"),
    ((1, (-1, 1)), ValueError, "negative exponent"),
], ids=["float-coef", "float-exp", "long-exps", "short-exps", "negative"])
def test_skew_schur_checks_values_as_series_terms(value, error, message):
    # the coefficient 1.5 was read as 1, a float exponent went into the
    # series, and zip cut a long tuple or kept a short one as a key
    with pytest.raises(error, match=message):
        skew_schur_specialized((1,), (), (value, term_var(2, 1)), 4,
                               ("x1", "x2"))


@pytest.mark.parametrize("n, error, message", [
    (2.5, TypeError, "n must be an int"), (True, TypeError, "n must be an int"),
    (3.0, TypeError, "n must be an int"),
    (0, ValueError, "n must be >= 1 for group zn"),
    (-2, ValueError, "n must be >= 1 for group zn"),
])
def test_routes_check_n_alike(n, error, message):
    # range() failed on 2.5, True was read as 1, and n = 0 raised a
    # different message in the closed route than in the other two
    for build in (lambda: enumerate_3d((1,), "zn", 3, n=n),
                  lambda: vertex_by_transfer("zn", (1,), 3, n=n),
                  lambda: vertex_closed_zn(n, ((), (), (1,)), 3)):
        with pytest.raises(error, match=message):
            build()


@pytest.mark.parametrize("n, error, message", [
    (4.0, TypeError, "n must be an int"), (True, TypeError, "n must be an int"),
    (0, ValueError, "n must be >= 1 for group zn"),
])
def test_one_leg_zn_staircase_checks_n_as_the_routes_do(n, error, message):
    # 4.0 passed the n != 4 test and returned the n = 4 series, where
    # the closed product, transfer and enumeration reject it
    with pytest.raises(error, match=message):
        one_leg_zn_staircase(n, 1, 3)


@pytest.mark.parametrize("build", [
    pytest.param(lambda m: upsilon(m, 3), id="upsilon"),
    pytest.param(lambda m: phi(m, 3), id="phi"),
    pytest.param(lambda m: closed_z2z2_staircase(m, 3),
                 id="closed-z2z2-staircase"),
    pytest.param(lambda m: corollary_rpc_closed(m, 3),
                 id="corollary-rpc-closed"),
    pytest.param(lambda m: one_leg_zn_staircase(4, m, 3),
                 id="one-leg-zn-staircase"),
])
def test_staircase_products_reject_non_int_size(build):
    # True returned the m = 1 series, and 1.5 became a MacMahon family
    # name that no table holds
    for m in (True, 1.5):
        with pytest.raises(TypeError, match="m must be an int"):
            build(m)


@pytest.mark.parametrize("leg", [(1.5,), (True,), (2, 1.0)])
def test_routes_reject_non_int_leg_parts(leg):
    for build in (lambda: enumerate_3d(leg, "z2z2", 3),
                  lambda: enumerate_one_leg((leg, (), ()), "zn", 3, n=3),
                  lambda: vertex_by_transfer("z2z2", leg, 3),
                  lambda: vertex_closed_zn(3, ((), leg, ()), 3)):
        with pytest.raises(TypeError, match="part must be an int"):
            build()
