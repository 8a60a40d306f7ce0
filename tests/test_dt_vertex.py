import hashlib
from collections import Counter

import pytest
import sympy

from orbivertex import partition_core as pc
from orbivertex import dt_vertex, rpc
from orbivertex.dt_vertex import (
    closed_z2z2_staircase, corollary_rpc_closed, enumerate_3d,
    enumerate_one_leg, one_leg_zn_staircase, phi, pyramid_closed,
    skew_schur_specialized, upsilon, vertex_closed_zn,
    _NOLEGS, _PYRAMID, _RPC_TAIL, _UPSILON, _Z4_TAIL, _jacobi_trudi,
    _product, _qq_exps, _rotation_exponents, _zero_zn,
)
from orbivertex.fock_transfer import vertex_by_transfer, zn_names
from orbivertex.pyramid import ANTI, DIAG, VARS_Z2Z2, pyramid_series
from orbivertex.qseries import Factors, Series, term

import oracles
from oracles import term_mul, term_var
from paper import symmetry_check


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
    # cutoffs 0 to 2 close in last or at the roots, 3 is the first that
    # enters the recursion, 6 goes four levels deep before last
    for legs in _one_leg_slots(3):
        for cutoff in (0, 1, 2, 3, 6):
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


@pytest.mark.parametrize("shift", [0, 3, -1])
def test_symmetry_check_rejects_shift_before_enumerating(monkeypatch, shift):
    # the shift used to be read only after the left-hand side was counted
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the shift was checked")

    monkeypatch.setattr(dt_vertex, "enumerate_one_leg", refuse)
    with pytest.raises(ValueError, match="shift must be 1 or 2"):
        symmetry_check((2, 1), shift, 16)


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
    # values are Terms: a plain zero, of any type, is no Term and raises
    # as in Factors._add, while a Term with coefficient 0 is skipped
    names = ("x1", "x2")
    x2 = term_var(2, 1)
    for zero in (0, 0.0, False):
        with pytest.raises(TypeError):
            skew_schur_specialized((1,), (), (term_var(2, 0), x2, zero),
                                   4, names)
    s = skew_schur_specialized((1,), (), (term_var(2, 0), x2,
                                          term(0, (1, 1))), 4, names)
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
    # nothing to h_k, so no pass reads an all-empty source
    seen = []

    def counted(parts, steps, cutoff, up, source=None):
        seen.append(any(source))
        return pass_(parts, steps, cutoff, up, source)

    pass_ = dt_vertex._pass
    monkeypatch.setattr(dt_vertex, "_pass", counted)
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
    q = sympy.symbols("q")
    expected = oracles.smul(
        oracles.smac(1, q, [q], 4),
        oracles.smul(oracles.sinv(1 - q, [q], 4),
                     oracles.sinv(1 - q ** 2, [q], 4), [q], 4),
        [q], 4)
    assert v.terms == oracles.series_to_dict(expected, [q])


def test_vertex_closed_zn_hook_and_rotation_internals():
    assert _rotation_exponents((2, 1), 4) == (0, -1, 2, -1)
    for v in [(), (1,), (2, 1), (3, 1, 1)]:
        assert sum(_rotation_exponents(v, 4)) == 0
    # the hook product is 1 / prod (1 - t) over these three t, one a cell
    hooks = [pc.hook_color_count((2, 1), i, j, 4) for i, j in pc.cells((2, 1))]
    assert Counter(hooks) == Counter([(0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 1)])


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_leg_table_rotates_its_factors(n):
    # the rotated table's product is the zero-leg product with every key
    # moved k places up mod n and every multiplicity times e: a rotation
    # fixes q and M(1) and keeps degrees, so the cutoff drops the same
    # factors
    names = zn_names(n)
    zero = _product(_zero_zn(n, 12), 0, 12, names).mult
    for k in range(n):
        for e in (-2, 1, 3):
            want = {(c, x[n - k:] + x[:n - k]): m * e
                    for (c, x), m in zero.items()}
            got = _product(_zero_zn(n, 12, k, e), 0, 12, names).mult
            assert got == want, (k, e)


def test_product_walks_each_distinct_entry_once(monkeypatch):
    # equal entries add their powers before any walk, and an entry whose
    # powers cancel is not walked at all
    walked = []
    walk = Factors.walk

    def counted(self, name, x, l=None, power=1):
        walked.append((name, x, l))
        return walk(self, name, x, l, power)

    monkeypatch.setattr(Factors, "walk", counted)
    names = zn_names(4)
    zero = _zero_zn(4, 12)
    assert _product(zero + _zero_zn(4, 12, 0, -1), 0, 12, names).mult == {}
    assert walked == []
    twice = _product(zero + zero, 0, 12, names)
    assert len(walked) == len(set(walked)) == len(zero)
    assert twice.mult == _product(_zero_zn(4, 12, 0, 2), 0, 12, names).mult


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_zero_leg_table_keeps_the_runs_that_reach_the_cutoff(n):
    # a run x of M~ adds no factor below degree n - |x|, so leaving out
    # the shorter ones changes no product; the rest number c (c + 1) / 2,
    # c = min(cutoff, n - 1), besides M(1)^n
    names = zn_names(n)
    for cutoff in range(n + 2):
        table = _zero_zn(n, cutoff)
        c = min(cutoff, n - 1)
        assert len(table) == 1 + c * (c + 1) // 2
        assert _product(table, 0, cutoff, names).mult \
            == _product(_zero_zn(n, n), 0, cutoff, names).mult
    assert len(_zero_zn(200, 2)) == 4


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
    # TIER1's branch_transfer rows at m = 3..7 check each m mod 4 branch
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


def test_closed_z2z2_nolegs():
    # the zero-leg vertex is the staircase product at m = 0, where
    # Upsilon adds no factor to the zero-leg table
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
    assert corollary_rpc_closed(0, 22) == pyramid_closed(22)


def test_branch_rule_relabels_entries_as_the_product():
    # at m mod 4 in {1, 2} the entries' x are relabeled before the walk;
    # relabeling the unswapped product's series after it must agree
    for m in range(8):
        for got, table, names, swap in [
                (corollary_rpc_closed(m, 8), _PYRAMID + _RPC_TAIL, VARS_Z2Z2,
                 (3, 1, 2, 0)),
                (one_leg_zn_staircase(4, m, 8), _Z4_TAIL + _zero_zn(4, 8),
                 zn_names(4), (2, 3, 0, 1))]:
            want = _product(table, m, 8, names).series()
            if m % 4 in (1, 2):
                want = want.map_vars(names, swap)
            assert got == want, (m, swap)


# sha1 of the closed-output grid at each degree D, every series as its
# to_json() and a newline, in the order closed_grid_sha1 writes them
CLOSED_GRID_SHA1 = {
    0: "9f37539dac7ae24d87c6569729fd7c5f9962da7a",
    1: "bc2b1f4c9ad48042545afa4260a2bc8589cb3e37",
    6: "97dd8726c0ee61cfaa6060799bf94df470ad9f27",
    15: "24b307abe588b8ecbd08a3c693f657c3d64bab9f",
    22: "e88551681fdfe1c6a40571d09700de9d3e559808",
}


def closed_grid_sha1(D):
    """sha1 of every closed product at degree D: vertex_closed_zn for
    n = 1..5, the leg in slot 0, 1, 2, each leg of partitions_up_to(4);
    then for m = 0..4 closed_z2z2_staircase, upsilon, phi,
    corollary_rpc_closed and one_leg_zn_staircase(4, m, D); then
    pyramid_closed(D)."""
    out = []
    for n in range(1, 6):
        for slot in range(3):
            for v in pc.partitions_up_to(4):
                legs = [(), (), ()]
                legs[slot] = v
                out.append(vertex_closed_zn(n, tuple(legs), D))
    for m in range(5):
        out += [f(m, D) for f in (closed_z2z2_staircase, upsilon, phi,
                                  corollary_rpc_closed)]
        out.append(one_leg_zn_staircase(4, m, D))
    out.append(pyramid_closed(D))
    text = "".join(s.to_json() + "\n" for s in out)
    return hashlib.sha1(text.encode()).hexdigest()


@pytest.mark.parametrize("D", [0, 1, 6, 15])
def test_closed_output_grid_is_unchanged(D):
    # a regression anchor for the closed route, byte for byte
    assert closed_grid_sha1(D) == CLOSED_GRID_SHA1[D]


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
    for m in (1, 2):
        sub, ell = m % 2, (m + 1) // 2
        fam = "Mt1" if sub else "Mt0"
        gf = rpc.generating_function(pc.staircase(m), 0, ANTI, 4)
        if m % 4 in (0, 3):
            gf = gf.map_vars(names, (0, 2, 1, 3))
        else:
            gf = gf.map_vars(names, (3, 1, 2, 0))
        rhs = (Factors(names, 4).walk("Mt", term_mul(xa, xb))
               .walk(fam, term_mul(xa, xb), l=2 * ell).series() * gf)
        assert closed_z2z2_staircase(m, 4) == rhs


def test_diag_frame_restriction_matches_z4_vertex():
    names = VARS_Z2Z2
    xa, xb, xc = (term_var(4, i) for i in (1, 2, 3))
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
            lhs = lhs * Factors(names, 4).walk(name, x, l=ell).series()
        rhs = one_leg_zn_staircase(4, m, 4).map_vars(names, (0, 2, 3, 1))
        for x in (xa, xb, xlast, triple):
            rhs = rhs * Factors(names, 4).walk("Mh", x).series()
        assert lhs == rhs


def test_closed_series_coefficients_nonnegative():
    series = [closed_z2z2_staircase(0, 5), pyramid_closed(5),
              corollary_rpc_closed(2, 5),
              one_leg_zn_staircase(4, 3, 5),
              vertex_closed_zn(3, ((), (), (2, 1)), 4),
              closed_z2z2_staircase(2, 5)]
    for s in series:
        assert all(c >= 0 for c in s.terms.values())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("slot", range(3))
def test_vertex_closed_zn_makes_no_series_product(monkeypatch, n, slot):
    # every slot runs the one path: one Schur function, s_() = 1 for a
    # third leg, as the master of the one Factors product
    def refuse(self, other):
        raise AssertionError("Series product in vertex_closed_zn")

    calls = []

    def counted(*args):
        calls.append(args[0])
        return skew_schur_specialized(*args)

    products = []

    def recorded(*args):
        products.append(args)
        return _product(*args)

    def no_series(self):
        raise AssertionError("Factors.series in vertex_closed_zn")

    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(Factors, "series", no_series)
    monkeypatch.setattr(dt_vertex, "skew_schur_specialized", counted)
    monkeypatch.setattr(dt_vertex, "_product", recorded)
    legs = [(), (), ()]
    legs[slot] = (3, 1)
    got = vertex_closed_zn(n, tuple(legs), 6)
    assert calls == [((2, 1, 1), (3, 1), ())[slot]]
    assert len(products) == 1
    assert got == enumerate_one_leg(tuple(legs), "zn", 6, n=n)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("legs", [((3, 1), (), ()), ((), (2, 2, 1), ())],
                         ids=["slot-1", "slot-2"])
def test_vertex_closed_zn_side_slot_product_runs_at_the_cutoff(
        monkeypatch, n, legs):
    # only the Schur function runs to cutoff + sum(g) (3 and 4 here): the
    # shifted master has no term of negative degree, so a factor above
    # the cutoff cannot reach it
    cutoffs = []

    def recorded(table, m, cutoff, names, swap=None):
        cutoffs.append(cutoff)
        return _product(table, m, cutoff, names, swap)

    monkeypatch.setattr(dt_vertex, "_product", recorded)
    got = vertex_closed_zn(n, legs, 7)
    assert cutoffs == [7]
    assert got == enumerate_one_leg(legs, "zn", 7, n=n)


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
