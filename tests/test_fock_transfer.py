import ast
import inspect

import pytest

from orbivertex import fock_transfer
from orbivertex import partition_core as pc
from orbivertex import rpc
from orbivertex.dt_vertex import (
    closed_z2z2_staircase, corollary_rpc_closed, enumerate_3d,
    vertex_closed_zn,
)
from orbivertex.fock_transfer import (
    checkerboard_counts, gamma_apply, vertex_by_transfer,
)
from orbivertex.pyramid import ANTI, DIAG, pyramid_series
from orbivertex.qseries import Series
from orbivertex.rpc import generating_function
import oracles
from oracles import basis_state, commute_series, e_apply, empty_state


def test_checkerboard_counts():
    assert checkerboard_counts(()) == (0, 0)
    assert checkerboard_counts((1,)) == (1, 0)
    assert checkerboard_counts((3, 1)) == (2, 2)
    assert checkerboard_counts((2, 2)) == (2, 2)


def test_transfer_z2z2_no_leg_low_terms():
    s = vertex_by_transfer("z2z2", (), 3)
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert s.coefficient((1, 0, 0, 0)) == 1
    assert s.coefficient((1, 1, 0, 0)) == 1
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((1, 0, 0, 1)) == 1
    assert s.coefficient((2, 0, 0, 0)) == 0
    for e in [(2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
              (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)]:
        assert s.coefficient(e) == 1, e
    assert sum(c for e, c in s.terms.items() if sum(e) == 3) == 6


def test_transfer_rpc_no_leg_is_pyramid_series():
    want = pyramid_series(5)
    assert vertex_by_transfer("z2z2", (), 5, "rpc_antidiagonal") == want
    assert vertex_by_transfer("z2z2", (), 5, "rpc_diagonal") == want


def test_transfer_rpc_matches_family_enumeration():
    # every leg of size <= 4 reaches both corner parities of every kind
    # of slice (even, odd s > 0, odd s < 0) within degree 6
    for v in pc.partitions_up_to(4):
        got = vertex_by_transfer("z2z2", v, 6, "rpc_antidiagonal")
        assert got == generating_function(v, 0, ANTI, 6), v
        got = vertex_by_transfer("z2z2", v, 6, "rpc_diagonal")
        assert got == generating_function(v, 0, DIAG, 6), v


def test_antidiagonal_corner_parity_is_diagonal_parity_and_size():
    # _bracket's proof: the corner sum of slice k at shift 0 is the
    # number of the leg's cells on diagonal k plus |v| mod 2
    for v in pc.partitions_up_to(12):
        ks = range(-30, 31)
        want = [(ci + cj) % 2 for ci, cj in rpc.corners(v, 0, ks)]
        got = [p ^ sum(v) % 2 for p in fock_transfer._diagonal_parities(v, ks)]
        assert got == want, v


def test_transfer_reads_no_rpc_corners():
    # transfer and the RPC walk are compared with each other, so the
    # antidiagonal weights of the two must not come from one function
    assert not hasattr(fock_transfer, "corners")
    assert rpc not in vars(fock_transfer).values()
    imported = []
    for node in ast.walk(ast.parse(inspect.getsource(fock_transfer))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""]
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported
                             if name.split(".")[-1] == "rpc"]


def test_transfer_z2_low_terms():
    s = vertex_by_transfer("zn", (), 2, n=2)
    assert s.names == ("qt0", "qt1")
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == 1
    assert s.coefficient((1, 1)) == 2
    assert s.coefficient((2, 0)) == 1
    assert s.coefficient((0, 1)) == 0


def test_transfer_z4_low_terms():
    s = vertex_by_transfer("zn", (), 2, n=4)
    assert s.coefficient((1, 0, 0, 0)) == 1
    assert s.coefficient((1, 1, 0, 0)) == 1
    assert s.coefficient((1, 0, 0, 1)) == 1
    assert s.coefficient((2, 0, 0, 0)) == 1
    assert s.coefficient((1, 0, 1, 0)) == 0


def test_transfer_bad_arguments():
    with pytest.raises(ValueError):
        vertex_by_transfer("zn", (), 2)
    with pytest.raises(ValueError):
        vertex_by_transfer("so3", (), 2)
    with pytest.raises(ValueError):
        vertex_by_transfer("z2z2", (), 2, mode="zn")
    # rejected with the arguments, before any walk
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        fock_transfer._transfer_args("z2z2", (1,), 2, "bogus", None)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        vertex_by_transfer("z2z2", (1,), 2, mode="bogus")
    # a z2z2 mode under zn, and an n under z2z2, used to be ignored
    for mode in ("rpc_diagonal", "rpc_antidiagonal", "bogus"):
        with pytest.raises(ValueError, match="group zn takes mode zn"):
            vertex_by_transfer("zn", (1,), 4, mode=mode, n=4)
    for mode in ("standard", "rpc_antidiagonal", "rpc_diagonal"):
        with pytest.raises(ValueError, match="n is for group zn"):
            vertex_by_transfer("z2z2", (1,), 4, mode=mode, n=4)
    with pytest.raises(ValueError, match="positive degree"):
        e_apply(empty_state(2), 1, (1, (0, 0)), 4)


def test_transfer_zn_rejects_standard_mode():
    # it used to be taken for mode zn; the default mode goes by group
    with pytest.raises(ValueError, match="group zn takes mode zn"):
        vertex_by_transfer("zn", (1,), 4, mode="standard", n=4)
    assert (vertex_by_transfer("zn", (1,), 4, n=4)
            == vertex_by_transfer("zn", (1,), 4, mode="zn", n=4))
    assert (vertex_by_transfer("z2z2", (1,), 4)
            == vertex_by_transfer("z2z2", (1,), 4, mode="standard"))


def test_gamma_apply_rejects_zero_degree_upward_argument():
    # Gamma+(1) on a basis state is an infinite sum; it used to cap growth
    # at `cutoff` cells, so its degree-0 part changed with the cutoff
    for cutoff in (2, 3, 4):
        for primed in (False, True):
            with pytest.raises(ValueError, match="positive degree"):
                gamma_apply(basis_state((), 2), 1, primed, (1, (0, 0)), cutoff)
    with pytest.raises(ValueError, match="positive degree"):
        gamma_apply({}, 1, False, (1, (0, 0)), 4)
    # downward partners are finite, so a zero-degree argument is fine
    down = gamma_apply(basis_state((2, 1), 2), -1, False, (1, (0, 0)), 4)
    assert sorted(down) == sorted(pc.partners_below((2, 1)))


def test_transfer_rejects_negative_cutoff(monkeypatch):
    # it used to return an empty series where enumeration raised
    def no_walk(*args):
        raise AssertionError("bracket evaluated")

    monkeypatch.setattr(fock_transfer, "_bracket", no_walk)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        vertex_by_transfer("z2z2", (), -1)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        vertex_by_transfer("zn", (2, 1), -2, n=3)


def test_transfer_deterministic():
    a = vertex_by_transfer("z2z2", (1,), 3)
    b = vertex_by_transfer("z2z2", (1,), 3)
    assert a == b and a.to_json() == b.to_json()


CROSS_D = 12


def leg_id(leg):
    return "leg" + "".join(map(str, leg))


@pytest.mark.parametrize("leg", [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1)],
                         ids=leg_id)
def test_transfer_matches_enumeration_z2z2(leg):
    want = enumerate_3d(leg, "z2z2", CROSS_D)
    assert vertex_by_transfer("z2z2", leg, CROSS_D) == want


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("leg", [(1,), (2, 1)], ids=leg_id)
def test_transfer_matches_enumeration_zn(n, leg):
    want = enumerate_3d(leg, "zn", CROSS_D, n=n)
    assert vertex_by_transfer("zn", leg, CROSS_D, n=n) == want


@pytest.mark.parametrize("mode,frame", [("rpc_antidiagonal", ANTI),
                                        ("rpc_diagonal", DIAG)],
                         ids=["antidiagonal", "diagonal"])
@pytest.mark.parametrize("leg", [(1,), (2, 1)], ids=leg_id)
def test_transfer_matches_family_enumeration_deep(mode, frame, leg):
    want = generating_function(leg, 0, frame, CROSS_D - 1)
    assert vertex_by_transfer("z2z2", leg, CROSS_D - 1, mode) == want


# the four product modes, each with the route that must equal it at degree d
MODES = [
    ("z2z2", "standard", None, lambda leg, d: enumerate_3d(leg, "z2z2", d)),
    ("z2z2", "rpc_antidiagonal", None,
     lambda leg, d: generating_function(leg, 0, ANTI, d)),
    ("z2z2", "rpc_diagonal", None,
     lambda leg, d: generating_function(leg, 0, DIAG, d)),
    ("zn", "zn", 3, lambda leg, d: enumerate_3d(leg, "zn", d, n=3)),
]


@pytest.mark.parametrize("group,mode,n,other", MODES, ids=[m[1] for m in MODES])
def test_transfer_truncation_boundaries(group, mode, n, other):
    # degree 0 keeps only the empty configuration; degree 1 keeps exactly
    # the partners of size cutoff - low and the terms with d == room
    for leg in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        got = vertex_by_transfer(group, leg, 0, mode, n)
        assert got == Series(got.names, 0, {(0,) * len(got.names): 1}), leg
        assert vertex_by_transfer(group, leg, 1, mode, n) == other(leg, 1), leg


def test_transfer_matches_enumeration_degree_18():
    assert vertex_by_transfer("z2z2", (), 18) == enumerate_3d((), "z2z2", 18)


def test_transfer_matches_family_count_degree_14():
    # the vertex-operator product against the family count, two degrees
    # past the parametrized comparisons above
    want = generating_function((2, 1), 0, DIAG, 14)
    assert vertex_by_transfer("z2z2", (2, 1), 14, mode="rpc_diagonal") == want


# every product mode, as (group, mode, n)
ALL_MODES = ([("z2z2", m, None)
              for m in ("standard", "rpc_antidiagonal", "rpc_diagonal")]
             + [("zn", "zn", n) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("group,mode,n", ALL_MODES,
                         ids=["%s%s" % (m[1], m[2] or "") for m in ALL_MODES])
def test_transfer_window_stable(group, mode, n):
    # the window argument of vertex_by_transfer, checked where it is
    # tight: the proven minimum cutoff + t0, the window used and window + 2
    # agree for every leg of size <= 4, staircase or not
    for leg in pc.partitions_up_to(4):
        t0 = max(len(leg), pc.part(leg, 0)) + 1
        for cutoff in range(9):
            v, mode_, n_, window = fock_transfer._transfer_args(
                group, leg, cutoff, mode, n)
            assert window >= cutoff + t0
            want = fock_transfer._bracket(v, cutoff, mode_, n_, window)
            for w in (cutoff + t0, window + 2):
                got = fock_transfer._bracket(v, cutoff, mode_, n_, w)
                assert got == want, (leg, cutoff, w)


def test_transfer_evaluates_one_window(monkeypatch):
    calls = []
    bracket = fock_transfer._bracket

    def counted(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(fock_transfer, "_bracket", counted)
    for group, mode, n in ALL_MODES:
        calls.clear()
        vertex_by_transfer(group, (2, 1), 4, mode, n)
        assert len(calls) == 1, mode


@pytest.mark.parametrize("group,n", [("z2z2", None), ("zn", 3)],
                         ids=["z2z2", "z3"])
@pytest.mark.parametrize("leg", [(), (1,), (2, 1), (3, 1)], ids=leg_id)
def test_transfer_prune_boundary(group, n, leg):
    # terms with d + |mu| + ahead == cutoff must be kept; every cutoff
    # puts that boundary on different terms
    for cutoff in range(11):
        want = enumerate_3d(leg, group, cutoff, n=n)
        assert vertex_by_transfer(group, leg, cutoff, n=n) == want, cutoff


def test_transfer_ahead_is_the_least_continuation():
    # the truncation's bound after every step of every pattern, against a
    # minimum over every chain of interlacing partitions
    for pattern in oracles.step_patterns(5):
        ahead = fock_transfer._least_ahead(((False, False),) + pattern)
        for mu in pc.partitions_up_to(6):
            for k in range(len(pattern) + 1):
                want = oracles.least_continuation(mu, pattern[k:])
                assert ahead(mu, k) == want, (mu, pattern, k)


def test_diagonal_parities_match_diagonal_counts():
    for v in pc.partitions_up_to(8):
        window = fock_transfer._transfer_args("z2z2", v, 6, None, None)[3]
        ks = [-(t + 1) for t in range(-window, window + 1)]
        want = [oracles.diagonal_count(v, k) % 2 for k in ks]
        assert fock_transfer._diagonal_parities(v, ks) == want, v


DEEP_D = 22


@pytest.mark.parametrize("m", [1, 2])
def test_transfer_matches_staircase_product_degree_22(m):
    leg = pc.staircase(m)
    assert (vertex_by_transfer("z2z2", leg, DEEP_D)
            == closed_z2z2_staircase(m, DEEP_D))


def test_transfer_matches_closed_z4_degree_22():
    assert (vertex_by_transfer("zn", (2, 1), DEEP_D, n=4)
            == vertex_closed_zn(4, ((), (), (2, 1)), DEEP_D))


def test_transfer_matches_rpc_corollary_degree_22():
    assert (vertex_by_transfer("z2z2", (1,), DEEP_D, "rpc_antidiagonal")
            == corollary_rpc_closed(1, DEEP_D))


def test_commute_oracle_matches_transfer():
    # the pair_factor product (partner-free) against transfer, and each
    # pair against a third route, since both read the edge sequence
    legs = pc.partitions_up_to(4)
    for n in (2, 3, 4):
        for leg in legs:
            want = enumerate_3d(leg, "zn", 8, n=n)
            assert commute_series("zn", leg, 8, n) == want, (n, leg)
            assert vertex_by_transfer("zn", leg, 8, n=n) == want, (n, leg)
    for leg in legs + [(3, 2, 1)]:
        want = generating_function(leg, 0, DIAG, 8)
        assert commute_series("rpc_diagonal", leg, 8) == want, leg
        assert vertex_by_transfer("z2z2", leg, 8, "rpc_diagonal") == want, leg
    want = vertex_closed_zn(4, ((), (), (3, 1)), 20)
    assert commute_series("zn", (3, 1), 20, 4) == want
    assert vertex_by_transfer("zn", (3, 1), 20, n=4) == want
