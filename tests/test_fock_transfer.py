import ast
import inspect

import pytest

from orbivertex import fock_transfer
from orbivertex import partition_core as pc
from orbivertex import rpc
from orbivertex.fock_transfer import (
    checkerboard_counts, gamma_apply, vertex_by_transfer,
)
from orbivertex.pyramid import pyramid_series
from orbivertex.qseries import Series
import oracles
from oracles import basis_state, e_apply, empty_state
from paper import edge_value


def test_checkerboard_counts():
    assert checkerboard_counts(()) == (0, 0)
    assert checkerboard_counts((1,)) == (1, 0)
    assert checkerboard_counts((3, 1)) == (2, 2)
    assert checkerboard_counts((2, 2)) == (2, 2)
    # the row count against the cell walk
    for lam in pc.partitions_up_to(10):
        assert checkerboard_counts(lam) == oracles.checkerboard_cells(lam), lam


def test_checkerboard_counts_once_per_partner(monkeypatch):
    # the two-color walk counts each partner it weighs once per call, not
    # once per step; the one-color modes weigh by size alone
    calls = []

    def counted(lam):
        calls.append(lam)
        return checkerboard_counts(lam)

    monkeypatch.setattr(fock_transfer, "checkerboard_counts", counted)
    vertex_by_transfer("z2z2", (2, 1), 8)
    assert len(calls) == len(set(calls)) > 1
    for group, mode, n in [("z2z2", "rpc_diagonal", None), ("zn", "zn", 4)]:
        calls.clear()
        vertex_by_transfer(group, (2, 1), 8, mode, n)
        assert calls == [], mode


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


# every product mode, as (group, mode, n)
ALL_MODES = ([("z2z2", m, None)
              for m in ("standard", "rpc_antidiagonal", "rpc_diagonal")]
             + [("zn", "zn", n) for n in (1, 2, 3, 4)])
MODES = ALL_MODES[:3] + [("zn", "zn", 3)]


@pytest.mark.parametrize("group,mode,n", MODES, ids=[m[1] for m in MODES])
def test_transfer_truncation_boundaries(group, mode, n):
    # degree 0 keeps only the empty configuration; TIER1's rows at degree
    # 1 check the partners of size cutoff - low and the terms with d == room
    for leg in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        got = vertex_by_transfer(group, leg, 0, mode, n)
        assert got == Series(got.names, 0, {(0,) * len(got.names): 1}), leg


@pytest.mark.parametrize("group,mode,n", ALL_MODES,
                         ids=["%s%s" % (m[1], m[2] or "") for m in ALL_MODES])
def test_transfer_window_stable(group, mode, n):
    # the window of vertex_by_transfer is the proven minimum cutoff + t0;
    # it, window + 1 and window + 2 (one odd and one even neighbour) agree
    # for every leg of size <= 4, staircase or not
    for leg in pc.partitions_up_to(4):
        for cutoff in range(9):
            v, mode_, n_, window = fock_transfer._transfer_args(
                group, leg, cutoff, mode, n)
            want = fock_transfer._bracket(v, cutoff, mode_, n_, window)
            for w in (window + 1, window + 2):
                got = fock_transfer._bracket(v, cutoff, mode_, n_, w)
                assert got == want, (leg, cutoff, w)


def test_transfer_window_is_the_proven_minimum():
    # cutoff + t0 with t0 = max(len(v), v_0) + 1, no margin, odd or even
    for group, mode, n in ALL_MODES:
        for leg in pc.partitions_up_to(5):
            for cutoff in range(12):
                window = fock_transfer._transfer_args(
                    group, leg, cutoff, mode, n)[3]
                assert window == cutoff + max(len(leg), pc.part(leg, 0)) + 1


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


def test_transfer_ahead_is_the_least_continuation(monkeypatch):
    # the truncation's bound after every step of the step list that the
    # transfer itself hands pc.least_ahead, against a minimum over every
    # chain of interlacing partitions: step t moves down where the leg's
    # edge value is -1 and is primed at even t under the RPC modes
    least_ahead = pc.least_ahead
    seen = []

    def spy(steps):
        got = least_ahead(steps)
        seen.append((tuple(steps), got[0]))
        return got

    monkeypatch.setattr(pc, "least_ahead", spy)
    for group, mode, n in [("z2z2", "standard", None),
                           ("z2z2", "rpc_antidiagonal", None),
                           ("z2z2", "rpc_diagonal", None), ("zn", "zn", 3)]:
        for leg in [(), (1,), (2, 1), (1, 1, 1)]:
            seen.clear()
            vertex_by_transfer(group, leg, 3, mode, n=n)
            (steps, ahead), = seen
            window = fock_transfer._transfer_args(group, leg, 3, mode, n)[3]
            conj = pc.conjugate(leg)
            primes = mode.startswith("rpc")
            assert steps == tuple((edge_value(conj, t) == -1,
                                   primes and t % 2 == 0)
                                  for t in range(-window, window + 1)), (
                                      mode, leg)
            for mu in pc.partitions_up_to(5):
                for k in range(len(steps)):
                    want = oracles.least_continuation(mu, steps[k + 1:])
                    assert ahead(mu, k) == want, (mode, leg, mu, k)


def test_diagonal_parities_match_diagonal_counts():
    for v in pc.partitions_up_to(8):
        window = fock_transfer._transfer_args("z2z2", v, 6, None, None)[3]
        ks = [-(t + 1) for t in range(-window, window + 1)]
        want = [oracles.diagonal_count(v, k) % 2 for k in ks]
        assert fock_transfer._diagonal_parities(v, ks) == want, v
