import random
import re

import pytest

import oracles
from orbivertex import partition_core as pc
from orbivertex import rpc
from orbivertex.pyramid import (
    ANTI, COLOR_SLOT, DIAG, VARS_Z2Z2, PyramidPartition, address_to_position,
    color, enumerate_pyramids, position_to_address, pyramid_series,
)
from orbivertex.qseries import Series
from orbivertex.rpc import (
    check_type_interlacing, corners, generating_function,
    interlacing_families, realize, region, restrict, restrict_positions,
    slice_color_counts, uniqueness_scan,
)


def test_epsilon_spots():
    t = oracles.EpsilonTable(())
    assert (t.rho1, t.rho2) == (0, 0)
    t = oracles.EpsilonTable((2, 1))
    assert (t.rho1, t.rho2) == (1, 1)
    assert t.eps(2, 0) == 1
    assert t.eps(3, 1) == 1
    assert t.eps(1, 5) == 0
    assert t.eps(4, 5) == 0
    t = oracles.EpsilonTable((3, 2, 1))
    assert (t.rho1, t.rho2) == (2, 2)


def test_eps_counts_edge_values():
    # each counter against a direct count of the conjugate's edge values
    for v in pc.partitions_up_to(8):
        t = oracles.EpsilonTable(v)
        e = lambda x: pc.edge_value(pc.conjugate(v), x)
        for x in range(-1, t.bound + 3):
            assert t.eps(1, x) == sum(e(2 * s) == 1 for s in range(x + 1))
            assert t.eps(2, x) == sum(e(2 * s + 1) == 1 for s in range(x + 1))
            assert t.eps(3, x) == sum(e(-2 * s) == -1 for s in range(1, x + 1))
            assert t.eps(4, x) == sum(e(-2 * s + 1) == -1
                                      for s in range(1, x + 1))


def test_eps_monotone_and_hat():
    for v in [(), (1,), (3, 1), (2, 2), (4, 2, 1)]:
        t = oracles.EpsilonTable(v)
        for which in (1, 2, 3, 4):
            vals = [t.eps(which, x) for x in range(-2, t.bound + 3)]
            assert all(b - a in (0, 1) for a, b in zip(vals, vals[1:]))
            rho = t.rho2 if which in (1, 3) else t.rho1
            assert rho - t.eps(which, t.bound) >= 0
            assert rho - t.eps(which, -5) in (t.rho1, t.rho2)


def test_empty_leg_corners_are_shift():
    for l in range(3):
        for k in range(-5, 6):
            assert region((), l, k) == (l, l)
            assert sum(region((), 0, k)) == 0


def test_corners_match_epsilon_counters():
    # the Frobenius form against the paper's four counters and four-case
    # slice map, on every slice out to where both have settled
    for v in pc.partitions_up_to(12):
        t = oracles.EpsilonTable(v)
        span = 2 * pc.edge_bound(pc.conjugate(v)) + 5
        ks = range(-span, span + 1)
        for l in range(4):
            want = [oracles.region_by_eps(v, l, k, t) for k in ks]
            assert corners(v, l, ks) == want, (v, l)


def test_corners_step_by_one_and_settle():
    # the arms are distinct, and so are the legs, so one slice step
    # passes at most one of them; past the largest leg on the left and
    # the largest arm on the right nothing is left to pass
    for v in pc.partitions_up_to(10):
        conj = pc.conjugate(v)
        arms = [x - i - 1 for i, x in enumerate(v) if x > i]
        legs = [x - i - 1 for i, x in enumerate(conj) if x > i]
        span = pc.edge_bound(conj) + 4
        got = corners(v, 2, range(-span, span + 1))
        for (ri, rj), (si, sj) in zip(got, got[1:]):
            assert abs(ri - si) + abs(rj - sj) <= 1, v
        low, high = -max(legs, default=-1) - 1, max(arms, default=0) + 1
        assert len(set(got[:low + span + 1])) == 1, v
        assert len(set(got[high + span:])) == 1, v


def test_corners_match_one_region_call_per_slice():
    # slices unsorted, repeated, from a one-shot iterator, and far past
    # the largest coordinate, where the prefix tables stop
    rng = random.Random(26)
    for v in pc.partitions_up_to(10):
        span = 3 * (pc.edge_bound(pc.conjugate(v)) + 4)
        ks = list(range(-span, span + 1)) * 2
        rng.shuffle(ks)
        for l in range(3):
            want = [region(v, l, k) for k in ks]
            assert corners(v, l, iter(ks)) == want, (v, l)


def test_staircase_corner_sum_closed_form():
    for m in range(0, 7):
        v = pc.staircase(m)
        for k in range(-(m + 4), m + 5):
            got = sum(region(v, 0, k))
            if m % 2 == 0:
                want = m - abs(k) // 2 if abs(k) <= m else m // 2
            else:
                want = m + 1 - (1 + abs(k)) // 2 if abs(k) <= m else (m + 1) // 2
            assert got == want, (m, k, got, want)


def test_restrict_empty_leg_is_identity():
    for p in enumerate_pyramids(5):
        assert restrict(p, (), 0, DIAG) == p.slices
        assert restrict(p, (), 0, ANTI) == p.antidiagonal_slices()
        assert restrict_positions(p, (), 0, DIAG) == frozenset(p.bricks())
        assert restrict_positions(p, (), 0, ANTI) == frozenset(p.bricks())


def test_restrict_position_count_matches_slices():
    random.seed(7)
    pyramids = enumerate_pyramids(7)
    for p in random.sample(pyramids, 40):
        for v in [(1,), (2,), (2, 1)]:
            for frame in (DIAG, ANTI):
                fam = restrict(p, v, 1, frame)
                pos = restrict_positions(p, v, 1, frame)
                assert sum(map(sum, fam.values())) == len(pos)


def test_restriction_satisfies_second_type():
    legs = [(), (1,), (2,), (2, 1), (3, 1)]
    for p in enumerate_pyramids(6):
        for v in legs:
            for l in (0, 1):
                for frame in (DIAG, ANTI):
                    fam = restrict(p, v, l, frame)
                    assert check_type_interlacing(fam, v), (p, v, l, frame)


def test_interlacing_families_empty_leg_are_pyramids():
    # enumerate_pyramids is this walk at the empty leg, so the check is
    # against the down-set oracle, which builds pyramids brick by brick
    for n in range(0, 7):
        fams = [frozenset(PyramidPartition(f).bricks())
                for f in interlacing_families((), n)]
        want = oracles.pyramid_downsets(n)[0]
        assert len(fams) == len(set(fams)) == len(want), n
        assert set(fams) == set(want), n


def test_single_brick_families_one_box_leg():
    fams = [f for f in interlacing_families((1,), 1) if f]
    assert sorted(list(f.keys()) for f in fams) == [[-1], [1]]
    assert all(f[k] == (1,) for f in fams for k in f)


def test_interlacing_rejects_bad_family():
    assert not check_type_interlacing({0: (1,)}, (1,))
    assert not check_type_interlacing({0: (2,)}, ())
    assert check_type_interlacing({0: (1,)}, ())


def test_realize_roundtrip():
    for v in [(), (1,), (2,), (2, 1)]:
        for fam in interlacing_families(v, 4):
            for l in (0, 1):
                for frame in (DIAG, ANTI):
                    p = realize(fam, v, l, frame)
                    assert restrict(p, v, l, frame) == fam, (v, fam, l, frame)


def test_realize_empty_family():
    assert realize({}, (), 0, DIAG).size() == 0
    assert realize({}, (), 0, ANTI).size() == 0
    p = realize({}, (), 1, DIAG)
    assert p.size() > 0
    assert restrict(p, (), 1, DIAG) == {}
    with pytest.raises(ValueError):
        realize({0: (1,)}, (1,), 0, DIAG)


def test_realize_frozen():
    # the construction itself, not only its restriction, which would not
    # see a change in the padding: the empty family's staircase padding
    # at shift 1, and one family of leg (2, 1) in each frame at shift 1
    assert realize({}, (), 1, DIAG).slices == {k: (1,) for k in range(-4, 3)}
    fam = {0: (1,), 2: (1,), 3: (1,)}
    assert realize(fam, (2, 1), 1, DIAG).slices == {
        -10: (1, 1), -9: (1, 1), -8: (2, 2), -7: (2, 2), -6: (3, 2),
        -5: (3, 2), -4: (3, 2), -3: (3, 2), -2: (3, 2), -1: (3, 3, 2),
        0: (3, 3, 3), 1: (3, 3, 2), 2: (2, 2, 2), 3: (2, 2, 2),
        4: (2, 2, 1), 5: (2, 2), 6: (2, 2), 7: (2,), 8: (2,)}
    assert realize(fam, (2, 1), 1, ANTI).slices == {
        -5: (3,), -4: (4,), -3: (4, 2), -2: (5, 2, 1, 1, 1),
        -1: (5, 5, 2, 1, 1), 0: (6, 6, 3, 2, 2), 1: (6, 3, 2, 2),
        2: (6, 2, 2, 1), 3: (2, 2, 2), 4: (1, 1, 1), 5: (1, 1)}


def test_realize_validates():
    for v in [(1,), (3, 1)]:
        for fam in interlacing_families(v, 3):
            q = realize(fam, v, 0, ANTI)
            q.validate()


def test_slice_color_counts_frozen():
    # slots are (q0, qa, qb, qc)
    assert slice_color_counts(0, (2, 1), DIAG, 0) == (3, 0, 0, 0)
    assert slice_color_counts(-1, (1,), DIAG, 1) == (0, 1, 0, 0)
    assert slice_color_counts(0, (2, 1), ANTI, 0) == (1, 0, 0, 2)
    assert slice_color_counts(0, (2, 1), ANTI, 1) == (2, 0, 0, 1)
    assert slice_color_counts(1, (2, 1), ANTI, 0) == (0, 2, 1, 0)
    assert slice_color_counts(-1, (2, 1), ANTI, 0) == (0, 1, 2, 0)


@pytest.mark.parametrize("parity, error", [
    (2, ValueError), (-1, ValueError), (True, TypeError), (1.0, TypeError),
])
def test_slice_color_counts_rejects_bad_corner_parity(parity, error):
    # parity 2 was read as 0, True and 1.0 as 1
    for frame in (DIAG, ANTI):
        with pytest.raises(error, match="corner parity must be"):
            slice_color_counts(0, (2, 1), frame, parity)


def test_slice_color_counts_rejects_unknown_frame():
    # any frame but the diagonal one was read as the antidiagonal one:
    # this call returned (1, 0, 0, 2)
    with pytest.raises(ValueError, match="unknown frame 'bogus'"):
        slice_color_counts(0, (2, 1), "bogus", 0)


def test_generating_function_empty_leg_is_pyramid_series():
    # pyramid_series is the diagonal walk at the empty leg, so that frame
    # is checked against the down-set oracle; the antidiagonal frame
    # weighs each slice's colors differently and meets pyramid_series
    want = oracles.pyramid_series_dict(5)
    for l in (0, 1):
        assert generating_function((), l, DIAG, 5).terms == want, l
        assert generating_function((), l, ANTI, 5) == pyramid_series(5), l


def test_generating_function_one_box_leg_low_terms():
    for frame in (DIAG, ANTI):
        s = generating_function((1,), 0, frame, 1)
        assert s.coefficient((0, 0, 0, 0)) == 1
        assert s.coefficient((0, 1, 0, 0)) == 1
        assert s.coefficient((0, 0, 1, 0)) == 1
        assert s.coefficient((1, 0, 0, 0)) == 0
        assert s.coefficient((0, 0, 0, 1)) == 0


def test_generating_function_shift_independent():
    for v in [(1,), (2,)]:
        for frame in (DIAG, ANTI):
            base = generating_function(v, 0, frame, 4)
            for l in (1, 2):
                assert generating_function(v, l, frame, 4) == base


def test_shifted_restrictions_weigh_the_shift_0_series():
    # generating_function never reads l, so comparing it across shifts
    # holds by construction; here each family is placed at shift l by
    # realize, restricted back at l, and its physical bricks weighed by
    # their colors, which depend on the shifted corners
    for v in pc.partitions_up_to(3):
        families = interlacing_families(v, 6)
        for frame in (DIAG, ANTI):
            want = generating_function(v, 0, frame, 6)
            for l in (1, 2):
                terms = {}
                for family in families:
                    p = realize(family, v, l, frame)
                    exps = [0] * len(VARS_Z2Z2)
                    for pos in restrict_positions(p, v, l, frame):
                        address = position_to_address(frame, *pos)
                        exps[COLOR_SLOT[color(frame, *address)]] += 1
                    key = tuple(exps)
                    terms[key] = terms.get(key, 0) + 1
                assert Series(VARS_Z2Z2, 6, terms) == want, (v, frame, l)


def test_generating_function_rejects_negative_shift(monkeypatch):
    # the counting walk draws every slice from the partner functions, so
    # no call to them means no slice was walked
    calls = []
    for name in ("partners_below", "partners_above"):
        monkeypatch.setattr(pc, name, lambda *args: calls.append(args) or ())
    for frame in (DIAG, ANTI):
        with pytest.raises(ValueError, match="shift l must be >= 0"):
            generating_function((1,), -3, frame, 3)
    assert calls == []
    # the same patch does reach the walk once the shift is valid
    generating_function((1,), 0, DIAG, 3)
    assert calls


def _no_corners(*args, **kwargs):
    raise AssertionError("corners computed")


def test_restriction_rejects_unknown_frame_up_front(monkeypatch):
    # an unknown frame used to be read as the antidiagonal one, and
    # realize rejected it only after building every slice
    p = PyramidPartition({0: (3,), -1: (3,)})
    monkeypatch.setattr(rpc, "corners", _no_corners)
    calls = [lambda: restrict(p, (), 0, "bogus"),
             lambda: restrict_positions(p, (), 0, "bogus"),
             lambda: restrict_positions(PyramidPartition({}), (1,), 0, "bogus"),
             lambda: realize({0: (1,)}, (), 0, "bogus"),
             lambda: generating_function((), 0, "bogus", 3)]
    for call in calls:
        with pytest.raises(ValueError, match="unknown frame 'bogus'"):
            call()


def test_restriction_rejects_negative_shift_up_front(monkeypatch):
    # restrict used to return {} for a pyramid with no bricks
    empty = PyramidPartition({})
    with pytest.raises(ValueError, match="shift l must be >= 0"):
        restrict(empty, (1,), -1, DIAG)
    monkeypatch.setattr(rpc, "corners", _no_corners)
    p = PyramidPartition({0: (3,), -1: (3,)})
    for frame in (DIAG, ANTI):
        for call in (restrict, restrict_positions):
            for q in (empty, p):
                with pytest.raises(ValueError, match="shift l must be >= 0"):
                    call(q, (1,), -1, frame)
        with pytest.raises(ValueError, match="shift l must be >= 0"):
            realize({}, (), -1, frame)


@pytest.mark.parametrize("call, what", [
    pytest.param(lambda: realize({0.7: (1,)}, (), 0, DIAG), "slice index",
                 id="realize-slice-index"),
    pytest.param(lambda: region((), 1.5, 0), "shift l", id="region-shift"),
    pytest.param(lambda: region((2, 1), 0, 1.5), "slice index",
                 id="region-slice-index"),
    pytest.param(lambda: corners((2, 1), 0, (0, 1.5)), "slice index",
                 id="corners-slice-index"),
    pytest.param(lambda: uniqueness_scan(2, (0.5,), 3), "shift l",
                 id="uniqueness-scan-shift"),
    pytest.param(lambda: generating_function((1,), 1.5, ANTI, 3), "shift l",
                 id="generating-function-shift"),
])
def test_float_slice_index_or_shift_raises_up_front(monkeypatch, call, what):
    # each used to run: realize built slice 0 from 0.7, region returned
    # (1.5, 1.5), and the scan and the walk carried the float shift;
    # region failed on slice 1.5 inside its edge table
    monkeypatch.setattr(rpc, "corners", _no_corners)
    with pytest.raises(TypeError, match=what + " must be an int"):
        call()


@pytest.mark.parametrize("call, what", [
    pytest.param(lambda: interlacing_families((), True), "budget",
                 id="budget-bool"),
    pytest.param(lambda: interlacing_families((), 1.5), "budget",
                 id="budget-float"),
    pytest.param(lambda: uniqueness_scan(True, (0,), 3), "max leg size",
                 id="size-bool"),
    pytest.param(lambda: uniqueness_scan(1.5, (0,), 3), "max leg size",
                 id="size-float"),
    pytest.param(lambda: uniqueness_scan(2, (0,), True), "window",
                 id="window-bool"),
    pytest.param(lambda: uniqueness_scan(2, (0,), 1.5), "window",
                 id="window-float"),
    pytest.param(lambda: region((2, 1), 0, True), "slice index",
                 id="region-slice-bool"),
    pytest.param(lambda: corners((2, 1), 0, (True,)), "slice index",
                 id="corners-slice-bool"),
    pytest.param(lambda: uniqueness_scan(2, (), True), "window",
                 id="window-bool-no-shifts"),
    pytest.param(lambda: uniqueness_scan(2, (0,), 2.0), "window",
                 id="window-integral-float"),
])
def test_rpc_counts_must_be_ints(call, what):
    # True was read as 1 (region gave slice 1's corner, the
    # window's from the cached runs of window 1), and a float window
    # failed inside range()
    with pytest.raises(TypeError, match=what + " must be an int"):
        call()


@pytest.mark.parametrize("leg", [(1.5,), ("a",)], ids=["float", "str"])
def test_leg_parts_must_be_ints(leg):
    # generating_function conjugated the leg before checking it, and
    # failed inside conjugate: "'float' object cannot be interpreted as
    # an integer"; the walk's other entries checked it first
    message = "part must be an int, not %r" % (leg[0],)
    for frame in (DIAG, ANTI):
        with pytest.raises(TypeError, match=re.escape(message)):
            generating_function(leg, 0, frame, 3)
    with pytest.raises(TypeError, match=re.escape(message)):
        interlacing_families(leg, 3)


def test_frames_agree_iff_staircase_small():
    assert generating_function((1,), 0, DIAG, 4) == generating_function((1,), 0, ANTI, 4)
    a = generating_function((2,), 0, ANTI, 4)
    d = generating_function((2,), 0, DIAG, 4)
    assert a != d


def test_region_complement_equal_iff_staircase():
    scan = uniqueness_scan(4, (0, 1), 8)
    assert len(scan) == 2 * len(pc.partitions_up_to(4))
    for (v, l), ok in scan.items():
        assert ok == pc.is_staircase(v), (v, l)


def test_region_complement_equal_matches_per_cell_oracle():
    for K in range(13):
        scan = uniqueness_scan(6, (0, 1, 2, 3), K)
        assert len(scan) == 4 * len(pc.partitions_up_to(6))
        for (v, l), ok in scan.items():
            want = oracles.region_complement_equal_per_cell(v, l, K)
            assert ok == want, (v, l, K)


def _clamped_per_shift(v, l, K):
    # each run's two thresholds read from the corners at shift l and
    # clamped to the run end, one shift at a time, with no slack
    at = corners(v, l, range(-K, K + 1))
    for k, h, dk, a, b, end in rpc._window_runs(K):
        (ci, cj), (dci, dcj) = at[k], at[dk]
        if min(max(ci - h, cj), end) != min(max(dci - a, dcj - b), end):
            return False
    return True


def test_uniqueness_scan_matches_each_shift_on_its_own():
    shifts = range(6)
    for K in range(25):
        scan = uniqueness_scan(10, shifts, K)
        assert len(scan) == len(shifts) * len(pc.partitions_up_to(10))
        for (v, l), ok in scan.items():
            assert _clamped_per_shift(v, l, K) == ok, (v, l, K)


def test_symmetric_verdict_stays_symmetric_at_larger_shifts():
    flips = 0
    for K in range(25):
        scan = uniqueness_scan(8, range(6), K)
        for v in pc.partitions_up_to(8):
            verdicts = [scan[(v, l)] for l in range(6)]
            assert verdicts == sorted(verdicts), (v, K, verdicts)
            flips += verdicts[0] != verdicts[-1]
    # not vacuous: in small windows some legs turn symmetric at a shift
    assert flips


def test_uniqueness_scan_reads_corners_once_per_leg(monkeypatch):
    calls = []
    read_corners = rpc.corners

    def counted(v, l, ks):
        calls.append((v, l))
        return read_corners(v, l, ks)

    monkeypatch.setattr(rpc, "corners", counted)
    legs = pc.partitions_up_to(5)
    for shifts in [(0,), (0, 1, 2, 3), (3, 1)]:
        calls.clear()
        uniqueness_scan(5, shifts, 7)
        assert sorted(calls) == sorted((v, 0) for v in legs), shifts
    calls.clear()
    assert uniqueness_scan(5, (), 7) == {}
    assert calls == []


def test_window_runs_cover_the_window_cells():
    # every window cell exactly once, with the diagonal address the
    # per-cell conversion gives it, so also the same cells per (k, dk)
    for K in range(13):
        want = {}
        for k in range(-K, K + 1):
            for i in range(K + 1):
                for j in range(K + 1):
                    pos = address_to_position(ANTI, k, i, j)
                    dk, di, dj = position_to_address(DIAG, *pos)
                    if abs(dk) <= K and di <= K and dj <= K:
                        want[(k, i, j)] = (dk, di, dj)
        got = {}
        for k, h, dk, a, b, end in rpc._window_runs(K):
            lo = max(0, -h)
            assert lo < end, (K, k, h)
            for j in range(lo, end):
                assert (k - K, j + h, j) not in got
                got[(k - K, j + h, j)] = (dk - K, j + a, j + b)
        assert got == want, K


def test_window_runs_offsets_reach_the_run_start():
    # one of a, b is min(h, 0), so neither frame's threshold falls below
    # the run start max(0, -h) and _slack clamps only at the run end
    for K in range(31):
        for _, h, _, a, b, _ in rpc._window_runs(K):
            assert min(a, b) == min(h, 0), (K, h, a, b)


@pytest.mark.parametrize("frame", [DIAG, ANTI])
def test_generating_function_matches_listed_families(frame):
    for v in pc.partitions_up_to(4):
        for cutoff in (0, 1, 5, 8):
            want = oracles.generating_function_listed(v, frame, cutoff)
            for l in (0, 1):
                got = generating_function(v, l, frame, cutoff)
                assert got == want, (v, l, cutoff)


@pytest.mark.parametrize("frame", [DIAG, ANTI])
def test_generating_function_matches_partner_free_brute_force(frame):
    # the staircases aside, no other route reaches these legs in the
    # antidiagonal frame without partners_above and partners_below
    for v in list(pc.partitions_up_to(3)) + [(3, 1), (2, 2)]:
        want = oracles.generating_function_brute(v, frame, 4)
        assert generating_function(v, 0, frame, 4) == want, v


def test_interlacing_families_match_unpruned_oracle():
    for v in pc.partitions_up_to(4):
        for budget in range(7):
            want = oracles.interlacing_families_unpruned(v, budget)
            assert interlacing_families(v, budget) == want, (v, budget)


def test_walk_ahead_is_the_least_continuation():
    # the chain prune's bound at every slice of every pattern, against a
    # minimum over every chain of interlacing partitions
    for pattern in oracles.step_patterns(5):
        lives = rpc._cell_lives(((False, False),) + pattern, 7)
        for mu in pc.partitions_up_to(6):
            for k in range(len(pattern) + 1):
                want = oracles.least_continuation(mu, pattern[k:])
                assert rpc._ahead(mu, lives[k]) == want, (mu, pattern, k)


def test_interlacing_families_rejects_negative_budget(monkeypatch):
    def no_partners(*args, **kwargs):
        raise AssertionError("walk started")

    # the budget is checked before any slice is walked
    monkeypatch.setattr(rpc.pc, "partners_above", no_partners)
    monkeypatch.setattr(rpc.pc, "partners_below", no_partners)
    for v in [(), (1,), (2, 1)]:
        with pytest.raises(ValueError, match="budget must be >= 0"):
            interlacing_families(v, -1)


@pytest.mark.parametrize("v", [(1, 2), (1, 0)])
def test_interlacing_families_rejects_bad_leg(v):
    # as generating_function does, through corners
    with pytest.raises(ValueError):
        generating_function(v, 0, DIAG, 2)
    with pytest.raises(ValueError):
        interlacing_families(v, 2)


@pytest.mark.parametrize("shifts", [(0, -1), (-1,), (2, 0, -3)])
def test_uniqueness_scan_rejects_negative_shift_up_front(monkeypatch, shifts):
    # the scan reads every slice corner from corners
    monkeypatch.setattr(rpc, "corners", _no_corners)
    with pytest.raises(ValueError, match="shift l must be >= 0"):
        uniqueness_scan(3, shifts, 4)


def test_negative_window_rejected_up_front(monkeypatch):
    monkeypatch.setattr(rpc, "corners", _no_corners)
    with pytest.raises(ValueError, match="window must be >= 0"):
        uniqueness_scan(3, (0,), -1)
    with pytest.raises(ValueError, match="window must be >= 0"):
        uniqueness_scan(3, (), -1)
    # it used to compare empty ranges and call every leg symmetric
    for size in (0, 2, 4):
        with pytest.raises(ValueError, match="window must be >= 0"):
            uniqueness_scan(size, (0,), -1)
        with pytest.raises(ValueError, match="shift l must be >= 0"):
            uniqueness_scan(size, (-1,), 3)


def test_uniqueness_scan_output():
    out = uniqueness_scan(3, (0,), 8)
    assert out[((1,), 0)] is True
    assert out[((2,), 0)] is False
    assert out[((2, 1), 0)] is True
    assert out[((3,), 0)] is False


def test_restrict_level_uniqueness():
    pyramids = enumerate_pyramids(6)
    for v in [(1,), (2, 1)]:
        for p in pyramids:
            assert restrict_positions(p, v, 0, ANTI) == restrict_positions(p, v, 0, DIAG)
    for v in [(2,), (3, 1)]:
        assert any(restrict_positions(p, v, 0, ANTI) != restrict_positions(p, v, 0, DIAG)
                   for p in pyramids)


def test_generating_function_deterministic():
    a = generating_function((2, 1), 0, ANTI, 4)
    b = generating_function((2, 1), 0, ANTI, 4)
    assert a == b and a.to_json() == b.to_json()
