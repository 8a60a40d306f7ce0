import random

import pytest

from orbivertex import partition_core as pc

import oracles
from paper import edge_value, interlaces


def all_pairs_up_to(n):
    ps = pc.partitions_up_to(n)
    return [(a, b) for a in ps for b in ps]


def test_parse_and_format():
    assert pc.parse_partition("") == ()
    assert pc.parse_partition("3,1") == (3, 1)
    assert pc.parse_partition(" 2,2,1 ") == (2, 2, 1)
    assert pc.format_partition((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        pc.parse_partition("1,3")
    with pytest.raises(ValueError):
        pc.parse_partition("2,0")
    with pytest.raises(ValueError):
        pc.parse_partition("a,b")


def test_conjugate_examples():
    assert pc.conjugate(()) == ()
    assert pc.conjugate((1,)) == (1,)
    assert pc.conjugate((3, 1)) == (2, 1, 1)
    assert pc.conjugate((2, 1)) == (2, 1)
    assert pc.conjugate((4,)) == (1, 1, 1, 1)


def test_conjugate_involution_random():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randrange(0, 13)
        p = rng.choice(pc.partitions_of(n)) if n else ()
        assert pc.conjugate(pc.conjugate(p)) == p
        assert sum(pc.conjugate(p)) == sum(p)


def test_partition_counts():
    # p(0..9)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, e in enumerate(expected):
        assert len(pc.partitions_of(n)) == e
        assert len(set(pc.partitions_of(n))) == e


def test_cells_convention():
    # (i, j) with i the column index: row j has p[j] cells
    assert set(pc.cells((2, 1))) == {(0, 0), (1, 0), (0, 1)}
    assert pc.contains_cell((2, 1), 1, 0)
    assert not pc.contains_cell((2, 1), 1, 1)


def test_interlaces_examples():
    assert interlaces((3, 1), (2, 1))
    assert interlaces((3, 1), (3,))
    assert not interlaces((3, 1), (3, 2))
    assert interlaces((1,), ())
    assert not interlaces((1, 1), ())
    assert interlaces((2, 2), (2, 2), primed=True)
    assert interlaces((3, 2), (2, 2), primed=True)
    assert not interlaces((4, 2), (2, 2), primed=True)


def test_interlacing_equivalence_small():
    # row interlacing iff conjugate rows differ by 0/1
    for a, b in all_pairs_up_to(6):
        direct = interlaces(a, b)
        via_conj = all(
            pc.part(pc.conjugate(a), i) - pc.part(pc.conjugate(b), i) in (0, 1)
            for i in range(max(len(pc.conjugate(a)), len(pc.conjugate(b)), 1)))
        assert direct == via_conj, (a, b)
        assert interlaces(a, b, primed=True) == interlaces(
            pc.conjugate(a), pc.conjugate(b))


def test_edge_value_frozen():
    # edge set of (1) is {0, -2, -3, ...}
    assert edge_value((1,), 0) == 1
    assert edge_value((1,), -1) == -1
    assert edge_value((1,), -2) == 1
    assert edge_value((1,), 1) == -1
    # empty partition: sign change exactly at 0
    assert edge_value((), -1) == 1
    assert edge_value((), 0) == -1


def test_edge_charge_zero():
    for p in pc.partitions_up_to(10):
        members = pc.edge_set_members(p)
        plus = [t for t in members if t >= 0]
        minus = [t for t in range(-len(p) - 1, 0) if edge_value(p, t) != 1]
        assert len(plus) == len(minus), p
        b = pc.edge_bound(p)
        assert edge_value(p, b) == -1
        assert edge_value(p, -b) == 1


def test_diagonal_count():
    assert oracles.diagonal_count((3, 1), 0) == 1
    assert oracles.diagonal_count((3, 1), 1) == 1
    assert oracles.diagonal_count((3, 1), 2) == 1
    assert oracles.diagonal_count((3, 1), -1) == 1
    assert oracles.diagonal_count((3, 1), -2) == 0
    for p in pc.partitions_up_to(8):
        assert sum(oracles.diagonal_count(p, k) for k in range(-9, 10)) == sum(p)
        for k in range(-9, 10):
            assert oracles.diagonal_count(p, k) == oracles.diagonal_count(pc.conjugate(p), -k)


def test_diagonal_count_staircase_closed_form():
    for m in range(0, 8):
        v = pc.staircase(m)
        for k in range(-m - 2, m + 3):
            if abs(k) > m:
                expected = 0
            elif m % 2 == 0:
                expected = m // 2 - abs(k) // 2
            else:
                expected = (m + 1) // 2 - (1 + abs(k)) // 2
            assert oracles.diagonal_count(v, k) == expected, (m, k)


def test_residue_count():
    for p in pc.partitions_up_to(8):
        for n in (2, 3, 4):
            assert sum(pc.residue_count(p, k, n) for k in range(n)) == sum(p)
    assert pc.residue_count((2, 1), 1, 4) == 1
    assert pc.residue_count((2, 1), 3, 4) == 1
    assert pc.residue_count((2, 1), 0, 4) == 1
    assert pc.residue_count((2, 1), 2, 4) == 0


def test_hook_color_count():
    # (2,1): hook of (0,0) is the whole partition
    assert pc.hook_color_count((2, 1), 0, 0, 4) == (1, 1, 0, 1)
    assert pc.hook_color_count((2, 1), 1, 0, 4) == (0, 1, 0, 0)
    assert pc.hook_color_count((2, 1), 0, 1, 4) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        pc.hook_color_count((2, 1), 1, 1, 4)
    # hook sizes add up to |p| + sum of hooks... just check totals per cell
    for p in pc.partitions_up_to(6):
        for (i, j) in pc.cells(p):
            hist = pc.hook_color_count(p, i, j, 3)
            arm = p[j] - i - 1
            leg = pc.conjugate(p)[i] - j - 1
            assert sum(hist) == arm + leg + 1


def test_renormalization_exponent():
    assert pc.renormalization_exponent((4,), 0, 4) == 0
    assert pc.renormalization_exponent((4,), 3, 4) == 3
    assert pc.renormalization_exponent((), 5, 3) == 0
    # shifting k by n adds |p| to the total
    for p in pc.partitions_up_to(6):
        for n in (2, 3):
            for k in range(0, n):
                assert (pc.renormalization_exponent(p, k + n, n)
                        == pc.renormalization_exponent(p, k, n) + sum(p))


def test_is_staircase():
    assert pc.is_staircase(())
    assert pc.is_staircase((1,))
    assert pc.is_staircase((2, 1))
    assert pc.is_staircase((4, 3, 2, 1))
    assert not pc.is_staircase((2,))
    assert not pc.is_staircase((2, 2))
    assert not pc.is_staircase((3, 1))


def test_border_strips_frozen():
    assert oracles.border_strips((), 2) == (((1, 1), -1), ((2,), 1))
    assert oracles.border_strips((), 1) == (((1,), 1),)
    # removing what was added gives back the start
    for q, _ in oracles.border_strips((2, 1), 3):
        assert any(r == (2, 1) for r, _ in oracles.border_strips(q, 3, -1))


def test_border_strips_against_oracle():
    # the removals of the even-mode exponential are read off the
    # additions; each addition comes back as exactly one removal
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        n = rng.randrange(0, 7)
        p = rng.choice(pc.partitions_of(n)) if n else ()
        for length in range(1, 6):
            checked += 1
            for q, sign in oracles.border_strips(p, length):
                back = [(r, s) for r, s in oracles.border_strips(q, length, -1)
                        if r == p]
                assert back == [(p, sign)], (p, q, length)
    assert checked > 100


def test_partners_below():
    for lam in pc.partitions_up_to(5):
        got = sorted(set(pc.partners_below(lam)))
        want = sorted(m for m in pc.partitions_up_to(sum(lam))
                      if interlaces(lam, m))
        assert got == sorted(set(want)), lam
        gotp = sorted(set(pc.partners_below(lam, primed=True)))
        wantp = sorted(m for m in pc.partitions_up_to(sum(lam))
                       if interlaces(lam, m, primed=True))
        assert gotp == sorted(set(wantp)), lam


def test_partners_above():
    for lam in pc.partitions_up_to(4):
        for bound in (sum(lam), sum(lam) + 3):
            got = sorted(set(pc.partners_above(lam, bound)))
            want = sorted(m for m in pc.partitions_up_to(bound)
                          if interlaces(m, lam))
            assert got == want, (lam, bound)
            gotp = sorted(set(pc.partners_above(lam, bound, primed=True)))
            wantp = sorted(m for m in pc.partitions_up_to(bound)
                           if interlaces(m, lam, primed=True))
            assert gotp == wantp, (lam, bound)


def test_partners_are_memoized_tuples():
    for lam in pc.partitions_up_to(4):
        for primed in (False, True, 1):
            below = pc.partners_below(lam, primed)
            above = pc.partners_above(lam, sum(lam) + 2, primed)
            assert isinstance(below, tuple) and isinstance(above, tuple)
            assert pc.partners_below(lam, primed) is below
            assert pc.partners_above(lam, sum(lam) + 2, primed) is above
        assert pc.partners_below(lam, 1) == pc.partners_below(lam, True)
        assert pc.partners_above(lam, 5, 1) == pc.partners_above(lam, 5, True)


def test_partners_above_negative_budget_is_empty():
    for primed in (False, True):
        assert pc.partners_above((), -1, primed) == ()
        assert pc.partners_above((2, 1), 2, primed) == ()


def test_primed_partners_are_conjugated_unprimed():
    # tuple for tuple, in order: interlacing_families' depth-first order
    # reads the primed partners in the order of their conjugates
    for lam in pc.partitions_up_to(6):
        lc = pc.conjugate(lam)
        below = pc.partners_below(lam, primed=True)
        assert list(below) == [pc.conjugate(m) for m in pc.partners_below(lc)]
        assert all(interlaces(lam, m, primed=True) for m in below), lam
        for bound in (sum(lam), sum(lam) + 2):
            above = pc.partners_above(lam, bound, primed=True)
            assert list(above) == [
                pc.conjugate(m) for m in pc.partners_above(lc, bound)]
            assert all(interlaces(m, lam, primed=True) and sum(m) <= bound
                       for m in above), (lam, bound)


def test_unprimed_partners_ascend():
    # the generator order that interlacing_families' depth-first order
    # reads: ascending lexicographic, each partner once
    for lam in pc.partitions_up_to(7):
        below = list(pc.partners_below(lam))
        assert below == sorted(set(below)), lam
        for bound in range(sum(lam), sum(lam) + 5):
            above = list(pc.partners_above(lam, bound))
            assert above == sorted(set(above)), (lam, bound)


def test_least_ahead_is_the_least_continuation():
    # the bound of both sweeps after every step of every pattern, against
    # a minimum over every chain of interlacing partitions; following[k] -
    # k - 1 counts the upward steps right after step k, the run that keeps
    # mu
    for pattern in oracles.step_patterns(5):
        steps = ((False, False),) + pattern
        ahead, following = pc.least_ahead(steps)
        for k in range(len(steps)):
            run = 0
            while k + run + 1 < len(steps) and not steps[k + run + 1][0]:
                run += 1
            assert following[k] - k - 1 == run, (pattern, k)
        for mu in pc.partitions_up_to(6):
            for k in range(len(pattern) + 1):
                want = oracles.least_continuation(mu, pattern[k:])
                assert ahead(mu, k) == want, (mu, pattern, k)


@pytest.mark.parametrize("n", [0, -2])
def test_zn_cell_counts_reject_n_below_one(n):
    # n = 0 divided by zero, the histogram indexed out of range, and
    # n = -2 returned a count
    for count in [lambda: pc.residue_count((2, 1), 0, n),
                  lambda: pc.hook_color_count((2, 1), 0, 0, n),
                  lambda: pc.renormalization_exponent((2, 1), 1, n)]:
        with pytest.raises(ValueError, match="n must be >= 1"):
            count()
    with pytest.raises(TypeError, match="n must be an int"):
        pc.residue_count((2, 1), 0, 4.0)


def test_check_partition_rejects_non_int_parts():
    # (1.5,) and (True,) used to pass as partitions
    for p in [(1.5,), (True,), (3, 2.0), (2, 1, False)]:
        with pytest.raises(TypeError, match="part must be an int"):
            pc.check_partition(p)
    assert pc.check_partition((3, 1)) == (3, 1)
