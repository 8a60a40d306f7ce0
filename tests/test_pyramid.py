import os
import subprocess
import sys

import pytest

from orbivertex.pyramid import (
    ANTI, DIAG, enumerate_pyramids, pyramid_series, _group_names, zn_names,
)

import oracles
from paper import (
    PyramidPartition, address_to_position, check_type_interlacing, color,
    position_to_address,
)


def test_depth_one_bricks():
    # exactly two bricks at depth 1
    assert position_to_address(DIAG, -1, 0, 1) == (-1, 0, 0)
    assert position_to_address(DIAG, 1, 0, 1) == (1, 0, 0)
    assert position_to_address(DIAG, 0, 1, 1) is None
    assert position_to_address(DIAG, 0, -1, 1) is None
    assert color(DIAG, -1, 0, 0) == "a"
    assert color(DIAG, 1, 0, 0) == "b"
    assert color(DIAG, 0, 0, 0) == "0"


def test_address_position_roundtrip():
    for frame in (DIAG, ANTI):
        for k in range(-7, 8):
            for i in range(0, 5):
                for j in range(0, 5):
                    pos = address_to_position(frame, k, i, j)
                    assert position_to_address(frame, *pos) == (k, i, j)


def test_positions_against_quiver_walk():
    # every addressed brick position appears in the raw quiver walk with
    # the same color, and vice versa
    walk = oracles.brick_poset(9)
    walk = {p: c for p, c in walk.items() if p[2] <= 9}
    addressed = {}
    for k in range(-9, 10):
        for i in range(0, 6):
            for j in range(0, 6):
                pos = address_to_position(DIAG, k, i, j)
                if pos[2] <= 9:
                    addressed[pos] = color(DIAG, k, i, j)
    assert addressed == walk


def test_frame_conversion_frozen():
    # bricks re-addressed in the other frame, through their positions
    for frame, address, other, want in [(ANTI, (0, 1, 2), DIAG, (-2, 1, 1)),
                                        (ANTI, (0, 0, 1), DIAG, (-2, 0, 0)),
                                        (DIAG, (-2, 1, 1), ANTI, (0, 1, 2))]:
        pos = address_to_position(frame, *address)
        assert position_to_address(other, *pos) == want
    assert color(ANTI, 0, 0, 1) == "c"


def test_frame_conversion_roundtrip():
    for k in range(-6, 7):
        for i in range(4):
            for j in range(4):
                pos = address_to_position(DIAG, k, i, j)
                kk, ii, jj = position_to_address(ANTI, *pos)
                back = address_to_position(ANTI, kk, ii, jj)
                assert position_to_address(DIAG, *back) == (k, i, j)
                assert color(ANTI, kk, ii, jj) == color(DIAG, k, i, j)


def test_counts_by_size():
    by_size = {}
    for p in map(PyramidPartition, enumerate_pyramids(3)):
        by_size[p.size()] = by_size.get(p.size(), 0) + 1
    assert by_size == {0: 1, 1: 1, 2: 2, 3: 5}


def test_three_brick_weights():
    weights = sorted(p.color_counts()
                     for p in map(PyramidPartition, enumerate_pyramids(3))
                     if p.size() == 3)
    # (n0, na, nb, nc) slots
    assert weights == sorted([
        (2, 1, 0, 0),   # base, left, its depth-2 under-brick
        (2, 0, 1, 0),
        (1, 1, 1, 0),   # base plus both depth-1 bricks
        (1, 1, 0, 1),
        (1, 0, 1, 1),
    ])


def test_enumeration_against_downset_oracle():
    # the listed pyramids' color counts and the counting walk of
    # pyramid_series, against the down-set oracle at every degree
    oracle = oracles.pyramid_series_dict(10)
    for cutoff in range(11):
        want = {e: c for e, c in oracle.items() if sum(e) <= cutoff}
        got = {}
        for p in map(PyramidPartition, enumerate_pyramids(cutoff)):
            key = p.color_counts()
            got[key] = got.get(key, 0) + 1
        assert got == want, cutoff
        assert pyramid_series(cutoff).terms == want, cutoff


def test_enumerate_pyramids_rejects_negative_bound():
    # it used to return no pyramid at all, not even the empty one
    with pytest.raises(ValueError, match="budget must be >= 0"):
        enumerate_pyramids(-1)
    assert enumerate_pyramids(0) == [{}]


def test_slice_index_must_be_int():
    # int(k) used to read slice 1.5 as slice 1
    with pytest.raises(TypeError, match="slice index must be an int"):
        PyramidPartition({1.5: (1,)})
    # a float address gave the float position (1.0, -1.0, 2.0)
    for frame in (DIAG, ANTI):
        for address in [(2.0, 0, 0), (0, 1.0, 0), (0, 0, True)]:
            with pytest.raises(TypeError, match="brick address must be an int"):
                address_to_position(frame, *address)
            with pytest.raises(TypeError, match="brick address must be an int"):
                color(frame, *address)
        for position in [(1.0, -1, 2), (0, 0.0, 0), (0, 0, 2.5)]:
            with pytest.raises(TypeError, match="brick position must be an int"):
                position_to_address(frame, *position)


def test_brick_coordinates_must_be_non_negative():
    # the diagonal frame read the color off k alone, so (0, -1, 0) was "0"
    for frame in (DIAG, ANTI):
        for i, j in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="must be non-negative"):
                color(frame, 0, i, j)
            with pytest.raises(ValueError, match="must be non-negative"):
                address_to_position(frame, 3, i, j)


def test_validate_and_brick_roundtrip():
    for p in map(PyramidPartition, enumerate_pyramids(5)):
        assert p.validate()
        assert PyramidPartition.from_bricks(p.bricks()) == p
        assert len(p.bricks()) == p.size()


def test_validate_rejects_bad_chain():
    # a slice-1 brick needs support on slice 0
    with pytest.raises(ValueError):
        PyramidPartition({1: (1,)}).validate()
    # two rows on slice 0 require a brick on slice 1 in between:
    # (1,1) against the empty right neighbor breaks pi_0 >= pi_1
    with pytest.raises(ValueError):
        PyramidPartition({0: (1, 1)}).validate()


def test_antidiagonal_slices_frozen():
    p = PyramidPartition({-1: (1,), 0: (2,)})   # origin, v1, v1w1
    assert p.size() == 3
    anti = p.antidiagonal_slices()
    assert anti == {0: (1,), -1: (1,), -2: (1,)}


def test_antidiagonal_chain_property():
    # the antidiagonal slices of a valid pyramid interlace under the same
    # chain rule as the diagonal ones
    for p in map(PyramidPartition, enumerate_pyramids(6)):
        assert check_type_interlacing(p.antidiagonal_slices(), ()), p


def test_pyramid_series_low_terms():
    s = pyramid_series(3)
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert s.coefficient((1, 0, 0, 0)) == 1
    assert s.coefficient((1, 1, 0, 0)) == 1
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((2, 0, 0, 0)) == 0
    assert sum(c for e, c in s.terms.items() if sum(e) == 3) == 5


def test_deterministic_double_run():
    a = pyramid_series(5)
    b = pyramid_series(5)
    assert a == b and a.to_json() == b.to_json()


def test_pyramid_imports_alone():
    # pyramid reaches the rpc walk through a function-level import, since
    # rpc imports pyramid; a fresh interpreter that imports pyramid alone
    # must still count and list pyramids
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from orbivertex.pyramid import enumerate_pyramids, pyramid_series\n"
            "print(pyramid_series(3).to_json())\n"
            "print(len(enumerate_pyramids(3)))\n" % src)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [pyramid_series(3).to_json(),
                   str(len(oracles.pyramid_downsets(3)[0]))]


@pytest.mark.parametrize("n, error, message", [
    (0, ValueError, "n must be >= 1 for group zn, got 0"),
    (-2, ValueError, "n must be >= 1 for group zn, got -2"),
    (True, TypeError, "n must be an int"),
    (2.0, TypeError, "n must be an int"),
])
def test_zn_names_checks_n_as_group_names_does(n, error, message):
    # zn_names(0) and zn_names(-2) returned (), and zn_names(True) ('qt0',)
    for names in (lambda: zn_names(n), lambda: _group_names("zn", n)):
        with pytest.raises(error, match=message):
            names()
    assert zn_names(3) == _group_names("zn", 3) == ("qt0", "qt1", "qt2")
