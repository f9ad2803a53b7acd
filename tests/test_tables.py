import dataclasses
import itertools
import random
import sys
from array import array
from unittest import mock

import pytest

import helpers
from bispacelab import tables
from bispacelab.finite import PointSet, discrete_space, trace_space
from bispacelab.maps import FiniteMap
from bispacelab.tables import (
    _pack_slots,
    _split_slots,
    bispace_tables,
    closed_route_grid,
    continuity_grids,
    convergence_bits,
    hull_tables,
    interval_masksets,
    map_tables,
    pair_rows,
    subsets_of,
    topology_tables,
)
from helpers import (
    _flip_row,
    consequence_stream,
    reference_bispace_rows,
    reference_bispace_tables,
    reference_closed_route_grid,
    reference_consequence_failures,
    reference_continuity_grids,
    reference_convergence_bits,
)


def _rows(bt, pair):
    pcl, spcl = hull_tables(bt.top.n)
    return (
        bt.po[pair], bt.wpo[pair], bt.so[pair], bt.spo[pair], pcl[pair], spcl[pair]
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bispace_tables_match_brute_force_exhaustively(n):
    bt = bispace_tables(n)
    top = topology_tables(n)
    for t1, t2 in itertools.product(range(top.count), repeat=2):
        assert _rows(bt, bt.pair_index(t1, t2)) == reference_bispace_rows(
            top, t1, t2
        ), (t1, t2)


def test_bispace_tables_match_brute_force_sampled_n4():
    rng = random.Random(2016)
    bt = bispace_tables(4)
    top = topology_tables(4)
    for _ in range(3000):
        t1, t2 = rng.randrange(top.count), rng.randrange(top.count)
        assert _rows(bt, bt.pair_index(t1, t2)) == reference_bispace_rows(
            top, t1, t2
        ), (t1, t2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bispace_tables_match_per_pair_build_on_every_pair(n):
    # 126,025 pairs at n = 4; the per-pair build is checked against the
    # brute force above
    got = bispace_tables(n)
    expected, expected_hulls = reference_bispace_tables(n)
    fields = ("po", "wpo", "so", "spo")
    for field, got_rows, expected_rows in zip(
        (*fields, "pcl", "spcl"),
        (*(getattr(got, field) for field in fields), *hull_tables(n)),
        (*(getattr(expected, field) for field in fields), *expected_hulls),
    ):
        assert len(got_rows) == len(expected_rows), field
        bad = next(
            (pair for pair, (g, e) in enumerate(zip(got_rows, expected_rows))
             if g != e),
            None,
        )
        assert bad is None, (field, divmod(bad, got.top.count))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_rows_name_both_rows_of_every_pair_in_sweep_order(n):
    bt = bispace_tables(n)
    t_count = bt.top.count
    got = list(pair_rows(t_count))
    assert [(t1, t2) for t1, t2, _, _ in got] == list(
        itertools.product(range(t_count), repeat=2)
    )
    for t1, t2, pair, swapped in got:
        assert pair == bt.pair_index(t1, t2)
        assert swapped == bt.pair_index(t2, t1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subsets_of_follow_the_trace_relabelling(n):
    space = discrete_space(n)
    for y in range(1, 1 << n):
        _, relabel = trace_space(space, PointSet(n, y))
        subsets = subsets_of(y)
        assert len(subsets) == 1 << y.bit_count()
        for i, a in enumerate(subsets):
            assert a & ~y == 0
            points = (relabel[p] for p in PointSet(n, a))
            assert PointSet.of(len(relabel), points).mask == i, (y, a)


def test_cached_bispace_rows_are_read_only():
    # every caller shares the cached rows, so a write must fail, not change
    # what later callers read, through the view or the object under it
    bt = bispace_tables(3)
    for name in ("po", "wpo", "so", "spo"):
        with pytest.raises(TypeError):
            getattr(bt, name)[0] ^= 1
        with pytest.raises(TypeError):
            getattr(bt, name).obj[0] ^= 1


@pytest.mark.parametrize("byteorder", ["little", "big"])
@pytest.mark.parametrize("width", [8, 16])
def test_split_slots_matches_shifts(width, byteorder, monkeypatch):
    # the slots are fixed little-endian, and the split gives one array item
    # per slot: a host of the other byte order reads each item's bytes
    # reversed, so the items must hold the slots as that host reads them
    native = sys.byteorder
    monkeypatch.setattr(sys, "byteorder", byteorder)
    rng = random.Random(width)
    for count in (1, 2, 29, 355):
        for rows in (1, 3):
            packed = [rng.getrandbits(width * count) for _ in range(rows)]
            expected = [
                (bits >> (width * i)) & ((1 << width) - 1)
                for bits in packed
                for i in range(count)
            ]
            got = _split_slots(packed, width, count)
            assert got.itemsize * 8 == width
            if byteorder != native:
                got = array(got.format, got)  # the split views immutable bytes
                got.byteswap()
            assert got.tolist() == expected
            for i, bits in enumerate(packed):
                assert _pack_slots(expected[i * count:(i + 1) * count], width) == bits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interval_masksets(n):
    size = 1 << n
    ivl = interval_masksets(n)
    for a, c in itertools.product(range(size), repeat=2):
        expected = {s for s in range(size) if a & ~s == 0 and s & ~c == 0}
        assert {s for s in range(size) if (ivl[a][c] >> s) & 1} == expected


@pytest.mark.parametrize("m,k", list(itertools.product([1, 2, 3], repeat=2)))
def test_map_table_rows_match_image_and_preimage(m, k):
    mt = map_tables(m, k)
    for assignment, img_row, preim_row in zip(mt.maps, mt.img, mt.preim):
        f = FiniteMap(m, k, assignment)
        for a in range(1 << m):
            assert PointSet(k, img_row[a]) == f.image(PointSet(m, a))
        for b in range(1 << k):
            assert PointSet(m, preim_row[b]) == f.preimage(PointSet(k, b))


@pytest.mark.parametrize("m,k", list(itertools.product([1, 2, 3], repeat=2)))
def test_continuity_grids_match_per_pair_loop(m, k):
    assert dataclasses.astuple(continuity_grids(m, k)) == reference_continuity_grids(
        m, k
    )


def test_continuity_grids_follow_patched_rows():
    # one po and one spo row gain a value no other row has, so grids keyed
    # on a column other than the one each grid reads miss the change
    true_bt = bispace_tables(3)
    bt = dataclasses.replace(
        true_bt,
        po=_flip_row(true_bt.po, 303, 3),
        spo=_flip_row(true_bt.spo, 304, 5),
    )
    assert bt.po[303] not in true_bt.po and bt.spo[304] not in true_bt.spo
    with mock.patch.object(tables, "bispace_tables", lambda m: bt), \
            mock.patch.object(helpers, "bispace_tables", lambda m: bt):
        got = dataclasses.astuple(continuity_grids.__wrapped__(3, 3))
        expected = reference_continuity_grids(3, 3)
        closed, expected_closed = (
            [route(3, 3, semi) for semi in (False, True)]
            for route in (closed_route_grid, reference_closed_route_grid)
        )
    assert got == expected
    assert got != dataclasses.astuple(continuity_grids(3, 3))
    assert closed == expected_closed
    assert closed != [closed_route_grid(3, 3, semi) for semi in (False, True)]


@pytest.mark.parametrize("m,k", list(itertools.product([1, 2, 3], repeat=2)))
def test_closed_route_preimages_equal_open_route(m, k):
    # f^-1(Y - V) = X - f^-1(V), so the closed route reproduces pc and spc
    # exactly, by the build and by the set-by-set oracle
    grids = continuity_grids(m, k)
    for semi, open_route in ((False, grids.pc), (True, grids.spc)):
        closed_route = closed_route_grid(m, k, semi)
        assert closed_route == open_route, semi
        assert reference_closed_route_grid(m, k, semi) == closed_route, semi


@pytest.mark.parametrize("size", [1, 2, 3])
def test_convergence_bits_match_per_net_loop(size):
    assert convergence_bits(size) == reference_convergence_bits(size)


@pytest.mark.parametrize("semi", [False, True])
def test_consequence_failures_match_unmemoised_3x3(semi):
    got = consequence_stream(3, 3, semi)
    expected = reference_consequence_failures(3, 3, semi)
    for got_row, expected_row in itertools.zip_longest(got, expected):
        assert got_row == expected_row
