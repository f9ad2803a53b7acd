import dataclasses
import itertools
import random

import pytest

from bispacelab.suites import _consequence_failures
from bispacelab.tables import (
    bispace_tables,
    continuity_grids,
    convergence_bits,
    interval_masksets,
    topology_tables,
)
from helpers import (
    reference_bispace_rows,
    reference_consequence_failures,
    reference_continuity_grids,
    reference_convergence_bits,
)


def _rows(bt, pair):
    return (
        bt.po[pair], bt.wpo[pair], bt.so[pair], bt.spo[pair],
        bt.pcl[pair], bt.spcl[pair],
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interval_masksets(n):
    size = 1 << n
    ivl = interval_masksets(n)
    for a, c in itertools.product(range(size), repeat=2):
        expected = {s for s in range(size) if a & ~s == 0 and s & ~c == 0}
        assert {s for s in range(size) if (ivl[a][c] >> s) & 1} == expected


@pytest.mark.parametrize("m,k", list(itertools.product([1, 2, 3], repeat=2)))
def test_continuity_grids_match_per_pair_loop(m, k):
    assert dataclasses.astuple(continuity_grids(m, k)) == reference_continuity_grids(
        m, k
    )


@pytest.mark.parametrize("size", [1, 2, 3])
def test_convergence_bits_match_per_net_loop(size):
    assert convergence_bits(size) == reference_convergence_bits(size)


@pytest.mark.parametrize("semi", [False, True])
def test_consequence_failures_match_unmemoised_3x3(semi):
    got = _consequence_failures(3, 3, semi)
    expected = reference_consequence_failures(3, 3, semi)
    for got_row, expected_row in itertools.zip_longest(got, expected):
        assert got_row == expected_row
