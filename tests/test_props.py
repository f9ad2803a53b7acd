import itertools
import random

import pytest

from bispacelab.finite import PointSet, enumerate_spaces, validate_space
from bispacelab.props import (
    Bispace,
    check_pair,
    closed_supersets_interior,
    is_ij_preclosed,
    is_ij_preopen,
    is_ij_semiopen,
    is_ij_semipreclosed,
    is_ij_semipreopen,
    is_ij_weakly_preopen,
    is_pairwise_preopen,
    is_preopen,
    is_weakly_preopen,
    pcl,
    spcl,
    subspace,
)
from bispacelab.tables import bispace_tables, hull_tables, topology_tables
from helpers import (
    finite_semiopen_search,
    random_preorder_space,
    scan_closure,
    scan_interior,
    scan_limit_points,
    scan_open_between,
)


def ps(n, *points):
    return PointSet.of(n, points)


def sierpinski():
    return validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])


def test_check_pair():
    assert check_pair((1, 2)) == (1, 2)
    assert check_pair((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        check_pair((1, 1))
    with pytest.raises(ValueError):
        check_pair((0, 2))


def test_bispace_requires_shared_carrier():
    with pytest.raises(ValueError):
        Bispace(sierpinski(), validate_space(3, [ps(3), ps(3, 0, 1, 2)]))


def test_every_open_set_is_preopen_and_weakly():
    space = sierpinski()
    for o in space.opens:
        assert is_preopen(space, o).holds
        assert is_weakly_preopen(space, o)


def test_weakly_preopen_failure_example():
    # closure of {1} is {1} and its interior is empty
    space = sierpinski()
    assert not is_weakly_preopen(space, ps(2, 1))
    assert not is_preopen(space, ps(2, 1)).holds


def test_preopen_witness_is_reported():
    space = sierpinski()
    w = is_preopen(space, ps(2, 0))
    assert w.holds and w.witness == ps(2, 0)


def test_pairwise_vocabulary_on_a_small_bispace():
    b = Bispace(
        validate_space(3, [ps(3), ps(3, 0, 1), ps(3, 0, 1, 2)]),
        validate_space(3, [ps(3), ps(3, 2), ps(3, 0, 1, 2)]),
    )
    a = ps(3, 0)
    # cl_2({0}) = {0,1}; U = {0,1} fits
    assert is_ij_preopen(b, (1, 2), a).holds
    assert is_ij_weakly_preopen(b, (1, 2), a)
    assert not is_ij_semiopen(b, (1, 2), a)       # no nonempty open inside {0}
    assert is_ij_semipreopen(b, (1, 2), a).holds  # reflexive witness
    assert is_pairwise_preopen(b, a)              # (2,1) via U = X, cl_1({0}) = X
    # against a discrete second structure closures are identities, so
    # (1,2)-preopen collapses to tau_1-membership
    from bispacelab.finite import discrete_space

    b2 = Bispace(validate_space(3, [ps(3), ps(3, 0), ps(3, 0, 1, 2)]), discrete_space(3))
    assert not is_ij_preopen(b2, (1, 2), ps(3, 1)).holds
    assert is_ij_preopen(b2, (1, 2), ps(3, 0)).holds
    assert not is_pairwise_preopen(b2, ps(3, 1))


def test_semipreopen_reflexive_witness():
    b = Bispace(sierpinski(), sierpinski())
    a = ps(2, 0)
    w = is_ij_semipreopen(b, (1, 2), a)
    assert w.holds and w.witness == a


def test_preclosed_is_complement_preopen():
    b = Bispace(sierpinski(), sierpinski())
    for mask in range(4):
        a = PointSet(2, mask)
        assert is_ij_preclosed(b, (1, 2), a) == is_ij_preopen(
            b, (1, 2), a.complement()
        ).holds
        assert is_ij_semipreclosed(b, (1, 2), a) == is_ij_semipreopen(
            b, (1, 2), a.complement()
        ).holds


def test_empty_set_always_preclosed():
    for s1 in enumerate_spaces(2):
        for s2 in enumerate_spaces(2):
            b = Bispace(s1, s2)
            assert is_ij_preclosed(b, (1, 2), ps(2))
            assert is_ij_preclosed(b, (2, 1), ps(2))


def test_pcl_brute_force_oracle_n2():
    """Independent oracle: intersect preclosed supersets recomputed from scratch."""
    for s1 in enumerate_spaces(2):
        for s2 in enumerate_spaces(2):
            b = Bispace(s1, s2)
            for pair in ((1, 2), (2, 1)):
                for mask in range(4):
                    a = PointSet(2, mask)
                    expected = PointSet(2, 0b11)
                    for sm in range(4):
                        sup = PointSet(2, sm)
                        if a.issubset(sup) and is_ij_preopen(
                            b, pair, sup.complement()
                        ).holds:
                            expected = expected & sup
                    assert pcl(b, pair, a) == expected
                    assert a.issubset(pcl(b, pair, a))


def test_pcl_of_whole_is_whole():
    b = Bispace(sierpinski(), sierpinski())
    assert pcl(b, (1, 2), ps(2, 0, 1)) == ps(2, 0, 1)
    assert spcl(b, (1, 2), ps(2, 0, 1)) == ps(2, 0, 1)


def test_discrete_bispace_everything_preclosed():
    from bispacelab.finite import discrete_space

    b = Bispace(discrete_space(2), discrete_space(2))
    for mask in range(4):
        assert is_ij_preclosed(b, (1, 2), PointSet(2, mask))


def test_closed_supersets_interior_finite():
    b = Bispace(sierpinski(), sierpinski())
    # {0} is open hence preopen; the condition must hold
    assert closed_supersets_interior(b, (1, 2), ps(2, 0))
    # {1}: closed superset {1} has empty interior
    assert not closed_supersets_interior(b, (1, 2), ps(2, 1))


def test_subspace_traces_both_structures():
    b = Bispace(
        validate_space(3, [ps(3), ps(3, 0), ps(3, 0, 1, 2)]),
        validate_space(3, [ps(3), ps(3, 1, 2), ps(3, 0, 1, 2)]),
    )
    sub = subspace(b, ps(3, 0, 2))
    assert sub.first.opens == (ps(2), ps(2, 0), ps(2, 0, 1))
    assert sub.second.opens == (ps(2), ps(2, 1), ps(2, 0, 1))


# ---------------------------------------------------------------------------
# The suite tables agree with the reference predicates
# ---------------------------------------------------------------------------

def _spaces(n):
    return list(enumerate_spaces(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tables_match_reference_exhaustively(n):
    bt = bispace_tables(n)
    pcl_rows, spcl_rows = hull_tables(n)
    spaces = _spaces(n)
    t_count = len(spaces)
    assert t_count == bt.top.count
    for t1, t2 in itertools.product(range(t_count), repeat=2):
        b = Bispace(spaces[t1], spaces[t2])
        for mask in range(1 << n):
            a = PointSet(n, mask)
            for row, pr in (
                (bt.pair_index(t1, t2), (1, 2)), (bt.pair_index(t2, t1), (2, 1))
            ):
                po = (bt.po[row] >> mask) & 1
                assert bool(po) == is_ij_preopen(b, pr, a).holds
                wpo = (bt.wpo[row] >> mask) & 1
                assert bool(wpo) == is_ij_weakly_preopen(b, pr, a)
                so = (bt.so[row] >> mask) & 1
                assert bool(so) == is_ij_semiopen(b, pr, a)
                spo = (bt.spo[row] >> mask) & 1
                assert bool(spo) == is_ij_semipreopen(b, pr, a).holds
                assert PointSet(n, pcl_rows[row][mask]) == pcl(b, pr, a)
                assert PointSet(n, spcl_rows[row][mask]) == spcl(b, pr, a)


def test_finite_semiopen_closed_form_matches_search():
    # a <= cl_j(int_i a) against the scan over every i-open, both directions,
    # on carriers past the enumeration limit
    verdicts = {True: 0, False: 0}
    for seed in range(16):
        rng = random.Random(4000 + seed)
        n = rng.randint(5, 8)
        sp1, sp2 = random_preorder_space(rng, n), random_preorder_space(rng, n)
        for a in sp1.algebra_sets():
            for sp_i, sp_j in ((sp1, sp2), (sp2, sp1)):
                got = sp_i.semiopen_under(sp_j, a)
                assert got == finite_semiopen_search(sp_i, sp_j, a), (seed, a)
                verdicts[got] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_finite_semiopen_closed_form_matches_tables_n4_sample():
    bt = bispace_tables(4)
    spaces = _spaces(4)
    rng = random.Random(17)
    for _ in range(300):
        t1, t2 = rng.randrange(bt.top.count), rng.randrange(bt.top.count)
        so = bt.so[bt.pair_index(t1, t2)]
        for mask in range(16):
            assert bool((so >> mask) & 1) == spaces[t1].semiopen_under(
                spaces[t2], PointSet(4, mask)
            ), (t1, t2, mask)


def test_trace_tables_match_trace_space():
    from bispacelab.finite import trace_space
    from bispacelab.tables import trace_tables

    tr = trace_tables(3)
    spaces = _spaces(3)
    for t, space in enumerate(spaces):
        for y in range(1, 8):
            region = PointSet(3, y)
            sub, _ = trace_space(space, region)
            sub_n, t_sub = tr[t][y]
            assert sub_n == len(region)
            expected = topology_tables(sub_n).opens[t_sub]
            assert tuple(o.mask for o in sub.opens) == expected


def _assert_primitives_match_scans(space, masks, pairs):
    """FiniteSpace's table lookups against the open-family scans: is_open,
    closure, interior and limit_points on `masks`, open_between on the
    nested (a, b) in `pairs`."""
    n = space.size
    opens = [o.mask for o in space.opens]
    for mask in masks:
        a = PointSet(n, mask)
        assert space.is_open(a) == (mask in opens), (space, a)
        assert space.closure(a).mask == scan_closure(n, opens, mask), (space, a)
        assert space.interior(a).mask == scan_interior(opens, mask), (space, a)
        assert space.limit_points(a).mask == scan_limit_points(n, opens, mask)
    for a, b in pairs:
        found = space.open_between(PointSet(n, a), PointSet(n, b))
        found = None if found is None else found.mask
        assert found == scan_open_between(n, opens, a, b), (space, a, b)


def _nested_pairs(n):
    return [(a, b) for b in range(1 << n) for a in range(1 << n) if a & ~b == 0]


def test_topology_tables_match_spaces():
    # every topology on up to 4 points: the table rows and the FiniteSpace
    # primitives both against the scans over the open family
    rng = random.Random(27)
    for n in range(1, 5):
        top = topology_tables(n)
        nested = _nested_pairs(n)
        for t, space in enumerate(_spaces(n)):
            assert tuple(o.mask for o in space.opens) == top.opens[t]
            for mask in range(1 << n):
                assert top.cl[t][mask] == scan_closure(n, top.opens[t], mask)
                assert top.intr[t][mask] == scan_interior(top.opens[t], mask)
            pairs = nested if n <= 3 else rng.sample(nested, 8)
            _assert_primitives_match_scans(space, range(1 << n), pairs)
    # seeded preorder topologies past the enumeration limit
    for n in range(5, 11):
        space = random_preorder_space(rng, n)
        masks = rng.sample(range(1 << n), min(1 << n, 256))
        pairs = [(a & b, b) for a, b in zip(masks, reversed(masks))]
        _assert_primitives_match_scans(space, masks, pairs)
