import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bispacelab.finite import (
    FiniteSpace,
    PointSet,
    SpaceAxiomError,
    _space_forms,
    count_spaces,
    discrete_space,
    enumerate_spaces,
    indiscrete_space,
    trace_space,
    validate_space,
)
from helpers import (
    random_preorder_space,
    reference_space_forms,
    scan_axiom_violation,
)


def ps(n, *points):
    return PointSet.of(n, points)


# ---------------------------------------------------------------------------
# PointSet algebra
# ---------------------------------------------------------------------------

masks = st.integers(min_value=0, max_value=15)


@given(masks, masks)
def test_pointset_union_intersection_de_morgan(a, b):
    x, y = PointSet(4, a), PointSet(4, b)
    assert (x | y).complement() == x.complement() & y.complement()
    assert (x & y).complement() == x.complement() | y.complement()


@given(masks, masks)
def test_pointset_subset_via_difference(a, b):
    x, y = PointSet(4, a), PointSet(4, b)
    assert x.issubset(y) == (x - y).is_empty


def test_pointset_iteration_and_contains():
    s = ps(5, 0, 3, 4)
    assert list(s) == [0, 3, 4]
    assert 3 in s and 1 not in s
    assert len(s) == 3
    assert s.canonical_key() == (3, (0, 3, 4))


def test_pointset_rejects_out_of_range():
    with pytest.raises(ValueError):
        ps(2, 5)
    with pytest.raises(ValueError):
        PointSet(2, 1 << 3)


def test_pointset_carrier_mismatch():
    with pytest.raises(ValueError):
        ps(2, 0).union(ps(3, 0))


# ---------------------------------------------------------------------------
# Space validation
# ---------------------------------------------------------------------------

def test_validate_minimal_family():
    space = validate_space(2, [ps(2), ps(2, 0, 1)])
    assert space.opens == (ps(2), ps(2, 0, 1))


def test_validate_one_proper_open():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    assert space.is_open(ps(2, 0))
    assert not space.is_open(ps(2, 1))


def test_validate_missing_union_reports_witness():
    with pytest.raises(SpaceAxiomError) as exc:
        validate_space(3, [ps(3), ps(3, 0), ps(3, 1), ps(3, 0, 1, 2)])
    assert exc.value.axiom == "union-closed"
    assert set(exc.value.witnesses) == {ps(3, 0), ps(3, 1)}


def test_validate_missing_intersection():
    with pytest.raises(SpaceAxiomError) as exc:
        validate_space(
            3, [ps(3), ps(3, 0, 1), ps(3, 1, 2), ps(3, 0, 1, 2)]
        )
    assert exc.value.axiom == "intersection-closed"


def test_validate_requires_empty_and_whole():
    with pytest.raises(SpaceAxiomError) as exc:
        validate_space(2, [ps(2, 0, 1)])
    assert exc.value.axiom == "empty-set-open"
    with pytest.raises(SpaceAxiomError) as exc:
        validate_space(2, [ps(2)])
    assert exc.value.axiom == "whole-set-open"


def test_opens_deduplicated_and_canonical():
    space = validate_space(
        2, [ps(2, 0, 1), ps(2), ps(2, 0), ps(2, 0), ps(2, 1)]
    )
    assert space.opens == (ps(2), ps(2, 0), ps(2, 1), ps(2, 0, 1))


# ---------------------------------------------------------------------------
# Closure / interior / limit points
# ---------------------------------------------------------------------------

def test_closure_indiscrete():
    space = indiscrete_space(2)
    assert space.closure(ps(2, 0)) == ps(2, 0, 1)
    assert space.closure(ps(2)) == ps(2)


def test_closure_discrete_identity():
    space = discrete_space(3)
    assert space.closure(ps(3, 0, 2)) == ps(3, 0, 2)


def test_interior_examples():
    assert indiscrete_space(2).interior(ps(2, 0)) == ps(2)
    sierpinski = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    assert sierpinski.interior(ps(2, 0)) == ps(2, 0)
    assert sierpinski.interior(ps(2, 0, 1)) == ps(2, 0, 1)


def test_limit_points_examples():
    # x=0 is not a limit point of {0}: its only neighborhood meets {0}-{0}=empty
    assert indiscrete_space(2).limit_points(ps(2, 0)) == ps(2, 1)
    assert indiscrete_space(2).limit_points(ps(2, 0, 1)) == ps(2, 0, 1)
    assert discrete_space(3).limit_points(ps(3, 0, 1)) == ps(3)
    sierpinski = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    assert sierpinski.limit_points(ps(2, 0)) == ps(2, 1)


def test_open_between_smallest_witness():
    space = validate_space(
        2, [ps(2), ps(2, 0), ps(2, 1), ps(2, 0, 1)]
    )
    assert space.open_between(ps(2), ps(2, 0, 1)) == ps(2)
    assert space.open_between(ps(2, 0), ps(2, 0, 1)) == ps(2, 0)
    with pytest.raises(ValueError):
        space.open_between(ps(2, 0, 1), ps(2, 0))


def test_open_between_absent():
    space = indiscrete_space(2)
    assert space.open_between(ps(2, 0), ps(2, 0)) is None


# ---------------------------------------------------------------------------
# Closure laws over every enumerated space (the axioms' consequences)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_laws_exhaustive(n):
    for space in enumerate_spaces(n):
        subsets = [PointSet(n, m) for m in range(1 << n)]
        assert space.closure(space.empty()).is_empty
        for s in subsets:
            cl = space.closure(s)
            assert s.issubset(cl)
            assert space.closure(cl) == cl
            assert space.interior(s) == space.closure(s.complement()).complement()
            assert cl == s | space.limit_points(s)
        for s, t in itertools.product(subsets, repeat=2):
            assert space.closure(s | t) == space.closure(s) | space.closure(t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_closure_meets_open(n):
    for space in enumerate_spaces(n):
        for m in range(1 << n):
            s = PointSet(n, m)
            for b in space.opens:
                assert (space.closure(s) & b).issubset(space.closure(s & b))


# ---------------------------------------------------------------------------
# Enumeration counts, checked against the candidate-scan oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 29)])
def test_enumeration_count_against_oracle(n, expected):
    oracle = {
        frozenset(frozenset(PointSet(n, m)) for m in form)
        for form in reference_space_forms(n)
    }
    assert len(oracle) == expected  # frozen regression constant
    enumerated = {
        frozenset(frozenset(o) for o in space.opens)
        for space in enumerate_spaces(n)
    }
    assert enumerated == oracle


def test_enumeration_count_n4_regression():
    assert count_spaces(4) == 355


def test_enumeration_is_deterministic_and_duplicate_free():
    first = [s.canonical_form() for s in enumerate_spaces(3)]
    second = [s.canonical_form() for s in enumerate_spaces(3)]
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_range_check():
    # count_spaces shares the check, so it never starts an out-of-range build
    for n in (0, -1, 5):
        message = f"enumeration supported for 1..4 points, got {n}"
        with pytest.raises(ValueError) as enumerated:
            list(enumerate_spaces(n))
        with pytest.raises(ValueError) as counted:
            count_spaces(n)
        assert str(enumerated.value) == str(counted.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_space_forms_match_candidate_scan(n):
    # same families in the same order: every table index follows this order
    assert _space_forms(n) == reference_space_forms(n)


def _validity_families():
    """Every family of subsets of a 2-point carrier, then seeded families on
    3-6 points: a preorder topology with one open removed or one non-open
    mask added."""
    for bits in range(1 << 4):
        yield 2, [m for m in range(4) if bits >> m & 1]
    rng = random.Random(27)
    for n in range(3, 7):
        for _ in range(20):
            opens = [o.mask for o in random_preorder_space(rng, n).opens]
            others = sorted(set(range(1 << n)) - set(opens))
            if others and rng.random() < 0.5:
                yield n, opens + [rng.choice(others)]
            else:
                gone = rng.choice(opens)
                yield n, [o for o in opens if o != gone]


def test_validity_matches_the_pair_scan():
    # validity is decided through least open sets; the scan over every pair
    # of opens is the reference for both the verdict and the error
    for n, family in _validity_families():
        want = scan_axiom_violation(n, family)
        try:
            FiniteSpace(n, [PointSet(n, m) for m in family])
        except SpaceAxiomError as e:
            assert (e.axiom, e.witnesses, str(e)) == want, (n, family)
        else:
            assert want is None, (n, family)


# ---------------------------------------------------------------------------
# Random subfamily completions stay valid spaces (hypothesis)
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=7), max_size=4))
def test_union_intersection_completion_validates(seeds):
    masks = {0, 7} | set(seeds)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(masks), 2):
            for c in (a | b, a & b):
                if c not in masks:
                    masks.add(c)
                    changed = True
    space = FiniteSpace(3, [PointSet(3, m) for m in masks])
    assert space.is_open(PointSet(3, 0))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def test_trace_space_relabels():
    space = validate_space(
        3, [ps(3), ps(3, 0), ps(3, 0, 1, 2)]
    )
    sub, relabel = trace_space(space, ps(3, 0, 2))
    assert relabel == {0: 0, 2: 1}
    assert sub.opens == (ps(2), ps(2, 0), ps(2, 0, 1))


def test_trace_space_full_region_is_identity():
    space = validate_space(3, [ps(3), ps(3, 1), ps(3, 0, 1, 2)])
    sub, relabel = trace_space(space, ps(3, 0, 1, 2))
    assert sub == space
    assert relabel == {0: 0, 1: 1, 2: 2}


def test_trace_space_rejects_empty_region():
    with pytest.raises(ValueError):
        trace_space(indiscrete_space(2), ps(2))
