import pytest
from hypothesis import given, strategies as st

from bispacelab.symbolic import (
    Atom,
    AtomUniverse,
    SchematicFamily,
    SymSet,
    countable,
    is_countable,
    materialize_finite,
    singleton,
    uncountable,
)


@pytest.fixture
def halves():
    """Two uncountable halves plus a countable sea of rationals."""
    u = AtomUniverse(
        [
            uncountable("irr-left"),
            uncountable("irr-right"),
            countable("rats"),
        ]
    )
    left = SchematicFamily(u, u.subset("irr-left"), u.empty())
    right = SchematicFamily(u, u.subset("irr-right"), u.empty())
    return u, left, right


@pytest.fixture
def anchored():
    """Region with a singleton and an uncountable block, one mandatory point."""
    u = AtomUniverse(
        [
            singleton("a"),
            singleton("p"),
            uncountable("blob"),
            countable("sea"),
        ]
    )
    fam = SchematicFamily(u, u.subset("a", "blob"), u.subset("p"))
    return u, fam


# ---------------------------------------------------------------------------
# Universe and set basics
# ---------------------------------------------------------------------------

def test_universe_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        AtomUniverse([singleton("x"), countable("x")])


def test_universe_rejects_empty():
    with pytest.raises(ValueError):
        AtomUniverse([])


def test_subset_unknown_id(halves):
    u, _, _ = halves
    with pytest.raises(KeyError):
        u.subset("nope")


def test_symset_operations(halves):
    u, _, _ = halves
    s = u.subset("irr-left", "rats")
    t = u.subset("rats")
    assert t.issubset(s)
    assert (s - t) == u.subset("irr-left")
    assert s.complement() == u.subset("irr-right")
    assert (s & t) == t
    assert s.atom_ids() == ("irr-left", "rats")
    assert not s.is_whole and not s.is_empty
    assert u.whole().is_whole and u.empty().is_empty


def test_symset_universe_mismatch(halves):
    u, _, _ = halves
    other = AtomUniverse([singleton("z")])
    with pytest.raises(ValueError):
        u.whole().union(other.whole())


@given(st.integers(0, 15), st.integers(0, 15))
def test_symset_de_morgan(a, b):
    u = AtomUniverse([singleton("w"), countable("x"), uncountable("y"), singleton("z")])
    s, t = SymSet(u, a), SymSet(u, b)
    assert (s | t).complement() == s.complement() & t.complement()


def test_is_countable(halves):
    u, _, _ = halves
    assert is_countable(u.subset("rats"))
    assert is_countable(u.empty())
    assert not is_countable(u.subset("irr-left"))
    assert not is_countable(u.subset("irr-left", "rats"))


# ---------------------------------------------------------------------------
# Family invariants
# ---------------------------------------------------------------------------

def test_family_rejects_region_mandatory_overlap(halves):
    u, _, _ = halves
    with pytest.raises(ValueError):
        SchematicFamily(u, u.subset("irr-left"), u.subset("irr-left"))


def test_family_rejects_fat_mandatory(halves):
    u, _, _ = halves
    with pytest.raises(ValueError):
        SchematicFamily(u, u.subset("irr-left"), u.subset("rats"))


def test_family_rejects_sets_from_another_universe(halves):
    u, _, _ = halves
    other = AtomUniverse([uncountable("irr-left"), countable("rats")])
    with pytest.raises(ValueError, match="different universe"):
        SchematicFamily(u, other.subset("irr-left"), u.empty())
    with pytest.raises(ValueError, match="different universe"):
        SchematicFamily(u, u.subset("irr-left"), other.empty())


# ---------------------------------------------------------------------------
# Openness, closure, interior closed forms
# ---------------------------------------------------------------------------

def test_whole_and_empty_always_open(anchored):
    _, fam = anchored
    assert fam.is_open(fam.whole())
    assert fam.is_open(fam.empty())


def test_open_membership(anchored):
    u, fam = anchored
    assert fam.is_open(u.subset("a", "p"))
    assert fam.is_open(u.subset("p"))
    assert not fam.is_open(u.subset("a"))          # misses the mandatory point
    assert not fam.is_open(u.subset("blob", "p"))  # uncountable core
    assert not fam.is_open(u.subset("sea", "p"))   # escapes the region


def test_closure_cases(anchored):
    u, fam = anchored
    assert fam.closure(u.empty()).is_empty
    assert fam.closure(u.subset("p")).is_whole
    assert fam.closure(u.subset("sea")) == u.whole() - u.subset("a", "blob", "p")
    assert fam.closure(u.subset("blob")) == u.whole() - u.subset("a", "p")


def test_interior_cases(anchored):
    u, fam = anchored
    assert fam.interior(u.whole()).is_whole
    assert fam.interior(u.subset("a", "sea")).is_empty          # p missing
    assert fam.interior(u.subset("a", "p", "sea")) == u.subset("a", "p")
    assert fam.interior(u.subset("p")) == u.subset("p")


def test_open_between_canonical_witness(anchored):
    u, fam = anchored
    a = u.subset("a")
    b = u.subset("a", "p", "sea")
    assert fam.open_between(a, b) == u.subset("a", "p")
    assert fam.open_between(u.empty(), b) == u.empty()
    assert fam.open_between(u.subset("blob"), u.whole()) == u.whole()
    assert fam.open_between(u.subset("blob"), u.subset("blob", "p")) is None
    with pytest.raises(ValueError):
        fam.open_between(b, a)


def test_closure_laws_over_algebra(anchored):
    u, fam = anchored
    sets = list(fam.algebra_sets())
    for s in sets:
        cl = fam.closure(s)
        assert s.issubset(cl)
        assert fam.closure(cl) == cl
        assert fam.interior(s).issubset(s)
        for t in sets:
            if s.issubset(t):
                assert fam.closure(s).issubset(fam.closure(t))
                assert fam.interior(s).issubset(fam.interior(t))
    for s in sets:
        for t in sets:
            assert fam.closure(s | t) == fam.closure(s) | fam.closure(t)


# ---------------------------------------------------------------------------
# Trace patterns
# ---------------------------------------------------------------------------

def test_trace_count_respects_cardinalities(anchored):
    u, fam = anchored
    # region atoms: singleton 'a' (2 states) and uncountable 'blob' (2 states),
    # plus the whole and empty members
    traces = list(fam.open_traces())
    assert len(traces) == 2 + 2 * 2
    # C misses or swallows 'a', misses or properly meets 'blob'; P = {p}
    s = u.subset
    assert traces == [
        (u.whole(), u.whole()),
        (u.empty(), u.empty()),
        (s("p"), s("p")),
        (s("p"), s("p", "blob")),
        (s("a", "p"), s("a", "p")),
        (s("a", "p"), s("a", "p", "blob")),
    ]


def test_trace_membership_predicates(anchored):
    u, fam = anchored
    # C swallows 'a' and meets 'blob' properly
    member = next(
        t
        for t in fam.open_traces()
        if t.inside.contains_atom("a")
        and t.touched.contains_atom("blob")
        and not t.inside.contains_atom("blob")
    )
    assert member.inside.contains_atom("p")
    assert not u.subset("blob").disjoint(member.touched)
    assert u.subset("sea").disjoint(member.touched)
    assert member.touched == u.subset("a", "p", "blob")
    assert member.inside != member.touched  # equals no algebra set


def test_trace_equals_algebra_set(anchored):
    u, fam = anchored
    exact = next(
        t
        for t in fam.open_traces()
        if t.inside.contains_atom("a") and not t.touched.contains_atom("blob")
    )
    assert exact.inside == exact.touched == u.subset("a", "p")
    assert exact.inside != u.subset("p")


def test_open_traces_on_points(anchored):
    u, fam = anchored
    points = u.subset("a", "p")
    traces = fam.traces_on(points)
    assert u.empty() in traces
    assert points in traces          # from the whole member
    assert u.subset("p") in traces   # mandatory only
    assert u.subset("a", "p") in traces
    with pytest.raises(ValueError):
        fam.traces_on(u.subset("blob"))


def test_every_open_is_open_under_traces(halves):
    # membership decided by the closed form must match existence of an
    # exactly-equal trace member
    u, left, _ = halves
    for s in left.algebra_sets():
        trace_open = any(t.inside == t.touched == s for t in left.open_traces())
        assert trace_open == left.is_open(s)


# ---------------------------------------------------------------------------
# Restriction (subspace trace of a family)
# ---------------------------------------------------------------------------

def test_restrict_drops_mandatory_point(anchored):
    u, fam = anchored
    keep = u.subset("a", "blob", "sea")
    sub = fam.restrict(keep)
    assert sub.mandatory.is_empty
    assert sub.region.atom_ids() == ("a", "blob")
    # {a} was not open before (mandatory point missing); in the trace it is
    assert sub.is_open(sub.universe.subset("a"))


def test_restrict_whole_is_same_family(anchored):
    u, fam = anchored
    sub = fam.restrict(u.whole())
    assert sub.region.atom_ids() == fam.region.atom_ids()
    assert sub.mandatory.atom_ids() == fam.mandatory.atom_ids()


def test_equal_sets_of_equal_universes_hash_alike(anchored):
    # two restrictions build two universe objects with the same atoms
    u, fam = anchored
    x = fam.restrict(u.whole()).region
    y = fam.restrict(u.whole()).region
    assert x.universe is not y.universe
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


# ---------------------------------------------------------------------------
# All-singleton materialization agrees with the closed forms (spot checks;
# the full seeded sweep lives in test_oracle_equivalence)
# ---------------------------------------------------------------------------

def test_materialize_finite_requires_singletons(anchored):
    _, fam = anchored
    with pytest.raises(ValueError):
        materialize_finite(fam)


def test_materialize_matches_closed_forms_small():
    u = AtomUniverse([singleton("x"), singleton("y"), singleton("z")])
    fam = SchematicFamily(u, u.subset("x", "y"), u.subset("z"))
    finite = materialize_finite(fam)
    for s in fam.algebra_sets():
        mirror = finite.opens[0].__class__.of(3, (u.position(i) for i in s.atom_ids()))
        assert fam.is_open(s) == finite.is_open(mirror)
        assert {u.position(i) for i in fam.closure(s).atom_ids()} == set(
            finite.closure(mirror)
        )
        assert {u.position(i) for i in fam.interior(s).atom_ids()} == set(
            finite.interior(mirror)
        )


def test_semiopen_closed_form_basic(halves):
    u, left, right = halves
    # the left irrationals contain a nonempty piece of the left region and
    # avoid the right mandatory part (empty), so a single left point already
    # has 2-closure covering everything outside the right region
    assert left.semiopen_under(right, u.subset("irr-left", "rats"))
    assert not left.semiopen_under(right, u.subset("irr-right"))
