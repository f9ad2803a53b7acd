import itertools
import random

import pytest

from bispacelab.catalog import build_example
from bispacelab.finite import (
    PointSet,
    discrete_space,
    enumerate_spaces,
    indiscrete_space,
    validate_space,
)
from bispacelab.maps import (
    AtomMap,
    FiniteDirectedSet,
    FiniteMap,
    Net,
    check_closure_preservation,
    check_theorem_4_6,
    closed_preimage_characterization,
    enumerate_directed_sets,
    image_net,
    is_pairwise_continuous,
    is_pairwise_open_map,
    is_pairwise_precontinuous,
    is_pairwise_semi_continuous,
    is_pairwise_sp_continuous,
    net_converges,
    precontinuity_consequences,
    preimage_test_sets,
    restrict_map,
    satisfies_condition_C,
)
from bispacelab.props import Bispace, subspace
from bispacelab.symbolic import (
    AtomUniverse,
    SchematicFamily,
    countable,
    singleton,
    uncountable,
)


def ps(n, *points):
    return PointSet.of(n, points)


def bi(space):
    return Bispace(space, space)


# ---------------------------------------------------------------------------
# Map plumbing
# ---------------------------------------------------------------------------

def test_finite_map_image_preimage():
    f = FiniteMap(3, 2, (0, 0, 1))
    assert f.image(ps(3, 0, 1)) == ps(2, 0)
    assert f.preimage(ps(2, 0)) == ps(3, 0, 1)
    assert f.preimage(ps(2)) == ps(3)
    assert f.image(ps(3)) == ps(2)
    assert f.is_surjective()


def test_finite_map_validation():
    with pytest.raises(ValueError):
        FiniteMap(2, 2, (0,))
    with pytest.raises(ValueError):
        FiniteMap(2, 2, (0, 5))


def test_atom_map_rejects_fat_image():
    src = AtomUniverse([singleton("x")])
    tgt = AtomUniverse([uncountable("blob"), singleton("pt")])
    with pytest.raises(ValueError) as exc:
        AtomMap(src, tgt, {"x": "blob"})
    assert "single point" in str(exc.value)
    AtomMap(src, tgt, {"x": "pt"})  # fine


def test_atom_map_requires_total_assignment():
    src = AtomUniverse([singleton("x"), singleton("y")])
    tgt = AtomUniverse([singleton("pt")])
    with pytest.raises(ValueError):
        AtomMap(src, tgt, {"x": "pt"})


def test_atom_map_image_preimage_on_catalog_map():
    entry = build_example("ex-4.1")
    f = entry.map_
    src_u = f.source
    tgt_u = f.target
    assert f.preimage(tgt_u.subset("sqrt2")) == src_u.subset("irr01")
    assert f.preimage(tgt_u.whole()) == src_u.whole()
    assert f.image(src_u.empty()).is_empty
    assert f.image(src_u.whole()) == tgt_u.subset("sqrt2", "3/2")


# ---------------------------------------------------------------------------
# Continuity hierarchy on finite models
# ---------------------------------------------------------------------------

def test_identity_map_is_everything():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    f = FiniteMap(2, 2, (0, 1))
    bx = by = bi(space)
    assert is_pairwise_continuous(f, bx, by)
    assert is_pairwise_open_map(f, bx, by)
    assert is_pairwise_precontinuous(f, bx, by)
    assert is_pairwise_semi_continuous(f, bx, by)
    assert is_pairwise_sp_continuous(f, bx, by)


def test_constant_map_into_indiscrete_target():
    f = FiniteMap(3, 1, (0, 0, 0))
    bx = bi(indiscrete_space(3))
    by = bi(indiscrete_space(1))
    assert is_pairwise_continuous(f, bx, by)


def test_collapse_into_non_open_singleton_is_not_open_map():
    # target: Sierpinski-like with only {0} open; collapse everything to 1
    f = FiniteMap(2, 2, (1, 1))
    bx = bi(indiscrete_space(2))
    by = bi(validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]))
    assert not is_pairwise_open_map(f, bx, by)


def test_carrier_mismatch_rejected():
    f = FiniteMap(2, 2, (0, 1))
    with pytest.raises(ValueError):
        is_pairwise_continuous(f, bi(indiscrete_space(3)), bi(indiscrete_space(2)))


def test_maps_from_another_backend_or_universe_rejected():
    # the carriers must agree across backends too: a finite map against a
    # symbolic bispace, and atom maps whose universe gives one atom another
    # cardinality than the bispace's
    u = AtomUniverse([singleton("p"), countable("q")])
    w = AtomUniverse([singleton("p"), uncountable("q")])
    sym = bi(SchematicFamily(u, u.subset("q"), u.empty()))
    fin = bi(discrete_space(2))
    for bx, by in ((sym, fin), (fin, sym)):
        with pytest.raises(ValueError):
            is_pairwise_continuous(FiniteMap(2, 2, (0, 1)), bx, by)
    for source, target in ((w, u), (u, w)):
        f = AtomMap(source, target, {"p": "p", "q": "p"})
        with pytest.raises(ValueError):
            is_pairwise_continuous(f, sym, sym)
    assert is_pairwise_continuous(AtomMap(u, u, {"p": "p", "q": "p"}), sym, sym)


def test_closure_preservation_and_restriction_reject_a_map_off_the_carrier():
    # both used to index past the map's assignment (IndexError) or, for a
    # region inside the map's source, return a map off the bispace
    d3 = discrete_space(3)
    with pytest.raises(ValueError):
        check_closure_preservation(FiniteMap(2, 3, (0, 2)), d3, d3, ps(3, 2))
    for region in (ps(3, 0, 1), ps(3, 2)):
        with pytest.raises(ValueError):
            restrict_map(FiniteMap(2, 2, (0, 1)), bi(d3), region)
    u = AtomUniverse([singleton("p"), countable("q")])
    w = AtomUniverse([singleton("p"), uncountable("q")])
    fam_u = SchematicFamily(u, u.subset("q"), u.empty())
    f = AtomMap(w, u, {"p": "p", "q": "p"})
    with pytest.raises(ValueError):
        check_closure_preservation(f, fam_u, fam_u, u.subset("p"))
    with pytest.raises(ValueError):
        restrict_map(f, bi(fam_u), u.whole())


def test_precontinuous_but_not_continuous_witness():
    # identity into a strictly finer second structure
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(indiscrete_space(2))
    by = Bispace(
        indiscrete_space(2), validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    )
    assert not is_pairwise_continuous(f, bx, by)
    assert is_pairwise_precontinuous(f, bx, by)
    assert is_pairwise_sp_continuous(f, bx, by)


def test_closure_preservation_single_space():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    f = FiniteMap(2, 2, (0, 1))
    assert check_closure_preservation(f, space, space, ps(2, 0))
    assert check_closure_preservation(f, space, space, ps(2))


def test_closed_preimage_characterization_exhaustive_2x2():
    spaces = list(enumerate_spaces(2))
    for s1, s2, t1, t2 in itertools.product(spaces, repeat=4):
        bx, by = Bispace(s1, s2), Bispace(t1, t2)
        for assignment in itertools.product(range(2), repeat=2):
            f = FiniteMap(2, 2, assignment)
            assert closed_preimage_characterization(f, bx, by)


def test_precontinuity_consequences_requires_precontinuity():
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(discrete_space(2))
    by = bi(discrete_space(2))
    report = precontinuity_consequences(f, bx, by)
    assert report.all_hold
    # a non-precontinuous map must be rejected: with a discrete second
    # structure, preopenness collapses to first-structure membership, and
    # {1} is not open in the Sierpinski-like first structure
    g = FiniteMap(2, 2, (0, 1))
    bad_bx = Bispace(
        validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]), discrete_space(2)
    )
    bad_by = bi(discrete_space(2))
    assert not is_pairwise_precontinuous(g, bad_bx, bad_by)
    with pytest.raises(ValueError):
        precontinuity_consequences(g, bad_bx, bad_by)


def test_restrict_map_requires_bi_open_region():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(space)
    sub_f, sub_b = restrict_map(f, bx, ps(2, 0))
    assert sub_f.source_size == 1
    with pytest.raises(ValueError):
        restrict_map(f, bx, ps(2, 1))  # {1} is not open


def test_restriction_keeps_precontinuity_spot():
    space = validate_space(3, [ps(3), ps(3, 0), ps(3, 0, 1), ps(3, 0, 1, 2)])
    f = FiniteMap(3, 2, (0, 1, 1))
    bx = bi(space)
    by = bi(validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]))
    if is_pairwise_precontinuous(f, bx, by):
        sub_f, sub_b = restrict_map(f, bx, ps(3, 0, 1))
        assert is_pairwise_precontinuous(sub_f, sub_b, by)


# ---------------------------------------------------------------------------
# Continuity over the symbolic catalog map
# ---------------------------------------------------------------------------

def test_catalog_map_verdicts():
    entry = build_example("ex-4.1")
    f, bx, by = entry.map_, entry.bispace, entry.target_bispace
    assert not is_pairwise_continuous(f, bx, by)
    assert is_pairwise_precontinuous(f, bx, by)
    assert is_pairwise_sp_continuous(f, bx, by)
    for a in bx.first.algebra_sets():
        assert check_closure_preservation(f, bx.first, by.first, a)
    assert closed_preimage_characterization(f, bx, by)


def test_preimage_test_sets_symbolic_traces():
    entry = build_example("ex-4.1")
    f, by = entry.map_, entry.target_bispace
    traces = preimage_test_sets(by.first, f)
    masks = {t.atom_ids() for t in traces}
    assert () in masks                       # empty trace
    assert ("sqrt2", "3/2") in masks         # whole member hits both points
    assert ("sqrt2",) in masks               # the open singleton
    # 3/2 is in neither region nor mandatory part: no open holds it alone
    assert ("3/2",) not in masks


def test_catalog_map_consequences_hold():
    entry = build_example("ex-4.1")
    report = precontinuity_consequences(entry.map_, entry.bispace, entry.target_bispace)
    assert report.all_hold
    assert report.algebra_relative


# ---------------------------------------------------------------------------
# Open maps with symbolic sources
# ---------------------------------------------------------------------------

def test_restrict_map_symbolic():
    u = AtomUniverse([singleton("a"), singleton("p"), uncountable("blob")])
    fam = SchematicFamily(u, u.subset("a"), u.subset("p"))
    bx = Bispace(fam, fam)
    tgt = AtomUniverse([singleton("x"), singleton("y")])
    indiscrete = SchematicFamily(tgt, tgt.empty(), tgt.empty())
    by = Bispace(indiscrete, indiscrete)
    f = AtomMap(u, tgt, {"a": "x", "p": "y", "blob": "x"})
    assert is_pairwise_precontinuous(f, bx, by)
    region = u.subset("a", "p")  # open in both structures (they coincide)
    sub_f, sub_b = restrict_map(f, bx, region)
    assert sub_f.assignment == {"a": "x", "p": "y"}
    assert sub_b.first.region.atom_ids() == ("a",)
    assert sub_b.first.mandatory.atom_ids() == ("p",)
    assert is_pairwise_precontinuous(sub_f, sub_b, by)
    with pytest.raises(ValueError):
        restrict_map(f, bx, u.subset("blob"))  # not open


def test_restriction_accepts_a_region_over_an_equal_universe():
    def universe(blob):
        return AtomUniverse([singleton("a"), singleton("p"), blob("blob")])

    u = universe(uncountable)
    fam = SchematicFamily(u, u.subset("a"), u.subset("p"))
    bx = Bispace(fam, fam)
    f = AtomMap(u, u, {"a": "a", "p": "p", "blob": "a"})
    twin = universe(uncountable).subset("a", "p")  # equal atoms, new object
    assert fam.restrict(twin) == fam.restrict(u.subset("a", "p"))
    assert subspace(bx, twin).first.region.atom_ids() == ("a",)
    sub_f, sub_b = restrict_map(f, bx, twin)
    assert sub_f.assignment == {"a": "a", "p": "p"}
    assert sub_b.first.mandatory.atom_ids() == ("p",)
    other = universe(countable).subset("a", "p")  # blob differs in cardinality
    for restrict in (u.restrict, fam.restrict, lambda r: subspace(bx, r),
                     lambda r: restrict_map(f, bx, r)):
        with pytest.raises(ValueError):
            restrict(other)


def test_catalog_map_is_not_an_open_map():
    # the image of each proper open is a region singleton (fine), but the
    # image of the whole source is {sqrt2, 3/2}, and 3/2 escapes the target
    # region
    entry = build_example("ex-4.1")
    assert not is_pairwise_open_map(entry.map_, entry.bispace, entry.target_bispace)


def test_open_map_symbolic_source():
    u = AtomUniverse([singleton("a"), countable("c")])
    fam = SchematicFamily(u, u.subset("a", "c"), u.empty())
    tgt = AtomUniverse([singleton("x"), singleton("y")])
    sigma_full = SchematicFamily(tgt, tgt.subset("x", "y"), tgt.empty())
    f = AtomMap(u, tgt, {"a": "x", "c": "y"})
    bx = Bispace(fam, fam)
    by = Bispace(sigma_full, sigma_full)
    # every image of an open is a union of target singletons inside the
    # target region, hence open
    assert is_pairwise_open_map(f, bx, by)
    # shrink the target region so the image of {a} is no longer open
    sigma_small = SchematicFamily(tgt, tgt.subset("y"), tgt.empty())
    assert not is_pairwise_open_map(f, bx, Bispace(sigma_small, sigma_small))


def test_open_map_sees_members_meeting_an_atom_properly():
    # the members of tau are X, the empty set and every countable part of
    # blob; a nonempty part swallows no atom but still maps onto {x}
    u = AtomUniverse([singleton("a"), uncountable("blob")])
    tau = SchematicFamily(u, u.subset("blob"), u.empty())
    tgt = AtomUniverse([singleton("x"), singleton("y")])
    f = AtomMap(u, tgt, {"a": "y", "blob": "x"})
    bx = Bispace(tau, tau)
    indiscrete = SchematicFamily(tgt, tgt.empty(), tgt.empty())
    assert not is_pairwise_open_map(f, bx, Bispace(indiscrete, indiscrete))
    sigma = SchematicFamily(tgt, tgt.subset("x"), tgt.empty())
    assert is_pairwise_open_map(f, bx, Bispace(sigma, sigma))


# ---------------------------------------------------------------------------
# Nets and directed sets
# ---------------------------------------------------------------------------

def test_directed_set_validation():
    with pytest.raises(ValueError):
        FiniteDirectedSet(2, [(0, 0), (1, 1)])  # no upper bound for {0,1}
    with pytest.raises(ValueError):
        FiniteDirectedSet(2, [(0, 1), (1, 1)])  # not reflexive at 0
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    assert d.le(0, 1) and not d.le(1, 0)
    assert d.above(0) == [0, 1]


def test_enumerate_directed_sets_counts():
    sizes = [d.size for d in enumerate_directed_sets(3)]
    assert sizes.count(1) == 1
    assert sizes.count(2) == 3
    assert sizes.count(3) == 16


def test_constant_net_converges():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    net = Net(d, (0, 0))
    assert net_converges(space, net, 0)


def test_indiscrete_nets_converge_everywhere():
    space = indiscrete_space(3)
    d = FiniteDirectedSet(1, [(0, 0)])
    net = Net(d, (2,))
    for x in range(3):
        assert net_converges(space, net, x)


def test_chain_net_avoiding_open_fails():
    space = validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)])
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    net = Net(d, (1, 1))
    assert not net_converges(space, net, 0)
    assert net_converges(space, net, 1)


def test_net_convergence_symbolic():
    u = AtomUniverse([singleton("a"), singleton("b"), uncountable("blob")])
    fam = SchematicFamily(u, u.subset("a", "blob"), u.empty())
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    net = Net(d, ("b", "b"))
    # opens holding "a" are {a}-shaped members: the net never enters them
    assert not net_converges(fam, net, "a")
    # no proper open holds "b", so only X constrains: converges
    assert net_converges(fam, net, "b")


@pytest.mark.parametrize("x", [5, -1])
def test_net_convergence_rejects_points_outside_the_carrier(x):
    net = Net(FiniteDirectedSet(1, [(0, 0)]), (0,))
    with pytest.raises(ValueError, match=f"point {x} outside carrier 0..1"):
        net_converges(discrete_space(2), net, x)


# ---------------------------------------------------------------------------
# Condition C and the transfer theorem
# ---------------------------------------------------------------------------

def test_condition_c_on_indiscrete_surjection():
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(indiscrete_space(2))
    by = bi(indiscrete_space(2))
    assert satisfies_condition_C(f, (1, 2), bx, by)


def test_condition_c_rejects_non_surjective():
    f = FiniteMap(2, 2, (0, 0))
    bx = bi(indiscrete_space(2))
    by = bi(indiscrete_space(2))
    assert not satisfies_condition_C(f, (1, 2), bx, by)


def test_condition_c_failure_with_finer_target():
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(indiscrete_space(2))
    by = bi(validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]))
    # f(cl_2 f^-1({0})) = f(X) = X != {0}
    assert not satisfies_condition_C(f, (1, 2), bx, by)


def test_condition_c_symbolic_target():
    entry = build_example("ex-4.1")
    f, bx, by = entry.map_, entry.bispace, entry.target_bispace
    # not surjective onto the target universe
    assert not satisfies_condition_C(f, (1, 2), bx, by)


def test_theorem_4_6_transfer_and_vacuity():
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    net = Net(d, (0, 1))
    f = FiniteMap(2, 2, (0, 1))
    bx = bi(indiscrete_space(2))
    by = bi(indiscrete_space(2))
    assert check_theorem_4_6(f, (1, 2), bx, by, net, 0)
    # hypotheses fail (condition C) => vacuous truth
    finer = bi(validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]))
    assert check_theorem_4_6(f, (1, 2), bx, finer, net, 0)


def test_theorem_4_6_rejects_a_map_into_another_carrier():
    # a map onto 3 points does not fit a 2-point target bispace; the check
    # raises before it can call the hypotheses failed and return True
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    f = FiniteMap(2, 3, (0, 2))
    bx = Bispace(indiscrete_space(2), discrete_space(2))
    by = bi(discrete_space(2))
    with pytest.raises(ValueError):
        satisfies_condition_C(f, (1, 2), bx, by)
    with pytest.raises(ValueError):
        check_theorem_4_6(f, (1, 2), bx, by, Net(d, (0, 1)), 0)


def test_image_net():
    d = FiniteDirectedSet(2, [(0, 0), (1, 1), (0, 1)])
    f = FiniteMap(2, 3, (2, 1))
    assert image_net(f, Net(d, (0, 1))).values == (2, 1)


def test_sp_closed_preimage_characterization():
    from bispacelab.maps import sp_closed_preimage_characterization

    entry = build_example("ex-4.1")
    assert sp_closed_preimage_characterization(
        entry.map_, entry.bispace, entry.target_bispace
    )
    spaces = list(enumerate_spaces(2))
    for s1, s2, t1 in itertools.product(spaces, repeat=3):
        bx, by = Bispace(s1, s2), Bispace(t1, t1)
        for assignment in itertools.product(range(2), repeat=2):
            f = FiniteMap(2, 2, assignment)
            assert sp_closed_preimage_characterization(f, bx, by)


def test_precontinuity_consequences_sp_variant():
    entry = build_example("ex-4.1")
    report = precontinuity_consequences(
        entry.map_, entry.bispace, entry.target_bispace, sp_variant=True
    )
    assert report.all_hold
    # a map that is not sp-continuous is out of contract for the sp variant
    g = FiniteMap(2, 2, (0, 1))
    bad_bx = Bispace(
        validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]), discrete_space(2)
    )
    assert not is_pairwise_sp_continuous(g, bad_bx, bi(discrete_space(2)))
    with pytest.raises(ValueError):
        precontinuity_consequences(g, bad_bx, bi(discrete_space(2)), sp_variant=True)


# ---------------------------------------------------------------------------
# The oracles can say no
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("characterization,closed", [
    ("closed_preimage_characterization", "is_ij_preclosed"),
    ("sp_closed_preimage_characterization", "is_ij_semipreclosed"),
])
def test_closed_characterizations_detect_a_wrong_right_side(
    monkeypatch, characterization, closed
):
    # the identity on the discrete 2-point bispace is precontinuous and
    # sp-continuous, so the left side holds; a closed-set predicate that
    # rejects every preimage makes the two sides disagree
    import bispacelab.maps as maps

    f = FiniteMap(2, 2, (0, 1))
    bx = by = bi(discrete_space(2))
    check = getattr(maps, characterization)
    assert check(f, bx, by)
    monkeypatch.setattr(maps, closed, lambda bispace, pair, a: False)
    assert not check(f, bx, by)


class _BlindPreimage(FiniteMap):
    """A corrupted map: the preimage of any set missing point 0 is empty."""

    def preimage(self, s):
        return super().preimage(s) if 0 in s else PointSet(self.source_size)


@pytest.mark.parametrize("characterization", [
    "closed_preimage_characterization", "sp_closed_preimage_characterization",
])
def test_closed_characterizations_detect_a_wrong_preimage(characterization):
    # the right side reads preimages of closed sets, so a preimage that
    # breaks f^-1(Y - V) = X - f^-1(V) makes the two sides disagree
    import bispacelab.maps as maps

    check = getattr(maps, characterization)
    bx = bi(validate_space(2, [ps(2), ps(2, 0), ps(2, 0, 1)]))
    by = bi(discrete_space(2))
    assert check(FiniteMap(2, 2, (0, 1)), bx, by)
    assert not check(_BlindPreimage(2, 2, (0, 1)), bx, by)


@pytest.mark.parametrize("sp_variant,hull", [(False, "pcl"), (True, "spcl")])
@pytest.mark.parametrize("backend", ["finite", "symbolic"])
def test_precontinuity_consequences_detect_a_whole_hull(
    monkeypatch, sp_variant, hull, backend
):
    # a hull that always returns the whole carrier breaks both hull bounds
    # at the empty set and leaves the neighbourhood witnesses alone
    import bispacelab.maps as maps

    if backend == "finite":
        f = FiniteMap(2, 2, (0, 1))
        bx = by = bi(discrete_space(2))
    else:
        entry = build_example("ex-4.1")
        f, bx, by = entry.map_, entry.bispace, entry.target_bispace
    monkeypatch.setattr(maps, hull, lambda bispace, pair, a: bispace.space(1).whole())
    report = precontinuity_consequences(f, bx, by, sp_variant=sp_variant)
    assert report.neighborhood_witnesses
    assert not report.image_preclosure_bound
    assert not report.preimage_preclosure_bound


# ---------------------------------------------------------------------------
# The suite tables agree with the reference map predicates
# ---------------------------------------------------------------------------

def _check_map_tables(m, k, cases):
    """Compare the map tables' cont/openmap topsets and the pc/sc/spc grids
    with the reference predicates on each (f, t1, t2, s1, s2) case."""
    from bispacelab.tables import bispace_tables, continuity_grids, map_tables

    mt = map_tables(m, k)
    grids = continuity_grids(m, k)
    bt = bispace_tables(m)
    sources = list(enumerate_spaces(m))
    targets = list(enumerate_spaces(k))
    for fi, t1, t2, s1, s2 in cases:
        f = FiniteMap(m, k, mt.maps[fi])
        bx = Bispace(sources[t1], sources[t2])
        by = Bispace(targets[s1], targets[s2])
        pair = bt.pair_index(t1, t2)
        swapped = bt.pair_index(t2, t1)
        cont = bool((mt.cont[fi][t1] >> s1) & 1 and (mt.cont[fi][t2] >> s2) & 1)
        assert cont == is_pairwise_continuous(f, bx, by)
        open_ = bool(
            (mt.openmap[fi][t1] >> s1) & 1 and (mt.openmap[fi][t2] >> s2) & 1
        )
        assert open_ == is_pairwise_open_map(f, bx, by)
        for grid, reference in (
            (grids.pc, is_pairwise_precontinuous),
            (grids.sc, is_pairwise_semi_continuous),
            (grids.spc, is_pairwise_sp_continuous),
        ):
            held = bool((grid[fi][pair] >> s1) & 1 and (grid[fi][swapped] >> s2) & 1)
            assert held == reference(f, bx, by), (reference.__name__, fi, t1, t2, s1, s2)


def test_map_tables_match_reference_2x2():
    cases = [
        (fi, *rest)
        for fi in range(4)
        for rest in itertools.product(range(4), repeat=4)
    ]
    _check_map_tables(2, 2, cases)


@pytest.mark.parametrize("m,k", [(3, 2), (3, 3)])
def test_map_tables_match_reference_sampled(m, k):
    # 300 seeded cases: half uniform (mostly failing maps), half drawn until
    # the map is sp-continuous, so every grid sees both verdicts
    from bispacelab.tables import continuity_grids, map_tables

    rng = random.Random(1000 * m + k)
    maps = len(map_tables(m, k).maps)
    t_m = len(list(enumerate_spaces(m)))
    t_k = len(list(enumerate_spaces(k)))
    spc = continuity_grids(m, k).spc

    def draw():
        return (
            rng.randrange(maps), rng.randrange(t_m), rng.randrange(t_m),
            rng.randrange(t_k), rng.randrange(t_k),
        )

    cases = [draw() for _ in range(150)]
    while len(cases) < 300:
        fi, t1, t2, s1, s2 = case = draw()
        if (spc[fi][t1 * t_m + t2] >> s1) & 1 and (spc[fi][t2 * t_m + t1] >> s2) & 1:
            cases.append(case)
    _check_map_tables(m, k, cases)


def _check_consequence_failures(m, k, semi, cases):
    """Compare the suites' consequence-failure topsets with the reference.

    Each case (f, t1, t2, s1, s2) must be gated, since the reference only
    accepts (sp-)precontinuous maps; note-4.2 covers the ungated side.
    """
    from bispacelab.tables import bispace_tables, map_tables
    from helpers import consequence_stream

    mt = map_tables(m, k)
    bt = bispace_tables(m)
    wanted = {(f, t1, t2) for f, t1, t2, _, _ in cases}
    failures = {
        (f, t1, t2, direction): bads
        for f, t1, t2, direction, _, bads in consequence_stream(m, k, semi)
        if (f, t1, t2) in wanted
    }
    sources = list(enumerate_spaces(m))
    targets = list(enumerate_spaces(k))
    for f, t1, t2, s1, s2 in cases:
        expected = tuple(
            not ((bad12 >> s1) & 1 or (bad21 >> s2) & 1)
            for bad12, bad21 in zip(
                failures[f, t1, t2, 0], failures[f, t1, t2, 1]
            )
        )
        report = precontinuity_consequences(
            FiniteMap(m, k, mt.maps[f]),
            Bispace(sources[t1], sources[t2]),
            Bispace(targets[s1], targets[s2]),
            sp_variant=semi,
        )
        got = (
            report.neighborhood_witnesses,
            report.image_preclosure_bound,
            report.preimage_preclosure_bound,
        )
        assert got == expected, (m, k, semi, mt.maps[f], t1, t2, s1, s2)


def _gated(m, k, semi, f, t1, t2, s1, s2):
    from bispacelab.tables import bispace_tables, continuity_grids

    grids = continuity_grids(m, k)
    grid = grids.spc if semi else grids.pc
    bt = bispace_tables(m)
    return bool(
        (grid[f][bt.pair_index(t1, t2)] >> s1) & 1
        and (grid[f][bt.pair_index(t2, t1)] >> s2) & 1
    )


@pytest.mark.parametrize("semi", [False, True])
def test_consequence_failures_match_reference_2x2(semi):
    cases = [
        (f, *structures)
        for f in range(4)
        for structures in itertools.product(range(4), repeat=4)
        if _gated(2, 2, semi, f, *structures)
    ]
    assert len(cases) == 800
    _check_consequence_failures(2, 2, semi, cases)


@pytest.mark.parametrize("semi", [False, True])
def test_consequence_failures_match_reference_3x3_sampled(semi):
    # rejection sampling: enumerating all 19M candidates first is too slow
    rng = random.Random(0)
    cases = []
    while len(cases) < 60:
        case = (rng.randrange(27), *(rng.randrange(29) for _ in range(4)))
        if _gated(3, 3, semi, *case):
            cases.append(case)
    _check_consequence_failures(3, 3, semi, cases)


def test_convergence_bits_match_net_converges():
    from bispacelab.tables import convergence_bits, net_catalog

    dsets = enumerate_directed_sets(3)
    nets = net_catalog(2)
    bits = convergence_bits(2)
    spaces = list(enumerate_spaces(2))
    for t, space in enumerate(spaces):
        for n_idx, (d_idx, values) in enumerate(nets):
            net = Net(dsets[d_idx], values)
            for x in range(2):
                expected = net_converges(space, net, x)
                assert bool((bits[t] >> (n_idx * 2 + x)) & 1) == expected
