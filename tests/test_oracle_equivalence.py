"""Symbolic closed forms vs brute force over explicit finite models.

On an all-singleton universe every subset is countable, so the schematic
family is literally a finite open family and everything is brute-forceable.
The closed forms must agree with that model on every subset, predicate by
predicate. Mixed-cardinality universes get the trace-enumeration oracles:
for closure, the derived interior and openness, for open_between's
absence answers and for the bespoke semiopen closed form; and
closed_supersets_interior's open-trace loop gets the closed form it replaced.
"""

import random

import pytest

from helpers import (
    compare_singleton_universe,
    forall_closed_supersets_interior_covers,
    mirror,
    random_family,
    random_mixed_universe,
    random_singleton_universe,
    trace_semiopen_oracle,
)

SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_singleton_universe_agreement(seed):
    assert compare_singleton_universe(seed) > 0


@pytest.mark.parametrize("seed", range(40))
def test_semiopen_closed_form_vs_trace_oracle(seed):
    rng = random.Random(1000 + seed)
    u = random_mixed_universe(rng)
    fam1 = random_family(rng, u)
    fam2 = random_family(rng, u)
    for a in u.algebra_sets():
        assert fam1.semiopen_under(fam2, a) == trace_semiopen_oracle(
            fam1, fam2, a
        ), f"disagreement at {a!r} (seed {seed})"
        assert fam2.semiopen_under(fam1, a) == trace_semiopen_oracle(fam2, fam1, a)


@pytest.mark.parametrize("seed", range(20))
def test_open_between_complete_on_mixed_universes(seed):
    """Absence answers from the closed form checked against member traces."""
    rng = random.Random(2000 + seed)
    u = random_mixed_universe(rng)
    fam = random_family(rng, u)
    for a in u.algebra_sets():
        for b in u.algebra_sets():
            if not a.issubset(b):
                continue
            witness = fam.open_between(a, b)
            trace_exists = any(
                a.issubset(tr.inside) and tr.touched.issubset(b)
                for tr in fam.open_traces()
            )
            assert (witness is not None) == trace_exists, (a, b)
            if witness is not None:
                assert fam.is_open(witness)
                assert a.issubset(witness) and witness.issubset(b)


@pytest.mark.parametrize("seed", range(40))
def test_closure_interior_is_open_vs_member_traces(seed):
    """closure, interior and is_open against the member traces. The members
    with one trace sweep out exactly its touched part, so the closure of s
    is X minus the touched parts that miss s, the interior is the union of
    the touched parts inside s, and s is open iff some trace has
    inside == touched == s."""
    rng = random.Random(5000 + seed)
    u = random_mixed_universe(rng)
    fam = random_family(rng, u)
    traces = list(fam.open_traces())
    for s in u.algebra_sets():
        missing = inside = u.empty()
        for tr in traces:
            if tr.touched.disjoint(s):
                missing |= tr.touched
            if tr.touched.issubset(s):
                inside |= tr.touched
        assert fam.closure(s) == missing.complement(), (seed, s)
        assert fam.interior(s) == inside, (seed, s)
        member = any(tr.inside == tr.touched == s for tr in traces)
        assert fam.is_open(s) == member, (seed, s)


def _canonical_sorted(n, masks):
    from bispacelab.finite import PointSet

    return sorted(masks, key=lambda m: PointSet(n, m).canonical_key())


def test_open_traces_on_points_vs_member_traces():
    """The trace sets on singleton points, against the distinct point sets
    the members' trace patterns contain, in canonical order."""
    cases = 0
    for seed in range(300):
        rng = random.Random(3000 + seed)
        u = random_mixed_universe(rng)
        fam = random_family(rng, u)
        singles = [a.id for a in u.atoms if a.is_singleton]
        if not singles:
            continue
        cases += 1
        points = u.subset(*rng.sample(singles, rng.randint(1, len(singles))))
        expected = {
            (tr.inside & points).mask
            for tr in fam.open_traces()
        }
        got = fam.traces_on(points)
        assert all(t.universe is u for t in got)
        assert [t.mask for t in got] == _canonical_sorted(len(u), expected), seed
    assert cases > 200


def test_closed_supersets_interior_vs_closed_form_on_mixed_universes():
    """The open-trace loop against the closed form it replaced, on 3,000
    seeded mixed universes: every algebra set, both directions."""
    from bispacelab.props import PAIRS, Bispace, closed_supersets_interior

    verdicts = {False: 0, True: 0}
    for seed in range(3000):
        rng = random.Random(6000 + seed)
        u = random_mixed_universe(rng)
        bx = Bispace(random_family(rng, u), random_family(rng, u))
        for i, j in PAIRS:
            for a in u.algebra_sets():
                got = closed_supersets_interior(bx, (i, j), a)
                expected = forall_closed_supersets_interior_covers(
                    bx.space(j), bx.space(i), a
                )
                assert got == expected, (seed, (i, j), a)
                verdicts[got] += 1
    assert verdicts[False] > 0 and verdicts[True] > 0, verdicts


def test_trace_consumers_vs_finite_models():
    """The predicates that walk member traces or trace sets, on schematic
    families over 200 seeded all-singleton universe pairs, against the same
    predicates on the materialized finite models and the matching map."""
    from bispacelab.maps import (
        AtomMap,
        FiniteMap,
        Net,
        enumerate_directed_sets,
        is_pairwise_continuous,
        is_pairwise_open_map,
        is_pairwise_precontinuous,
        net_converges,
        satisfies_condition_C,
    )
    from bispacelab.props import PAIRS, Bispace, closed_supersets_interior
    from bispacelab.symbolic import materialize_finite

    directed = enumerate_directed_sets(2)
    verdicts = {
        "closed": [], "open": [], "C": [], "cont": [], "precont": [], "net": []
    }
    for seed in range(200):
        rng = random.Random(4000 + seed)
        u = random_singleton_universe(rng)
        v = random_singleton_universe(rng)
        sym_x = Bispace(random_family(rng, u), random_family(rng, u))
        sym_y = Bispace(random_family(rng, v), random_family(rng, v))
        fin_x = Bispace(materialize_finite(sym_x.first), materialize_finite(sym_x.second))
        fin_y = Bispace(materialize_finite(sym_y.first), materialize_finite(sym_y.second))
        assignment = [rng.randrange(len(v)) for _ in u.atoms]
        f = AtomMap(u, v, {a.id: v.atoms[t].id for a, t in zip(u.atoms, assignment)})
        g = FiniteMap(len(u), len(v), assignment)
        for pair in PAIRS:
            for s in u.algebra_sets():
                got = closed_supersets_interior(sym_x, pair, s)
                assert got == closed_supersets_interior(fin_x, pair, mirror(u, s)), seed
                verdicts["closed"].append(got)
            got = satisfies_condition_C(f, pair, sym_x, sym_y)
            assert got == satisfies_condition_C(g, pair, fin_x, fin_y), (seed, pair)
            verdicts["C"].append(got)
        for name, predicate in (
            ("open", is_pairwise_open_map),
            ("cont", is_pairwise_continuous),
            ("precont", is_pairwise_precontinuous),
        ):
            got = predicate(f, sym_x, sym_y)
            assert got == predicate(g, fin_x, fin_y), (seed, name)
            verdicts[name].append(got)
        d = rng.choice(directed)
        points = [rng.randrange(len(u)) for _ in range(d.size + 1)]
        sym_net = Net(d, tuple(u.atoms[p].id for p in points[1:]))
        got = net_converges(sym_x.first, sym_net, u.atoms[points[0]].id)
        assert got == net_converges(fin_x.first, Net(d, tuple(points[1:])), points[0])
        verdicts["net"].append(got)
    for name, seen in verdicts.items():
        assert set(seen) == {False, True}, name


@pytest.mark.parametrize("n", range(1, 9))
def test_algebra_sets_list_every_subset_once_in_canonical_order(n):
    from bispacelab.finite import indiscrete_space
    from bispacelab.symbolic import AtomUniverse, SchematicFamily, singleton

    u = AtomUniverse([singleton(f"a{i}") for i in range(n)])
    expected = _canonical_sorted(n, range(1 << n))
    for backend in (indiscrete_space(n), u, SchematicFamily(u, u.empty(), u.empty())):
        sets = backend.algebra_sets()
        assert iter(sets) is sets
        first = [s.mask for s in sets]
        assert first == expected
        assert [s.mask for s in backend.algebra_sets()] == first
