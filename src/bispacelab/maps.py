"""Functions between bispaces: the continuity hierarchy, nets, condition C.

Every predicate here quantifies over opens through two backend methods, so
one loop serves finite spaces and symbolic families alike:

* backward questions (continuity-style, nets) only see an open through its
  meets with finitely many points, so traces_on(points) lists every
  possible meet (a finite space lists its opens);
* forward questions (open maps, condition C) see an open through the atoms
  it contains and meets, so open_traces() yields those (inside, touched)
  pairs exactly (a finite space yields (o, o) per open).

A map fits its spaces when its source_key() and target_key() equal the
spaces' carrier_key(), on either backend. The symbolic reductions are
cross-checked against explicit finite models in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .finite import CarrierSet, PointSet
from .props import (
    Bispace,
    PAIRS,
    check_pair,
    is_ij_preopen,
    is_ij_preclosed,
    is_ij_semiopen,
    is_ij_semipreclosed,
    is_ij_semipreopen,
    pcl,
    spcl,
    subspace,
)
from .symbolic import AtomUniverse, SymSet


# ---------------------------------------------------------------------------
# Map types
# ---------------------------------------------------------------------------

class FiniteMap:
    """Total point map between finite carriers."""

    __slots__ = ("source_size", "target_size", "assignment")

    def __init__(self, source_size: int, target_size: int, assignment):
        assignment = tuple(assignment)
        if len(assignment) != source_size:
            raise ValueError("assignment must cover every source point")
        for v in assignment:
            if not 0 <= v < target_size:
                raise ValueError(f"image point {v} outside target carrier")
        self.source_size = source_size
        self.target_size = target_size
        self.assignment = assignment

    def __call__(self, point: int) -> int:
        return self.assignment[point]

    def source_key(self) -> tuple:
        return ("finite", self.source_size)

    def target_key(self) -> tuple:
        return ("finite", self.target_size)

    def image(self, s: PointSet) -> PointSet:
        mask = 0
        for p in s:
            mask |= 1 << self.assignment[p]
        return PointSet(self.target_size, mask)

    def preimage(self, s: PointSet) -> PointSet:
        mask = 0
        for p, v in enumerate(self.assignment):
            if v in s:
                mask |= 1 << p
        return PointSet(self.source_size, mask)

    def image_points(self) -> PointSet:
        return PointSet.of(self.target_size, self.assignment)

    def is_surjective(self) -> bool:
        return len(set(self.assignment)) == self.target_size

    def restrict(self, region: PointSet) -> "FiniteMap":
        """Restriction to `region`, source points relabelled positionally."""
        return FiniteMap(
            len(region), self.target_size, (self.assignment[p] for p in region)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMap)
            and self.source_size == other.source_size
            and self.target_size == other.target_size
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source_size, self.target_size, self.assignment))

    def __repr__(self) -> str:
        return f"FiniteMap({self.source_size}->{self.target_size}, {list(self.assignment)})"


class AtomMap:
    """Map between atom universes, constant on each source atom.

    Images must be single-point atoms; anything else would smear an atom
    across the target and break exact preimages, so it is rejected up front.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: AtomUniverse, target: AtomUniverse, assignment: dict):
        missing = [a.id for a in source.atoms if a.id not in assignment]
        if missing:
            raise ValueError(f"assignment misses source atoms {missing}")
        for src_id, tgt_id in assignment.items():
            source.position(src_id)
            tgt = target.atom(tgt_id)
            if not tgt.is_singleton:
                raise ValueError(
                    f"image of atom {src_id!r} must be a single point, "
                    f"got {tgt_id!r} ({tgt.cardinality.value})"
                )
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def image_atom(self, src_id: str) -> str:
        return self.assignment[src_id]

    __call__ = image_atom

    def source_key(self) -> tuple:
        return self.source.carrier_key()

    def target_key(self) -> tuple:
        return self.target.carrier_key()

    def image(self, s: SymSet) -> SymSet:
        return self.target.subset(*(self.assignment[i] for i in s.atom_ids()))

    def preimage(self, s: SymSet) -> SymSet:
        ids = [a.id for a in self.source.atoms if s.contains_atom(self.assignment[a.id])]
        return self.source.subset(*ids)

    def image_points(self) -> SymSet:
        return self.target.subset(*self.assignment.values())

    def is_surjective(self) -> bool:
        return self.image_points().is_whole

    def restrict(self, region: SymSet) -> "AtomMap":
        sub = self.source.restrict(region)
        return AtomMap(
            sub, self.target, {a.id: self.assignment[a.id] for a in sub.atoms}
        )

    def __repr__(self) -> str:
        return f"AtomMap({self.assignment})"


AnyMap = Union[FiniteMap, AtomMap]


# ---------------------------------------------------------------------------
# Quantifying over the target's opens by what their preimages can be
# ---------------------------------------------------------------------------

def preimage_test_sets(target_space, f: AnyMap) -> Sequence[CarrierSet]:
    """Target sets whose preimages exhaust all preimages of open sets.

    A preimage only depends on the open's meet with the image points, so
    the backend's traces_on(f.image_points()) suffices and is exact.
    """
    return target_space.traces_on(f.image_points())


# ---------------------------------------------------------------------------
# The continuity hierarchy
# ---------------------------------------------------------------------------

def _check_compatible(f: AnyMap, source, target=None) -> None:
    """ValueError unless f runs from source's carrier to target's (spaces or
    bispaces; target None checks the source side only)."""
    if f.source_key() != source.carrier_key():
        raise ValueError("map source does not match the source carrier")
    if target is not None and f.target_key() != target.carrier_key():
        raise ValueError("map target does not match the target carrier")


def _every_preimage(f: AnyMap, bx: Bispace, by: Bispace, holds) -> bool:
    """holds((i, j), preimage) for the preimage of every sigma_i-open."""
    _check_compatible(f, bx, by)
    return all(
        holds((i, j), f.preimage(v))
        for i, j in PAIRS
        for v in preimage_test_sets(by.space(i), f)
    )


def is_pairwise_continuous(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Preimage of every i-th-structure open is i-th-structure open, i = 1, 2."""
    return _every_preimage(f, bx, by, lambda pair, u: bx.space(pair[0]).is_open(u))


def is_pairwise_open_map(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Image of every i-th-structure open is i-th-structure open, i = 1, 2."""
    _check_compatible(f, bx, by)
    return all(
        by.space(i).is_open(f.image(touched))
        for i in (1, 2)
        for _, touched in bx.space(i).open_traces()
    )


def is_pairwise_precontinuous(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Preimage of every sigma_i-open is (i,j)-preopen in the source bispace."""
    return _every_preimage(f, bx, by, lambda pair, u: is_ij_preopen(bx, pair, u).holds)


def is_pairwise_semi_continuous(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Preimage of every sigma_i-open is (i,j)-semiopen in the source bispace."""
    return _every_preimage(f, bx, by, lambda pair, u: is_ij_semiopen(bx, pair, u))


def is_pairwise_sp_continuous(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Preimage of every sigma_i-open is (i,j)-semipreopen in the source bispace."""
    return _every_preimage(
        f, bx, by, lambda pair, u: is_ij_semipreopen(bx, pair, u).holds
    )


def check_closure_preservation(f: AnyMap, space_x, space_y, a: CarrierSet) -> bool:
    """image(closure(a)) <= closure(image(a)) between two single structures."""
    _check_compatible(f, space_x, space_y)
    return f.image(space_x.closure(a)).issubset(space_y.closure(f.image(a)))


def _every_closed_preimage(f: AnyMap, bx: Bispace, by: Bispace, closed) -> bool:
    """closed(bx, (i, j), preimage) for the preimage of every sigma_i-closed set."""
    _check_compatible(f, bx, by)
    return all(
        closed(bx, (i, j), f.preimage(v.complement()))
        for i, j in PAIRS
        for v in preimage_test_sets(by.space(i), f)
    )


def closed_preimages_preclosed(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """The closed route to precontinuity: the preimage of each sigma_i-closed
    set Y - V, taken as a set in its own right, is (i,j)-preclosed."""
    return _every_closed_preimage(f, bx, by, is_ij_preclosed)


def closed_preimage_characterization(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Both sides of the closed-set characterization; whether they agree.

    Left: pairwise precontinuity via open preimages. Right:
    `closed_preimages_preclosed`. The sides agree for every map whose
    preimage keeps f^-1(Y - V) = X - f^-1(V); a False answer means a
    corrupted preimage or predicate.
    """
    return is_pairwise_precontinuous(f, bx, by) == closed_preimages_preclosed(f, bx, by)


def sp_closed_preimage_characterization(f: AnyMap, bx: Bispace, by: Bispace) -> bool:
    """Semi-pre analogue of closed_preimage_characterization: the preimage
    of each sigma_i-closed set must be (i,j)-semipreclosed."""
    lhs = is_pairwise_sp_continuous(f, bx, by)
    return lhs == _every_closed_preimage(f, bx, by, is_ij_semipreclosed)


# ---------------------------------------------------------------------------
# Consequences of precontinuity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsequenceReport:
    neighborhood_witnesses: bool   # preopen U around each x mapping into each V
    image_preclosure_bound: bool   # f(pcl(A)) inside closure(f(A))
    preimage_preclosure_bound: bool  # pcl(f^-1(B)) inside f^-1(closure(B))
    algebra_relative: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.neighborhood_witnesses
            and self.image_preclosure_bound
            and self.preimage_preclosure_bound
        )


def precontinuity_consequences(
    f: AnyMap, bx: Bispace, by: Bispace, sp_variant: bool = False
) -> ConsequenceReport:
    """Check the three consequences of pairwise (sp-)precontinuity.

    Requires the map to be pairwise precontinuous (semi-pre for the sp
    variant); raises ValueError otherwise, since the properties say nothing
    about other maps. A point is a one-element algebra set: a point on a
    finite carrier, an atom symbolically. All points of one atom are
    indistinguishable to algebra sets and the map is constant on atoms, so
    atom granularity is exact for the neighborhood checks.
    """
    _check_compatible(f, bx, by)
    if sp_variant:
        if not is_pairwise_sp_continuous(f, bx, by):
            raise ValueError("map is not pairwise sp-continuous")
        around = lambda pair, u: is_ij_semipreopen(bx, pair, u).holds
        hull = spcl
    else:
        if not is_pairwise_precontinuous(f, bx, by):
            raise ValueError("map is not pairwise precontinuous")
        around = lambda pair, u: is_ij_preopen(bx, pair, u).holds
        hull = pcl

    src_any = bx.space(1)
    sets = list(src_any.algebra_sets())
    points = [x for x in sets if len(x) == 1]
    neighborhoods = all(
        any(
            x.issubset(u) and f.image(u).issubset(v) and around((i, j), u)
            for u in sets
        )
        for i, j in PAIRS
        for v in preimage_test_sets(by.space(i), f)
        for x in points
        if f.image(x).issubset(v)
    )
    image_bound = all(
        f.image(hull(bx, (i, j), a)).issubset(by.space(i).closure(f.image(a)))
        for i, j in PAIRS
        for a in sets
    )
    preimage_bound = all(
        hull(bx, (i, j), f.preimage(b)).issubset(f.preimage(by.space(i).closure(b)))
        for i, j in PAIRS
        for b in by.space(i).algebra_sets()
    )
    return ConsequenceReport(
        neighborhoods,
        image_bound,
        preimage_bound,
        algebra_relative=bx.is_symbolic,
    )


def restrict_map(f: AnyMap, bx: Bispace, region: CarrierSet) -> tuple[AnyMap, Bispace]:
    """Restrict a map to a region open in both source structures.

    Returns the restricted map together with the sub-bispace it now lives
    on; precontinuity and sp-continuity survive this restriction, which the
    theorem suite asserts exhaustively.
    """
    _check_compatible(f, bx)
    if not (bx.space(1).is_open(region) and bx.space(2).is_open(region)):
        raise ValueError("restriction region must be open in both source structures")
    return f.restrict(region), subspace(bx, region)


# ---------------------------------------------------------------------------
# Nets over finite directed sets
# ---------------------------------------------------------------------------

class FiniteDirectedSet:
    """Finite preorder in which every pair has an upper bound."""

    __slots__ = ("size", "relation")

    def __init__(self, size: int, relation):
        rel = frozenset(relation)
        for a, b in rel:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError("relation mentions elements outside the set")
        for a in range(size):
            if (a, a) not in rel:
                raise ValueError(f"relation must be reflexive; ({a},{a}) missing")
        for a, b in rel:
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    raise ValueError(f"relation not transitive at ({a},{b}),({c},{d})")
        for a in range(size):
            for b in range(size):
                if not any((a, c) in rel and (b, c) in rel for c in range(size)):
                    raise ValueError(f"elements {a},{b} have no upper bound")
        self.size = size
        self.relation = rel

    def le(self, a: int, b: int) -> bool:
        return (a, b) in self.relation

    def above(self, a: int) -> list[int]:
        return [b for b in range(self.size) if self.le(a, b)]

    def __repr__(self) -> str:
        strict = sorted((a, b) for a, b in self.relation if a != b)
        return f"FiniteDirectedSet({self.size}, {strict})"


@lru_cache(maxsize=None)
def enumerate_directed_sets(max_size: int) -> tuple[FiniteDirectedSet, ...]:
    """All directed preorders on 1..max_size labelled elements."""
    out = []
    for size in range(1, max_size + 1):
        diag = [(a, a) for a in range(size)]
        off = [(a, b) for a in range(size) for b in range(size) if a != b]
        for chosen in itertools.product((False, True), repeat=len(off)):
            rel = list(diag) + [p for p, keep in zip(off, chosen) if keep]
            try:
                out.append(FiniteDirectedSet(size, rel))
            except ValueError:
                continue
    return tuple(out)


@dataclass(frozen=True)
class Net:
    """Valuation of a finite directed set in a carrier.

    Values are point indices on finite carriers and singleton atom ids on
    symbolic ones.
    """

    directed: FiniteDirectedSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.directed.size:
            raise ValueError("net must value every element of the directed set")


def net_converges(space, net: Net, x) -> bool:
    """Eventually inside every open around x.

    It is enough to range over the opens' meets with x and the net values,
    which is exact; on a symbolic carrier those must be singleton atoms.
    A point outside the carrier raises ValueError (KeyError for an unknown
    atom).
    """
    for u in space.traces_on(space.set_of((x, *net.values))):
        if x in u and not any(
            all(net.values[b] in u for b in net.directed.above(a))
            for a in range(net.directed.size)
        ):
            return False
    return True


def image_net(f: AnyMap, net: Net) -> Net:
    return Net(net.directed, tuple(f(v) for v in net.values))


# ---------------------------------------------------------------------------
# Condition C and the convergence transfer theorem
# ---------------------------------------------------------------------------

def satisfies_condition_C(f: AnyMap, pair, bx: Bispace, by: Bispace) -> bool:
    """f(closure_j(preimage(U*))) equals U* for every target i-th-structure open U*.

    Taking U* to be the whole target forces f to be surjective, so the check
    is False for every non-surjective map; that reading is deliberate.
    Opens are quantified by their (inside, touched) traces: an image is an
    algebra set, so a member equals it iff inside == touched == image,
    which decides each member exactly on its own.
    """
    _check_compatible(f, bx, by)
    i, j = check_pair(pair)
    cl_j = bx.space(j).closure
    return all(
        inside == touched == f.image(cl_j(f.preimage(inside)))
        for inside, touched in by.space(i).open_traces()
    )


def check_theorem_4_6(
    f: AnyMap, pair, bx: Bispace, by: Bispace, net: Net, x
) -> bool:
    """Convergence transfer: nets converging to x push to nets converging to f(x).

    Vacuously true when the hypotheses (preimages of target i-opens are
    (i,j)-preopen, plus condition C) fail, or when the net does not converge
    to x in the i-th source structure.
    """
    i, j = check_pair(pair)
    _check_compatible(f, bx, by)
    for v in preimage_test_sets(by.space(i), f):
        if not is_ij_preopen(bx, (i, j), f.preimage(v)).holds:
            return True
    if not satisfies_condition_C(f, pair, bx, by):
        return True
    if not net_converges(bx.space(i), net, x):
        return True
    return net_converges(by.space(i), image_net(f, net), f(x))
