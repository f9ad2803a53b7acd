"""Exact symbolic model of schematic open families over cardinality-tagged atoms.

A universe is a finite partition of an abstract ground set into atoms, each
tagged as a single point, a countably infinite block, or an uncountable
block. The representable sets (the "atom algebra") are the unions of atoms,
each a SymSet: a CarrierSet bitmask over the universe's atom order.

A schematic family is the open structure

    {X, empty} | {C | P : C a countable subset of the region R}

for a fixed region R and a fixed finite set P of mandatory points. These
families satisfy the open-set axioms by construction: countable unions of
countable C's stay countable, and (C1|P) & (C2|P) = (C1&C2)|P. The tests
assert this once against the explicit finite model on all-singleton
universes.

The closed forms are closure, open_between, semiopen_under and restrict;
interior, openness, the empty member and the trace sets follow from closure
and open_between by definition (finite.OpenFamily). On algebra sets all of
them are exact: they quantify over the full (typically uncountable) family,
not just over representable members. Quantifying over every member of the
family (needed e.g. for "every closed superset" checks and for map
questions) is done through trace patterns: a member C|P is known to any
atom-level predicate only through, per atom, whether C misses it, meets it
properly, or swallows it, and each such pattern is realizable or not
depending only on the atom's cardinality tag. Enumerating patterns
therefore quantifies over the whole family exactly.

One warning inherited from the underlying theory: the closure operator here
always returns an algebra set, and on algebra sets it is always closed or
the whole space; closures that fail to be closed sets live outside the atom
algebra and are deliberately not modeled.

Only two cardinality rules are ever used: countable-union-of-countable is
countable, and subsets of countable sets are countable. No ordinals.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .finite import CarrierSet, FiniteSpace, OpenFamily, PointSet, canonical_masks


class Cardinality(enum.Enum):
    SINGLETON = "singleton"          # exactly one point
    COUNTABLE = "countably-infinite"
    UNCOUNTABLE = "uncountable"


@dataclass(frozen=True)
class Atom:
    """One block of the ground-set partition."""

    id: str
    cardinality: Cardinality
    label: str = ""

    @property
    def is_singleton(self) -> bool:
        return self.cardinality is Cardinality.SINGLETON

    @property
    def is_countable(self) -> bool:
        return self.cardinality is not Cardinality.UNCOUNTABLE


def singleton(id: str, label: str = "") -> Atom:
    return Atom(id, Cardinality.SINGLETON, label)


def countable(id: str, label: str = "") -> Atom:
    return Atom(id, Cardinality.COUNTABLE, label)


def uncountable(id: str, label: str = "") -> Atom:
    return Atom(id, Cardinality.UNCOUNTABLE, label)


class AtomUniverse:
    """Ordered finite list of pairwise-disjoint atoms covering the ground set.

    Disjointness and coverage are modeling obligations of whoever writes the
    atoms down; they are not (and cannot be) checked semantically here.
    """

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a universe needs at least one atom")
        index: dict[str, int] = {}
        for pos, atom in enumerate(atoms):
            if atom.id in index:
                raise ValueError(f"duplicate atom id {atom.id!r}")
            index[atom.id] = pos
        self.atoms = atoms
        self._index = index

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def atom(self, id: str) -> Atom:
        return self.atoms[self.position(id)]

    def position(self, id: str) -> int:
        try:
            return self._index[id]
        except KeyError:
            raise KeyError(f"unknown atom id {id!r}") from None

    def subset(self, *ids: str) -> "SymSet":
        mask = 0
        for id in ids:
            mask |= 1 << self.position(id)
        return SymSet(self, mask)

    def empty(self) -> "SymSet":
        return SymSet(self, 0)

    def whole(self) -> "SymSet":
        return SymSet(self, (1 << len(self.atoms)) - 1)

    def algebra_sets(self) -> Iterator["SymSet"]:
        """All atom unions, canonically ordered (atom count, then positions)."""
        return (SymSet(self, m) for m in canonical_masks(len(self.atoms)))

    def restrict(self, keep: "SymSet") -> "AtomUniverse":
        if not keep.universe.same_as(self):
            raise ValueError("restriction set from a different universe")
        if keep.is_empty:
            raise ValueError("restricted universe must keep at least one atom")
        return AtomUniverse(a for a in self.atoms if keep.contains_atom(a.id))

    def carrier_key(self) -> tuple:
        """The carrier's identity: its atom ids and cardinalities, in order."""
        return ("atoms", tuple((a.id, a.cardinality) for a in self.atoms))

    def same_as(self, other: "AtomUniverse") -> bool:
        return self is other or self.carrier_key() == other.carrier_key()

    def __repr__(self) -> str:
        return "AtomUniverse[" + ",".join(a.id for a in self.atoms) + "]"


class SymSet(CarrierSet):
    """Immutable union of atoms of one universe."""

    __slots__ = ("universe",)

    def __init__(self, universe: AtomUniverse, mask: int = 0):
        if mask < 0 or mask >> len(universe):
            raise ValueError("mask does not fit the universe")
        self.universe = universe
        self.mask = mask

    def _check(self, other: "SymSet") -> None:
        if not self.universe.same_as(other.universe):
            raise ValueError("sets live in different universes")

    def _on_carrier(self, mask: int) -> "SymSet":
        return SymSet(self.universe, mask)

    def _carrier_size(self) -> int:
        return len(self.universe)

    def disjoint(self, other: "SymSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def contains_atom(self, id: str) -> bool:
        return (self.mask >> self.universe.position(id)) & 1 == 1

    __contains__ = contains_atom

    def atom_ids(self) -> tuple[str, ...]:
        return tuple(a.id for i, a in enumerate(self.universe.atoms) if (self.mask >> i) & 1)

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for i, a in enumerate(self.universe.atoms) if (self.mask >> i) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atom_ids())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymSet)
            and self.universe.same_as(other.universe)
            and self.mask == other.mask
        )

    __hash__ = CarrierSet.__hash__

    def __repr__(self) -> str:
        return "{" + ",".join(self.atom_ids()) + "}"


def is_countable(s: SymSet) -> bool:
    """True iff the set contains no uncountable atom."""
    return all(a.is_countable for a in s.atoms())


class SchematicFamily(OpenFamily):
    """The open family {X, empty} | {C | P : C countable, C inside the region}."""

    __slots__ = ("universe", "region", "mandatory")

    def __init__(self, universe: AtomUniverse, region: SymSet, mandatory: SymSet):
        if not region.universe.same_as(universe) or not mandatory.universe.same_as(universe):
            raise ValueError("region/mandatory from a different universe")
        if not region.disjoint(mandatory):
            raise ValueError("region and mandatory part must be disjoint")
        for a in mandatory.atoms():
            if not a.is_singleton:
                raise ValueError(
                    f"mandatory part must consist of single points; {a.id!r} is {a.cardinality.value}"
                )
        self.universe = universe
        self.region = region
        self.mandatory = mandatory

    # ---- backend contract ----

    def carrier_key(self) -> tuple:
        return self.universe.carrier_key()

    def whole(self) -> SymSet:
        return self.universe.whole()

    def algebra_sets(self) -> Iterator[SymSet]:
        return self.universe.algebra_sets()

    def set_of(self, members) -> SymSet:
        return self.universe.subset(*members)

    def open_traces(self) -> Iterator[OpenTrace]:
        """Every member of the family, once per trace pattern: X, the empty
        member, then C|P for each way C can meet the region atoms."""
        u, p = self.universe, self.mandatory.mask
        yield OpenTrace(u.whole(), u.whole())
        yield OpenTrace(u.empty(), u.empty())
        states = (_atom_states(a, 1 << u.position(a.id)) for a in self.region.atoms())
        for combo in itertools.product([(p, p)], *states):
            inside, touched = map(sum, zip(*combo))  # disjoint bits: sum is union
            yield OpenTrace(SymSet(u, inside), SymSet(u, touched))

    def traces_on(self, points: SymSet) -> list[SymSet]:
        """OpenFamily.traces_on, for singleton-atom points only: a member
        meets any other atom in a set outside the atom algebra."""
        for a in points.atoms():
            if not a.is_singleton:
                raise ValueError(f"trace points must be singleton atoms, got {a.id!r}")
        return super().traces_on(points)

    def closure(self, s: SymSet) -> SymSet:
        """Smallest intersection of closed supersets, in closed form.

        Closed sets are X, empty, and X - (C|P). A member avoids s iff its C
        avoids s and P avoids s; the union of all avoiding members sweeps out
        every point of (R - s) | P (single region points sit in singleton
        C's). Hence for nonempty s disjoint from P the closure is
        X - ((R - s) | P); touching P kills every avoiding member, giving X.
        """
        self._own(s)
        if s.is_empty:
            return s
        if not self.mandatory.disjoint(s):
            return self.whole()
        return self.whole() - ((self.region - s) | self.mandatory)

    def open_between(self, a: SymSet, b: SymSet) -> Optional[SymSet]:
        """Open U with a <= U <= b, or None; complete over the whole family.

        A member C|P fits iff P <= b and a - P <= C <= R (C countable), so
        the canonical witness is (a - P) | P whenever a - P sits in the
        region and is countable; no member can fix an uncountable or
        region-escaping a - P, leaving only X (needs b = X) and empty
        (needs a empty).
        """
        self._own(a)
        self._own(b)
        if not a.issubset(b):
            raise ValueError("open_between requires the first set inside the second")
        if a.is_empty:
            return a
        core = a - self.mandatory
        if (
            self.mandatory.issubset(b)
            and core.issubset(self.region)
            and is_countable(core)
        ):
            return core | self.mandatory
        if b.is_whole:
            return b
        return None

    def semiopen_under(self, other: "SchematicFamily", a: SymSet) -> bool:
        """Some open O with O <= a <= other.closure(O), decided in closed form.

        Index i is this family and j is `other`. For a proper nonempty `a`,
        candidates are members C|P_i inside `a` (so P_i <= a, C <= R_i & a).
        Their j-closure covers `a` in two ways: touch P_j (closure becomes
        X), or avoid P_j while C picks up all of a & R_j. Padding C with one
        extra region point keeps O inside `a`, so nonemptiness of O only
        needs P_i or R_i & a nonempty. Validated against the all-singleton
        finite oracle and the trace enumeration in tests.
        """
        if a.is_empty or a.is_whole:
            return True
        p_i, r_i = self.mandatory, self.region
        p_j, r_j = other.mandatory, other.region
        if not p_i.issubset(a):
            return False
        if not (p_i & p_j).is_empty or not (p_j & r_i & a).is_empty:
            return True
        core = (a & r_j) - p_i
        return (
            (a & p_j).is_empty
            and core.issubset(r_i)
            and is_countable(core)
            and not (p_i.is_empty and (r_i & a).is_empty)
        )

    def _own(self, s: SymSet) -> None:
        if not isinstance(s, SymSet) or not s.universe.same_as(self.universe):
            raise ValueError("set does not belong to this family's universe")

    def restrict(self, keep: SymSet) -> "SchematicFamily":
        """Trace family on an atom union: region and mandatory part both trace.

        (C|P) & Y = (C & Y)|(P & Y) and every countable C' inside R & Y
        arises this way, so the trace of a schematic family is schematic.
        """
        self._own(keep)
        sub = self.universe.restrict(keep)
        region_ids = [i for i in self.region.atom_ids() if keep.contains_atom(i)]
        mand_ids = [i for i in self.mandatory.atom_ids() if keep.contains_atom(i)]
        return SchematicFamily(sub, sub.subset(*region_ids), sub.subset(*mand_ids))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchematicFamily)
            and self.universe.same_as(other.universe)
            and self.region.mask == other.region.mask
            and self.mandatory.mask == other.mandatory.mask
        )

    def __hash__(self) -> int:
        return hash((self.carrier_key(), self.region.mask, self.mandatory.mask))

    def __repr__(self) -> str:
        return f"SchematicFamily(region={self.region!r}, mandatory={self.mandatory!r})"


# ---------------------------------------------------------------------------
# Trace patterns: exact quantification over every member of a family.
# ---------------------------------------------------------------------------

def _atom_states(atom: Atom, bit: int) -> tuple[tuple[int, int], ...]:
    """The (swallowed, met) masks a countable C realizes on one region atom
    at `bit`."""
    # A countable C can swallow an atom only if the atom is countable, and
    # can meet it properly only if the atom has at least two points.
    if atom.cardinality is Cardinality.SINGLETON:
        return ((0, 0), (bit, bit))
    if atom.cardinality is Cardinality.COUNTABLE:
        return ((0, 0), (0, bit), (bit, bit))
    return ((0, 0), (0, bit))


class OpenTrace(NamedTuple):
    """One member of a schematic family, seen at atom granularity.

    `inside` is the union of the atoms the member contains and `touched`
    the union of the atoms it meets; the two differ exactly on the atoms
    the member meets properly, so the member equals an algebra set v iff
    inside == touched == v. Two members with the same trace are
    indistinguishable to every atom-level predicate, and every trace is
    realizable, so iterating traces quantifies over the family exactly.
    """

    inside: SymSet
    touched: SymSet


def materialize_finite(family: SchematicFamily):
    """Explicit finite model of a family over an all-singleton universe.

    Every subset of an all-singleton universe is countable, so the family is
    literally {X, empty} | {C | P : C <= R}. Used as the brute-force oracle
    for the closed forms.
    """
    atoms = family.universe.atoms
    if any(not a.is_singleton for a in atoms):
        raise ValueError("materialization needs an all-singleton universe")
    n = len(atoms)
    region_positions = [family.universe.position(i) for i in family.region.atom_ids()]
    p_mask = 0
    for i in family.mandatory.atom_ids():
        p_mask |= 1 << family.universe.position(i)
    masks = {0, (1 << n) - 1}
    for r in range(len(region_positions) + 1):
        for pick in itertools.combinations(region_positions, r):
            c_mask = 0
            for pos in pick:
                c_mask |= 1 << pos
            masks.add(c_mask | p_mask)
    return FiniteSpace(n, [PointSet(n, m) for m in masks])
