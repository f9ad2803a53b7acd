"""Explicit open-set structures on finite carriers.

On a finite carrier the countable-union axiom collapses to closure under
pairwise union, so everything here is an ordinary finite topological space.
The gap between "some open set sits between A and its closure" and
"A sits inside the interior of its closure" cannot open up on a finite
carrier; separating those two conditions is the symbolic backend's job.

Points are the integers 0..n-1 and subsets are bitmasks (PointSet, on the
CarrierSet algebra both backends share). Each point has a least open set,
so a space is read off two tables over its 2^n subsets, and the open
families on n points are enumerated through those least opens up to n = 4.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterator, Optional

MAX_ENUMERATION_POINTS = 4


def bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CarrierSet:
    """Immutable subset of an ordered finite carrier, bitmask-backed, with
    the set algebra written once.

    A subclass names its carrier: `_check(other)` raises unless other lives
    on the same carrier, `_on_carrier(mask)` builds a set on it, and
    `_carrier_size()` counts its elements.
    """

    __slots__ = ("mask",)

    def union(self, other: CarrierSet) -> CarrierSet:
        self._check(other)
        return self._on_carrier(self.mask | other.mask)

    def intersection(self, other: CarrierSet) -> CarrierSet:
        self._check(other)
        return self._on_carrier(self.mask & other.mask)

    def difference(self, other: CarrierSet) -> CarrierSet:
        self._check(other)
        return self._on_carrier(self.mask & ~other.mask)

    def complement(self) -> CarrierSet:
        return self._on_carrier(self.mask ^ ((1 << self._carrier_size()) - 1))

    def issubset(self, other: CarrierSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_whole(self) -> bool:
        return self.mask == (1 << self._carrier_size()) - 1

    def __hash__(self) -> int:
        # equal sets may hold distinct but equal carriers, so hash the size
        return hash((self._carrier_size(), self.mask))


class OpenFamily:
    """What a backend's whole(), closure(s) and open_between(a, b), the last
    complete over the whole family, give by definition, written once."""

    __slots__ = ()

    def empty(self) -> CarrierSet:
        return self.whole().complement()

    def is_open(self, s: CarrierSet) -> bool:
        """Membership in the family: some open fits between s and s."""
        return self.open_between(s, s) is not None

    def interior(self, s: CarrierSet) -> CarrierSet:
        """The union of the open subsets, which need not be open: the dual of
        closure, the intersection of the closed supersets."""
        return self.closure(s.complement()).complement()

    def traces_on(self, points: CarrierSet) -> list[CarrierSet]:
        """The distinct meets U & points over all opens U, canonically
        ordered: t inside `points` is one iff some open lies between t and
        t | (X - points)."""
        whole = self.whole()
        outside = whole - points
        traces = []
        for m in canonical_masks(whole._carrier_size()):
            if m & ~points.mask == 0:
                t = whole._on_carrier(m)
                if self.open_between(t, t | outside) is not None:
                    traces.append(t)
        return traces


class PointSet(CarrierSet):
    """Immutable subset of the carrier 0..size-1."""

    __slots__ = ("size",)

    def __init__(self, size: int, mask: int = 0):
        if size < 1:
            raise ValueError("carrier needs at least one point")
        if mask < 0 or mask >> size:
            raise ValueError(f"mask {mask:#x} does not fit a {size}-point carrier")
        self.size = size
        self.mask = mask

    @classmethod
    def of(cls, size: int, points) -> "PointSet":
        mask = 0
        for p in points:
            if not 0 <= p < size:
                raise ValueError(f"point {p} outside carrier 0..{size - 1}")
            mask |= 1 << p
        return cls(size, mask)

    @classmethod
    def empty(cls, size: int) -> "PointSet":
        return cls(size, 0)

    @classmethod
    def full(cls, size: int) -> "PointSet":
        return cls(size, (1 << size) - 1)

    def _check(self, other: "PointSet") -> None:
        if self.size != other.size:
            raise ValueError("point sets live on different carriers")

    def _on_carrier(self, mask: int) -> "PointSet":
        return PointSet(self.size, mask)

    def _carrier_size(self) -> int:
        return self.size

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.size and (self.mask >> point) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def points(self) -> tuple[int, ...]:
        return tuple(self)

    def canonical_key(self) -> tuple:
        """Sort key: cardinality first, then the sorted point tuple."""
        return (len(self), self.points())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.size == other.size
            and self.mask == other.mask
        )

    __hash__ = CarrierSet.__hash__

    def __repr__(self) -> str:
        return "{" + ",".join(str(p) for p in self) + "}"


class SpaceAxiomError(ValueError):
    """A family of sets fails one of the open-set axioms.

    Carries the name of the first violated axiom and the offending set(s).
    """

    def __init__(self, axiom: str, witnesses: tuple[PointSet, ...], message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witnesses = witnesses


@lru_cache(maxsize=None)
def canonical_masks(n: int) -> tuple[int, ...]:
    """Every subset mask of an n-point carrier, in canonical order.

    The one place the order is derived: PointSet.canonical_key, cardinality
    first and then the sorted points. Witness searches scan in this order,
    so the smallest witness is the one reported.
    """
    return tuple(sorted(range(1 << n), key=lambda m: PointSet(n, m).canonical_key()))


def _canonical_opens(size: int, masks: set) -> tuple[int, ...]:
    return tuple(m for m in canonical_masks(size) if m in masks)


def or_table(values) -> list[int]:
    """table[mask] is the OR of values[i] over the bits i of mask."""
    table = [0]
    for value in values:
        table += [t | value for t in table]
    return table


def least_open_tables(n: int, opens) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(least, cl) per mask s of an n-point carrier for an open family: with
    up[x] the meet of the opens holding x (Alexandroff 1937), least[s] is
    the union of up[x] over x in s and cl[s] the points x with up[x]
    meeting s. The masks with least[s] == s form a topology holding the
    family, so the family is one iff it has as many masks; then least[s]
    is the least open holding s and cl[s] the closure of s."""
    up = [(1 << n) - 1] * n
    below = [0] * n  # below[y]: the x with y in up[x], the closure of {y}
    for x in range(n):
        for o in opens:
            if o >> x & 1:
                up[x] &= o
        for y in bit_indices(up[x]):
            below[y] |= 1 << x
    return tuple(or_table(up)), tuple(or_table(below))


class FiniteSpace(OpenFamily):
    """A finite carrier with an explicit family of open sets.

    The constructor validates the axioms (empty and whole set present,
    closure under pairwise union and intersection) and stores the opens
    duplicate-free in canonical order, so construction is the same thing
    as ``validate_space``. Every primitive reads the two 2^size-entry
    tables of least_open_tables, so carriers are meant to be small.
    """

    __slots__ = ("size", "opens", "least", "cl")

    def __init__(self, size: int, opens):
        if size < 1:
            raise ValueError("carrier needs at least one point")
        self.size = size
        full = (1 << size) - 1
        mask_set = set()
        for o in opens:
            if isinstance(o, PointSet):
                if o.size != size:
                    raise ValueError("open set on the wrong carrier")
                mask_set.add(o.mask)
            else:
                mask_set.add(PointSet.of(size, o).mask)
        if 0 not in mask_set:
            raise SpaceAxiomError(
                "empty-set-open", (), "the empty set must be open"
            )
        if full not in mask_set:
            raise SpaceAxiomError(
                "whole-set-open", (), "the whole carrier must be open"
            )
        self.least, self.cl = least_open_tables(size, mask_set)
        if len(mask_set) != sum(map(operator.eq, self.least, range(full + 1))):
            # not a topology: name its first unclosed pair, in numeric order
            for a, b in itertools.combinations(sorted(mask_set), 2):
                pair = (PointSet(size, a), PointSet(size, b))
                for op, m in (("union", a | b), ("intersection", a & b)):
                    if m not in mask_set:
                        raise SpaceAxiomError(
                            f"{op}-closed",
                            pair,
                            f"{op} of {pair[0]} and {pair[1]} is missing",
                        )
        self.opens = tuple(
            PointSet(size, m) for m in _canonical_opens(size, mask_set)
        )

    # ---- backend contract ----

    def carrier_key(self) -> tuple:
        return ("finite", self.size)

    def whole(self) -> PointSet:
        return PointSet.full(self.size)

    def is_open(self, s: PointSet) -> bool:
        """One least-table lookup, the fast route to open_between(s, s)."""
        self._own(s)
        return self.least[s.mask] == s.mask

    def closure(self, s: PointSet) -> PointSet:
        """The points whose least open meets s."""
        self._own(s)
        return PointSet(self.size, self.cl[s.mask])

    def limit_points(self, s: PointSet) -> PointSet:
        """Points x in the closure of s - {x}: every open neighbourhood of
        x meets s somewhere else."""
        self._own(s)
        cl = self.cl
        return PointSet.of(
            self.size,
            (x for x in range(self.size) if cl[s.mask & ~(1 << x)] >> x & 1),
        )

    def algebra_sets(self) -> Iterator[PointSet]:
        """Every subset of the carrier, in canonical order."""
        return (PointSet(self.size, m) for m in canonical_masks(self.size))

    def set_of(self, members) -> PointSet:
        return PointSet.of(self.size, members)

    def open_traces(self) -> Iterator[tuple[PointSet, PointSet]]:
        """(inside, touched) per open; an open contains every point it meets."""
        return ((o, o) for o in self.opens)

    def traces_on(self, points: PointSet) -> tuple[PointSet, ...]:
        """Sets whose meets with `points` are the opens' meets: the opens,
        which spares the per-subset walk of OpenFamily.traces_on."""
        return self.opens

    def restrict(self, region: PointSet) -> "FiniteSpace":
        """Trace space on `region`, points relabelled positionally."""
        return trace_space(self, region)[0]

    def semiopen_under(self, other: "FiniteSpace", a: PointSet) -> bool:
        """Some open O with O <= a <= other.closure(O): interior(a) is the
        largest candidate and closure is monotone (Levine 1963)."""
        return a.issubset(other.closure(self.interior(a)))

    def open_between(self, a: PointSet, b: PointSet) -> Optional[PointSet]:
        """Smallest canonical open U with a <= U <= b, or None: the least
        open holding a, since every other one is a strict superset of it
        and so comes later in canonical order."""
        self._own(a)
        self._own(b)
        if not a.issubset(b):
            raise ValueError("open_between requires the first set inside the second")
        u = self.least[a.mask]
        return PointSet(self.size, u) if u & ~b.mask == 0 else None

    def _own(self, s: PointSet) -> None:
        if not isinstance(s, PointSet) or s.size != self.size:
            raise ValueError("set does not belong to this carrier")

    def canonical_form(self) -> tuple[tuple[int, ...], ...]:
        return tuple(o.points() for o in self.opens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSpace)
            and self.size == other.size
            and self.least == other.least
        )

    def __hash__(self) -> int:
        return hash((self.size, self.least))

    def __repr__(self) -> str:
        inner = ",".join(repr(o) for o in self.opens)
        return f"FiniteSpace({self.size}, [{inner}])"


def validate_space(size: int, family) -> FiniteSpace:
    """Check the open-set axioms for a family; raise SpaceAxiomError if violated."""
    return FiniteSpace(size, family)


def indiscrete_space(size: int) -> FiniteSpace:
    return FiniteSpace(size, [PointSet.empty(size), PointSet.full(size)])


def discrete_space(size: int) -> FiniteSpace:
    return FiniteSpace(size, [PointSet(size, m) for m in range(1 << size)])


@lru_cache(maxsize=None)
def _space_forms(n: int) -> tuple[tuple[int, ...], ...]:
    """All valid open families on n points, as sorted mask tuples.

    A finite topology is the family of up-sets of its specialisation
    preorder (Alexandroff 1937, "Diskrete Räume"): each point x has a least
    open set up[x], and a set is open iff it contains up[x] for each of its
    points x. So every choice of up[x] containing x is a candidate, kept
    iff it is transitive (y in up[x] implies up[y] <= up[x]); each topology
    comes from exactly one such choice. Results are sorted by canonical opens
    key.
    """
    masks = range(1 << n)
    members = [[x for x in range(n) if m >> x & 1] for m in masks]
    choices = [[u for u in masks if x in members[u]] for x in range(n)]
    valid: list[tuple[int, ...]] = []
    for up in itertools.product(*choices):
        if any(up[y] & ~u for u in up for y in members[u]):
            continue
        fam = {m for m in masks if all(up[x] & ~m == 0 for x in members[m])}
        valid.append(_canonical_opens(n, fam))

    def family_key(masks: tuple[int, ...]) -> tuple:
        return (len(masks), tuple(PointSet(n, m).canonical_key() for m in masks))

    valid.sort(key=family_key)
    return tuple(valid)


def _check_enumeration_size(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATION_POINTS:
        raise ValueError(
            f"enumeration supported for 1..{MAX_ENUMERATION_POINTS} points, got {n}"
        )


def enumerate_spaces(n: int) -> Iterator[FiniteSpace]:
    """Yield every open-set structure on n points exactly once, canonically ordered."""
    _check_enumeration_size(n)
    for masks in _space_forms(n):
        yield FiniteSpace(n, [PointSet(n, m) for m in masks])


def count_spaces(n: int) -> int:
    _check_enumeration_size(n)
    return len(_space_forms(n))


def trace_space(space: FiniteSpace, region: PointSet) -> tuple[FiniteSpace, dict[int, int]]:
    """Subspace on `region`: opens are the traces U & region, points relabelled.

    Returns the relabelled space together with the old-point -> new-point map.
    """
    if region.size != space.size:
        raise ValueError("region on the wrong carrier")
    if region.is_empty:
        raise ValueError("subspace carrier must be nonempty")
    relabel = {old: new for new, old in enumerate(region.points())}
    sub_size = len(region)
    traced = set()
    for o in space.opens:
        traced.add(PointSet.of(sub_size, (relabel[p] for p in o if p in region)).mask)
    sub = FiniteSpace(sub_size, [PointSet(sub_size, m) for m in traced])
    return sub, relabel
