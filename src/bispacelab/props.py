"""Openness-between predicates over a pair of space backends on one carrier.

Every "there is an open set squeezed between ..." predicate routes through
open_between, the backends' primitive with its witness, so the symbolic
closed form is proved once, and each backend decides semiopenness in closed
form (semiopen_under). Witness searches that range over representable sets
only (is_ij_semipreopen, pcl, spcl) are complete on finite backends and
algebra-relative on symbolic ones. closed_supersets_interior walks the
backends' open_traces(), exact on both (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .finite import CarrierSet, FiniteSpace
from .symbolic import SchematicFamily


class Witnessed(NamedTuple):
    holds: bool
    witness: Optional[CarrierSet]


PAIRS = ((1, 2), (2, 1))


def check_pair(pair) -> tuple[int, int]:
    i, j = pair
    if {i, j} != {1, 2}:
        raise ValueError(f"index pair must be (1,2) or (2,1), got {pair!r}")
    return (i, j)


@dataclass(frozen=True)
class Bispace:
    """One carrier with two open-set structures."""

    first: object
    second: object

    def __post_init__(self):
        if self.first.carrier_key() != self.second.carrier_key():
            raise ValueError("both structures of a bispace must share the carrier")

    def space(self, index: int):
        if index == 1:
            return self.first
        if index == 2:
            return self.second
        raise ValueError(f"space index must be 1 or 2, got {index!r}")

    def carrier_key(self) -> tuple:
        return self.first.carrier_key()

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.first, SchematicFamily)


# ---------------------------------------------------------------------------
# Single-space predicates
# ---------------------------------------------------------------------------

def open_between(space, a: CarrierSet, b: CarrierSet) -> Witnessed:
    """Some open U with a <= U <= b, witnessed by the backend's canonical one."""
    w = space.open_between(a, b)
    return Witnessed(w is not None, w)


def is_preopen(space, a: CarrierSet) -> Witnessed:
    """Some open U with a <= U <= closure(a)."""
    return open_between(space, a, space.closure(a))


def is_weakly_preopen(space, a: CarrierSet) -> bool:
    """a <= interior(closure(a))."""
    return a.issubset(space.interior(space.closure(a)))


# ---------------------------------------------------------------------------
# Pairwise predicates
# ---------------------------------------------------------------------------

def is_ij_preopen(bispace: Bispace, pair, a: CarrierSet) -> Witnessed:
    """Some space_i-open U with a <= U <= closure_j(a)."""
    i, j = check_pair(pair)
    return open_between(bispace.space(i), a, bispace.space(j).closure(a))


def is_ij_weakly_preopen(bispace: Bispace, pair, a: CarrierSet) -> bool:
    """a <= interior_i(closure_j(a))."""
    i, j = check_pair(pair)
    return a.issubset(bispace.space(i).interior(bispace.space(j).closure(a)))


def is_pairwise_preopen(bispace: Bispace, a: CarrierSet) -> bool:
    return is_ij_preopen(bispace, (1, 2), a).holds and is_ij_preopen(bispace, (2, 1), a).holds


def is_ij_semiopen(bispace: Bispace, pair, a: CarrierSet) -> bool:
    """Some space_i-open O with O <= a <= closure_j(O)."""
    i, j = check_pair(pair)
    return bispace.space(i).semiopen_under(bispace.space(j), a)


def is_ij_semipreopen(bispace: Bispace, pair, a: CarrierSet) -> Witnessed:
    """Some (i,j)-preopen U with U <= a <= closure_j(U).

    The witness ranges over representable sets inside `a`, smallest
    canonical first. If none is found, a semiopen verdict still certifies
    truth (an open witness is a preopen witness); the witness field is then
    None. On a finite backend the search has then already found that open;
    on a symbolic one it may fall outside the atom algebra, and the
    negative answer stays algebra-relative.
    """
    i, j = check_pair(pair)
    sp_i, sp_j = bispace.space(i), bispace.space(j)
    for u in sp_i.algebra_sets():
        if not u.issubset(a):
            continue
        if not is_ij_preopen(bispace, pair, u).holds:
            continue
        if a.issubset(sp_j.closure(u)):
            return Witnessed(True, u)
    if sp_i.semiopen_under(sp_j, a):
        return Witnessed(True, None)
    return Witnessed(False, None)


def is_ij_preclosed(bispace: Bispace, pair, a: CarrierSet) -> bool:
    """The complement is (i,j)-preopen."""
    return is_ij_preopen(bispace, pair, a.complement()).holds


def is_ij_semipreclosed(bispace: Bispace, pair, a: CarrierSet) -> bool:
    """The complement is (i,j)-semipreopen."""
    return is_ij_semipreopen(bispace, pair, a.complement()).holds


def _hull(bispace: Bispace, pair, a: CarrierSet, closed) -> CarrierSet:
    """Intersection of the representable supersets s of a where closed(s)."""
    check_pair(pair)
    out = bispace.space(1).whole()
    for s in bispace.space(1).algebra_sets():
        if a.issubset(s) and closed(bispace, pair, s):
            out = out & s
    return out


def pcl(bispace: Bispace, pair, a: CarrierSet) -> CarrierSet:
    """Intersection of the representable (i,j)-preclosed supersets of a.

    Exact on finite backends; algebra-relative on symbolic ones.
    """
    return _hull(bispace, pair, a, is_ij_preclosed)


def spcl(bispace: Bispace, pair, a: CarrierSet) -> CarrierSet:
    """Intersection of the representable (i,j)-semipreclosed supersets of a."""
    return _hull(bispace, pair, a, is_ij_semipreclosed)


def closed_supersets_interior(bispace: Bispace, pair, a: CarrierSet) -> bool:
    """Does every space_j-closed set containing `a` have interior_i covering `a`?

    Quantifies over all closed sets of space_j, one X - touched per open
    trace, exactly: `a` is an atom union, so a member avoids `a` iff its
    touched part does, and its complement lies between X - touched and
    X - inside (equal on a finite space). On a schematic family interior_i
    covers `a` on both under the same condition, since P_i holds single
    points only. This is the hypothesis side of the preopenness necessary
    condition, whose converse fails outside topological models.
    """
    i, j = check_pair(pair)
    sp_i, sp_j = bispace.space(i), bispace.space(j)
    if a.is_empty:
        return True
    for _, touched in sp_j.open_traces():
        g = touched.complement()
        if a.issubset(g) and not a.issubset(sp_i.interior(g)):
            return False
    return True


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def subspace(bispace: Bispace, region: CarrierSet) -> Bispace:
    """Trace bispace on `region`; finite points are relabelled positionally."""
    return Bispace(bispace.first.restrict(region), bispace.second.restrict(region))


def finite_bispace(size: int, opens1, opens2) -> Bispace:
    return Bispace(FiniteSpace(size, opens1), FiniteSpace(size, opens2))
