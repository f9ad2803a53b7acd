"""Catalog of the worked uncountable counterexamples, with expected verdicts.

Each entry encodes one example universe as cardinality-tagged atoms chosen so
that every set the example mentions is exactly a union of atoms (individually
mentioned points become singleton atoms). The claims then pin the verdicts
and the computed closure/interior values; verify_entry recomputes everything
and reports per-claim outcomes.

The entries are space documents shipped under entries/, one per id, read by
the same parser as `bispace-lab check`, so `bispace-lab check
entries/ex-3.1.json` replays ex-3.1 with the report `verify-catalog` prints.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from . import maps as maps_mod
from . import props
from .props import Bispace
from .reports import ClaimOutcome, Report, render_value
from .symbolic import is_countable

@dataclass(frozen=True)
class Claim:
    """One checkable statement about an entry's structures, as
    spacefile.parse_claims builds it.

    args is the claim as written, for label(): set / set2 / witness (named
    set or member list), pair (i,j), space (1 or 2) and on ("source" |
    "target" for map entries). values are the objects the predicate's `run`
    takes, in its `reads` order. expected is the resolved expectation (a set
    for a set-valued predicate, else a bool), None for an informational
    claim, which passes on any value; witness is the resolved
    expected_witness, which the engine must return, or None.
    """

    predicate: str
    args: Mapping[str, object]
    values: tuple
    expected: object = None
    witness: object = None
    note: str = ""

    def label(self) -> str:
        parts = []
        for key in ("set", "set2", "witness", "pair", "space", "on"):
            if key in self.args:
                v = self.args[key]
                parts.append(f"{key}={v}" if key != "set" else f"{v}")
        return f"{self.predicate}({', '.join(parts)})"


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    title: str
    note: str
    bispace: Bispace
    named_sets: Mapping[str, object]    # SymSet or PointSet, per backend
    claims: tuple[Claim, ...]
    map_: Optional[maps_mod.AtomMap] = None
    target_bispace: Optional[Bispace] = None
    target_sets: frozenset[str] = frozenset()  # names of the target's named sets


# ---------------------------------------------------------------------------
# Claim evaluation
# ---------------------------------------------------------------------------

def _witness_valid(bispace: Bispace, pair, a, u) -> props.Witnessed:
    """Is `u` an (i,j)-preopen set with u <= a <= closure_j(u)?"""
    ok = (
        props.is_ij_preopen(bispace, pair, u).holds
        and u.issubset(a)
        and a.issubset(bispace.space(pair[1]).closure(u))
    )
    return props.Witnessed(ok, u)


@dataclass(frozen=True)
class Predicate:
    """One claim predicate: `run` takes the arguments named in `reads`, in
    order ("space", "bispace", "pair", "map", "target", "target_space" or a
    set argument "set"/"set2"/"witness"; spacefile.parse_claims builds
    them) and returns a value or a Witnessed. `relative` marks a search over
    representable sets, which is algebra-relative on a symbolic bispace.
    `value_on` is the carrier of a set value that does not lie on the
    claim's own (`on`) carrier."""

    run: Callable
    reads: tuple[str, ...]
    set_valued: bool = False
    relative: bool = False
    value_on: Optional[str] = None


_ON_SPACE = ("space", "set")
_ON_PAIR = ("bispace", "pair", "set")
_ON_MAP = ("map", "bispace", "target")

# The claim vocabulary, in the order user documents list it; the map
# predicates come last since only a document with a map section reads them.
PREDICATES: dict[str, Predicate] = {
    "is_open": Predicate(lambda sp, a: sp.is_open(a), _ON_SPACE),
    "closure": Predicate(lambda sp, a: sp.closure(a), _ON_SPACE, set_valued=True),
    "interior": Predicate(lambda sp, a: sp.interior(a), _ON_SPACE, set_valued=True),
    "limit_points": Predicate(
        lambda sp, a: sp.limit_points(a), _ON_SPACE, set_valued=True
    ),
    "open_between": Predicate(props.open_between, ("space", "set", "set2")),
    "is_countable": Predicate(is_countable, ("set",)),
    "is_preopen": Predicate(props.is_preopen, _ON_SPACE),
    "is_weakly_preopen": Predicate(props.is_weakly_preopen, _ON_SPACE),
    "is_ij_preopen": Predicate(props.is_ij_preopen, _ON_PAIR),
    "is_ij_weakly_preopen": Predicate(props.is_ij_weakly_preopen, _ON_PAIR),
    "is_pairwise_preopen": Predicate(props.is_pairwise_preopen, ("bispace", "set")),
    "is_ij_semiopen": Predicate(props.is_ij_semiopen, _ON_PAIR),
    "is_ij_semipreopen": Predicate(props.is_ij_semipreopen, _ON_PAIR, relative=True),
    "is_ij_preclosed": Predicate(props.is_ij_preclosed, _ON_PAIR),
    "is_ij_semipreclosed": Predicate(
        props.is_ij_semipreclosed, _ON_PAIR, relative=True
    ),
    "pcl": Predicate(props.pcl, _ON_PAIR, set_valued=True, relative=True),
    "spcl": Predicate(props.spcl, _ON_PAIR, set_valued=True, relative=True),
    "closed_supersets_interior": Predicate(props.closed_supersets_interior, _ON_PAIR),
    "semipreopen_witness_valid": Predicate(
        _witness_valid, ("bispace", "pair", "set", "witness")
    ),
    "image": Predicate(
        lambda f, s: f.image(s), ("map", "set"), set_valued=True, value_on="target"
    ),
    "preimage": Predicate(
        lambda f, s: f.preimage(s), ("map", "set"), set_valued=True, value_on="source"
    ),
    "is_pairwise_continuous": Predicate(maps_mod.is_pairwise_continuous, _ON_MAP),
    "is_pairwise_precontinuous": Predicate(
        maps_mod.is_pairwise_precontinuous, _ON_MAP
    ),
    "is_pairwise_semi_continuous": Predicate(
        maps_mod.is_pairwise_semi_continuous, _ON_MAP
    ),
    "is_pairwise_sp_continuous": Predicate(
        maps_mod.is_pairwise_sp_continuous, _ON_MAP, relative=True
    ),
    "check_closure_preservation": Predicate(
        maps_mod.check_closure_preservation, ("map", "space", "target_space", "set")
    ),
}


def evaluate_claim(entry: CatalogEntry, claim: Claim):
    """Returns (computed, witness, algebra_relative)."""
    spec = PREDICATES[claim.predicate]
    result = spec.run(*claim.values)
    relative = spec.relative and entry.bispace.is_symbolic
    if isinstance(result, props.Witnessed):
        return result.holds, result.witness, relative
    return result, None, relative


def verify_entry(entry: CatalogEntry) -> Report:
    """Evaluate every claim; failures become report content, not exceptions."""
    outcomes = []
    for claim in entry.claims:
        start = time.perf_counter()
        computed, witness, algebra_relative = evaluate_claim(entry, claim)
        elapsed = (time.perf_counter() - start) * 1000.0
        passed = claim.expected is None or computed == claim.expected
        expected_str = render_value(claim.expected)
        if claim.witness is not None:
            passed = passed and witness == claim.witness
            if not passed:
                expected_str += f" with witness {render_value(claim.witness)}"
        outcomes.append(
            ClaimOutcome(
                claim=claim.label(),
                predicate=claim.predicate,
                expected=expected_str,
                computed=render_value(computed),
                passed=passed,
                witness=render_value(witness),
                algebra_relative=algebra_relative,
                duration_ms=elapsed,
                note=claim.note,
            )
        )
    return Report(entry.entry_id, entry.title, tuple(outcomes), entry.note)


# ---------------------------------------------------------------------------
# The entries
# ---------------------------------------------------------------------------

ENTRIES = Path(__file__).with_name("entries")

CATALOG_IDS = (
    "ex-3.1",
    "ex-3.2",
    "ex-3.3",
    "ex-3.4",
    "ex-3.5",
    "ex-3.6",
    "ex-3.7",
    "ex-3.8",
    "ex-4.1",
)


def build_example(entry_id: str) -> CatalogEntry:
    """The entry parsed from its shipped document, by the parser `check`
    runs; ids outside the catalog raise."""
    if entry_id not in CATALOG_IDS:
        raise ValueError(
            f"unknown catalog id {entry_id!r}; known ids: {', '.join(CATALOG_IDS)}"
        )
    # here, not at the top: spacefile imports this module's claim vocabulary
    from .spacefile import parse_spacefile

    name = f"{entry_id}.json"
    entry = parse_spacefile((ENTRIES / name).read_text(encoding="utf-8"), name)
    if entry.entry_id != entry_id:
        raise ValueError(f"{name} declares the id {entry.entry_id!r}")
    return entry


def negative_control_entry() -> CatalogEntry:
    """ex-3.1 with one deliberately inverted claim; must fail verification."""
    from .spacefile import parse_claims

    base = build_example("ex-3.1")
    raw = [{"predicate": "is_preopen", "set": "B", "space": 1, "expected": True}]
    (flipped,) = parse_claims(raw, base, "negative-control.claims")
    return dataclasses.replace(
        base,
        entry_id="negative-control",
        title=base.title + " (negative control)",
        note="Deliberately inverted expectation; a passing run here means the "
        "verifier is broken.",
        claims=base.claims[:-1] + (flipped,),
    )


def run_catalog():
    """Verify every entry, yielding Reports in catalog order."""
    for entry_id in CATALOG_IDS:
        yield verify_entry(build_example(entry_id))
