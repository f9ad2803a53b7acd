"""Catalog of the worked uncountable counterexamples, with expected verdicts.

Each entry encodes one example universe as cardinality-tagged atoms chosen so
that every set the example mentions is exactly a union of atoms (individually
mentioned points become singleton atoms). The claims then pin the verdicts
and the computed closure/interior values; verify_entry recomputes everything
and reports per-claim outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from . import maps as maps_mod
from . import props
from .finite import CarrierSet
from .props import Bispace
from .reports import ClaimOutcome, Report, render_value
from .symbolic import (
    AtomUniverse,
    SchematicFamily,
    countable,
    is_countable,
    singleton,
    uncountable,
)

@dataclass(frozen=True)
class Claim:
    """One checkable statement about an entry's structures.

    args may hold: set / set2 / witness (named set or list of atom ids),
    pair (i,j), space (1 or 2), on ("source" | "target" for map entries).
    expected None marks an informational claim (always passes, value
    recorded).
    """

    predicate: str
    args: Mapping[str, object] = field(default_factory=dict)
    expected: object = None
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


# ---------------------------------------------------------------------------
# Claim evaluation
# ---------------------------------------------------------------------------

def _resolve_set(entry: CatalogEntry, value, on: str):
    if isinstance(value, CarrierSet):
        return value
    if isinstance(value, str):
        try:
            return entry.named_sets[value]
        except KeyError:
            raise ValueError(f"{entry.entry_id}: unknown named set {value!r}") from None
    bisp = entry.target_bispace if on == "target" else entry.bispace
    return bisp.first.set_of(value)


def _space(entry: CatalogEntry, claim: Claim):
    on = claim.args.get("on", "source")
    bisp = entry.target_bispace if on == "target" else entry.bispace
    return bisp.space(claim.args.get("space", 1))


def _open_between(space, a, b) -> props.Witnessed:
    w = space.open_between(a, b)
    return props.Witnessed(w is not None, w)


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
    set argument "set"/"set2"/"witness"), and returns a value or a
    Witnessed. `relative` marks a search over representable sets, which is
    algebra-relative on a symbolic bispace."""

    run: Callable
    reads: tuple[str, ...]
    set_valued: bool = False
    relative: bool = False


_ON_SPACE = ("space", "set")
_ON_PAIR = ("bispace", "pair", "set")
_ON_MAP = ("map", "bispace", "target")

# The claim vocabulary, in the order user documents list it; the map
# predicates come last since documents cannot describe a map.
PREDICATES: dict[str, Predicate] = {
    "is_open": Predicate(lambda sp, a: sp.is_open(a), _ON_SPACE),
    "closure": Predicate(lambda sp, a: sp.closure(a), _ON_SPACE, set_valued=True),
    "interior": Predicate(lambda sp, a: sp.interior(a), _ON_SPACE, set_valued=True),
    "limit_points": Predicate(
        lambda sp, a: sp.limit_points(a), _ON_SPACE, set_valued=True
    ),
    "open_between": Predicate(_open_between, ("space", "set", "set2")),
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
    "image": Predicate(lambda f, s: f.image(s), ("map", "set"), set_valued=True),
    "preimage": Predicate(lambda f, s: f.preimage(s), ("map", "set"), set_valued=True),
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


def _argument(entry: CatalogEntry, claim: Claim, name: str):
    """One argument a predicate reads; "target_space" is the target
    structure with the claim's space index."""
    args = claim.args
    if name == "space":
        return _space(entry, claim)
    if name == "bispace":
        return entry.bispace
    if name == "pair":
        return args["pair"]
    if name == "map":
        return entry.map_
    if name == "target":
        return entry.target_bispace
    if name == "target_space":
        return entry.target_bispace.space(args.get("space", 1))
    return _resolve_set(entry, args[name], args.get("on", "source"))


def evaluate_claim(entry: CatalogEntry, claim: Claim):
    """Returns (computed, witness, algebra_relative)."""
    spec = PREDICATES.get(claim.predicate)
    if spec is None:
        raise ValueError(
            f"{entry.entry_id}: unknown claim predicate {claim.predicate!r}"
        )
    result = spec.run(*(_argument(entry, claim, name) for name in spec.reads))
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
        if claim.expected is None:
            passed = True
            expected_str = "none"
        else:
            expected = claim.expected
            if isinstance(expected, (list, tuple)) and not isinstance(computed, bool):
                side = claim.args.get("expected_on", claim.args.get("on", "source"))
                expected = _resolve_set(entry, expected, side)
            if "expected_witness" in claim.args and witness is not None:
                want_w = _resolve_set(
                    entry, claim.args["expected_witness"], claim.args.get("on", "source")
                )
                passed = computed == expected and witness == want_w
            else:
                passed = computed == expected
            expected_str = render_value(expected)
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

def _ex_3_1() -> CatalogEntry:
    u = AtomUniverse(
        [
            singleton("sqrt2", "the point sqrt(2)"),
            uncountable("irr-rest", "irrationals in [1,2] other than sqrt(2)"),
            countable("rats", "rationals in [1,2]"),
        ]
    )
    fam = SchematicFamily(u, u.subset("sqrt2", "irr-rest"), u.empty())
    bisp = Bispace(fam, fam)
    a = u.subset("sqrt2", "irr-rest")
    b = u.subset("irr-rest")
    cl_b = u.subset("irr-rest", "rats")
    return CatalogEntry(
        "ex-3.1",
        "weak preopenness does not imply preopenness",
        "One structure on [1,2]: opens are the countable sets of irrationals. "
        "The full irrational set A has closure X, so X itself sits between A "
        "and its closure; dropping sqrt(2) gives B whose closure misses "
        "sqrt(2), and no countable open can hold the uncountable B.",
        bisp,
        {"A": a, "B": b, "cl-B": cl_b},
        (
            Claim("is_open", {"set": "A", "space": 1}, False),
            Claim("closure", {"set": "A", "space": 1}, ["sqrt2", "irr-rest", "rats"]),
            Claim("is_weakly_preopen", {"set": "A", "space": 1}, True),
            Claim("is_preopen", {"set": "A", "space": 1}, True),
            Claim("closure", {"set": "B", "space": 1}, ["irr-rest", "rats"]),
            Claim("interior", {"set": "cl-B", "space": 1}, ["irr-rest"]),
            Claim("is_weakly_preopen", {"set": "B", "space": 1}, True),
            Claim("is_preopen", {"set": "B", "space": 1}, False),
        ),
    )


def _ex_3_2_structures():
    u = AtomUniverse(
        [
            uncountable("irr01", "irrationals in [0,1]"),
            uncountable("irr12", "irrationals in [1,2]"),
            countable("rats", "rationals in [0,2]"),
        ]
    )
    fam1 = SchematicFamily(u, u.subset("irr01"), u.empty())
    fam2 = SchematicFamily(u, u.subset("irr12"), u.empty())
    return u, Bispace(fam1, fam2)


def _ex_3_2() -> CatalogEntry:
    u, bisp = _ex_3_2_structures()
    a = u.subset("irr01")
    cl2a = u.subset("irr01", "rats")
    return CatalogEntry(
        "ex-3.2",
        "interior-of-closure containment without a squeezed open set",
        "Two structures on [0,2] whose opens are countable sets of irrationals "
        "of the left and right half. The left irrationals A land inside the "
        "1-interior of their 2-closure, yet every 1-open other than X is "
        "countable and the 2-closure is not all of X, so nothing open fits "
        "between A and that closure.",
        bisp,
        {"A": a, "cl2-A": cl2a},
        (
            Claim("closure", {"set": "A", "space": 2}, ["irr01", "rats"]),
            Claim("interior", {"set": "cl2-A", "space": 1}, ["irr01"]),
            Claim("is_ij_weakly_preopen", {"set": "A", "pair": (1, 2)}, True),
            Claim("open_between", {"set": "A", "set2": "cl2-A", "space": 1}, False),
            Claim("is_ij_preopen", {"set": "A", "pair": (1, 2)}, False),
            Claim("is_pairwise_preopen", {"set": "A"}, False),
        ),
    )


def _ex_3_3() -> CatalogEntry:
    u = AtomUniverse(
        [
            singleton("sqrt3", "the point sqrt(3)"),
            singleton("3/2", "the point 3/2"),
            singleton("5/2", "the point 5/2"),
            uncountable("irr-lo", "irrationals in [1,sqrt(3))"),
            uncountable("irr-hi", "irrationals in (sqrt(3),3]"),
            countable("rats", "rationals in [1,3] other than 3/2 and 5/2"),
        ]
    )
    fam1 = SchematicFamily(u, u.subset("sqrt3", "irr-lo"), u.subset("5/2"))
    fam2 = SchematicFamily(u, u.subset("sqrt3", "irr-hi"), u.subset("3/2"))
    bisp = Bispace(fam1, fam2)
    return CatalogEntry(
        "ex-3.3",
        "pairwise preopen without preopenness in either structure alone",
        "On [1,3], 1-opens are countable sets of low irrationals plus the "
        "mandatory point 5/2; 2-opens mirror them on the high side with 3/2. "
        "The singleton sqrt(3) sits in both regions, so tiny opens in either "
        "structure cover it, but each structure's own closure of it expels "
        "that structure's mandatory point, blocking the one-structure squeeze. "
        "The low region includes sqrt(3) itself, matching the printed closure "
        "values.",
        bisp,
        {
            "A": u.subset("sqrt3"),
            "U": u.subset("sqrt3", "5/2"),
            "V": u.subset("3/2", "sqrt3"),
        },
        (
            Claim("closure", {"set": "A", "space": 1}, ["sqrt3", "3/2", "irr-hi", "rats"]),
            Claim("closure", {"set": "A", "space": 2}, ["sqrt3", "5/2", "irr-lo", "rats"]),
            Claim("is_open", {"set": "U", "space": 1}, True),
            Claim("is_open", {"set": "V", "space": 2}, True),
            Claim(
                "is_ij_preopen",
                {"set": "A", "pair": (1, 2), "expected_witness": "U"},
                True,
            ),
            Claim(
                "is_ij_preopen",
                {"set": "A", "pair": (2, 1), "expected_witness": "V"},
                True,
            ),
            Claim("is_pairwise_preopen", {"set": "A"}, True),
            Claim("is_preopen", {"set": "A", "space": 1}, False),
            Claim("is_preopen", {"set": "A", "space": 2}, False),
        ),
    )


def _ex_3_4_structures():
    u = AtomUniverse(
        [
            singleton("0", "the point 0"),
            singleton("1", "the point 1"),
            singleton("sqrt2", "the point sqrt(2)"),
            singleton("sqrt3", "the point sqrt(3)"),
            countable("rats01", "rationals in [0,1] other than 0 and 1"),
            uncountable("irr23", "irrationals in [2,3]"),
            uncountable("rest", "the remaining points of [0,3]"),
        ]
    )
    fam1 = SchematicFamily(u, u.subset("0", "1", "rats01"), u.subset("sqrt2"))
    fam2 = SchematicFamily(u, u.subset("irr23"), u.empty())
    return u, Bispace(fam1, fam2)


def _ex_3_4() -> CatalogEntry:
    u, bisp = _ex_3_4_structures()
    return CatalogEntry(
        "ex-3.4",
        "(1,2)-preopen without being 1-open",
        "On [0,3], 1-opens are countable sets of rationals from [0,1] plus the "
        "mandatory point sqrt(2); 2-opens are countable sets of irrationals "
        "from [2,3]. The pair {0,1} misses sqrt(2), so it is not 1-open, but "
        "adding sqrt(2) gives a 1-open set inside the 2-closure.",
        bisp,
        {
            "A": u.subset("0", "1"),
            "U": u.subset("0", "1", "sqrt2"),
            "cl2-A": u.whole() - u.subset("irr23"),
        },
        (
            Claim("is_open", {"set": "A", "space": 1}, False),
            Claim(
                "closure",
                {"set": "A", "space": 2},
                ["0", "1", "sqrt2", "sqrt3", "rats01", "rest"],
            ),
            Claim("is_open", {"set": "U", "space": 1}, True),
            Claim(
                "is_ij_preopen",
                {"set": "A", "pair": (1, 2), "expected_witness": "U"},
                True,
            ),
        ),
    )


def _ex_3_5() -> CatalogEntry:
    u, bisp = _ex_3_4_structures()
    return CatalogEntry(
        "ex-3.5",
        "semi-preopen without being preopen or semiopen",
        "Same structures as ex-3.4. Adding sqrt(3) to {0,1} blocks every "
        "1-open squeeze (sqrt(3) is in neither the region nor the mandatory "
        "part), yet the preopen set {0,1} sits below it with a 2-closure "
        "covering it; no nonempty 1-open fits inside it at all.",
        bisp,
        {
            "A": u.subset("0", "1"),
            "B": u.subset("0", "1", "sqrt3"),
        },
        (
            Claim("is_ij_preopen", {"set": "B", "pair": (1, 2)}, False),
            Claim("is_ij_preopen", {"set": "A", "pair": (1, 2)}, True),
            Claim("is_ij_semipreopen", {"set": "B", "pair": (1, 2)}, True),
            Claim(
                "semipreopen_witness_valid",
                {"set": "B", "witness": "A", "pair": (1, 2)},
                True,
                note="the originally exhibited witness pair",
            ),
            Claim("is_ij_semiopen", {"set": "B", "pair": (1, 2)}, False),
        ),
    )


def _ex_3_6() -> CatalogEntry:
    u, bisp = _ex_3_2_structures()
    return CatalogEntry(
        "ex-3.6",
        "interior condition over closed supersets does not force preopenness",
        "Same structures as ex-3.2. Every 2-closed superset of the left "
        "irrationals A has 1-interior exactly A, so the necessary condition "
        "for (1,2)-preopenness holds while the squeeze itself fails.",
        bisp,
        {"A": u.subset("irr01")},
        (
            Claim("closed_supersets_interior", {"set": "A", "pair": (1, 2)}, True),
            Claim("is_ij_preopen", {"set": "A", "pair": (1, 2)}, False),
        ),
    )


def _ex_3_7() -> CatalogEntry:
    u = AtomUniverse(
        [
            singleton("s", "a designated irrational point s of [0,1]"),
            uncountable("irr01-rest", "the other irrationals in [0,1]"),
            uncountable("irr12", "irrationals in [1,2]"),
            countable("rats", "rationals in [0,2]"),
        ]
    )
    fam1 = SchematicFamily(u, u.subset("s", "irr01-rest"), u.empty())
    fam2 = SchematicFamily(u, u.subset("irr12"), u.empty())
    bisp = Bispace(fam1, fam2)
    return CatalogEntry(
        "ex-3.7",
        "region-wide union of open singletons escapes preopenness",
        "Structures of ex-3.2 with one irrational of the left half promoted "
        "to its own atom. That singleton is 1-open, hence (1,2)-preopen; the "
        "union over the whole region is the full left irrational set, which "
        "is not. The union over uncountably many singletons is represented "
        "by the claim pair (designated singleton, full region).",
        bisp,
        {"A-s": u.subset("s"), "union": u.subset("s", "irr01-rest")},
        (
            Claim("is_open", {"set": "A-s", "space": 1}, True),
            Claim("is_ij_preopen", {"set": "A-s", "pair": (1, 2)}, True),
            Claim("closure", {"set": "union", "space": 2}, ["s", "irr01-rest", "rats"]),
            Claim("is_ij_preopen", {"set": "union", "pair": (1, 2)}, False),
        ),
    )


def _ex_3_8() -> CatalogEntry:
    u = AtomUniverse(
        [
            singleton("s", "a designated irrational point s of [0,1]"),
            singleton("3/2", "the point 3/2"),
            uncountable("irr01-rest", "the other irrationals in [0,1]"),
            uncountable("irr23", "irrationals in [2,3]"),
            uncountable("irr-mid", "irrationals in (1,2)"),
            countable("rats", "rationals in [0,3] other than 3/2"),
        ]
    )
    fam1 = SchematicFamily(u, u.subset("s", "irr01-rest"), u.subset("3/2"))
    fam2 = SchematicFamily(u, u.subset("irr23"), u.empty())
    bisp = Bispace(fam1, fam2)
    return CatalogEntry(
        "ex-3.8",
        "union failure with preopen-but-not-open singletons",
        "On [0,3], 1-opens are countable sets of left irrationals plus the "
        "mandatory point 3/2, so the designated singleton is preopen (via "
        "adding 3/2) without being open; the union over the whole region "
        "still fails, since its 2-closure is not X and only X holds it.",
        bisp,
        {
            "A-s": u.subset("s"),
            "U-s": u.subset("s", "3/2"),
            "union": u.subset("s", "irr01-rest"),
        },
        (
            Claim("is_open", {"set": "A-s", "space": 1}, False),
            Claim(
                "closure",
                {"set": "A-s", "space": 2},
                ["s", "3/2", "irr01-rest", "irr-mid", "rats"],
            ),
            Claim("is_open", {"set": "U-s", "space": 1}, True),
            Claim(
                "is_ij_preopen",
                {"set": "A-s", "pair": (1, 2), "expected_witness": "U-s"},
                True,
            ),
            Claim(
                "closure",
                {"set": "union", "space": 2},
                ["s", "3/2", "irr01-rest", "irr-mid", "rats"],
            ),
            Claim("is_ij_preopen", {"set": "union", "pair": (1, 2)}, False),
        ),
    )


def _ex_4_1() -> CatalogEntry:
    src = AtomUniverse(
        [
            uncountable("irr01", "irrationals in [0,1]"),
            countable("rats01", "rationals in [0,1]"),
        ]
    )
    tau = SchematicFamily(src, src.subset("irr01"), src.empty())
    bx = Bispace(tau, tau)
    tgt = AtomUniverse(
        [
            singleton("sqrt2", "the point sqrt(2)"),
            singleton("3/2", "the point 3/2"),
            uncountable("irr12-rest", "irrationals in [1,2] other than sqrt(2)"),
            countable("rats12", "rationals in [1,2] other than 3/2"),
        ]
    )
    sigma = SchematicFamily(tgt, tgt.subset("sqrt2", "irr12-rest"), tgt.empty())
    by = Bispace(sigma, sigma)
    f = maps_mod.AtomMap(src, tgt, {"irr01": "sqrt2", "rats01": "3/2"})
    return CatalogEntry(
        "ex-4.1",
        "closure preservation for every set without continuity",
        "Map [0,1] -> [1,2] sending irrationals to sqrt(2) and rationals to "
        "3/2, both carriers carrying countable-irrational opens. The "
        "preimage of the open singleton sqrt(2) is the uncountable "
        "irrational set, killing continuity, yet images of closures stay "
        "inside closures of images in all three cases: all-rational, "
        "all-irrational, and mixed argument sets.",
        bx,
        {
            "rational-part": src.subset("rats01"),
            "irrational-part": src.subset("irr01"),
            "both-parts": src.whole(),
            "open-sqrt2": tgt.subset("sqrt2"),
        },
        (
            Claim(
                "preimage",
                {"set": "open-sqrt2", "on": "target", "expected_on": "source"},
                ["irr01"],
            ),
            Claim("is_open", {"set": "irrational-part", "space": 1}, False),
            Claim("is_pairwise_continuous", {}, False),
            Claim("closure", {"set": "rational-part", "space": 1}, ["rats01"]),
            Claim("image", {"set": "rational-part", "expected_on": "target"}, ["3/2"]),
            Claim(
                "closure",
                {"set": ["3/2"], "space": 1, "on": "target"},
                ["3/2", "rats12"],
            ),
            Claim("check_closure_preservation", {"set": "rational-part", "space": 1}, True),
            Claim("closure", {"set": "irrational-part", "space": 1}, ["irr01", "rats01"]),
            Claim(
                "image", {"set": "irrational-part", "expected_on": "target"}, ["sqrt2"]
            ),
            Claim(
                "closure",
                {"set": ["sqrt2"], "space": 1, "on": "target"},
                ["sqrt2", "3/2", "rats12"],
            ),
            Claim(
                "check_closure_preservation",
                {"set": "irrational-part", "space": 1},
                True,
            ),
            Claim("check_closure_preservation", {"set": "both-parts", "space": 1}, True),
            Claim(
                "is_pairwise_precontinuous",
                {},
                True,
                note="recorded engine verdict, not an original claim: the whole "
                "space is open and equals the 2-closure of the bad preimage",
            ),
            Claim(
                "is_pairwise_semi_continuous",
                {},
                False,
                note="recorded engine verdict: no open set fits inside the "
                "uncountable bad preimage",
            ),
            Claim(
                "is_pairwise_sp_continuous",
                {},
                True,
                note="recorded engine verdict, via the preopen witness",
            ),
        ),
        map_=f,
        target_bispace=by,
    )


_BUILDERS = {
    "ex-3.1": _ex_3_1,
    "ex-3.2": _ex_3_2,
    "ex-3.3": _ex_3_3,
    "ex-3.4": _ex_3_4,
    "ex-3.5": _ex_3_5,
    "ex-3.6": _ex_3_6,
    "ex-3.7": _ex_3_7,
    "ex-3.8": _ex_3_8,
    "ex-4.1": _ex_4_1,
}

CATALOG_IDS = tuple(_BUILDERS)


def build_example(entry_id: str) -> CatalogEntry:
    """Construct a catalog entry by id; ids outside the catalog raise."""
    try:
        builder = _BUILDERS[entry_id]
    except KeyError:
        raise ValueError(
            f"unknown catalog id {entry_id!r}; known ids: {', '.join(CATALOG_IDS)}"
        ) from None
    return builder()


def negative_control_entry() -> CatalogEntry:
    """ex-3.1 with one deliberately inverted claim; must fail verification."""
    base = _ex_3_1()
    flipped = Claim("is_preopen", {"set": "B", "space": 1}, True)
    return CatalogEntry(
        "negative-control",
        base.title + " (negative control)",
        "Deliberately inverted expectation; a passing run here means the "
        "verifier is broken.",
        base.bispace,
        base.named_sets,
        base.claims[:-1] + (flipped,),
    )


def run_catalog():
    """Verify every entry, yielding Reports in catalog order."""
    for entry_id in CATALOG_IDS:
        yield verify_entry(build_example(entry_id))
