"""User-supplied bispace documents: a small JSON-shaped format.

A document describes either a finite bispace (carrier size plus two open-set
lists given as sorted point arrays) or a symbolic one (atom list with
cardinality tags plus two region/mandatory family descriptions), optionally
with named sets and claims. A symbolic document may also describe a map
into a second symbolic bispace. Claims use the claim vocabulary of
catalog.PREDICATES; a document without claims gets the default battery
(every set predicate on every named set of the source, values recorded).
The catalog entries are documents of this format.

Grammar sketch (JSON subset):

    document  = finite | symbolic
    finite    = { "kind": "finite", "carrier": int,
                  "opens1": [[int*]*], "opens2": [[int*]*],
                  texts, sets?, claims? }
    symbolic  = { "kind": "symbolic", bispace, texts, sets?, map?, claims? }
    bispace   = "atoms": [atom+], "family1": family, "family2": family
    texts     = "id"?: string, "title"?: string, "note"?: string
    atom      = { "id": string, "cardinality": "singleton" | "countable"
                  | "uncountable", "label"?: string }
    family    = { "region": [string*], "mandatory": [string*] }
    sets      = "sets": { name: [int* | string*] }
    map       = "map": { "target": { bispace, sets? },
                  "assignment": { string: string } }
    claims    = "claims": [ { "predicate": string, "set"?: name | [..],
                  "set2"?, "witness"?, "pair"?: [int, int], "space"?: int,
                  "on"?: side, "expected"?: bool | [..],
                  "expected_witness"?: name | [..],
                  "note"?: string } ]
    side      = "source" | "target"

Points are JSON integers (not true/false) and atom ids are strings. Each
claim names the set arguments its predicate reads ("set", and "set2" or
"witness") and "pair" if it reads one; "expected" is a boolean, or for a
set-valued predicate an array of members. "expected_witness" is the witness
a passing claim must also find; a claim whose engine returns no witness or
another one fails. parse_claims resolves every argument once, so a claim
that could not be evaluated is rejected when parsed.

A map sends each source atom to a single-point atom of the target. Names in
the target's "sets" live on the target and share one namespace with the
source's. Only a document with a map may make the seven map predicates or
use "on", the carrier (default "source") whose sets, space and bispace a
claim reads. The map predicates keep fixed sides: a preimage reads a target
set, so its "on" is always "target", and the others read the source.
A set-valued "expected" lies on "on", except that an image is a target set
and a preimage a source set. "id", "title" and "note" name the report; a
document without them is reported as file:<name>.

Size limits: a finite carrier has at most MAX_CARRIER (12) points and a
symbolic universe (a map's target too) at most MAX_ATOMS (12) atoms. The
set predicates search the whole subset lattice, 2^n sets, so a default
`check` of two named sets takes 0.6-1.8 s at the limit on a 2-vCPU
machine, and each extra point or atom roughly triples that.
Larger documents are rejected with a SpaceFileError naming the limit,
before any set, space or universe is built.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional

from .catalog import PREDICATES, CatalogEntry, Claim, verify_entry
from .finite import FiniteSpace, PointSet, SpaceAxiomError
from .maps import AtomMap
from .props import Bispace
from .reports import Report
from .symbolic import Atom, AtomUniverse, Cardinality, SchematicFamily

MAX_CARRIER = 12
MAX_ATOMS = 12

_CARDINALITIES = {
    "singleton": Cardinality.SINGLETON,
    "countable": Cardinality.COUNTABLE,
    "uncountable": Cardinality.UNCOUNTABLE,
}

_BATTERY = (
    {"predicate": "is_open", "space": 1},
    {"predicate": "is_open", "space": 2},
    {"predicate": "closure", "space": 1},
    {"predicate": "closure", "space": 2},
    {"predicate": "interior", "space": 1},
    {"predicate": "interior", "space": 2},
    {"predicate": "is_preopen", "space": 1},
    {"predicate": "is_preopen", "space": 2},
    {"predicate": "is_weakly_preopen", "space": 1},
    {"predicate": "is_weakly_preopen", "space": 2},
    {"predicate": "is_ij_preopen", "pair": [1, 2]},
    {"predicate": "is_ij_preopen", "pair": [2, 1]},
    {"predicate": "is_ij_weakly_preopen", "pair": [1, 2]},
    {"predicate": "is_ij_weakly_preopen", "pair": [2, 1]},
    {"predicate": "is_pairwise_preopen"},
    {"predicate": "is_ij_semiopen", "pair": [1, 2]},
    {"predicate": "is_ij_semiopen", "pair": [2, 1]},
    {"predicate": "is_ij_semipreopen", "pair": [1, 2]},
    {"predicate": "is_ij_semipreopen", "pair": [2, 1]},
    {"predicate": "is_ij_preclosed", "pair": [1, 2]},
    {"predicate": "is_ij_preclosed", "pair": [2, 1]},
    {"predicate": "pcl", "pair": [1, 2]},
    {"predicate": "pcl", "pair": [2, 1]},
    {"predicate": "spcl", "pair": [1, 2]},
    {"predicate": "spcl", "pair": [2, 1]},
)


class SpaceFileError(ValueError):
    """Unparseable or invalid space document, with a positioned message."""


def _fail(where: str, message: str):
    raise SpaceFileError(f"{where}: {message}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        _fail(where, f"missing required field {key!r}")
    return doc[key]


def _is_int(value) -> bool:
    """A JSON integer; true and false are not points."""
    return isinstance(value, int) and not isinstance(value, bool)


def _string_list(raw, where: str) -> list:
    if not isinstance(raw, list) or any(not isinstance(v, str) for v in raw):
        _fail(where, "must be an array of strings")
    return raw


def _members(bispace: Bispace, members, where: str):
    """The set of `members` (points of a finite carrier, atom ids of a
    symbolic universe) on the document's carrier."""
    if bispace.is_symbolic:
        _string_list(members, where)
    elif not isinstance(members, list) or any(not _is_int(p) for p in members):
        _fail(where, "must be an array of integers")
    try:
        return bispace.first.set_of(members)
    except (KeyError, ValueError) as e:
        _fail(where, str(e.args[0]))


def _parse_finite(doc: dict, where: str) -> Bispace:
    carrier = _require(doc, "carrier", where)
    if not _is_int(carrier) or carrier < 1:
        _fail(f"{where}.carrier", "must be a positive integer")
    if carrier > MAX_CARRIER:
        _fail(
            f"{where}.carrier",
            f"{carrier} points exceeds the limit of {MAX_CARRIER} points",
        )
    spaces = []
    for field in ("opens1", "opens2"):
        raw = _require(doc, field, where)
        if not isinstance(raw, list):
            _fail(f"{where}.{field}", "must be a list of point arrays")
        opens = []
        for idx, points in enumerate(raw):
            if not isinstance(points, list) or any(not _is_int(p) for p in points):
                _fail(f"{where}.{field}[{idx}]", "must be an array of integers")
            try:
                opens.append(PointSet.of(carrier, points))
            except ValueError as e:
                _fail(f"{where}.{field}[{idx}]", str(e))
        try:
            spaces.append(FiniteSpace(carrier, opens))
        except SpaceAxiomError as e:
            _fail(f"{where}.{field}", f"axiom {e.axiom}: {e}")
    return Bispace(spaces[0], spaces[1])


def _parse_symbolic(doc: dict, where: str) -> Bispace:
    raw_atoms = _require(doc, "atoms", where)
    if not isinstance(raw_atoms, list) or not raw_atoms:
        _fail(f"{where}.atoms", "must be a nonempty list")
    if len(raw_atoms) > MAX_ATOMS:
        _fail(
            f"{where}.atoms",
            f"{len(raw_atoms)} atoms exceeds the limit of {MAX_ATOMS} atoms",
        )
    atoms = []
    for idx, a in enumerate(raw_atoms):
        if not isinstance(a, dict):
            _fail(f"{where}.atoms[{idx}]", "must be an object")
        aid = a.get("id")
        if not isinstance(aid, str) or not aid:
            _fail(f"{where}.atoms[{idx}].id", "must be a nonempty string")
        card = a.get("cardinality")
        if not isinstance(card, str) or card not in _CARDINALITIES:
            _fail(
                f"{where}.atoms[{idx}].cardinality",
                f"must be one of {sorted(_CARDINALITIES)}, got {card!r}",
            )
        label = a.get("label", "")
        if not isinstance(label, str):
            _fail(f"{where}.atoms[{idx}].label", "must be a string")
        atoms.append(Atom(aid, _CARDINALITIES[card], label))
    try:
        universe = AtomUniverse(atoms)
    except ValueError as e:
        _fail(f"{where}.atoms", str(e))
    families = []
    for field in ("family1", "family2"):
        raw = _require(doc, field, where)
        if not isinstance(raw, dict):
            _fail(f"{where}.{field}", "must be an object with region/mandatory")
        try:
            region = universe.subset(
                *_string_list(raw.get("region", []), f"{where}.{field}.region")
            )
            mandatory = universe.subset(
                *_string_list(raw.get("mandatory", []), f"{where}.{field}.mandatory")
            )
        except KeyError as e:
            _fail(f"{where}.{field}", str(e.args[0]))
        try:
            families.append(SchematicFamily(universe, region, mandatory))
        except ValueError as e:
            _fail(f"{where}.{field}", str(e))
    return Bispace(families[0], families[1])


def _parse_sets(doc: dict, bispace: Bispace, where: str) -> dict:
    named = {}
    raw = doc.get("sets", {})
    if not isinstance(raw, dict):
        _fail(f"{where}.sets", "must be an object of name -> member list")
    for name, members in raw.items():
        named[name] = _members(bispace, members, f"{where}.sets.{name}")
    return named


def _parse_map(raw, source: Bispace, where: str):
    """(map, target bispace, target named sets) of a map section."""
    if not isinstance(raw, dict):
        _fail(where, "must be an object with target and assignment")
    target_doc = _require(raw, "target", where)
    if not isinstance(target_doc, dict):
        _fail(f"{where}.target", "must be an object")
    target = _parse_symbolic(target_doc, f"{where}.target")
    named = _parse_sets(target_doc, target, f"{where}.target")
    assignment = _require(raw, "assignment", where)
    if not isinstance(assignment, dict) or any(
        not isinstance(v, str) for v in assignment.values()
    ):
        _fail(f"{where}.assignment", "must be an object of atom id -> atom id")
    try:
        map_ = AtomMap(source.first.universe, target.first.universe, assignment)
    except (KeyError, ValueError) as e:
        _fail(f"{where}.assignment", str(e.args[0]))
    return map_, target, named


def parse_claims(raw_claims, entry: CatalogEntry, where: str) -> list[Claim]:
    """Claims on `entry`, each with the objects its predicate reads and its
    expected value and witness resolved on the claim's carrier, so
    evaluating them cannot fail on the document's contents."""
    symbolic = entry.bispace.is_symbolic
    target = entry.target_bispace
    carriers = {"source": entry.bispace, "target": target}
    claims = []
    if not isinstance(raw_claims, list):
        _fail(where, "claims must be a list")
    for idx, c in enumerate(raw_claims):
        loc = f"{where}[{idx}]"
        if not isinstance(c, dict):
            _fail(loc, "must be an object")
        predicate = c.get("predicate")
        spec = PREDICATES.get(predicate) if isinstance(predicate, str) else None
        if spec is None:
            _fail(f"{loc}.predicate", f"unknown predicate {predicate!r}")
        if "map" in spec.reads and entry.map_ is None:
            _fail(f"{loc}.predicate", f"{predicate} needs a map section")
        if predicate == "is_countable" and not symbolic:
            _fail(f"{loc}.predicate", "is_countable applies to symbolic documents")
        if predicate == "limit_points" and symbolic:
            _fail(f"{loc}.predicate", "limit_points applies to finite documents")
        args = {}
        if "on" in c:
            if entry.map_ is None:
                _fail(f"{loc}.on", "needs a map section")
            if c["on"] not in ("source", "target"):
                _fail(f"{loc}.on", "must be 'source' or 'target'")
            args["on"] = c["on"]
        # the map claims read fixed sides; every other claim reads `on`
        side = "target" if predicate == "preimage" else "source"
        if predicate == "preimage":
            args.setdefault("on", side)  # so the claim's label names it
        on = args.get("on", "source")
        if "map" in spec.reads and on != side:
            _fail(f"{loc}.on", f"must be {side!r} for {predicate}")
        bispace = carriers[on]
        resolved = {}
        for key in ("set", "set2", "witness", "expected_witness"):
            if key in c:
                v = c[key]
                if isinstance(v, str):
                    s = entry.named_sets.get(v)
                    if s is None:
                        _fail(f"{loc}.{key}", f"unknown named set {v!r}")
                    if (v in entry.target_sets) != (on == "target"):
                        _fail(f"{loc}.{key}", f"named set {v!r} is not on the {on}")
                    resolved[key] = s
                elif isinstance(v, list):
                    resolved[key] = _members(bispace, v, f"{loc}.{key}")
                else:
                    _fail(f"{loc}.{key}", "must be a set name or an array of members")
                args[key] = v
        required = [key for key in spec.reads if key in ("set", "set2", "witness")]
        if "pair" in spec.reads:
            required.append("pair")
        for key in required:
            if key not in c:
                _fail(loc, f"{predicate} needs {key!r}")
        if "pair" in c:
            pair = c["pair"]
            if (
                not isinstance(pair, list)
                or not all(_is_int(i) for i in pair)
                or tuple(pair) not in ((1, 2), (2, 1))
            ):
                _fail(f"{loc}.pair", "must be [1,2] or [2,1]")
            args["pair"] = tuple(pair)
        if "space" in c:
            if not _is_int(c["space"]) or c["space"] not in (1, 2):
                _fail(f"{loc}.space", "must be 1 or 2")
            args["space"] = c["space"]
        if predicate == "open_between" and not resolved["set"].issubset(
            resolved["set2"]
        ):
            _fail(f"{loc}.set", "open_between needs set inside set2")
        expected = c.get("expected")
        if spec.set_valued:
            if expected is not None:
                value_on = carriers[spec.value_on or on]
                expected = _members(value_on, expected, f"{loc}.expected")
        elif expected is not None and not isinstance(expected, bool):
            _fail(f"{loc}.expected", "must be true, false or null")
        note = c.get("note", "")
        if not isinstance(note, str):
            _fail(f"{loc}.note", "must be a string")
        index = args.get("space", 1)
        given = {
            **resolved,
            "space": bispace.space(index),
            "bispace": bispace,
            "pair": args.get("pair"),
            "map": entry.map_,
            "target": target,
            "target_space": None if target is None else target.space(index),
        }
        values = tuple(given[key] for key in spec.reads)
        witness = resolved.get("expected_witness")
        claims.append(Claim(predicate, args, values, expected, witness, note))
    return claims


def _load_json(text: str, name: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFileError(
            f"{name}: line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise SpaceFileError(f"{name}: JSON nested too deeply") from None
    except ValueError as e:
        # e.g. an integer literal longer than the interpreter converts
        raise SpaceFileError(f"{name}: {e}") from None


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise SpaceFileError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise SpaceFileError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None


def parse_spacefile(text: str, name: str = "spacefile") -> CatalogEntry:
    """Parse a document into a verifiable entry; raise SpaceFileError if bad."""
    doc = _load_json(text, name)
    if not isinstance(doc, dict):
        _fail(name, "top level must be an object")
    kind = _require(doc, "kind", name)
    if kind == "finite":
        bispace = _parse_finite(doc, name)
    elif kind == "symbolic":
        bispace = _parse_symbolic(doc, name)
    else:
        _fail(f"{name}.kind", f"must be 'finite' or 'symbolic', got {kind!r}")
    named = _parse_sets(doc, bispace, name)
    map_ = target = None
    target_named = {}
    if "map" in doc:
        if kind != "symbolic":
            _fail(f"{name}.map", "applies to symbolic documents")
        map_, target, target_named = _parse_map(doc["map"], bispace, f"{name}.map")
        for set_name in target_named:
            if set_name in named:
                _fail(f"{name}.map.target.sets.{set_name}", "also names a source set")
    texts = []
    for key, default in (
        ("id", f"file:{name}"),
        ("title", f"user document ({kind})"),
        ("note", ""),
    ):
        texts.append(doc.get(key, default))
        if not isinstance(texts[-1], str):
            _fail(f"{name}.{key}", "must be a string")
    entry = CatalogEntry(
        *texts, bispace, {**named, **target_named}, (), map_, target,
        frozenset(target_named),
    )
    claims = parse_claims(doc.get("claims", []), entry, f"{name}.claims")
    if not claims:
        battery = [{**c, "set": set_name} for set_name in named for c in _BATTERY]
        claims = parse_claims(battery, entry, f"{name}.battery")
    return dataclasses.replace(entry, claims=tuple(claims))


def check_user_file(path, claims_path: Optional[str] = None) -> Report:
    """Parse, validate, and verify a space document from disk.

    Claims from `claims_path` (an object with a "claims" list, or a bare
    list) are appended to the document's own claims; with neither, the
    default battery runs over the source's named sets.
    """
    path = Path(path)
    entry = parse_spacefile(_read_text(path), path.name)
    if claims_path is not None:
        claims_file = Path(claims_path)
        raw = _load_json(_read_text(claims_file), claims_file.name)
        raw_claims = raw.get("claims", raw) if isinstance(raw, dict) else raw
        extra = parse_claims(raw_claims, entry, f"{claims_file.name}.claims")
        entry = dataclasses.replace(entry, claims=entry.claims + tuple(extra))
    return verify_entry(entry)
