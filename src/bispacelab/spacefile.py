"""User-supplied bispace documents: a small JSON-shaped format.

A document describes either a finite bispace (carrier size plus two open-set
lists given as sorted point arrays) or a symbolic one (atom list with
cardinality tags plus two region/mandatory family descriptions), optionally
with named sets and claims. Claims use the claim vocabulary of
catalog.PREDICATES; a document without claims gets the default battery
(every set predicate on every named set, values recorded).

Grammar sketch (JSON subset):

    document  = finite | symbolic
    finite    = { "kind": "finite", "carrier": int,
                  "opens1": [[int*]*], "opens2": [[int*]*],
                  sets?, claims? }
    symbolic  = { "kind": "symbolic", "atoms": [atom+],
                  "family1": family, "family2": family,
                  sets?, claims? }
    atom      = { "id": string, "cardinality": "singleton" | "countable"
                  | "uncountable", "label"?: string }
    family    = { "region": [string*], "mandatory": [string*] }
    sets      = "sets": { name: [int* | string*] }
    claims    = "claims": [ { "predicate": string, "set"?: name | [..],
                  "set2"?, "witness"?, "pair"?: [int, int], "space"?: int,
                  "expected"?: bool | [..], "note"?: string } ]

Points are JSON integers (not true/false) and atom ids are strings. Each
claim names the set arguments its predicate reads ("set", and "set2" or
"witness") and "pair" if it reads one; "expected" is a boolean, or for a
set-valued predicate an array of members. A claim that could not be
evaluated is rejected when parsed.

Size limits: a finite carrier has at most MAX_CARRIER (12) points and a
symbolic universe at most MAX_ATOMS (12) atoms. The set predicates search
the whole subset lattice, 2^n sets, so a default `check` of two named sets
takes 2-6 s at the limit on a 2-vCPU machine, and each extra point or atom
roughly triples that.
Larger documents are rejected with a SpaceFileError naming the limit,
before any set, space or universe is built.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .catalog import PREDICATES, CatalogEntry, Claim, verify_entry
from .finite import FiniteSpace, PointSet, SpaceAxiomError
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

# Claims a user file may make: the catalog predicates that read no map,
# since files cannot describe one. Those marked `relative`
# (is_ij_semipreopen, is_ij_semipreclosed, pcl, spcl) are algebra-relative
# on symbolic documents and flagged as such in the report.
FILE_PREDICATES = tuple(
    name for name, spec in PREDICATES.items() if "map" not in spec.reads
)

_BATTERY = (
    ("is_open", {"space": 1}),
    ("is_open", {"space": 2}),
    ("closure", {"space": 1}),
    ("closure", {"space": 2}),
    ("interior", {"space": 1}),
    ("interior", {"space": 2}),
    ("is_preopen", {"space": 1}),
    ("is_preopen", {"space": 2}),
    ("is_weakly_preopen", {"space": 1}),
    ("is_weakly_preopen", {"space": 2}),
    ("is_ij_preopen", {"pair": (1, 2)}),
    ("is_ij_preopen", {"pair": (2, 1)}),
    ("is_ij_weakly_preopen", {"pair": (1, 2)}),
    ("is_ij_weakly_preopen", {"pair": (2, 1)}),
    ("is_pairwise_preopen", {}),
    ("is_ij_semiopen", {"pair": (1, 2)}),
    ("is_ij_semiopen", {"pair": (2, 1)}),
    ("is_ij_semipreopen", {"pair": (1, 2)}),
    ("is_ij_semipreopen", {"pair": (2, 1)}),
    ("is_ij_preclosed", {"pair": (1, 2)}),
    ("is_ij_preclosed", {"pair": (2, 1)}),
    ("pcl", {"pair": (1, 2)}),
    ("pcl", {"pair": (2, 1)}),
    ("spcl", {"pair": (1, 2)}),
    ("spcl", {"pair": (2, 1)}),
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


def _parse_claims(raw_claims, named: dict, bispace: Bispace, where: str) -> list[Claim]:
    """Claims whose arguments and expected value are all checked here, so
    evaluating them cannot fail on the document's contents."""
    symbolic = bispace.is_symbolic
    claims = []
    if not isinstance(raw_claims, list):
        _fail(where, "claims must be a list")
    for idx, c in enumerate(raw_claims):
        loc = f"{where}[{idx}]"
        if not isinstance(c, dict):
            _fail(loc, "must be an object")
        predicate = c.get("predicate")
        if predicate not in FILE_PREDICATES:
            _fail(
                f"{loc}.predicate",
                f"unknown or unsupported predicate {predicate!r}",
            )
        if predicate == "is_countable" and not symbolic:
            _fail(f"{loc}.predicate", "is_countable applies to symbolic documents")
        if predicate == "limit_points" and symbolic:
            _fail(f"{loc}.predicate", "limit_points applies to finite documents")
        args = {}
        resolved = {}
        for key in ("set", "set2", "witness"):
            if key in c:
                v = c[key]
                if isinstance(v, str):
                    if v not in named:
                        _fail(f"{loc}.{key}", f"unknown named set {v!r}")
                    resolved[key] = named[v]
                elif isinstance(v, list):
                    resolved[key] = _members(bispace, v, f"{loc}.{key}")
                else:
                    _fail(f"{loc}.{key}", "must be a set name or an array of members")
                args[key] = v
        spec = PREDICATES[predicate]
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
                _members(bispace, expected, f"{loc}.expected")
                expected = list(expected)
        elif expected is not None and not isinstance(expected, bool):
            _fail(f"{loc}.expected", "must be true, false or null")
        note = c.get("note", "")
        if not isinstance(note, str):
            _fail(f"{loc}.note", "must be a string")
        claims.append(Claim(predicate, args, expected, note))
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
    raw_claims = doc.get("claims", [])
    claims = _parse_claims(raw_claims, named, bispace, f"{name}.claims")
    if not claims:
        claims = [
            Claim(pred, {**base, "set": set_name})
            for set_name in named
            for pred, base in _BATTERY
        ]
    return CatalogEntry(
        f"file:{name}",
        f"user document ({kind})",
        "",
        bispace,
        named,
        tuple(claims),
    )


def check_user_file(path, claims_path: Optional[str] = None) -> Report:
    """Parse, validate, and verify a space document from disk.

    Claims from `claims_path` (an object with a "claims" list, or a bare
    list) are appended to the document's own claims; with neither, the
    default battery runs over all named sets.
    """
    path = Path(path)
    entry = parse_spacefile(_read_text(path), path.name)
    if claims_path is not None:
        claims_file = Path(claims_path)
        raw = _load_json(_read_text(claims_file), claims_file.name)
        raw_claims = raw.get("claims", raw) if isinstance(raw, dict) else raw
        extra = _parse_claims(
            raw_claims,
            entry.named_sets,
            entry.bispace,
            f"{claims_file.name}.claims",
        )
        entry = CatalogEntry(
            entry.entry_id,
            entry.title,
            entry.note,
            entry.bispace,
            entry.named_sets,
            entry.claims + tuple(extra),
        )
    return verify_entry(entry)
