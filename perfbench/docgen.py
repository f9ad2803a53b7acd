"""Seeded space documents for the check-docs workload.

Finite topologies are the up-sets of random preorders, so every generated
open family satisfies the axioms by construction. Symbolic families are
region/mandatory families over singleton, countable and uncountable atoms.
Named sets and open-family sizes are held to fixed ranges per carrier size,
so a document's hull search space depends on its carrier size and not on
the seed. About one document in ten is malformed (truncated JSON, or a
finite family that is not union-closed) and must be rejected with exit 2.

Only the standard library is used: the documents are inputs to the program
under test, not outputs of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# (carrier size, named set sizes, allowed open count per structure, documents)
FINITE_PLAN = (
    (6, (2, 3), (8, 24), 3),
    (8, (2, 4), (16, 48), 3),
    (10, (2, 5), (24, 72), 2),
)
# (atom count, named set sizes, documents)
SYMBOLIC_PLAN = (
    (6, (2, 3), 3),
    (8, (3, 4), 3),
    (9, (3, 4), 2),
)
MALFORMED = ("truncated", "not-union-closed")

_CARDINALITIES = ("singleton", "countable", "uncountable")


@dataclass(frozen=True)
class Document:
    name: str          # file name, also the report's entry id suffix
    kind: str          # "finite", "symbolic" or "malformed"
    size: int          # carrier points or atoms
    text: str


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _preorder_up_sets(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """Open masks of the Alexandrov topology of a random preorder on n points.

    Redrawn until the open count lies in [lo, hi]; the up-sets of any
    preorder are closed under arbitrary unions and intersections.
    """
    density = 2.0 / n
    while True:
        up = [1 << x for x in range(n)]
        for x in range(n):
            for y in range(n):
                if x != y and rng.random() < density:
                    up[x] |= 1 << y
        for k in range(n):
            for x in range(n):
                if (up[x] >> k) & 1:
                    up[x] |= up[k]
        opens = [
            m
            for m in range(1 << n)
            if all(up[x] & ~m == 0 for x in range(n) if (m >> x) & 1)
        ]
        if lo <= len(opens) <= hi:
            return opens


def _points(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def _named_sets(rng: random.Random, labels: list, sizes) -> dict:
    names = "ABCDEFGH"
    return {
        names[i]: sorted(rng.sample(labels, size), key=labels.index)
        for i, size in enumerate(sizes)
    }


def finite_document(rng: random.Random, n: int, set_sizes, open_range) -> dict:
    lo, hi = open_range
    return {
        "kind": "finite",
        "carrier": n,
        "opens1": [_points(m) for m in _preorder_up_sets(rng, n, lo, hi)],
        "opens2": [_points(m) for m in _preorder_up_sets(rng, n, lo, hi)],
        "sets": _named_sets(rng, list(range(n)), set_sizes),
    }


def symbolic_document(rng: random.Random, n: int, set_sizes) -> dict:
    atoms = []
    for i in range(n):
        card = _CARDINALITIES[i % 3] if i < 3 else rng.choice(_CARDINALITIES)
        atoms.append({"id": f"{card[0]}{i}", "cardinality": card})
    ids = [a["id"] for a in atoms]
    singletons = [a["id"] for a in atoms if a["cardinality"] == "singleton"]

    def family() -> dict:
        region = [i for i in ids if rng.random() < 0.5]
        free = [s for s in singletons if s not in region]
        mandatory = [s for s in free if rng.random() < 0.3]
        return {"region": region, "mandatory": mandatory}

    return {
        "kind": "symbolic",
        "atoms": atoms,
        "family1": family(),
        "family2": family(),
        "sets": _named_sets(rng, ids, set_sizes),
    }


def _proper_unions(doc: dict) -> list[int]:
    """Masks in opens1 that are the union of two other opens, whole set excluded."""
    full = (1 << doc["carrier"]) - 1
    masks = {sum(1 << p for p in o) for o in doc["opens1"]}
    return sorted({a | b for a in masks for b in masks if a | b not in (a, b, full)} & masks)


def malformed_document(rng: random.Random, flaw: str) -> str:
    base = finite_document(rng, 6, (2, 3), (8, 24))
    if flaw == "truncated":
        text = _dump(base)
        return text[: rng.randrange(len(text) // 4, 3 * len(text) // 4)]
    unions = _proper_unions(base)
    while not unions:
        base = finite_document(rng, 6, (2, 3), (8, 24))
        unions = _proper_unions(base)
    drop = _points(rng.choice(unions))
    base["opens1"] = [o for o in base["opens1"] if o != drop]
    return _dump(base)


def generate(seed: int) -> list[Document]:
    """The check-docs document set for a seed; the same seed gives the same bytes."""
    rng = random.Random(seed)
    docs = []

    def add(kind: str, size: int, text: str) -> None:
        docs.append(Document(f"doc{len(docs):02d}-{kind}-{size}.json", kind, size, text))

    for n, set_sizes, open_range, count in FINITE_PLAN:
        for _ in range(count):
            add("finite", n, _dump(finite_document(rng, n, set_sizes, open_range)))
    for n, set_sizes, count in SYMBOLIC_PLAN:
        for _ in range(count):
            add("symbolic", n, _dump(symbolic_document(rng, n, set_sizes)))
    for flaw in MALFORMED:
        add("malformed", 6, malformed_document(rng, flaw))
    return docs
