#!/usr/bin/env python3
"""Symbolic universes: cardinality-tagged atoms and schematic open families.

The interesting structures live on uncountable carriers, where the open
sets are "any countable subset of a region, plus some mandatory points".
Atoms carve the carrier into finitely many blocks tagged singleton /
countably-infinite / uncountable; every set the counterexamples mention is
a union of atoms. Closure and "some open between" have exact closed forms,
and interior and openness are derived from them by definition, so they are
exact too.

This demo rebuilds the classic single-structure counterexample: the space
on [1,2] whose opens are the countable sets of irrationals.
"""

from bispacelab import (
    AtomUniverse,
    SchematicFamily,
    countable,
    is_countable,
    singleton,
    uncountable,
)

u = AtomUniverse(
    [
        singleton("sqrt2", "the point sqrt(2)"),
        uncountable("irr-rest", "the other irrationals in [1,2]"),
        countable("rats", "rationals in [1,2]"),
    ]
)
family = SchematicFamily(u, region=u.subset("sqrt2", "irr-rest"), mandatory=u.empty())
print("universe:", u)

print()
print("== cardinality bookkeeping ==")
for ids in ((), ("rats",), ("irr-rest",), ("sqrt2", "rats")):
    s = u.subset(*ids)
    print(f"  {s!r} countable? {is_countable(s)}")

print()
print("== openness ==")
print("  {sqrt2} open?", family.is_open(u.subset("sqrt2")))              # countable
print("  all irrationals open?", family.is_open(u.subset("sqrt2", "irr-rest")))
print("  {rats} open?", family.is_open(u.subset("rats")))                # outside region

print()
print("== the worked closure computations ==")
a = u.subset("sqrt2", "irr-rest")      # all irrationals
b = u.subset("irr-rest")               # irrationals minus sqrt(2)
print("  closure(A) =", family.closure(a), "(everything: only X contains an uncountable set)")
print("  closure(B) =", family.closure(b), "(all but the dropped point)")
print("  interior(closure(B)) =", family.interior(family.closure(b)), "= B itself")

print()
print("== squeezing an open set between a set and its closure ==")
print("  between A and closure(A):", family.open_between(a, family.closure(a)))
print("  between B and closure(B):", family.open_between(b, family.closure(b)))
print(
    "  B admits no witness: a countable open cannot hold an uncountable set,\n"
    "  and X escapes closure(B); that is the gap between the two preopenness\n"
    "  conditions, visible only beyond finite models"
)
