#!/usr/bin/env python3
"""The preopenness zoo: every cataloged separation, replayed live.

Each entry of the counterexample catalog encodes one universe together
with the verdicts it must produce, as a space document that
`bispace-lab check` replays. This demo walks the separations in order of
strength and lets the verifier recompute everything.
"""

from bispacelab import cli
from bispacelab.catalog import CATALOG_IDS, ENTRIES, build_example, verify_entry
from bispacelab.props import (
    is_ij_preopen,
    is_ij_semiopen,
    is_ij_semipreopen,
    is_ij_weakly_preopen,
    is_pairwise_preopen,
    is_preopen,
    is_weakly_preopen,
)

print("== weakly preopen vs preopen (one structure) ==")
entry = build_example("ex-3.1")
fam = entry.bispace.first
b = entry.named_sets["B"]
print("B =", b, "weakly preopen:", is_weakly_preopen(fam, b))
print("B preopen:", is_preopen(fam, b))

print()
print("== the two pairwise conditions come apart ==")
entry = build_example("ex-3.2")
a = entry.named_sets["A"]
print("A =", a)
print("contained in interior of 2-closure:", is_ij_weakly_preopen(entry.bispace, (1, 2), a))
print("squeezed by a 1-open set:", is_ij_preopen(entry.bispace, (1, 2), a))

print()
print("== pairwise preopen, preopen in neither structure alone ==")
entry = build_example("ex-3.3")
a = entry.named_sets["A"]
print("A =", a)
print("pairwise preopen:", is_pairwise_preopen(entry.bispace, a))
print("preopen in structure 1:", is_preopen(entry.bispace.first, a).holds)
print("preopen in structure 2:", is_preopen(entry.bispace.second, a).holds)

print()
print("== semipreopen without preopen or semiopen ==")
entry = build_example("ex-3.5")
b = entry.named_sets["B"]
print("B =", b)
print("(1,2)-preopen:", is_ij_preopen(entry.bispace, (1, 2), b).holds)
print("(1,2)-semiopen:", is_ij_semiopen(entry.bispace, (1, 2), b))
w = is_ij_semipreopen(entry.bispace, (1, 2), b)
print("(1,2)-semipreopen:", w.holds, "via witness", w.witness)

print()
print("== union failure over an uncountable region ==")
entry = build_example("ex-3.7")
print("one open singleton:", is_ij_preopen(entry.bispace, (1, 2), entry.named_sets["A-s"]).holds)
print("the whole region:", is_ij_preopen(entry.bispace, (1, 2), entry.named_sets["union"]).holds)

print()
print("== full catalog verification ==")
for entry_id in CATALOG_IDS:
    report = verify_entry(build_example(entry_id))
    print(f"  {report.entry}: {report.summary} ({len(report.outcomes)} claims)")

print()
print("== one entry replayed from its document by `bispace-lab check` ==")
doc = ENTRIES / "ex-3.5.json"
print(f"$ bispace-lab check {doc.name}")
cli.main(["check", str(doc)])
