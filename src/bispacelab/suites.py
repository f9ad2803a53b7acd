"""Theorem suites over exhaustively enumerated finite models.

Every suite quantifies over all open-set structures on carriers up to the
configured size (pairs of structures for bispace statements, plus all maps
between carriers for the function statements) and collects violations with
witness data. The shipped suites must come back empty; a violation is
either a bug or a disproof, and both deserve loud output.

Carrier-size budget: set-level suites run sizes 1..n; map suites run all
source/target size combinations up to min(n, 3) exhaustively, and n = 4
additionally runs a seeded sampled sweep with the reference predicates
(exhaustive 4-point map grids would be astronomically wasteful).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import maps as maps_mod
from . import props
from .finite import FiniteSpace, PointSet, _space_forms
from .reports import SuiteResult
from .tables import (
    bispace_tables,
    continuity_grids,
    convergence_bits,
    decode_pair,
    interval_masksets,
    map_tables,
    net_catalog,
    pair_rows,
    rect,
    rect_equal,
    subsets_of,
    topology_tables,
    trace_tables,
)

MAX_EXHAUSTIVE_MAP_CARRIER = 3


def _ps(n: int, mask: int) -> str:
    return repr(PointSet(n, mask))


def _dir_name(direction: int) -> str:
    return "(1,2)" if direction == 0 else "(2,1)"


# ---------------------------------------------------------------------------
# Set-level suites (single structures and bispaces, no maps)
# ---------------------------------------------------------------------------

def _suite_closure_laws(config) -> SuiteResult:
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        top = topology_tables(n)
        full = top.full
        for t in range(top.count):
            opens = top.opens[t]
            cl = top.cl[t]
            intr = top.intr[t]
            if cl[0] != 0:
                violations.append(f"closure-of-empty n={n} t={t}")
            for a in range(1 << n):
                checked += 1
                if a & ~cl[a]:
                    violations.append(f"expansive n={n} t={t} A={_ps(n, a)}")
                if cl[cl[a]] != cl[a]:
                    violations.append(f"idempotent n={n} t={t} A={_ps(n, a)}")
                if intr[a] != full ^ cl[full ^ a]:
                    violations.append(f"interior-duality n={n} t={t} A={_ps(n, a)}")
                lp = 0
                for x in range(n):
                    bit = 1 << x
                    punctured = a & ~bit
                    if all(o & punctured for o in opens if o & bit):
                        lp |= bit
                if cl[a] != a | lp:
                    violations.append(f"limit-point-law n={n} t={t} A={_ps(n, a)}")
            for a in range(1 << n):
                for b in range(1 << n):
                    checked += 1
                    if cl[a | b] != cl[a] | cl[b]:
                        violations.append(
                            f"additive n={n} t={t} A={_ps(n, a)} B={_ps(n, b)}"
                        )
                    if a & ~b == 0 and cl[a] & ~cl[b]:
                        violations.append(
                            f"monotone n={n} t={t} A={_ps(n, a)} B={_ps(n, b)}"
                        )
    return SuiteResult(
        "closure-laws",
        "closure is expansive, idempotent, additive, empty-fixing, equals "
        "set-plus-limit-points, and is dual to interior",
        checked,
        tuple(violations),
    )


def _suite_lemma_3_1(config) -> SuiteResult:
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        top = topology_tables(n)
        for t in range(top.count):
            cl = top.cl[t]
            for a in range(1 << n):
                for o in top.opens[t]:
                    checked += 1
                    if (cl[a] & o) & ~cl[a & o]:
                        violations.append(
                            f"n={n} t={t} A={_ps(n, a)} B={_ps(n, o)}"
                        )
    return SuiteResult(
        "lemma-3.1",
        "closure(A) & B sits inside closure(A & B) for open B",
        checked,
        tuple(violations),
    )


def _row_reads(rows, t_count: int) -> list[tuple[int, int, int, int]]:
    """(t1, t2, direction, row) for every read of the given rows, in sweep
    order: row a * t_count + b is direction (1,2) at pair (a, b) and
    direction (2,1) at pair (b, a)."""
    reads = []
    for row in rows:
        a, b = divmod(row, t_count)
        reads.append((a, b, 0, row))
        reads.append((b, a, 1, row))
    reads.sort()
    return reads


def _row_suite(config, keys, faults, sep: str) -> tuple[int, tuple[str, ...]]:
    """(checked, violations) of a suite whose verdict on a read depends on
    the read's row alone.

    Per n, `keys(bt)` gives each row's key, laid out like `bt.po`, and
    `faults(n, bt, key)` gives ``(checked, [(kind, where), ...])`` for one
    read of a row with that key; it runs once per distinct key. Each row is
    read twice (see `_row_reads`), so it counts twice, and a failing row is
    reported at both reads as ``{kind} n=.. pair=(t1,{sep}t2) dir=.. {where}``.
    """
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        column = list(keys(bt))
        found = {}
        for key, count in collections.Counter(column).items():
            key_checked, key_faults = faults(n, bt, key)
            checked += 2 * count * key_checked
            if key_faults:
                found[key] = key_faults
        if not found:
            continue
        failing = [row for row, key in enumerate(column) if key in found]
        for t1, t2, direction, row in _row_reads(failing, bt.top.count):
            for kind, where in found[column[row]]:
                violations.append(
                    f"{kind} n={n} pair=({t1},{sep}{t2}) "
                    f"dir={_dir_name(direction)} {where}"
                )
    return checked, tuple(violations)


def _suite_c1_iff_c2(config) -> SuiteResult:
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        t_count = bt.top.count
        po_table, wpo_table = bt.po, bt.wpo
        # every row is read in both directions, over all 2^n subsets
        checked += 2 * t_count * t_count << n
        failing = itertools.compress(
            itertools.count(), map(operator.ne, po_table, wpo_table)
        )
        for t1, t2, direction, row in _row_reads(failing, t_count):
            po = po_table[row]
            wpo = wpo_table[row]
            if po & ~wpo:
                a = (po & ~wpo & -(po & ~wpo)).bit_length() - 1
                violations.append(
                    f"squeeze-without-containment n={n} pair=({t1}, {t2}) "
                    f"dir={_dir_name(direction)} A={_ps(n, a)}"
                )
            if wpo & ~po:
                a = (wpo & ~po & -(wpo & ~po)).bit_length() - 1
                violations.append(
                    f"containment-without-squeeze n={n} pair=({t1}, {t2}) "
                    f"dir={_dir_name(direction)} A={_ps(n, a)}"
                )
    return SuiteResult(
        "C1-iff-C2",
        "the squeezed-open condition and the interior-of-closure condition "
        "agree on every finite (hence topological) model",
        checked,
        tuple(violations),
    )


def _suite_open_implies_preopen(config) -> SuiteResult:
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        t_count = bt.top.count
        openbits = bt.top.openbits
        po_table, so_table, spo_table = bt.po, bt.so, bt.spo
        # row a * t_count + b is read in both directions, each time with
        # three checks against the opens of t_a; it passes iff those opens
        # lie in po & so and po | so lies in spo
        checked += 6 * t_count * t_count
        opens_i = list(itertools.chain.from_iterable(
            itertools.repeat(bits, t_count) for bits in openbits
        ))
        covered = map(operator.and_, map(operator.and_, opens_i, po_table), so_table)
        joined = map(operator.or_, map(operator.or_, po_table, so_table), spo_table)
        fails = map(
            operator.or_,
            map(operator.ne, covered, opens_i),
            map(operator.ne, joined, spo_table),
        )
        for t1, t2, _, row in _row_reads(
            itertools.compress(itertools.count(), fails), t_count
        ):
            opens = opens_i[row]
            po = po_table[row]
            so = so_table[row]
            spo = spo_table[row]
            if opens & ~po:
                violations.append(f"open-not-preopen n={n} pair=({t1},{t2})")
            if opens & ~so:
                violations.append(f"open-not-semiopen n={n} pair=({t1},{t2})")
            if (po | so) & ~spo:
                violations.append(f"not-semipreopen n={n} pair=({t1},{t2})")
    return SuiteResult(
        "open-implies-preopen",
        "open sets are preopen and semiopen; preopen and semiopen sets are "
        "semipreopen",
        checked,
        tuple(violations),
    )


def _suite_thm_3_1(config) -> SuiteResult:
    """Keyed on (po, spo, t_j); a row's t_j is its column, row % t_count."""

    def faults(n, bt, key):
        po, spo, t_j = key
        cl_j = bt.top.cl[t_j]
        found = []
        for a in range(1 << n):
            if (po & spo) >> a & 1:  # (a) needs a outside po, (b) outside spo
                continue
            for u in range(1 << n):
                if (
                    (po >> u) & 1
                    and a & ~u == 0
                    and u & ~cl_j[a] == 0
                    and not (po >> a) & 1
                ):
                    found.append(("(a)", f"A={_ps(n, a)} U={_ps(n, u)}"))
                if (
                    (spo >> u) & 1
                    and u & ~a == 0
                    and a & ~cl_j[u] == 0
                    and not (spo >> a) & 1
                ):
                    found.append(("(b)", f"A={_ps(n, a)} U={_ps(n, u)}"))
        return 1 << 2 * n, found

    def keys(bt):
        return zip(bt.po, bt.spo, itertools.cycle(range(bt.top.count)))

    return SuiteResult(
        "thm-3.1",
        "a preopen squeeze below the closure forces preopenness; a "
        "semipreopen core with covering closure forces semipreopenness",
        *_row_suite(config, keys, faults, ""),
    )


def _suite_thm_3_2(config) -> SuiteResult:
    """Per (t_i, t_j), the condition maskset is every subset minus, for each
    tau_j-closed g, the subsets of g that are not subsets of int_i g; it is
    laid out like the po rows and compared with them row by row."""
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        top = bt.top
        t_count = top.count
        every = (1 << (1 << n)) - 1
        sub = interval_masksets(n)[0]
        closed = [[top.full ^ o for o in opens] for opens in top.opens]
        cond_table = []
        for intr_i in top.intr:
            # escapes[g]: the subsets of g that are not subsets of int_i g
            escapes = [sub[g] & ~sub[intr_i[g]] for g in range(1 << n)]
            for closed_j in closed:
                bad = functools.reduce(operator.or_, [escapes[g] for g in closed_j])
                cond_table.append(every & ~bad)
        # every row is read in both directions, over all 2^n subsets
        checked += 2 * t_count * t_count << n
        failing = itertools.compress(
            itertools.count(), map(operator.ne, bt.po, cond_table)
        )
        for t1, t2, direction, row in _row_reads(failing, t_count):
            po = bt.po[row]
            diff = po ^ cond_table[row]
            a = (diff & -diff).bit_length() - 1
            side = "forward" if (po >> a) & 1 else "converse-on-finite"
            violations.append(
                f"{side} n={n} pair=({t1},{t2}) dir={_dir_name(direction)} A={_ps(n, a)}"
            )
    return SuiteResult(
        "thm-3.2",
        "preopen sets land in the interior of every closed superset, and on "
        "finite models that interior condition conversely forces preopenness",
        checked,
        tuple(violations),
    )


def _suite_thm_3_3(config) -> SuiteResult:
    def faults(n, bt, key):
        checked = 0
        found = []
        for bits, tag in zip(key, ("preopen", "semipreopen")):
            members = [a for a in range(1 << n) if (bits >> a) & 1]
            checked += len(members) * (len(members) + 1) // 2
            for a, b in itertools.combinations_with_replacement(members, 2):
                if not (bits >> (a | b)) & 1:
                    found.append((tag, f"A={_ps(n, a)} B={_ps(n, b)}"))
        return checked, found

    return SuiteResult(
        "thm-3.3",
        "finite unions of (semi)preopen sets stay (semi)preopen (the "
        "pointwise witness-union mechanism behind countable unions)",
        *_row_suite(config, lambda bt: zip(bt.po, bt.spo), faults, " "),
    )


def _suite_thm_3_4(config) -> SuiteResult:
    """Keyed on (po, spo, the maskset of sets open in both structures). A
    pair lists those sets in tau_1's open order, which is canonical order,
    so both reads of a row list them alike."""

    def faults(n, bt, key):
        # the discrete topology, last in canonical order, opens every subset
        biopen = [b for b in bt.top.opens[-1] if (key[2] >> b) & 1]
        checked = 0
        found = []
        for bits, tag in zip(key[:2], ("preopen", "semipreopen")):
            for a in range(1 << n):
                if (bits >> a) & 1:
                    checked += len(biopen)
                    for b in biopen:
                        if not (bits >> (a & b)) & 1:
                            found.append((tag, f"A={_ps(n, a)} B={_ps(n, b)}"))
        return checked, found

    def keys(bt):
        openbits = bt.top.openbits
        return zip(bt.po, bt.spo, [i & j for i in openbits for j in openbits])

    return SuiteResult(
        "thm-3.4",
        "intersecting a (semi)preopen set with a set open in both "
        "structures keeps it (semi)preopen",
        *_row_suite(config, keys, faults, ""),
    )


def _suite_thm_3_5(config) -> SuiteResult:
    """Each po or spo maskset is cut to each region y once: bit i of a cut
    is subset i of y. Row (t_i, t_j) fails at y if its cut has a bit that its
    traced row on y lacks, or, with y tau_i-open, differs from it at all."""
    kinds = (
        "preopen-restriction", "semipreopen-restriction",
        "preopen-converse", "semipreopen-converse",
    )
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        tr = trace_tables(n)
        t_count = bt.top.count
        # each (pair, direction) reads each nonempty y over its 2^|y| subsets
        checked += 2 * t_count * t_count * (3 ** n - 1)
        failing = []
        for y in range(1, 1 << n):
            inside = subsets_of(y)
            sub_bt = bispace_tables(y.bit_count())
            cut = {
                bits: sum(1 << i for i, a in enumerate(inside) if (bits >> a) & 1)
                for bits in {*bt.po, *bt.spo}
            }
            for t_i, t_j, row, _ in pair_rows(t_count):
                sub_row = sub_bt.pair_index(tr[t_i][y][1], tr[t_j][y][1])
                # -1 if y is tau_i-open, else 0: masks the converse in or out
                y_open = -((bt.top.openbits[t_i] >> y) & 1)
                po, spo = cut[bt.po[row]], cut[bt.spo[row]]
                sub_po, sub_spo = sub_bt.po[sub_row], sub_bt.spo[sub_row]
                if (po ^ sub_po) & (po | y_open) or (spo ^ sub_spo) & (spo | y_open):
                    lost = (
                        po & ~sub_po, spo & ~sub_spo,
                        sub_po & ~po & y_open, sub_spo & ~spo & y_open,
                    )
                    failing.append((t_i, t_j, y, 0, lost))
                    failing.append((t_j, t_i, y, 1, lost))
        for t1, t2, y, direction, lost in sorted(failing):
            where = f"pair=({t1},{t2}) dir={_dir_name(direction)} Y={_ps(n, y)}"
            violations.extend(
                f"{kind} n={n} {where} A={_ps(n, a)}"
                for i, a in enumerate(subsets_of(y))
                for kind, bits in zip(kinds, lost)
                if (bits >> i) & 1
            )
    return SuiteResult(
        "thm-3.5",
        "(semi)preopenness passes to every subspace containing the set, and "
        "comes back when the subspace carrier is open in the witness-side "
        "structure",
        checked,
        tuple(violations),
    )


def _suite_note_3_4(config) -> SuiteResult:
    violations = []
    checked = 0
    for n in range(1, config.n + 1):
        top = topology_tables(n)
        tr = trace_tables(n)
        for t in range(top.count):
            for y in range(1, 1 << n):
                sub_n, t_sub = tr[t][y]
                sub_cl = topology_tables(sub_n).cl[t_sub]
                # inside[i] is the subset of y relabelled to subset i of y
                inside = subsets_of(y)
                for a_sub, a in enumerate(inside):
                    checked += 1
                    if inside[sub_cl[a_sub]] != top.cl[t][a] & y:
                        violations.append(
                            f"relative-closure n={n} t={t} Y={_ps(n, y)} A={_ps(n, a)}"
                        )
    return SuiteResult(
        "note-3.4",
        "subspace closure is the ambient closure cut down to the subspace",
        checked,
        tuple(violations),
    )


def _suite_thm_3_6(config, semi: bool = False) -> SuiteResult:
    """Keyed on the (semi)preopen maskset and the hull row: a wrong hull row
    beside a right maskset must still fault."""

    def keys(bt):
        return zip(bt.spo, bt.spcl) if semi else zip(bt.po, bt.pcl)

    kind = "semipreclosure" if semi else "preclosure"
    return SuiteResult(
        "thm-3.7" if semi else "thm-3.6",
        f"{kind} membership is meeting every {'semi' if semi else ''}preopen "
        "neighborhood, and the hull is monotone",
        *_row_suite(config, keys, _hull_faults, " "),
    )


def _hull_faults(n: int, bt, key) -> tuple[int, list[tuple[str, str]]]:
    """(checked, faults) of one hull row against its maskset, key being
    (maskset, hull row): x is in hull[a] iff every member containing x meets
    a, checked n times per set, and the row is monotone, checked once per
    nested (a, b)."""
    bits, hull = key
    size = 1 << n
    members = [u for u in range(size) if (bits >> u) & 1]
    faults = []
    for a in range(size):
        h = hull[a]
        for x in range(n):
            meets_all = all(u & a for u in members if (u >> x) & 1)
            if (h >> x) & 1 != meets_all:
                faults.append(("membership", f"A={_ps(n, a)} x={x}"))
    for a in range(size):
        for b in range(size):
            if a & ~b == 0 and hull[a] & ~hull[b]:
                faults.append(("monotone", f"A={_ps(n, a)} B={_ps(n, b)}"))
    return n * size + 3 ** n, faults


def _suite_remark_3_1(config) -> SuiteResult:
    checked = 0
    note = None
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        for t1, t2, pair, swapped in pair_rows(bt.top.count):
            for direction, row in ((0, pair), (1, swapped)):
                po = bt.po[row]
                members = [a for a in range(1 << n) if (po >> a) & 1]
                for a, b in itertools.combinations(members, 2):
                    checked += 1
                    if not (po >> (a & b)) & 1:
                        note = (
                            f"witness: n={n} pair=({t1},{t2}) dir={_dir_name(direction)} "
                            f"A={_ps(n, a)} B={_ps(n, b)} intersection={_ps(n, a & b)} "
                            f"opens1={[_ps(n, o) for o in bt.top.opens[t1]]} "
                            f"opens2={[_ps(n, o) for o in bt.top.opens[t2]]}"
                        )
                        break
                if note:
                    break
            if note:
                break
        if note:
            break
    notes = (note,) if note else (
        "no finite witness up to the configured carrier size",
    )
    return SuiteResult(
        "remark-3.1",
        "search for two preopen sets whose intersection is not preopen "
        "(expected to exist; recorded as a fixture, never a violation)",
        checked,
        (),
        notes,
    )


# ---------------------------------------------------------------------------
# Map-level suites
# ---------------------------------------------------------------------------

def _map_size_combos(n: int) -> list[tuple[int, int]]:
    limit = min(n, MAX_EXHAUSTIVE_MAP_CARRIER)
    return [(m, k) for m in range(1, limit + 1) for k in range(1, limit + 1)]


def _has_pairsets(n: int) -> dict:
    """Per target size k up to the map sweeps' limit, per direction and
    subset mask: pairset of target bispaces where it is preopen /
    semipreopen."""
    out = {}
    for k in range(1, min(n, MAX_EXHAUSTIVE_MAP_CARRIER) + 1):
        bt = bispace_tables(k)
        size = 1 << k
        has_po = [[0] * size, [0] * size]
        has_spo = [[0] * size, [0] * size]
        for _, _, pair, swapped in pair_rows(bt.top.count):
            for direction, row in ((0, pair), (1, swapped)):
                po = bt.po[row]
                spo = bt.spo[row]
                for a in range(size):
                    if (po >> a) & 1:
                        has_po[direction][a] |= 1 << pair
                    if (spo >> a) & 1:
                        has_spo[direction][a] |= 1 << pair
        out[k] = has_po, has_spo
    return out


def _suite_thm_4_1(config) -> SuiteResult:
    """Per map, the members of a source row and the pairsets where their
    images fail are a function of the row's maskset and direction alone
    (the map's image row and the target pairsets are fixed), so the count
    and OR of those pairsets are memoised per (maskset, direction) for one
    map. The rectangle of continuous-open target pairs decides pass or fail;
    only a failing (pair, direction) walks its members again to name them."""
    violations = []
    checked = 0
    has = _has_pairsets(config.n)
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        bt_m = bispace_tables(m)
        po_table, spo_table = bt_m.po, bt_m.spo
        t_m = bt_m.top.count
        t_k = topology_tables(k).count
        has_po, has_spo = has[k]
        full_pairs = (1 << (t_k * t_k)) - 1
        neg_po = [[full_pairs ^ h for h in has_po[d]] for d in (0, 1)]
        neg_spo = [[full_pairs ^ h for h in has_spo[d]] for d in (0, 1)]
        rect_cache: dict = {}
        for f in range(len(mt.maps)):
            co = [mt.cont[f][t] & mt.openmap[f][t] for t in range(t_m)]
            img_row = mt.img[f]
            # (maskset, direction) -> (member count, OR of failing pairsets)
            po_seen: dict[tuple[int, int], tuple[int, int]] = {}
            spo_seen: dict[tuple[int, int], tuple[int, int]] = {}
            for t1, t2, pair, swapped in pair_rows(t_m):
                co1 = co[t1]
                co2 = co[t2]
                if not co1 or not co2:
                    continue
                key = (co1, co2)
                r = rect_cache.get(key)
                if r is None:
                    r = rect_cache[key] = rect(co1, co2, t_k)
                for direction, row in ((0, pair), (1, swapped)):
                    po = po_table[row]
                    spo = spo_table[row]
                    po_neg = neg_po[direction]
                    spo_neg = neg_spo[direction]
                    po_sum = po_seen.get((po, direction))
                    if po_sum is None:
                        po_sum = po_seen[(po, direction)] = _member_summary(
                            po, img_row, po_neg
                        )
                    spo_sum = spo_seen.get((spo, direction))
                    if spo_sum is None:
                        spo_sum = spo_seen[(spo, direction)] = _member_summary(
                            spo, img_row, spo_neg
                        )
                    checked += po_sum[0] + spo_sum[0]
                    if not (r & po_sum[1] or r & spo_sum[1]):
                        continue
                    for a in range(1 << m):
                        if (po >> a) & 1:
                            bad = r & po_neg[img_row[a]]
                            if bad:
                                s1, s2 = decode_pair(bad, t_k)
                                violations.append(
                                    f"preopen m={m} k={k} f={mt.maps[f]} "
                                    f"X=({t1},{t2}) Y=({s1},{s2}) "
                                    f"dir={_dir_name(direction)} A={_ps(m, a)}"
                                )
                        if (spo >> a) & 1:
                            bad = r & spo_neg[img_row[a]]
                            if bad:
                                s1, s2 = decode_pair(bad, t_k)
                                violations.append(
                                    f"semipreopen m={m} k={k} f={mt.maps[f]} "
                                    f"X=({t1},{t2}) Y=({s1},{s2}) "
                                    f"dir={_dir_name(direction)} A={_ps(m, a)}"
                                )
    return SuiteResult(
        "thm-4.1",
        "continuous open maps push (semi)preopen sets forward to "
        "(semi)preopen images",
        checked,
        tuple(violations),
    )


def _member_summary(bits: int, img_row, neg) -> tuple[int, int]:
    """Number of members of maskset `bits`, and the OR of neg[img_row[a]]
    over its members a."""
    count = 0
    fail = 0
    rem = bits
    while rem:
        low = rem & -rem
        rem ^= low
        count += 1
        fail |= neg[img_row[low.bit_length() - 1]]
    return count, fail


def _suite_thm_4_2(config) -> SuiteResult:
    """Per map, the pairset of targets whose preimage leaves a source row is
    a function of the row's maskset and direction alone (the map's preimage
    row and the target pairsets are fixed), so it is memoised per
    (maskset, direction) for one map; each (pair, direction) still counts
    its 2^k target sets."""
    violations = []
    checked = 0
    has = _has_pairsets(config.n)
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        bt_m = bispace_tables(m)
        po_table, spo_table = bt_m.po, bt_m.spo
        t_m = bt_m.top.count
        t_k = topology_tables(k).count
        has_po, has_spo = has[k]
        size_k = 1 << k
        rect_cache: dict = {}
        for f in range(len(mt.maps)):
            preim_row = mt.preim[f]
            pc_row = grids.pc[f]
            open_row = mt.openmap[f]
            po_seen: dict[tuple[int, int], int] = {}
            spo_seen: dict[tuple[int, int], int] = {}
            for t1, t2, pair, swapped in pair_rows(t_m):
                h1 = pc_row[pair] & open_row[t1]
                h2 = pc_row[swapped] & open_row[t2]
                if not h1 or not h2:
                    continue
                key = (h1, h2)
                r = rect_cache.get(key)
                if r is None:
                    r = rect_cache[key] = rect(h1, h2, t_k)
                for direction, row in ((0, pair), (1, swapped)):
                    po_x = po_table[row]
                    spo_x = spo_table[row]
                    checked += size_k
                    bad_po = po_seen.get((po_x, direction))
                    if bad_po is None:
                        bad_po = po_seen[(po_x, direction)] = _escape_pairs(
                            po_x, preim_row, has_po[direction]
                        )
                    bad_spo = spo_seen.get((spo_x, direction))
                    if bad_spo is None:
                        bad_spo = spo_seen[(spo_x, direction)] = _escape_pairs(
                            spo_x, preim_row, has_spo[direction]
                        )
                    hit = r & bad_po
                    if hit:
                        s1, s2 = decode_pair(hit, t_k)
                        violations.append(
                            f"preopen m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                            f"Y=({s1},{s2}) dir={_dir_name(direction)}"
                        )
                    hit = r & bad_spo
                    if hit:
                        s1, s2 = decode_pair(hit, t_k)
                        violations.append(
                            f"semipreopen m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                            f"Y=({s1},{s2}) dir={_dir_name(direction)}"
                        )
    return SuiteResult(
        "thm-4.2",
        "precontinuous open maps pull (semi)preopen sets back to "
        "(semi)preopen preimages",
        checked,
        tuple(violations),
    )


def _escape_pairs(bits: int, preim_row, has) -> int:
    """OR of has[a] over the target sets a whose preimage is not in maskset
    `bits`."""
    bad = 0
    for a, pre in enumerate(preim_row):
        if not (bits >> pre) & 1:
            bad |= has[a]
    return bad


def _suite_thm_4_3(config, semi: bool = False) -> SuiteResult:
    name = "thm-5.1" if semi else "thm-4.3"
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        t_m = bispace_tables(m).top.count
        lhs_grid = grids.spc if semi else grids.pc
        rhs_grid = grids.sp_rhs_closed if semi else grids.rhs_closed
        for f in range(len(mt.maps)):
            lhs = lhs_grid[f]
            rhs = rhs_grid[f]
            for t1, t2, pair, swapped in pair_rows(t_m):
                checked += 1
                l1 = lhs[pair]
                l2 = lhs[swapped]
                r1 = rhs[pair]
                r2 = rhs[swapped]
                if not rect_equal(l1, l2, r1, r2):
                    violations.append(
                        f"m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                        f"open-route={l1:x},{l2:x} closed-route={r1:x},{r2:x}"
                    )
    kind = "sp-continuity" if semi else "precontinuity"
    return SuiteResult(
        name,
        f"{kind} via open preimages coincides with the closed-preimage "
        "characterization; the closed route repeats the open one "
        "(f^-1(Y - V) = X - f^-1(V)), so this identity check catches "
        "corrupted grids",
        checked,
        tuple(violations),
    )


def _consequence_failures(m: int, k: int, semi: bool):
    """Where each (sp-)precontinuity consequence fails, per map, source
    bispace pair and direction.

    Yields ``(f, t1, t2, direction, row, (bad_neighborhood, bad_image_hull,
    bad_preimage_hull))``, `row` being the bispace row the direction reads
    (see tables.pair_rows). Each ``bad_*`` is a topset: bit s is set when the
    consequence fails with s as the witness-side target structure. The
    neighborhood consequence asks every open neighborhood of f(x) to contain
    the image of a (semi)preopen neighborhood of x; the hull consequences
    are ``f(hull A) <= cl_s f(A)`` and ``hull f^-1(B) <= f^-1(cl_s B)``.

    For a fixed map the triple reads nothing of the row but its (semi)preopen
    maskset ``around`` and its hull row, so it is computed once per distinct
    ``(around, hull)`` and reused for every (pair, direction) that has it
    (44 distinct rows over the 1,682 at m = 3). Rows are numbered by their
    distinct key once per call and the per-map memo is a list over those
    numbers; the stream stays in (f, t1, t2, direction) order. Streamed, not
    cached: materialising the 3x3 grid costs more memory than recomputing it
    per consumer costs time.
    """
    mt = map_tables(m, k)
    bt_m = bispace_tables(m)
    top_k = topology_tables(k)
    t_m = bt_m.top.count
    t_k = top_k.count
    size_k = 1 << k
    # supersets[b]: maskset of the supersets of b; containing[p] is that
    # of the singleton {p}
    supersets = [row[-1] for row in interval_masksets(k)]
    containing = [supersets[1 << p] for p in range(k)]
    # escapes_cl[v][src]: topset of s where src escapes cl_s(v)
    escapes_cl = [
        [
            sum(1 << s for s in range(t_k) if src & ~top_k.cl[s][v])
            for src in range(size_k)
        ]
        for v in range(size_k)
    ]
    # closures_of[b]: (c, topset of s with cl_s(b) = c) per distinct c
    closures_of = []
    for b in range(size_k):
        groups: dict[int, int] = {}
        for s in range(t_k):
            c = top_k.cl[s][b]
            groups[c] = groups.get(c, 0) | 1 << s
        closures_of.append(tuple(groups.items()))
    around_table = bt_m.spo if semi else bt_m.po
    hull_table = bt_m.spcl if semi else bt_m.pcl
    # (t1, t2, direction, row, key number) in stream order, and each key
    # number's (around, hull)
    key_ids: dict[tuple, int] = {}
    reads = []
    for t1, t2, pair, swapped in pair_rows(t_m):
        for direction, row in ((0, pair), (1, swapped)):
            key = (around_table[row], hull_table[row])
            key_id = key_ids.setdefault(key, len(key_ids))
            reads.append((t1, t2, direction, row, key_id))
    keys = list(key_ids)
    for f in range(len(mt.maps)):
        img_row = mt.img[f]
        preim_row = mt.preim[f]
        assign = mt.maps[f]
        # not-subset rows: for each set and candidate hull image (preimage),
        # the topset of s where the candidate escapes cl_s(img a)
        # (f^-1(cl_s b)); lifted out of the pair loop, which only indexes them
        notsub_cl = [escapes_cl[v] for v in img_row]
        notsub_pre = [
            [
                sum(topset for c, topset in groups if lhs & ~preim_row[c])
                for lhs in range(1 << m)
            ]
            for groups in closures_of
        ]
        seen: list = [None] * len(keys)
        for t1, t2, direction, row, key_id in reads:
            bads = seen[key_id]
            if bads is None:
                around, hull = keys[key_id]
                bad_i = 0
                for x in range(m):
                    reach = 0
                    for u in range(1 << m):
                        if (u >> x) & 1 and (around >> u) & 1:
                            reach |= supersets[img_row[u]]
                    need = containing[assign[x]] & ~reach
                    if need:
                        for s in range(t_k):
                            if top_k.openbits[s] & need:
                                bad_i |= 1 << s
                bad_ii = 0
                for a in range(1 << m):
                    bad_ii |= notsub_cl[a][img_row[hull[a]]]
                bad_iii = 0
                for b in range(size_k):
                    bad_iii |= notsub_pre[b][hull[preim_row[b]]]
                bads = seen[key_id] = (bad_i, bad_ii, bad_iii)
            yield f, t1, t2, direction, row, bads


_CONSEQUENCES = ("neighborhood", "image-hull", "preimage-hull")


def _suite_thm_4_4(config, semi: bool = False, converse: bool = False) -> SuiteResult:
    """The three (sp-)precontinuity consequences, or with `converse` their
    converses on finite models: a consequence that holds forces the
    continuity factor. A converse read is the direct one with the gate and
    the failure sets complemented, so both fault where the two meet."""
    name = "note-4.2" if converse else "thm-5.2" if semi else "thm-4.4"
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        gate_grid = grids.spc if semi else grids.pc
        flip = (1 << topology_tables(k).count) - 1 if converse else 0
        for f, t1, t2, direction, row, bads in _consequence_failures(m, k, semi):
            checked += 1
            gate_i = gate_grid[f][row] ^ flip
            if not gate_i & ((bads[0] ^ flip) | (bads[1] ^ flip) | (bads[2] ^ flip)):
                continue
            for tag, bad in zip(_CONSEQUENCES, bads):
                hit = gate_i & (bad ^ flip)
                if hit:
                    s = (hit & -hit).bit_length() - 1
                    violations.append(
                        f"{tag} m={m} k={k} f={mt.maps[f]} "
                        f"X=({t1}, {t2}) "
                        f"dir={_dir_name(direction)} s_i={s}"
                    )
    if converse:
        claim = (
            "on finite models, where both structures are full topologies, each "
            "precontinuity consequence conversely forces the continuity factor"
        )
    else:
        kind = "sp-continuous" if semi else "precontinuous"
        hull_name = "semipreclosure" if semi else "preclosure"
        claim = (
            f"{kind} maps: witness neighborhoods map into open neighborhoods, "
            f"and {hull_name} bounds transfer through images and preimages"
        )
    return SuiteResult(name, claim, checked, tuple(violations))


def _suite_thm_4_5(config, semi: bool = False) -> SuiteResult:
    """Per map, the restricted map on a region, and so its whole grid row,
    depends on the region alone: each of the 2^m - 1 rows is looked up once
    per map, and the traced sub-pair indices of a region depend only on the
    source pair, so they are computed once per (m, k)."""
    name = "thm-5.3" if semi else "thm-4.5"
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        bt_m = bispace_tables(m)
        tr = trace_tables(m)
        t_m = bt_m.top.count
        opens = bt_m.top.opens
        openbits = bt_m.top.openbits
        # per sub-size j: map tables, grid and bispace pair index of the
        # restrictions to j points
        subs = [None]
        for j in range(1, m + 1):
            grids_j = continuity_grids(j, k)
            subs.append((
                map_tables(j, k),
                grids_j.spc if semi else grids_j.pc,
                bispace_tables(j).pair_index,
            ))
        grid = subs[m][1]
        # per source pair: (region, sub-pair, swapped sub-pair) for every
        # nonempty region open in both structures, in tau_1's open order
        regions_of = []
        for t1, t2, _, _ in pair_rows(t_m):
            regions = []
            for region in opens[t1]:
                if region and (openbits[t2] >> region) & 1:
                    sub_m, t1s = tr[t1][region]
                    _, t2s = tr[t2][region]
                    sub_index = subs[sub_m][2]
                    regions.append(
                        (region, sub_index(t1s, t2s), sub_index(t2s, t1s))
                    )
            regions_of.append(regions)
        for f in range(len(mt.maps)):
            assign = mt.maps[f]
            row = grid[f]
            sub_rows = [()]
            for region in range(1, 1 << m):
                sub_assign = tuple(assign[p] for p in range(m) if (region >> p) & 1)
                mt_sub, grid_sub, _ = subs[len(sub_assign)]
                sub_rows.append(grid_sub[mt_sub.index[sub_assign]])
            for t1, t2, pair, swapped in pair_rows(t_m):
                g1 = row[pair]
                g2 = row[swapped]
                if not g1 or not g2:
                    continue
                for region, sub_pair, sub_swapped in regions_of[pair]:
                    checked += 1
                    sub_row = sub_rows[region]
                    if g1 & ~sub_row[sub_pair] or g2 & ~sub_row[sub_swapped]:
                        violations.append(
                            f"m={m} k={k} f={assign} X=({t1},{t2}) "
                            f"A={_ps(m, region)}"
                        )
    kind = "sp-continuity" if semi else "precontinuity"
    return SuiteResult(
        name,
        f"{kind} survives restriction to a region open in both source "
        "structures",
        checked,
        tuple(violations),
    )


def _suite_thm_4_6(config) -> SuiteResult:
    """Per map, a source net's image net, and so its slot offset in the
    target convergence row, depends on the net alone, so the offsets are
    computed once per map; a mapped convergence row depends on the map and
    the target topology alone, so it is memoised per topology for one map.
    The limit points of a source net in the mapped row are the preimage of
    its image net's limit set."""
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        top_m = topology_tables(m)
        top_k = topology_tables(k)
        t_m = top_m.count
        t_k = top_k.count
        full_k = top_k.full
        conv_m = convergence_bits(m)
        conv_k = convergence_bits(k)
        nets_m = net_catalog(m)
        nets_k_index = {net: i for i, net in enumerate(net_catalog(k))}
        # Directions are symmetric under swapping both structure pairs, and
        # all ordered pairs are enumerated, so checking (1,2) covers (2,1).
        for f in range(len(mt.maps)):
            assign = mt.maps[f]
            preim_row = mt.preim[f]
            img_row = mt.img[f]
            pc_row = grids.pc[f]
            # per source net: (its slot shift in a source row, its image
            # net's slot offset in a target row)
            slots = [
                (
                    n_idx * m,
                    nets_k_index[(d_idx, tuple(assign[v] for v in values))] * k,
                )
                for n_idx, (d_idx, values) in enumerate(nets_m)
            ]
            mapped: dict[int, int] = {}
            for t_j in range(t_m):
                cl_j = top_m.cl[t_j]
                # target sets v equal to the image of cl_j of their preimage
                fixed = 0
                for v in range(1 << k):
                    if img_row[cl_j[preim_row[v]]] == v:
                        fixed |= 1 << v
                cond_c = 0
                for s in range(t_k):
                    if top_k.openbits[s] & ~fixed == 0:
                        cond_c |= 1 << s
                rem = cond_c
                while rem:
                    low = rem & -rem
                    s_i = low.bit_length() - 1
                    rem ^= low
                    mc = mapped.get(s_i)
                    if mc is None:
                        target_bits = conv_k[s_i]
                        mc = 0
                        for shift, offset in slots:
                            mc |= preim_row[(target_bits >> offset) & full_k] << shift
                        mapped[s_i] = mc
                    for t_i in range(t_m):
                        if not (pc_row[t_i * t_m + t_j] >> s_i) & 1:
                            continue
                        checked += 1
                        escape = conv_m[t_i] & ~mc
                        if escape:
                            idx = (escape & -escape).bit_length() - 1
                            violations.append(
                                f"m={m} k={k} f={assign} t_i={t_i} t_j={t_j} "
                                f"s_i={s_i} net={nets_m[idx // m]} x={idx % m}"
                            )
    return SuiteResult(
        "thm-4.6",
        "under one-direction precontinuity plus the closure-image identity, "
        "convergent nets push forward to convergent image nets (all nets on "
        "directed sets of up to 3 elements)",
        checked,
        tuple(violations),
    )


def _suite_note_4_1(config) -> SuiteResult:
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        top_m = topology_tables(m)
        top_k = topology_tables(k)
        for f in range(len(mt.maps)):
            img_row = mt.img[f]
            for t in range(top_m.count):
                cont_bits = mt.cont[f][t]
                if not cont_bits:
                    continue
                cl_t = top_m.cl[t]
                for s in range(top_k.count):
                    if not (cont_bits >> s) & 1:
                        continue
                    cl_s = top_k.cl[s]
                    for a in range(1 << m):
                        checked += 1
                        if img_row[cl_t[a]] & ~cl_s[img_row[a]]:
                            violations.append(
                                f"m={m} k={k} f={mt.maps[f]} t={t} s={s} A={_ps(m, a)}"
                            )
    return SuiteResult(
        "note-4.1",
        "continuous maps between single structures preserve closures into "
        "closures (the converse failure is pinned by catalog entry ex-4.1)",
        checked,
        tuple(violations),
    )


# The hierarchy's implications as (gap name, level, implied level): every
# map at `level` is at `implied level`, and the gap is a map at the implied
# level that is not at `level`. Levels are named in _LEVELS, the order of
# the tuples _continuity_levels returns.
_HIERARCHY_EDGES = (
    ("precontinuous-not-continuous", "cont", "pc"),
    ("semicontinuous-not-continuous", "cont", "sc"),
    ("sp-continuous-not-semicontinuous", "sc", "spc"),
    ("sp-continuous-not-precontinuous", "pc", "spc"),
)

GAP_NAMES = tuple(gap for gap, _, _ in _HIERARCHY_EDGES)

_LEVELS = ("cont", "sc", "pc", "spc")

# per edge: gap name, label, and the positions of the low and high level's
# (1,2) topset in a _continuity_levels tuple (the (2,1) one follows it)
_EDGE_SLOTS = tuple(
    (gap, f"{low}=>{high}", 2 * _LEVELS.index(low), 2 * _LEVELS.index(high))
    for gap, low, high in _HIERARCHY_EDGES
)


def _continuity_levels(mt, grids, f: int, t_m: int) -> list[tuple]:
    """Per source pair (t1, t2), in pair order: for each level in _LEVELS
    order, the target topsets (direction (1,2), direction (2,1)) where map f
    is continuous, semi-, pre- or sp-continuous, flattened into one tuple."""
    cont, sc, pc, spc = mt.cont[f], grids.sc[f], grids.pc[f], grids.spc[f]
    return [
        (cont[t1], cont[t2], sc[p], sc[q], pc[p], pc[q], spc[p], spc[q])
        for t1, t2, p, q in pair_rows(t_m)
    ]


def _suite_hierarchy(config) -> SuiteResult:
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        t_m = bispace_tables(m).top.count
        for f in range(len(mt.maps)):
            checked += t_m * t_m
            for pair, levels in enumerate(_continuity_levels(mt, grids, f, t_m)):
                for _, label, low, high in _EDGE_SLOTS:
                    l1 = levels[low]
                    l2 = levels[low + 1]
                    if l1 and l2 and (l1 & ~levels[high] or l2 & ~levels[high + 1]):
                        t1, t2 = divmod(pair, t_m)
                        violations.append(
                            f"{label} m={m} k={k} f={mt.maps[f]} X=({t1},{t2})"
                        )
    notes = []
    for gap, witness in find_hierarchy_witnesses(min(config.n, 3)).items():
        if witness is None:
            notes.append(f"{gap}: no finite witness up to the configured size")
        else:
            notes.append(
                f"{gap}: map {witness['map']} between {witness['source_size']}- "
                f"and {witness['target_size']}-point carriers "
                f"(structures {witness['tau1']}/{witness['tau2']} -> "
                f"{witness['sigma1']}/{witness['sigma2']})"
            )
    return SuiteResult(
        "hierarchy",
        "continuity implies semi- and pre-continuity; both imply "
        "sp-continuity, on every enumerated map and bispace pair; strictness "
        "witnesses recorded per gap",
        checked,
        tuple(violations),
        tuple(notes),
    )


def find_hierarchy_witnesses(max_size: int = 3) -> dict[str, Optional[dict]]:
    """First witness per strict hierarchy gap, in canonical search order.

    Returns serializable dicts (carrier sizes, open families, assignment,
    target structure indices) so tests can freeze and re-verify them with
    the reference predicates.
    """
    found: dict[str, Optional[dict]] = {name: None for name in GAP_NAMES}

    def witness(m, k, f_assign, t1, t2, s1, s2) -> dict:
        top_m = topology_tables(m)
        top_k = topology_tables(k)
        return {
            "source_size": m,
            "target_size": k,
            "map": list(f_assign),
            "tau1": [list(PointSet(m, o)) for o in top_m.opens[t1]],
            "tau2": [list(PointSet(m, o)) for o in top_m.opens[t2]],
            "sigma1": [list(PointSet(k, o)) for o in top_k.opens[s1]],
            "sigma2": [list(PointSet(k, o)) for o in top_k.opens[s2]],
        }

    missing = len(found)
    for m, k in _map_size_combos(max_size):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        t_m = bispace_tables(m).top.count
        for f in range(len(mt.maps)):
            for pair, levels in enumerate(_continuity_levels(mt, grids, f, t_m)):
                for name, _, low, high in _EDGE_SLOTS:
                    if found[name]:
                        continue
                    # first (s1, s2) inside the high rectangle and outside
                    # the low one, s1 then s2 ascending
                    have2 = levels[high + 1]
                    rem = levels[high]
                    while rem:
                        bit = rem & -rem
                        rem ^= bit
                        if levels[low] & bit:
                            cand = have2 & ~levels[low + 1]
                        else:
                            cand = have2
                        if cand:
                            found[name] = witness(
                                m, k, mt.maps[f], *divmod(pair, t_m),
                                bit.bit_length() - 1,
                                (cand & -cand).bit_length() - 1,
                            )
                            missing -= 1
                            break
                if not missing:
                    return found
    return found


# ---------------------------------------------------------------------------
# Sampled sweep for 4-point carriers
# ---------------------------------------------------------------------------

def _sampled_map_checks(config) -> SuiteResult:
    rng = random.Random(config.seed)
    forms = _space_forms(4)
    spaces = [FiniteSpace(4, [PointSet(4, m) for m in f]) for f in forms]
    violations = []
    checked = 0
    for _ in range(config.sample_size):
        k = rng.choice((1, 2, 3, 4))
        src1, src2 = rng.choice(spaces), rng.choice(spaces)
        tgt_forms = _space_forms(k)
        tgt_pick = lambda: FiniteSpace(
            k, [PointSet(k, m) for m in rng.choice(tgt_forms)]
        )
        bx = props.Bispace(src1, src2)
        by = props.Bispace(tgt_pick(), tgt_pick())
        f = maps_mod.FiniteMap(4, k, tuple(rng.randrange(k) for _ in range(4)))
        checked += 1
        cont = maps_mod.is_pairwise_continuous(f, bx, by)
        pre = maps_mod.is_pairwise_precontinuous(f, bx, by)
        semi = maps_mod.is_pairwise_semi_continuous(f, bx, by)
        sp = maps_mod.is_pairwise_sp_continuous(f, bx, by)
        if cont and not (semi and pre):
            violations.append(f"hierarchy f={f} on sampled 4-point model")
        if (semi or pre) and not sp:
            violations.append(f"hierarchy-sp f={f} on sampled 4-point model")
        if not maps_mod.closed_preimage_characterization(f, bx, by):
            violations.append(f"closed-characterization f={f} on sampled model")
    return SuiteResult(
        "sampled-maps-n4",
        "seeded sampled sweep of 4-point-source maps through the reference "
        "predicates (hierarchy and closed-preimage characterization)",
        checked,
        tuple(violations),
        (f"seed={config.seed} samples={config.sample_size}",),
    )


# ---------------------------------------------------------------------------
# Config and runner
# ---------------------------------------------------------------------------

SET_SUITES: dict[str, Callable] = {
    "closure-laws": _suite_closure_laws,
    "lemma-3.1": _suite_lemma_3_1,
    "C1-iff-C2": _suite_c1_iff_c2,
    "open-implies-preopen": _suite_open_implies_preopen,
    "thm-3.1": _suite_thm_3_1,
    "thm-3.2": _suite_thm_3_2,
    "thm-3.3": _suite_thm_3_3,
    "thm-3.4": _suite_thm_3_4,
    "thm-3.5": _suite_thm_3_5,
    "note-3.4": _suite_note_3_4,
    "thm-3.6": _suite_thm_3_6,
    "thm-3.7": lambda c: _suite_thm_3_6(c, semi=True),
    "remark-3.1": _suite_remark_3_1,
}

MAP_SUITES: dict[str, Callable] = {
    "thm-4.1": _suite_thm_4_1,
    "thm-4.2": _suite_thm_4_2,
    "thm-4.3": _suite_thm_4_3,
    "thm-4.4": _suite_thm_4_4,
    "thm-4.5": _suite_thm_4_5,
    "thm-4.6": _suite_thm_4_6,
    "note-4.1": _suite_note_4_1,
    "note-4.2": lambda c: _suite_thm_4_4(c, converse=True),
    "thm-5.1": lambda c: _suite_thm_4_3(c, semi=True),
    "thm-5.2": lambda c: _suite_thm_4_4(c, semi=True),
    "thm-5.3": lambda c: _suite_thm_4_5(c, semi=True),
    "hierarchy": _suite_hierarchy,
}

ALL_SUITES = {**SET_SUITES, **MAP_SUITES}


@dataclass(frozen=True)
class SuiteConfig:
    """Which suites to run and how far to enumerate.

    Carrier sizes 1..n are swept; map sweeps are exhaustive up to 3-point
    carriers and sampled (seeded) when n is 4, so a seed is required exactly
    when a sampled sweep would run.
    """

    n: int = 3
    which: tuple[str, ...] = ("all",)
    seed: Optional[int] = None
    sample_size: int = 200

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError("carrier size must be between 1 and 4")
        unknown = [w for w in self.which if w != "all" and w not in ALL_SUITES]
        if unknown:
            raise ValueError(
                f"unknown suite name(s) {unknown}; known: {', '.join(ALL_SUITES)}"
            )
        if self.sampled and self.seed is None:
            raise ValueError("a seed is required for the sampled 4-point map sweep")
        if not self.sampled and self.seed is not None:
            raise ValueError("a seed is only meaningful for sampled sweeps (n = 4)")

    def names(self) -> tuple[str, ...]:
        if "all" in self.which:
            return tuple(ALL_SUITES)
        return tuple(dict.fromkeys(self.which))  # first mention of each name

    @property
    def sampled(self) -> bool:
        return self.n >= 4 and any(name in MAP_SUITES for name in self.names())


def run_theorem_suite(config: SuiteConfig) -> list[SuiteResult]:
    """Run the configured suites; deterministic result order."""
    runs = [ALL_SUITES[name] for name in config.names()]
    if config.sampled:
        runs.append(_sampled_map_checks)
    results = []
    for run in runs:
        start = time.perf_counter()
        result = run(config)
        results.append(
            replace(result, duration_ms=(time.perf_counter() - start) * 1000.0)
        )
    return results
