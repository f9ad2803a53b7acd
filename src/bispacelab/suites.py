"""Theorem suites over exhaustively enumerated finite models.

Every suite quantifies over all open-set structures on small carriers
(pairs of structures for bispace statements, plus all maps between carriers
for the function statements) and collects violations with witness data.
The shipped suites must come back empty; a violation is either a bug or a
disproof, and both deserve loud output.

`SET_SUITES` and `MAP_SUITES` are the suite table: each `Suite` holds a
suite's name, its claim and its check, written once. Most checks take one
carrier size, or one (source, target) size pair, and return
``(checked, violations)``; the driver, `Suite.__call__`, runs them over the
carrier-size budget and sums them. The few checks that hoist work across
sizes or stop early take the whole configuration instead.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import marshal
import operator
import os
import random
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from . import maps as maps_mod
from . import props
from .finite import FiniteSpace, PointSet, _space_forms, bit_indices, or_table
from .reports import SuiteResult
from .tables import (
    bispace_tables,
    closed_route_grid,
    continuity_grids,
    convergence_bits,
    decode_pair,
    hull_tables,
    interval_masksets,
    map_tables,
    net_catalog,
    pair_rows,
    rect_equal,
    rows_equal,
    subsets_of,
    topology_tables,
    trace_tables,
)

MAX_EXHAUSTIVE_MAP_CARRIER = 3
SAMPLE_SIZE = 200  # maps drawn by the seeded sampled sweep at n = 4


def _ps(n: int, mask: int) -> str:
    return repr(PointSet(n, mask))


def _dir_name(direction: int) -> str:
    return "(1,2)" if direction == 0 else "(2,1)"


# ---------------------------------------------------------------------------
# Set-level suites (single structures and bispaces, no maps)
# ---------------------------------------------------------------------------

def _check_closure_laws(n: int) -> tuple[int, list[str]]:
    """A topology is walked subset by subset only if `_closure_laws_hold`
    finds a law that fails on it."""
    top = topology_tables(n)
    full = top.full
    violations = []
    for t in range(top.count):
        if _closure_laws_hold(top, t):
            continue
        opens = top.opens[t]
        cl = top.cl[t]
        intr = top.intr[t]
        if cl[0] != 0:
            violations.append(f"closure-of-empty n={n} t={t}")
        for a in range(1 << n):
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
                if cl[a | b] != cl[a] | cl[b]:
                    violations.append(
                        f"additive n={n} t={t} A={_ps(n, a)} B={_ps(n, b)}"
                    )
                if a & ~b == 0 and cl[a] & ~cl[b]:
                    violations.append(
                        f"monotone n={n} t={t} A={_ps(n, a)} B={_ps(n, b)}"
                    )
    return top.count * ((1 << n) + (1 << 2 * n)), violations


def _closure_laws_hold(top, t: int) -> bool:
    """Whether no closure law fails on topology t, by identities over its
    whole rows.

    cl fixes the empty set and is additive iff it is the OR table of the
    closures of the points (additive implies monotone); it is expansive iff
    a & cl[a] == a, idempotent iff cl[cl[a]] == cl[a], and dual to intr iff
    intr, read from the full set down, is the complement of cl. The
    limit-point law says cl[a] is the complement of the union of the opens
    that miss a (a's points lie in it, and a point outside a is a limit point
    iff every open around it meets a). For an expansive, monotone and
    idempotent cl that complement equals cl[a] when the opens are exactly
    the complements of cl's fixed points; it may hold otherwise too, and
    then the walk finds nothing.
    """
    full, cl = top.full, top.cl[t]
    subsets = range(1 << top.n)
    return (
        list(cl) == or_table([cl[1 << x] for x in range(top.n)])
        and all(map(operator.eq, map(operator.and_, subsets, cl), subsets))
        and tuple(map(cl.__getitem__, cl)) == cl
        and tuple(map(full.__xor__, reversed(cl))) == top.intr[t]
        and {full ^ o for o in top.opens[t]}
        == set(itertools.compress(subsets, map(operator.eq, subsets, cl)))
    )


def _check_lemma_3_1(n: int) -> tuple[int, list[str]]:
    top = topology_tables(n)
    violations = []
    for t in range(top.count):
        cl = top.cl[t]
        for a in range(1 << n):
            for o in top.opens[t]:
                if (cl[a] & o) & ~cl[a & o]:
                    violations.append(f"n={n} t={t} A={_ps(n, a)} B={_ps(n, o)}")
    # one check per (topology, subset, open)
    return sum(map(len, top.opens)) << n, violations


def _row_check(bt, column, faults, sep: str) -> tuple[int, list[str]]:
    """(checked, violations) at one carrier size of a suite whose verdict on
    a read depends on the read's row alone.

    `column` gives each row of `bt` its key, laid out like `bt.po`, and
    `faults(key)` gives ``(checked, [(kind, where), ...])`` for one read of a
    row with that key; it runs once per distinct key. Each row is read twice
    (see `pair_rows`), so it counts twice, and a failing row is reported at
    both reads as ``{kind} n=.. pair=(t1,{sep}t2) dir=.. {where}``.
    """
    column = list(column)
    found = {}
    checked = 0
    for key, count in collections.Counter(column).items():
        key_checked, key_faults = faults(key)
        checked += 2 * count * key_checked
        if key_faults:
            found[key] = key_faults
    if not found:  # before the walk, which looks up every read's key
        return checked, []
    violations = []
    for t1, t2, pair, swapped in pair_rows(bt.top.count):
        for direction, row in enumerate((pair, swapped)):
            for kind, where in found.get(column[row], ()):
                violations.append(
                    f"{kind} n={bt.top.n} pair=({t1},{sep}{t2}) "
                    f"dir={_dir_name(direction)} {where}"
                )
    return checked, violations


def _check_c1_iff_c2(n: int) -> tuple[int, list[str]]:
    """A carrier size whose po and wpo rows are equal passes whole; only
    otherwise are they compared read by read."""
    bt = bispace_tables(n)
    # every row is read in both directions, over all 2^n subsets
    checked = 2 * bt.top.count ** 2 << n
    if rows_equal(bt.po, bt.wpo):
        return checked, []
    violations = []
    for t1, t2, pair, swapped in pair_rows(bt.top.count):
        for direction, row in enumerate((pair, swapped)):
            po, wpo = bt.po[row], bt.wpo[row]
            for kind, bits in (
                ("squeeze-without-containment", po & ~wpo),
                ("containment-without-squeeze", wpo & ~po),
            ):
                if bits:
                    violations.append(
                        f"{kind} n={n} pair=({t1}, {t2}) dir={_dir_name(direction)} "
                        f"A={_ps(n, (bits & -bits).bit_length() - 1)}"
                    )
    return checked, violations


def _check_open_implies_preopen(n: int) -> tuple[int, list[str]]:
    """One test over all rows at once: every row is one slot of the int read
    off its array, and the opens of each row's t1 are laid out alike, so the
    slot-wise checks below are big-int operations. Only a size where they
    fail is checked row by row."""
    bt = bispace_tables(n)
    t_count = bt.top.count
    po_table, so_table, spo_table = bt.po, bt.so, bt.spo
    # row a * t_count + b is read in both directions, each time with three
    # checks against the opens of t_a; it passes iff those opens lie in
    # po & so and po | so lies in spo
    checked = 6 * t_count * t_count
    opens_rows = array(po_table.format)
    for bits in bt.top.openbits:
        opens_rows += array(po_table.format, (bits,)) * t_count
    opens_all, po_all, so_all, spo_all = (
        int.from_bytes(rows, "little")
        for rows in (opens_rows, po_table, so_table, spo_table)
    )
    if not (opens_all & ~(po_all & so_all) or (po_all | so_all) & ~spo_all):
        return checked, []
    violations = []
    for t1, t2, pair, swapped in pair_rows(t_count):
        for row in (pair, swapped):
            opens = opens_rows[row]
            po = po_table[row]
            so = so_table[row]
            spo = spo_table[row]
            if opens & ~po:
                violations.append(f"open-not-preopen n={n} pair=({t1},{t2})")
            if opens & ~so:
                violations.append(f"open-not-semiopen n={n} pair=({t1},{t2})")
            if (po | so) & ~spo:
                violations.append(f"not-semipreopen n={n} pair=({t1},{t2})")
    return checked, violations


def _check_thm_3_1(n: int) -> tuple[int, list[str]]:
    """Keyed on (po, spo, t_j); a row's t_j is its column, row % t_count."""
    bt = bispace_tables(n)

    def faults(key):
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

    column = zip(bt.po, bt.spo, itertools.cycle(range(bt.top.count)))
    return _row_check(bt, column, faults, "")


def _check_thm_3_2(n: int) -> tuple[int, list[str]]:
    """Per (t_i, t_j), the condition maskset is every subset minus, for each
    tau_j-closed g, the subsets of g that are not subsets of int_i g; it is
    laid out like the po rows and compared with them whole, then read by
    read only where they differ."""
    bt = bispace_tables(n)
    top = bt.top
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
    checked = 2 * top.count ** 2 << n
    if bt.po.tolist() == cond_table:
        return checked, []
    violations = []
    for t1, t2, pair, swapped in pair_rows(top.count):
        for direction, row in enumerate((pair, swapped)):
            po = bt.po[row]
            diff = po ^ cond_table[row]
            if not diff:
                continue
            a = (diff & -diff).bit_length() - 1
            side = "forward" if (po >> a) & 1 else "converse-on-finite"
            violations.append(
                f"{side} n={n} pair=({t1},{t2}) dir={_dir_name(direction)} "
                f"A={_ps(n, a)}"
            )
    return checked, violations


def _check_thm_3_3(n: int) -> tuple[int, list[str]]:
    bt = bispace_tables(n)

    def faults(key):
        checked = 0
        found = []
        for bits, tag in zip(key, ("preopen", "semipreopen")):
            members = [a for a in range(1 << n) if (bits >> a) & 1]
            checked += len(members) * (len(members) + 1) // 2
            for a, b in itertools.combinations_with_replacement(members, 2):
                if not (bits >> (a | b)) & 1:
                    found.append((tag, f"A={_ps(n, a)} B={_ps(n, b)}"))
        return checked, found

    return _row_check(bt, zip(bt.po, bt.spo), faults, " ")


def _check_thm_3_4(n: int) -> tuple[int, list[str]]:
    """Keyed on (po, spo, the maskset of sets open in both structures). A
    pair lists those sets in tau_1's open order, which is canonical order,
    so both reads of a row list them alike."""
    bt = bispace_tables(n)

    def faults(key):
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

    openbits = bt.top.openbits
    column = zip(bt.po, bt.spo, [i & j for i in openbits for j in openbits])
    return _row_check(bt, column, faults, "")


def _check_thm_3_5(n: int) -> tuple[int, list[str]]:
    """Each po or spo maskset is cut to each region y once: bit i of a cut
    is subset i of y. Row (t_i, t_j) fails at y if its cut has a bit that its
    traced row on y lacks, or, with y tau_i-open, differs from it at all."""
    kinds = (
        "preopen-restriction", "semipreopen-restriction",
        "preopen-converse", "semipreopen-converse",
    )
    bt = bispace_tables(n)
    tr = trace_tables(n)
    t_count = bt.top.count
    # the po and spo rows per carrier size as tuples: reading an array makes
    # a new int per 16-bit item, and each row is read 2^n - 1 times
    rows = {}
    for size in range(1, n + 1):
        sub_bt = bispace_tables(size)
        rows[size] = tuple(sub_bt.po), tuple(sub_bt.spo), sub_bt.pair_index
    po_rows, spo_rows, _ = rows[n]
    failing = []
    for y in range(1, 1 << n):
        inside = subsets_of(y)
        sub_po_rows, sub_spo_rows, sub_index = rows[y.bit_count()]
        cut = {
            bits: sum(1 << i for i, a in enumerate(inside) if (bits >> a) & 1)
            for bits in {*po_rows, *spo_rows}
        }
        for t_i, t_j, row, _ in pair_rows(t_count):
            sub_row = sub_index(tr[t_i][y][1], tr[t_j][y][1])
            # -1 if y is tau_i-open, else 0: masks the converse in or out
            y_open = -((bt.top.openbits[t_i] >> y) & 1)
            po, spo = cut[po_rows[row]], cut[spo_rows[row]]
            sub_po, sub_spo = sub_po_rows[sub_row], sub_spo_rows[sub_row]
            if (po ^ sub_po) & (po | y_open) or (spo ^ sub_spo) & (spo | y_open):
                lost = (
                    po & ~sub_po, spo & ~sub_spo,
                    sub_po & ~po & y_open, sub_spo & ~spo & y_open,
                )
                failing.append((t_i, t_j, y, 0, lost))
                failing.append((t_j, t_i, y, 1, lost))
    violations = []
    for t1, t2, y, direction, lost in sorted(failing):
        where = f"pair=({t1},{t2}) dir={_dir_name(direction)} Y={_ps(n, y)}"
        violations.extend(
            f"{kind} n={n} {where} A={_ps(n, a)}"
            for i, a in enumerate(subsets_of(y))
            for kind, bits in zip(kinds, lost)
            if (bits >> i) & 1
        )
    # each (pair, direction) reads each nonempty y over its 2^|y| subsets
    return 2 * t_count * t_count * (3 ** n - 1), violations


def _check_note_3_4(n: int) -> tuple[int, list[str]]:
    top = topology_tables(n)
    tr = trace_tables(n)
    violations = []
    for t in range(top.count):
        for y in range(1, 1 << n):
            sub_n, t_sub = tr[t][y]
            sub_cl = topology_tables(sub_n).cl[t_sub]
            # inside[i] is the subset of y relabelled to subset i of y
            inside = subsets_of(y)
            for a_sub, a in enumerate(inside):
                if inside[sub_cl[a_sub]] != top.cl[t][a] & y:
                    violations.append(
                        f"relative-closure n={n} t={t} Y={_ps(n, y)} A={_ps(n, a)}"
                    )
    # one check per topology, nonempty y and subset of y
    return top.count * (3 ** n - 1), violations


def _check_thm_3_6(n: int, semi: bool = False) -> tuple[int, list[str]]:
    """Keyed on the (semi)preopen maskset and the hull row: a wrong hull row
    beside a right maskset must still fault."""
    bt = bispace_tables(n)
    pcl, spcl = hull_tables(n)
    column = zip(bt.spo, spcl) if semi else zip(bt.po, pcl)
    return _row_check(bt, column, functools.partial(_hull_faults, n), " ")


def _hull_faults(n: int, key) -> tuple[int, list[tuple[str, str]]]:
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


def _check_remark_3_1(config) -> tuple[int, tuple, tuple[str]]:
    """Stops at the first witness, whose note names the bispace."""
    checked = 0
    for n in range(1, config.n + 1):
        bt = bispace_tables(n)
        for t1, t2, pair, swapped in pair_rows(bt.top.count):
            for direction, row in ((0, pair), (1, swapped)):
                po = bt.po[row]
                members = [a for a in range(1 << n) if (po >> a) & 1]
                for a, b in itertools.combinations(members, 2):
                    checked += 1
                    if not (po >> (a & b)) & 1:
                        return checked, (), (
                            f"witness: n={n} pair=({t1},{t2}) dir={_dir_name(direction)} "
                            f"A={_ps(n, a)} B={_ps(n, b)} intersection={_ps(n, a & b)} "
                            f"opens1={[_ps(n, o) for o in bt.top.opens[t1]]} "
                            f"opens2={[_ps(n, o) for o in bt.top.opens[t2]]}",
                        )
    return checked, (), ("no finite witness up to the configured carrier size",)


# ---------------------------------------------------------------------------
# Map-level suites
# ---------------------------------------------------------------------------
#
# A map suite checks all reads of one map at once with C-level map/any/sum
# over rows laid out by index columns; only a map whose check fires is walked
# read by read, in sweep order, by the check that writes violation lines.

def _gather(index: list[int]) -> Callable:
    """row -> tuple(row[i] for i in index), in one C-level call."""
    if len(index) == 1:
        return lambda row: (row[index[0]],)
    return operator.itemgetter(*index)


@functools.lru_cache(maxsize=None)
def _pair_columns(t_count: int) -> tuple[Callable, ...]:
    """Gathers into pair order (see pair_rows): a per-structure row at t1,
    at t2, and a per-pair row at the swapped pair, which (2,1) reads; they
    depend on t_count alone."""
    reads = list(pair_rows(t_count))
    return tuple(_gather([read[i] for read in reads]) for i in (0, 1, 3))


def _or_columns(columns) -> list[int]:
    """The entrywise OR of equal-length columns."""
    return list(functools.reduce(
        lambda acc, column: map(operator.or_, acc, column), columns
    ))


def _byte_row(values) -> int:
    """The int with values[i] < 256 in byte i."""
    return int.from_bytes(bytes(values), "little")


def _rect_column(topsets1, topsets2, t_count: int) -> list[int]:
    """Per pair of entries, the pairset {(s1, s2) : s1 in a, s2 in b}: b
    times a's binary digits joined by t_count - 1 zeros (bit s of a moved
    to s * t_count), with no carries, as b < 2^t_count."""
    topsets1 = list(topsets1)
    gap = "0" * (t_count - 1)
    spread = {a: int(gap.join(format(a, "b")), 2) for a in set(topsets1)}
    return list(map(operator.mul, map(spread.__getitem__, topsets1), topsets2))


def _keyed_reads(bt) -> tuple[list, Callable]:
    """The distinct (po, spo) rows of `bt`, and a gather laying a list over
    them out in pair order."""
    ids: dict[tuple[int, int], int] = {}
    key_of = [ids.setdefault(key, len(ids)) for key in zip(bt.po, bt.spo)]
    return list(ids), _gather(key_of)


def _reads_hit(rects, key, tables, keyed) -> bool:
    """Whether some (1,2) read's failing target pairs meet its rectangle: a
    (po, spo) row fails on tables[0][key[po]] | tables[1][key[spo]], once
    per distinct row. A (2,1) read of the row, at the swapped pair, is that
    read with source and target pairs transposed, so it fails alike."""
    rows, by_pair = keyed
    failing = by_pair([tables[0][key[po]] | tables[1][key[spo]] for po, spo in rows])
    return any(map(operator.and_, rects, failing))


def _bit_columns(rows, width: int) -> list[int]:
    """Per a < width, the int whose bit i is bit a of rows[i] < 2^width: the
    rows' digits laid end to end, reversed, read every width-th digit."""
    digits = "".join(map(f"{{:0{width}b}}".format, rows))[::-1]
    return [int(digits[a::width], 2) for a in range(width)]


def _has_pairsets(n: int) -> dict:
    """Per target size k up to the map sweeps' limit, per kind (preopen,
    semipreopen), direction and subset: the pairset of target bispaces where
    the subset is of that kind."""
    out = {}
    for k in range(1, _map_limit(n) + 1):
        bt = bispace_tables(k)
        swap = _pair_columns(bt.top.count)[2]
        out[k] = [
            [_bit_columns(rows, 1 << k) for rows in (table, swap(table))]
            for table in (bt.po, bt.spo)
        ]
    return out


def _check_thm_4_1(config) -> tuple[int, list[str], tuple]:
    """A read fails where the rectangle of target pairs into which the map
    is continuous and open meets the target pairs where the image of a
    member of the row is not (semi)preopen: for one map, an OR-table entry
    over the row's image maskset. A map whose column check fires walks its
    reads member by member."""
    violations = []
    checked = 0
    has = _has_pairsets(config.n)
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        bt_m = bispace_tables(m)
        t_k = topology_tables(k).count
        by_t1, by_t2, _ = _pair_columns(bt_m.top.count)
        keyed = _keyed_reads(bt_m)
        full_pairs = (1 << (t_k * t_k)) - 1
        # neg[direction][kind][V]: target pairs where some set in maskset V
        # is not preopen (kind 0) or not semipreopen (kind 1)
        neg = [
            [or_table([full_pairs ^ h for h in has_kind[d]]) for has_kind in has[k]]
            for d in (0, 1)
        ]
        members = [
            po.bit_count() + spo.bit_count() for po, spo in zip(bt_m.po, bt_m.spo)
        ]
        for f in range(len(mt.maps)):
            co = list(map(operator.and_, mt.cont[f], mt.openmap[f]))
            rects = _rect_column(by_t1(co), by_t2(co), t_k)
            # a rectangle is nonempty iff both topsets are, so the pairs with
            # one are closed under swapping and each counts both reads
            checked += 2 * sum(itertools.compress(members, rects))
            img_row = mt.img[f]
            images = or_table([1 << v for v in img_row])
            if not _reads_hit(rects, images, neg[0], keyed):
                continue
            for t1, t2, pair, swapped in pair_rows(bt_m.top.count):
                for direction, row in ((0, pair), (1, swapped)) if rects[pair] else ():
                    for a in range(1 << m):
                        for tag, bits, kind in (
                            ("preopen", bt_m.po[row], 0), ("semipreopen", bt_m.spo[row], 1)
                        ):
                            bad = rects[pair] & neg[direction][kind][1 << img_row[a]]
                            if (bits >> a) & 1 and bad:
                                s1, s2 = decode_pair(bad, t_k)
                                violations.append(
                                    f"{tag} m={m} k={k} f={mt.maps[f]} "
                                    f"X=({t1},{t2}) Y=({s1},{s2}) "
                                    f"dir={_dir_name(direction)} A={_ps(m, a)}"
                                )
    return checked, violations, ()


def _check_thm_4_2(config) -> tuple[int, list[str], tuple]:
    """A read fails where the rectangle of target pairs at which the map is
    precontinuous and open meets the target pairs where a set whose preimage
    is not in the row is (semi)preopen: for one map, an OR-table entry over
    the sets outside the row. Each read with a nonempty rectangle counts its
    2^k target sets."""
    violations = []
    checked = 0
    has = _has_pairsets(config.n)
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        bt_m = bispace_tables(m)
        t_k = topology_tables(k).count
        by_t1, by_t2, swap = _pair_columns(bt_m.top.count)
        keyed = _keyed_reads(bt_m)
        # escape[direction][kind][A]: target pairs where some set in A is
        # preopen (kind 0) or semipreopen (kind 1)
        escape = [[or_table(has_kind[d]) for has_kind in has[k]] for d in (0, 1)]
        every = (1 << (1 << k)) - 1
        for f in range(len(mt.maps)):
            pc_row = grids.pc[f]
            open_row = mt.openmap[f]
            rects = _rect_column(
                map(operator.and_, pc_row, by_t1(open_row)),
                map(operator.and_, swap(pc_row), by_t2(open_row)),
                t_k,
            )
            checked += (len(rects) - rects.count(0)) << (k + 1)
            # fibres[u]: the target sets whose preimage is u; outside[bits]:
            # those whose preimage is not in maskset bits
            fibres = [0] * (1 << m)
            for a, u in enumerate(mt.preim[f]):
                fibres[u] |= 1 << a
            outside = [every ^ inside for inside in or_table(fibres)]
            if not _reads_hit(rects, outside, escape[0], keyed):
                continue
            for t1, t2, pair, swapped in pair_rows(bt_m.top.count):
                for direction, row in ((0, pair), (1, swapped)) if rects[pair] else ():
                    for tag, bits, kind in (
                        ("preopen", bt_m.po[row], 0), ("semipreopen", bt_m.spo[row], 1)
                    ):
                        hit = rects[pair] & escape[direction][kind][outside[bits]]
                        if hit:
                            s1, s2 = decode_pair(hit, t_k)
                            violations.append(
                                f"{tag} m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                                f"Y=({s1},{s2}) dir={_dir_name(direction)}"
                            )
    return checked, violations, ()


def _check_thm_4_3(m: int, k: int, semi: bool = False) -> tuple[int, list[str]]:
    """rect_equal holds on equal sides, so only a map whose two grid rows
    differ is walked pair by pair."""
    mt = map_tables(m, k)
    grids = continuity_grids(m, k)
    t_m = bispace_tables(m).top.count
    lhs_grid = grids.spc if semi else grids.pc
    rhs_grid = closed_route_grid(m, k, semi)
    violations = []
    for f in range(len(mt.maps)):
        lhs = lhs_grid[f]
        rhs = rhs_grid[f]
        if lhs == rhs:
            continue
        for t1, t2, pair, swapped in pair_rows(t_m):
            l1, l2, r1, r2 = lhs[pair], lhs[swapped], rhs[pair], rhs[swapped]
            if not rect_equal(l1, l2, r1, r2):
                violations.append(
                    f"m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                    f"open-route={l1:x},{l2:x} closed-route={r1:x},{r2:x}"
                )
    return len(mt.maps) * t_m * t_m, violations


def _consequence_failures(m: int, k: int, semi: bool):
    """Where each (sp-)precontinuity consequence fails, per map and source
    bispace row.

    Returns ``(keys, failures)``. `keys[row]` numbers the distinct
    ``(around, hull)`` of the bispace rows, a row's (semi)preopen maskset and
    hull row: all the consequences read, so both reads of a row (see
    tables.pair_rows) fail alike. `failures` yields, per map in map order,
    three columns over the key numbers (44 keys for the 841 rows at m = 3):
    the topsets of witness-side target structures s where the neighborhood,
    image-hull and preimage-hull consequences fail. The neighborhood
    consequence asks every open neighborhood of f(x) to contain the image of
    a (semi)preopen neighborhood of x; the hull consequences are
    ``f(hull A) <= cl_s f(A)`` and ``hull f^-1(B) <= f^-1(cl_s B)``, tested
    as ``f(hull f^-1(B)) <= cl_s B``. Nothing outlives the call.
    """
    mt = map_tables(m, k)
    bt_m = bispace_tables(m)
    top_k = topology_tables(k)
    t_k = top_k.count
    # supersets[b]: maskset of the supersets of b; containing[p] is that
    # of the singleton {p}, and holding[x] that of {x} among source sets
    supersets = [row[-1] for row in interval_masksets(k)]
    containing = [supersets[1 << p] for p in range(k)]
    holding = [interval_masksets(m)[1 << x][-1] for x in range(m)]
    # meets[N]: topset of s with an open set in maskset N
    meets = or_table([
        sum(1 << s for s in range(t_k) if (top_k.openbits[s] >> v) & 1)
        for v in range(1 << k)
    ])
    # escapes[v][src]: topset of s where src escapes cl_s(v)
    escapes = [
        or_table([
            sum(1 << s for s in range(t_k) if not (top_k.cl[s][v] >> p) & 1)
            for p in range(k)
        ])
        for v in range(1 << k)
    ]
    pcl, spcl = hull_tables(m)
    rows = zip(bt_m.spo, spcl) if semi else zip(bt_m.po, pcl)
    ids: dict[tuple, int] = {}
    keys = [ids.setdefault(key, len(ids)) for key in rows]
    # held[x]: per key, its (semi)preopen sets holding x
    held = [[bits & holding[x] for bits, _ in ids] for x in range(m)]
    # hull_at[a]: per key, the hull of a
    hull_at = list(zip(*(hull for _, hull in ids)))

    def failures():
        for f in range(len(mt.maps)):
            img_row = mt.img[f]
            # missed[M]: the target sets holding no image of a set in M
            missed = [~r for r in or_table([supersets[v] for v in img_row])]
            bad_i = _or_columns(
                [meets[containing[y] & missed[sets]] for sets in held[x]]
                for x, y in enumerate(mt.maps[f])
            )
            # hull_images[a]: per key, the image of the hull of a
            hull_images = [list(map(img_row.__getitem__, hulls)) for hulls in hull_at]
            bad_ii = _or_columns(
                map(escapes[v].__getitem__, hull_images[a])
                for a, v in enumerate(img_row)
            )
            bad_iii = _or_columns(
                map(escapes[b].__getitem__, hull_images[u])
                for b, u in enumerate(mt.preim[f])
            )
            yield bad_i, bad_ii, bad_iii

    return keys, failures()


_CONSEQUENCES = ("neighborhood", "image-hull", "preimage-hull")


def _check_thm_4_4(
    m: int, k: int, semi: bool = False, converse: bool = False
) -> tuple[int, list[str]]:
    """The three (sp-)precontinuity consequences, or with `converse` their
    converses on finite models: a consequence that holds forces the
    continuity factor. A converse read is the direct one with the gate and
    the failure sets complemented, so both fault where the two meet. A map
    is walked only if its gate row meets its ORed failure sets."""
    mt = map_tables(m, k)
    grids = continuity_grids(m, k)
    gate_grid = grids.spc if semi else grids.pc
    flip = (1 << topology_tables(k).count) - 1 if converse else 0
    keys, failures = _consequence_failures(m, k, semi)
    by_row = _gather(keys)
    violations = []
    for f, bads in enumerate(failures):
        gates = map(operator.xor, gate_grid[f], itertools.repeat(flip))
        failed = _or_columns(
            map(operator.xor, bad, itertools.repeat(flip)) for bad in bads
        )
        if not any(map(operator.and_, gates, by_row(failed))):
            continue
        for t1, t2, pair, swapped in pair_rows(bispace_tables(m).top.count):
            for direction, row in ((0, pair), (1, swapped)):
                gate_i = gate_grid[f][row] ^ flip
                for tag, bad in zip(_CONSEQUENCES, bads):
                    hit = gate_i & (bad[keys[row]] ^ flip)
                    if hit:
                        s = (hit & -hit).bit_length() - 1
                        violations.append(
                            f"{tag} m={m} k={k} f={mt.maps[f]} X=({t1}, {t2}) "
                            f"dir={_dir_name(direction)} s_i={s}"
                        )
    # both reads of every source row, per map
    return 2 * len(keys) * len(mt.maps), violations


def _check_thm_4_5(config, semi: bool = False) -> tuple[int, list[str], tuple]:
    """At a source pair with both grid entries nonempty, each region open in
    both structures is checked: each entry must lie in the restricted map's
    entry at the traced pair. A (2,1) check is the (1,2) check of the
    swapped pair, so one column over every (pair, region) covers both.
    Restriction keeps (semi)precontinuity per direction, so that column
    check leaves out the gate; a map it flags is walked with it."""
    violations = []
    checked = 0
    limit = _map_limit(config.n)
    for m in range(1, limit + 1):
        tr = trace_tables(m)
        top_m = topology_tables(m)
        t_m = top_m.count
        pair_index = [None] + [bispace_tables(j).pair_index for j in range(1, m + 1)]
        # start[region]: where the region's restricted row begins when the
        # rows of regions 1, 2, ... are laid end to end
        start = [0]
        for region in range(1, 1 << m):
            start.append(start[-1] + topology_tables(region.bit_count()).count ** 2)
        # (pair, region, sub-pair, swapped sub-pair) for every nonempty
        # region open in both structures, in pair then tau_1's open order
        checks = []
        for t1, t2, pair, _ in pair_rows(t_m):
            for region in top_m.opens[t1]:
                if region and (top_m.openbits[t2] >> region) & 1:
                    (sub_m, t1s), (_, t2s) = tr[t1][region], tr[t2][region]
                    sub_index = pair_index[sub_m]
                    checks.append(
                        (pair, region, sub_index(t1s, t2s), sub_index(t2s, t1s))
                    )
        entries = _gather([check[0] for check in checks])
        sub_entries = _gather([start[check[1] - 1] + check[2] for check in checks])
        swap = _pair_columns(t_m)[2]
        for k in range(1, limit + 1):
            mt = map_tables(m, k)
            # per sub-size j: map tables and grid of the restrictions to j points
            subs = [None]
            for j in range(1, m + 1):
                grids_j = continuity_grids(j, k)
                subs.append((map_tables(j, k), grids_j.spc if semi else grids_j.pc))
            grid = subs[m][1]
            for f in range(len(mt.maps)):
                assign = mt.maps[f]
                row = grid[f]
                sub_rows = [()]
                for region in range(1, 1 << m):
                    sub_assign = tuple(assign[p] for p in range(m) if (region >> p) & 1)
                    mt_sub, grid_sub = subs[len(sub_assign)]
                    sub_rows.append(grid_sub[mt_sub.index[sub_assign]])
                # a product of topsets is nonzero iff both are
                gates = entries(list(map(operator.mul, row, swap(row))))
                checked += len(gates) - gates.count(0)
                inside = sub_entries(tuple(itertools.chain.from_iterable(sub_rows)))
                if not any(map(
                    operator.ne, map(operator.or_, entries(row), inside), inside
                )):
                    continue
                for pair, region, sub_pair, sub_swap in checks:
                    t1, t2 = divmod(pair, t_m)
                    g1 = row[pair]
                    g2 = row[t2 * t_m + t1]
                    sub_row = sub_rows[region]
                    if g1 and g2 and (g1 & ~sub_row[sub_pair] or g2 & ~sub_row[sub_swap]):
                        violations.append(
                            f"m={m} k={k} f={assign} X=({t1},{t2}) A={_ps(m, region)}"
                        )
    return checked, violations, ()


def _check_thm_4_6(m: int, k: int) -> tuple[int, list[str]]:
    """Where condition C holds at t_j for target s_i and the map is
    precontinuous at (t_i, t_j) into s_i, conv_m[t_i] must lie in
    `mapped(s_i)`, whose slot for a source net is the preimage of its image
    net's limit set. That depends on (t_i, s_i) alone, so per map and s_i
    the rows of all t_i that need it are ORed and tested once; a failing map
    walks (t_j, s_i, t_i) in order. Swapping both structure pairs swaps the
    directions, so checking (1,2) over all ordered pairs covers (2,1).

    net_catalog lists each directed set's valuations in product order, so an
    image net's index is its directed set's first index plus its valuation's
    rank. Every k-th binary digit of conv_k[s_i] from y marks the target
    nets converging to y; gathered by image net, they are every m-th digit
    from x of `mapped(s_i)`, for f(x) = y."""
    violations = []
    checked = 0
    mt = map_tables(m, k)
    grids = continuity_grids(m, k)
    top_m = topology_tables(m)
    top_k = topology_tables(k)
    t_m = top_m.count
    conv_m = convergence_bits(m)
    nets_m = net_catalog(m)
    by_t2 = _pair_columns(t_m)[1]
    # per directed set, in catalog order: its size and first index into k
    first: dict[int, tuple[int, int]] = {}
    for i, (d_idx, values) in enumerate(net_catalog(k)):
        first.setdefault(d_idx, (len(values), i))
    width = len(net_catalog(k)) * k
    digits = [format(bits, "b").zfill(width)[::-1] for bits in convergence_bits(k)]
    limits = [[row[y::k].encode() for y in range(k)] for row in digits]
    cond_of: dict[int, int] = {}
    for f in range(len(mt.maps)):
        assign = mt.maps[f]
        preim_row = mt.preim[f]
        img_row = mt.img[f]
        pc_row = grids.pc[f]
        ranks = {
            z: list(map(sum, itertools.product(
                *([y * k ** (z - 1 - i) for y in assign] for i in range(z))
            )))
            for z in {z for z, _ in first.values()}
        }
        image_of = _gather(list(itertools.chain.from_iterable(
            map(operator.add, ranks[z], itertools.repeat(base))
            for z, base in first.values()
        )))

        def mapped(s_i):
            slots = bytearray(len(nets_m) * m)
            for x, y in enumerate(assign):
                slots[x::m] = image_of(limits[s_i][y])
            return int(slots[::-1], 2)

        # per t_j, the target sets v equal to the image of cl_j of their
        # preimage, and the targets whose opens are all such sets
        fixed = [
            sum(1 << v for v, u in enumerate(preim_row) if img_row[cl_j[u]] == v)
            for cl_j in top_m.cl
        ]
        for bits in set(fixed).difference(cond_of):
            cond_of[bits] = sum(
                1 << s for s, opens in enumerate(top_k.openbits) if opens & ~bits == 0
            )
        cond_c = list(map(cond_of.__getitem__, fixed))
        gated = list(map(operator.and_, pc_row, by_t2(cond_c)))
        checked += sum(map(int.bit_count, gated))
        need: dict[int, int] = {}
        for t_i in range(t_m):
            into = functools.reduce(operator.or_, gated[t_i * t_m:(t_i + 1) * t_m])
            for s_i in bit_indices(into):
                need[s_i] = need.get(s_i, 0) | conv_m[t_i]
        if not any(rows & ~mapped(s_i) for s_i, rows in need.items()):
            continue
        for t_j in range(t_m):
            for s_i in bit_indices(cond_c[t_j]):
                mc = mapped(s_i)
                for t_i in range(t_m):
                    escape = conv_m[t_i] & ~mc
                    if (pc_row[t_i * t_m + t_j] >> s_i) & 1 and escape:
                        idx = (escape & -escape).bit_length() - 1
                        violations.append(
                            f"m={m} k={k} f={assign} t_i={t_i} t_j={t_j} "
                            f"s_i={s_i} net={nets_m[idx // m]} x={idx % m}"
                        )
    return checked, violations


def _check_note_4_1(m: int, k: int) -> tuple[int, list[str]]:
    """f(cl_t A) <= cl_s f(A) for every set A and every s into which f is
    continuous from t. With both sides laid out one byte per A, each t is
    one big-int test against the AND of the right sides of all those s;
    only a map where a test fails is walked."""
    violations = []
    checked = 0
    mt = map_tables(m, k)
    top_m = topology_tables(m)
    top_k = topology_tables(k)
    for f in range(len(mt.maps)):
        img_row = mt.img[f]
        cont_row = mt.cont[f]
        checked += sum(map(int.bit_count, cont_row)) << m
        # one byte per set A: cl_s(f(A)) per s, and f(cl_t(A)) per t
        right = [_byte_row(map(cl_s.__getitem__, img_row)) for cl_s in top_k.cl]
        left = [_byte_row(map(img_row.__getitem__, cl_t)) for cl_t in top_m.cl]
        # outside[c]: per A, the points outside cl_s(f(A)) for some s in c
        outside = {
            c: ~functools.reduce(operator.and_, map(right.__getitem__, bit_indices(c)), -1)
            for c in set(cont_row)
        }
        if not any(map(operator.and_, left, map(outside.get, cont_row))):
            continue
        for t in range(top_m.count):
            cl_t = top_m.cl[t]
            for s in bit_indices(cont_row[t]):
                cl_s = top_k.cl[s]
                for a in range(1 << m):
                    if img_row[cl_t[a]] & ~cl_s[img_row[a]]:
                        violations.append(
                            f"m={m} k={k} f={mt.maps[f]} t={t} s={s} A={_ps(m, a)}"
                        )
    return checked, violations


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


def _continuity_levels(mt, grids, f: int, columns) -> list[tuple]:
    """Per source pair, in pair order: for each level in _LEVELS order, the
    target topsets (direction (1,2), direction (2,1)) where map f is
    continuous, semi-, pre- or sp-continuous, flattened into one tuple;
    `columns` are _pair_columns of the source size."""
    by_t1, by_t2, swap = columns
    cont, sc, pc, spc = mt.cont[f], grids.sc[f], grids.pc[f], grids.spc[f]
    return list(zip(
        by_t1(cont), by_t2(cont), sc, swap(sc), pc, swap(pc), spc, swap(spc)
    ))


def _check_hierarchy(config) -> tuple[int, list[str], list[str]]:
    """Per direction, continuity gives semi- and precontinuity, and each of
    those gives sp-continuity, so one column test per map checks cont <= sc
    & pc and sc | pc <= spc at every (1,2) read (a (2,1) read is that of the
    swapped pair). It leaves out the edges' gate, so a map it flags is
    walked pair by pair with the edges' own test."""
    violations = []
    checked = 0
    for m, k in _map_size_combos(config.n):
        mt = map_tables(m, k)
        grids = continuity_grids(m, k)
        t_m = bispace_tables(m).top.count
        columns = _pair_columns(t_m)
        checked += len(mt.maps) * t_m * t_m
        for f in range(len(mt.maps)):
            sc, pc, spc = grids.sc[f], grids.pc[f], grids.spc[f]
            both = list(map(operator.and_, sc, pc))
            joined = map(operator.or_, map(operator.or_, sc, pc), spc)
            if not (
                any(map(operator.ne, map(operator.or_, columns[0](mt.cont[f]), both), both))
                or any(map(operator.ne, joined, spc))
            ):
                continue
            for pair, levels in enumerate(_continuity_levels(mt, grids, f, columns)):
                for _, label, low, high in _EDGE_SLOTS:
                    l1 = levels[low]
                    l2 = levels[low + 1]
                    if l1 and l2 and (l1 & ~levels[high] or l2 & ~levels[high + 1]):
                        t1, t2 = divmod(pair, t_m)
                        violations.append(
                            f"{label} m={m} k={k} f={mt.maps[f]} X=({t1},{t2})"
                        )
    notes = []
    for gap, witness in find_hierarchy_witnesses(_map_limit(config.n)).items():
        if witness is None:
            notes.append(f"{gap}: no finite witness up to the configured size")
        else:
            notes.append(
                f"{gap}: map {witness['map']} between {witness['source_size']}- "
                f"and {witness['target_size']}-point carriers "
                f"(structures {witness['tau1']}/{witness['tau2']} -> "
                f"{witness['sigma1']}/{witness['sigma2']})"
            )
    return checked, violations, notes


def find_hierarchy_witnesses(
    max_size: int = MAX_EXHAUSTIVE_MAP_CARRIER,
) -> dict[str, Optional[dict]]:
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
        columns = _pair_columns(t_m)
        for f in range(len(mt.maps)):
            for pair, levels in enumerate(_continuity_levels(mt, grids, f, columns)):
                for name, _, low, high in _EDGE_SLOTS:
                    if found[name]:
                        continue
                    # first (s1, s2) inside the high rectangle and outside
                    # the low one, s1 then s2 ascending
                    for s1 in bit_indices(levels[high]):
                        cand = levels[high + 1]
                        if (levels[low] >> s1) & 1:
                            cand &= ~levels[low + 1]
                        if cand:
                            found[name] = witness(
                                m, k, mt.maps[f], *divmod(pair, t_m), s1,
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

def _check_sampled_maps(config) -> tuple[int, list[str], tuple[str]]:
    rng = random.Random(config.seed)
    forms = _space_forms(4)
    spaces = [FiniteSpace(4, [PointSet(4, m) for m in f]) for f in forms]
    violations = []
    for _ in range(SAMPLE_SIZE):
        k = rng.choice((1, 2, 3, 4))
        src1, src2 = rng.choice(spaces), rng.choice(spaces)
        tgt_forms = _space_forms(k)
        tgt_pick = lambda: FiniteSpace(
            k, [PointSet(k, m) for m in rng.choice(tgt_forms)]
        )
        bx = props.Bispace(src1, src2)
        by = props.Bispace(tgt_pick(), tgt_pick())
        f = maps_mod.FiniteMap(4, k, tuple(rng.randrange(k) for _ in range(4)))
        cont = maps_mod.is_pairwise_continuous(f, bx, by)
        pre = maps_mod.is_pairwise_precontinuous(f, bx, by)
        semi = maps_mod.is_pairwise_semi_continuous(f, bx, by)
        sp = maps_mod.is_pairwise_sp_continuous(f, bx, by)
        if cont and not (semi and pre):
            violations.append(f"hierarchy f={f} on sampled 4-point model")
        if (semi or pre) and not sp:
            violations.append(f"hierarchy-sp f={f} on sampled 4-point model")
        if pre != maps_mod.closed_preimages_preclosed(f, bx, by):
            violations.append(f"closed-characterization f={f} on sampled model")
    return SAMPLE_SIZE, violations, (f"seed={config.seed} samples={SAMPLE_SIZE}",)


# ---------------------------------------------------------------------------
# The suite table and its driver
# ---------------------------------------------------------------------------
#
# The carrier-size budget: a set-level check runs once per carrier size
# 1..n, and a map check once per (source, target) size pair up to
# _map_limit(n) points. At n = 4 the map suites add a seeded sampled sweep
# of 4-point-source maps through the reference predicates (exhaustive
# 4-point map grids would be astronomically wasteful).

def _carrier_sizes(n: int) -> list[tuple[int]]:
    return [(size,) for size in range(1, n + 1)]


def _map_limit(n: int) -> int:
    """The largest carrier the exhaustive map sweeps reach under budget n."""
    return min(n, MAX_EXHAUSTIVE_MAP_CARRIER)


def _map_carrier_sizes(n: int) -> list[tuple[int]]:
    return _carrier_sizes(_map_limit(n))


def _map_size_combos(n: int) -> list[tuple[int, int]]:
    limit = _map_limit(n)
    return [(m, k) for m in range(1, limit + 1) for k in range(1, limit + 1)]


@dataclass(frozen=True)
class Suite:
    """A suite's name, its check, the claim the check tests, and the cached
    tables the check reads.

    `check` runs once per argument tuple of `sweep(n)` and returns
    ``(checked, violations)``; the suite's count is their sum and its
    violations their concatenation, in sweep order. With no sweep, `check`
    takes the whole configuration and returns ``(checked, violations,
    notes)`` itself.

    `tables` holds ``(builder, sizes)`` pairs: calling each builder once per
    argument tuple of `sizes(n)` builds the cached tables the check reads
    at budget n and nothing more, so the driver can build them before it
    hands suites to worker processes. A check that stops early leaves out
    the tables it may not reach.
    """

    name: str
    check: Callable
    claim: str
    tables: tuple[tuple[Callable, Callable[[int], list[tuple]]], ...]
    sweep: Optional[Callable[[int], list[tuple]]] = _carrier_sizes

    def __call__(self, config: SuiteConfig) -> SuiteResult:
        start = time.perf_counter()
        if self.sweep is None:
            checked, violations, notes = self.check(config)
        else:
            checked, violations, notes = 0, [], ()
            for args in self.sweep(config.n):
                part_checked, part_violations = self.check(*args)
                checked += part_checked
                violations += part_violations
        return SuiteResult(
            self.name, self.claim, checked, tuple(violations), tuple(notes),
            (time.perf_counter() - start) * 1000.0,
        )


def _table(*suites: Suite) -> dict[str, Suite]:
    return {suite.name: suite for suite in suites}


_TOPOLOGIES = ((topology_tables, _carrier_sizes),)
_BISPACES = ((bispace_tables, _carrier_sizes),)
_GRIDS = ((continuity_grids, _map_size_combos),)
_HULLS = ((hull_tables, _carrier_sizes),)
_MAP_HULLS = ((hull_tables, _map_carrier_sizes),)

SET_SUITES = _table(
    Suite("closure-laws", _check_closure_laws,
          "closure is expansive, idempotent, additive, empty-fixing, equals "
          "set-plus-limit-points, and is dual to interior", _TOPOLOGIES),
    Suite("lemma-3.1", _check_lemma_3_1,
          "closure(A) & B sits inside closure(A & B) for open B", _TOPOLOGIES),
    Suite("C1-iff-C2", _check_c1_iff_c2,
          "the squeezed-open condition and the interior-of-closure condition "
          "agree on every finite (hence topological) model", _BISPACES),
    Suite("open-implies-preopen", _check_open_implies_preopen,
          "open sets are preopen and semiopen; preopen and semiopen sets are "
          "semipreopen", _BISPACES),
    Suite("thm-3.1", _check_thm_3_1,
          "a preopen squeeze below the closure forces preopenness; a "
          "semipreopen core with covering closure forces semipreopenness",
          _BISPACES),
    Suite("thm-3.2", _check_thm_3_2,
          "preopen sets land in the interior of every closed superset, and on "
          "finite models that interior condition conversely forces preopenness",
          _BISPACES),
    Suite("thm-3.3", _check_thm_3_3,
          "finite unions of (semi)preopen sets stay (semi)preopen (the "
          "pointwise witness-union mechanism behind countable unions)",
          _BISPACES),
    Suite("thm-3.4", _check_thm_3_4,
          "intersecting a (semi)preopen set with a set open in both "
          "structures keeps it (semi)preopen", _BISPACES),
    Suite("thm-3.5", _check_thm_3_5,
          "(semi)preopenness passes to every subspace containing the set, and "
          "comes back when the subspace carrier is open in the witness-side "
          "structure", _BISPACES + ((trace_tables, _carrier_sizes),)),
    Suite("note-3.4", _check_note_3_4,
          "subspace closure is the ambient closure cut down to the subspace",
          ((trace_tables, _carrier_sizes),)),
    Suite("thm-3.6", _check_thm_3_6,
          "preclosure membership is meeting every preopen neighborhood, and "
          "the hull is monotone", _HULLS),
    Suite("thm-3.7", functools.partial(_check_thm_3_6, semi=True),
          "semipreclosure membership is meeting every semipreopen "
          "neighborhood, and the hull is monotone", _HULLS),
    # reads bispace tables only up to its first witness
    Suite("remark-3.1", _check_remark_3_1,
          "search for two preopen sets whose intersection is not preopen "
          "(expected to exist; recorded as a fixture, never a violation)", (), None),
)

MAP_SUITES = _table(
    Suite("thm-4.1", _check_thm_4_1,
          "continuous open maps push (semi)preopen sets forward to "
          "(semi)preopen images",
          ((map_tables, _map_size_combos), (bispace_tables, _map_carrier_sizes)), None),
    Suite("thm-4.2", _check_thm_4_2,
          "precontinuous open maps pull (semi)preopen sets back to "
          "(semi)preopen preimages", _GRIDS, None),
    Suite("thm-4.3", _check_thm_4_3,
          "precontinuity via open preimages coincides with the closed-preimage "
          "characterization; the closed route repeats the open one "
          "(f^-1(Y - V) = X - f^-1(V)), so this identity check catches "
          "corrupted grids", _GRIDS, _map_size_combos),
    Suite("thm-4.4", _check_thm_4_4,
          "precontinuous maps: witness neighborhoods map into open "
          "neighborhoods, and preclosure bounds transfer through images and "
          "preimages", _GRIDS + _MAP_HULLS, _map_size_combos),
    Suite("thm-4.5", _check_thm_4_5,
          "precontinuity survives restriction to a region open in both source "
          "structures", _GRIDS + ((trace_tables, _map_carrier_sizes),), None),
    Suite("thm-4.6", _check_thm_4_6,
          "under one-direction precontinuity plus the closure-image identity, "
          "convergent nets push forward to convergent image nets (all nets on "
          "directed sets of up to 3 elements)",
          _GRIDS + ((convergence_bits, _map_carrier_sizes),), _map_size_combos),
    Suite("note-4.1", _check_note_4_1,
          "continuous maps between single structures preserve closures into "
          "closures (the converse failure is pinned by catalog entry ex-4.1)",
          ((map_tables, _map_size_combos),), _map_size_combos),
    Suite("note-4.2", functools.partial(_check_thm_4_4, converse=True),
          "on finite models, where both structures are full topologies, each "
          "precontinuity consequence conversely forces the continuity factor",
          _GRIDS + _MAP_HULLS, _map_size_combos),
    Suite("thm-5.1", functools.partial(_check_thm_4_3, semi=True),
          "sp-continuity via open preimages coincides with the closed-preimage "
          "characterization; the closed route repeats the open one "
          "(f^-1(Y - V) = X - f^-1(V)), so this identity check catches "
          "corrupted grids", _GRIDS, _map_size_combos),
    Suite("thm-5.2", functools.partial(_check_thm_4_4, semi=True),
          "sp-continuous maps: witness neighborhoods map into open "
          "neighborhoods, and semipreclosure bounds transfer through images "
          "and preimages", _GRIDS + _MAP_HULLS, _map_size_combos),
    Suite("thm-5.3", functools.partial(_check_thm_4_5, semi=True),
          "sp-continuity survives restriction to a region open in both source "
          "structures", _GRIDS + ((trace_tables, _map_carrier_sizes),), None),
    Suite("hierarchy", _check_hierarchy,
          "continuity implies semi- and pre-continuity; both imply "
          "sp-continuity, on every enumerated map and bispace pair; "
          "strictness witnesses recorded per gap", _GRIDS, None),
)

ALL_SUITES = {**SET_SUITES, **MAP_SUITES}

# runs only at n = 4, and draws target carriers of 1..4 points
_SAMPLED_MAPS = Suite(
    "sampled-maps-n4", _check_sampled_maps,
    "seeded sampled sweep of 4-point-source maps through the reference "
    "predicates (hierarchy and closed-preimage characterization)",
    ((_space_forms, _carrier_sizes),), None,
)


@dataclass(frozen=True)
class SuiteConfig:
    """Which suites to run and how far to enumerate: carrier sizes up to n,
    under the budget above. A seed is required exactly when the sampled
    sweep would run."""

    n: int = 3
    which: tuple[str, ...] = ("all",)
    seed: Optional[int] = None

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
            raise ValueError("a seed applies only when a map suite runs at n = 4")

    def names(self) -> tuple[str, ...]:
        if "all" in self.which:
            return tuple(ALL_SUITES)
        return tuple(dict.fromkeys(self.which))  # first mention of each name

    @property
    def sampled(self) -> bool:
        return self.n >= 4 and any(name in MAP_SUITES for name in self.names())

    def suites(self) -> list[Suite]:
        """The suites to run, in output order."""
        suites = [ALL_SUITES[name] for name in self.names()]
        return suites + [_SAMPLED_MAPS] if self.sampled else suites


def _build_tables(config: SuiteConfig) -> None:
    """Build every cached table the configured suites read, each once."""
    calls = dict.fromkeys(
        (builder, args)
        for suite in config.suites()
        for builder, sizes in suite.tables
        for args in sizes(config.n)
    )
    for builder, args in calls:
        builder(*args)


def run_theorem_suite(config: SuiteConfig) -> list[SuiteResult]:
    """Run the configured suites; deterministic result order.

    The suites share only read-only cached tables, so those are built
    first, and then every CPU this process may use takes suites until none
    is left: this process on the first, a forked worker on each other. The
    results are merged in suite order, so the output does not depend on
    which process ran which suite.
    """
    suites = config.suites()
    _build_tables(config)
    return _run_forked(suites, config, _worker_count(len(suites)) - 1)


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------
#
# Suite indices wait in one pipe, one byte each, written before the first
# fork; a one-byte read is atomic, so each process takes the next free
# suite. They are written last suite first, because the longest suites sit
# late in the table (at n = 4, thm-3.5 and the sampled sweep), and a long
# suite that starts last leaves the other processes idle while it runs. A
# worker sends its SuiteResult fields through its own pipe, in marshal
# form, once the task pipe is empty or a suite raised, and leaves by
# os._exit, so it never returns into its parent's frames and writes
# nothing to stdout or stderr.

def _worker_count(suite_count: int) -> int:
    """How many processes run suites, this one included: one per CPU this
    process may use, at most one per suite, and only this one where it
    cannot fork safely (no os.fork, or other threads running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, suite_count))


def _take(tasks: int):
    """The suite indices this process takes from the task pipe, until it is
    empty."""
    while index := os.read(tasks, 1):
        yield index[0]


def _work(suites: list[Suite], config: SuiteConfig, tasks: int, out: int) -> None:
    """A forked worker: run the suites it takes, then send ``(index,
    fields)`` per suite through `out`, or ``(index, traceback)`` for a suite
    that raised, after which it takes no more; never returns."""
    status = 1
    try:
        done = []
        for index in _take(tasks):
            try:
                fields = dataclasses.astuple(suites[index](config))
            except Exception:
                import traceback

                done.append((index, traceback.format_exc()))
                break
            done.append((index, fields))
        with open(out, "wb") as pipe:
            pipe.write(marshal.dumps(done))
        status = 0
    finally:
        os._exit(status)


def _run_forked(
    suites: list[Suite], config: SuiteConfig, workers: int
) -> list[SuiteResult]:
    """Run `suites` here and in `workers` forked processes; every worker is
    reaped before this returns or raises."""
    results: list[Optional[SuiteResult]] = [None] * len(suites)
    tasks, queue = os.pipe()
    os.write(queue, bytes(reversed(range(len(suites)))))
    os.close(queue)
    pipes: dict[int, int] = {}  # worker pid -> read end of its result pipe
    try:
        for _ in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(suites, config, tasks, write)
            os.close(write)
            pipes[pid] = read
        for index in _take(tasks):
            results[index] = suites[index](config)
        for pid, read in pipes.items():
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            for index, fields in marshal.loads(data) if data else ():
                if isinstance(fields, str):
                    raise RuntimeError(
                        f"suite {suites[index].name} raised in worker process "
                        f"{pid}:\n{fields}"
                    )
                results[index] = SuiteResult(*fields)
    except BaseException:
        import signal  # here, not at the top: its enums slow every start-up

        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for read in pipes.values():
            os.close(read)
        for pid in pipes:
            os.waitpid(pid, 0)
    lost = [suite.name for suite, result in zip(suites, results) if result is None]
    if lost:
        raise RuntimeError(f"a worker process died before sending suites {lost}")
    return results
