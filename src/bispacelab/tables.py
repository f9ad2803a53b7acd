"""Precomputed bitmask tables for the exhaustive theorem suites.

Notation: on an n-point carrier subsets are masks 0..2^n-1. A set-of-subsets
is an int with bit A set ("maskset"). A set of topology indices is an int
with bit s set ("topset"); a set of bispace pairs (s1,s2) over T topologies
is an int with bit s1*T+s2 set ("pairset"). Rectangle products of topsets
expand into pairsets, which turns every per-(map, source-bispace) question
over all target bispaces into a handful of big-int operations.

The bispace tables are built packed across tau_2: a maskset per tau_2 sits in
a slot of 2^n bits (at least 8) of one big int, slot t2 holding pair (t1, t2),
so one OR per tau_1-open computes a row for every t2 at once. The rows keep
that slot layout: each is a view of the packed ints' bytes, one machine
word per pair. The preclosure and semipreclosure hull rows are
a table of their own, `hull_tables`, built from those masksets.

Everything here recomputes the reference predicates in flat form; the test
suite asserts agreement with the reference implementations, so the tables
never replace the direct route, they only drive the bulk sweeps.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .finite import _space_forms, bit_indices, least_open_tables, or_table
from .maps import enumerate_directed_sets


def rect_equal(a1: int, a2: int, b1: int, b2: int) -> bool:
    a_empty = a1 == 0 or a2 == 0
    b_empty = b1 == 0 or b2 == 0
    if a_empty or b_empty:
        return a_empty and b_empty
    return a1 == b1 and a2 == b2


def decode_pair(pairset: int, t_count: int) -> tuple[int, int]:
    idx = (pairset & -pairset).bit_length() - 1
    return idx // t_count, idx % t_count


@dataclass(frozen=True)
class TopologyTables:
    n: int
    full: int
    opens: tuple[tuple[int, ...], ...]       # per topology, canonical mask tuple
    openbits: tuple[int, ...]                # per topology, maskset of opens
    cl: tuple[tuple[int, ...], ...]          # per (topology, subset) closure mask
    intr: tuple[tuple[int, ...], ...]        # per (topology, subset) interior mask
    index: dict                              # openbits -> topology index

    @property
    def count(self) -> int:
        return len(self.opens)


@lru_cache(maxsize=None)
def topology_tables(n: int) -> TopologyTables:
    """Per topology on n points, in enumeration order: its opens, their
    maskset, and the closure rows of least_open_tables with the interior
    rows as their duals, int(a) = X - cl(X - a)."""
    forms = _space_forms(n)
    full = (1 << n) - 1
    openbits = tuple(sum(1 << m for m in masks) for masks in forms)
    cl = tuple(least_open_tables(n, masks)[1] for masks in forms)
    return TopologyTables(
        n,
        full,
        forms,
        openbits,
        cl,
        tuple(tuple(full ^ c for c in reversed(row)) for row in cl),
        {bits: i for i, bits in enumerate(openbits)},
    )


@dataclass(frozen=True)
class BispaceTables:
    """Per-(t1,t2) predicate masksets; direction 0 is (1,2), 1 is (2,1).

    Pair index is t1 * count + t2; direction 1 masks at (t1,t2) equal
    direction 0 masks at (t2,t1), so only direction 0 is materialized and
    `pair_rows` names the row each direction of a pair reads.

    Every row is a definitional search: "some tau_1-open set lies between",
    taken over the opens of t1 and run bit-parallel over masksets; no row is
    derived from another one (po is not read off wpo, nor spo off po). Per
    tau_2 and subset o the build keeps
      P(o)      = {a : a <= o <= cl_2(a)}, the sets o squeezes,
      around(o) = {s : o <= s <= cl_2(o)},
      Q(o)      = OR of around(a) over a in P(o),
      fibre(c)  = {a : cl_2(a) = c},
    so po, so and spo at (t1, t2) are the ORs of P, around and Q over the
    tau_1-opens, and wpo is the OR over c of fibre(c) & {a : a <= int_1(c)}.
    Each of these masksets sits in one int with a slot per t2 (see
    `_slot_width`), so one OR per tau_1-open serves every t2 at once, and
    the po/wpo/so/spo rows are views of bytes with one slot-wide item per
    pair: every caller shares the cached rows, and none can write them.
    """

    top: TopologyTables
    po: memoryview                            # maskset of (1,2)-preopen subsets
    wpo: memoryview                           # weakly (1,2)-preopen
    so: memoryview                            # (1,2)-semiopen
    spo: memoryview                           # (1,2)-semipreopen

    def pair_index(self, t1: int, t2: int) -> int:
        return t1 * self.top.count + t2


def pair_rows(t_count: int):
    """(t1, t2, pair, swapped) for every bispace pair over t_count
    topologies, t1 then t2 ascending: `pair` is the row direction (1,2)
    reads at (t1, t2), and `swapped`, the row of (t2, t1), is the one
    direction (2,1) reads."""
    for t1 in range(t_count):
        for t2 in range(t_count):
            yield t1, t2, t1 * t_count + t2, t2 * t_count + t1


def interval_masksets(n: int) -> list[list[int]]:
    """ivl[a][c] is the maskset {s : a <= s <= c} on an n-point carrier."""
    size = 1 << n
    sup = [sum(1 << s for s in range(size) if a & ~s == 0) for a in range(size)]
    sub = [sum(1 << s for s in range(size) if s & ~c == 0) for c in range(size)]
    return [[sup[a] & sub[c] for c in range(size)] for a in range(size)]


def _hull_row(bits: int, n: int) -> tuple[int, ...]:
    """Per subset a, the intersection of the supersets s of a whose
    complement is in maskset `bits` (the whole carrier when there is none).

    One superset-AND zeta pass: O(n 2^n) instead of the 4^n scan.
    """
    size = 1 << n
    full = size - 1
    row = [s if (bits >> (full ^ s)) & 1 else full for s in range(size)]
    for i in range(n):
        bit = 1 << i
        for a in range(size):
            if not a & bit:
                row[a] &= row[a | bit]
    return tuple(row)


# struct and array codes of unsigned slots by width (enumeration stops at 4
# points, so slots are 8 or 16 bits); slots are little-endian, by the "<"
# prefix in _pack_slots and a byteswap on big-endian hosts in _split_slots,
# so the slot layout does not depend on sys.byteorder
_SLOT_CODES = {8: "B", 16: "H"}


def _slot_width(n: int) -> int:
    """Bits per slot for masksets on an n-point carrier: 2^n, at least 8."""
    return max(1 << n, 8)


def _pack_slots(values, width: int) -> int:
    """The int with values[i] in bits width*i .. width*(i+1)-1."""
    code = _SLOT_CODES[width]
    return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")


def _split_slots(packed, width: int, count: int) -> memoryview:
    """The `count` slots of each int in `packed`, lowest first, one item of
    a view of immutable bytes per slot; inverts _pack_slots."""
    code = _SLOT_CODES[width]
    data = b"".join(bits.to_bytes(count * width // 8, "little") for bits in packed)
    if sys.byteorder == "big":
        rows = array(code, data)
        rows.byteswap()
        data = rows.tobytes()
    return memoryview(data).cast(code)


def rows_equal(a: memoryview, b: memoryview) -> bool:
    """Whether two bispace row views hold the same items. Each views a
    whole bytes object (see `_split_slots`), so this is one comparison in
    C, without a copy."""
    return a.obj == b.obj


@lru_cache(maxsize=None)
def bispace_tables(n: int) -> BispaceTables:
    top = topology_tables(n)
    t_count = top.count
    size = 1 << n
    width = _slot_width(n)
    ivl = interval_masksets(n)
    # per t2 and subset: P, around, Q and fibre (see BispaceTables)
    p_all, around_all, q_all, fibre_all = [], [], [], []
    for cl2 in top.cl:
        around = [ivl[x][cl2[x]] for x in range(size)]
        p = [0] * size
        q = [0] * size
        fibre = [0] * size
        for a in range(size):
            fibre[cl2[a]] |= 1 << a
            for o in bit_indices(around[a]):
                p[o] |= 1 << a
                q[o] |= around[a]
        p_all.append(p)
        around_all.append(around)
        q_all.append(q)
        fibre_all.append(fibre)
    # packed[o]: slot t2 holds the t2 maskset of subset o
    p_packed, around_packed, q_packed, fibre_packed = (
        [_pack_slots(column, width) for column in zip(*per_t2)]
        for per_t2 in (p_all, around_all, q_all, fibre_all)
    )
    # sub_spread[x]: {a : a <= x} in every slot (no carries: it is < 2^width)
    ones = _pack_slots([1] * t_count, width)
    sub_spread = [bits * ones for bits in ivl[0]]
    # per t1, the packed po, wpo, so and spo rows of every t2
    po, wpo, so, spo = [], [], [], []
    for t1 in range(t_count):
        int1 = top.intr[t1]
        po_packed = so_packed = spo_packed = wpo_packed = 0
        for o in top.opens[t1]:
            po_packed |= p_packed[o]
            so_packed |= around_packed[o]
            spo_packed |= q_packed[o]
        for c in range(size):
            wpo_packed |= fibre_packed[c] & sub_spread[int1[c]]
        po.append(po_packed)
        wpo.append(wpo_packed)
        so.append(so_packed)
        spo.append(spo_packed)
    po, wpo, so, spo = (
        _split_slots(rows, width, t_count) for rows in (po, wpo, so, spo)
    )
    return BispaceTables(top, po, wpo, so, spo)


@lru_cache(maxsize=None)
def hull_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(pcl, spcl): per pair of bispace_tables(n), the `_hull_row` of its po
    and of its spo maskset, the preclosure and semipreclosure of each subset.
    Each distinct maskset is hulled once (1,639 distinct rows over the
    126,025 pairs at n = 4)."""
    bt = bispace_tables(n)
    hulls = {bits: _hull_row(bits, n) for bits in {*bt.po, *bt.spo}}
    return tuple(map(hulls.__getitem__, bt.po)), tuple(map(hulls.__getitem__, bt.spo))


# ---------------------------------------------------------------------------
# Subspace (trace) tables
# ---------------------------------------------------------------------------

def subsets_of(y: int) -> list[int]:
    """The subsets of y in ascending order. Relabelling the points of y
    positionally (as finite.trace_space does) turns the i-th of them into
    subset i of the |y|-point carrier."""
    return [a for a in range(y + 1) if a & ~y == 0]


@lru_cache(maxsize=None)
def trace_tables(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """trace_tables(n)[t][y] = (|y|, traced topology index at size |y|).

    y ranges over nonempty subsets; points of y are relabelled positionally,
    matching finite.trace_space.
    """
    # bit of subset o & y in the traced topology's openbits
    bit = [{a: 1 << i for i, a in enumerate(subsets_of(y))} for y in range(1 << n)]
    out = []
    for opens in topology_tables(n).opens:
        row: list[tuple[int, int]] = [(0, -1)]  # y = 0 unused
        for y in range(1, 1 << n):
            traced = 0
            for o in opens:
                traced |= bit[y][o & y]
            row.append((y.bit_count(), topology_tables(y.bit_count()).index[traced]))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Map tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapTables:
    """Rows per map from m to k points, in `maps` order; the closed-set
    route to continuity is `closed_route_grid`."""

    m: int
    k: int
    maps: tuple[tuple[int, ...], ...]        # assignment tuples
    img: tuple[tuple[int, ...], ...]         # per map, source mask -> target mask
    preim: tuple[tuple[int, ...], ...]       # per map, target mask -> source mask
    cont: tuple[tuple[int, ...], ...]        # per map, per source topology: topset of s
    openmap: tuple[tuple[int, ...], ...]     # same for image-of-open openness
    pm: tuple[tuple[int, ...], ...]          # per map, per target topology: maskset of open preimages
    index: dict


@lru_cache(maxsize=None)
def map_tables(m: int, k: int) -> MapTables:
    top_m = topology_tables(m)
    top_k = topology_tables(k)
    maps = tuple(itertools.product(range(k), repeat=m))
    img_all, preim_all, cont_all, open_all, pm_all = [], [], [], [], []
    for assignment in maps:
        img_row = or_table([1 << y for y in assignment])
        # fibre v: the source points sent to v
        preim_row = or_table(
            [sum(1 << p for p, y in enumerate(assignment) if y == v) for v in range(k)]
        )
        # distinct preimages of the opens of each target topology, as masksets
        pm_masks = []
        for s in range(top_k.count):
            bits = 0
            for v_open in top_k.opens[s]:
                bits |= 1 << preim_row[v_open]
            pm_masks.append(bits)
        im_masks = []
        for t in range(top_m.count):
            bits = 0
            for u in top_m.opens[t]:
                bits |= 1 << img_row[u]
            im_masks.append(bits)
        open_row = []
        for t in range(top_m.count):
            o_bits = 0
            for s in range(top_k.count):
                if im_masks[t] & ~top_k.openbits[s] == 0:
                    o_bits |= 1 << s
            open_row.append(o_bits)
        img_all.append(tuple(img_row))
        preim_all.append(tuple(preim_row))
        cont_all.append(_covered_targets(pm_masks, top_m.openbits))
        open_all.append(tuple(open_row))
        pm_all.append(tuple(pm_masks))
    return MapTables(
        m,
        k,
        maps,
        tuple(img_all),
        tuple(preim_all),
        tuple(cont_all),
        tuple(open_all),
        tuple(pm_all),
        {a: i for i, a in enumerate(maps)},
    )


@dataclass(frozen=True)
class ContinuityGrids:
    """Per-(map, source pair) topsets of target topologies, by hierarchy level.

    pc[f][pair]: s such that preimages of s-opens are (1,2)-preopen in pair;
    the (2,1) direction at (t1,t2) is pc at the swapped pair. sc and spc are
    the semiopen / semipreopen analogues. The closed-set route to pc and spc
    is `closed_route_grid`, which only thm-4.3 and thm-5.1 read.
    """

    pc: tuple[tuple[int, ...], ...]
    sc: tuple[tuple[int, ...], ...]
    spc: tuple[tuple[int, ...], ...]


def _covered_targets(preimages: tuple[int, ...], rows: tuple[int, ...]):
    """Per row, the topset of targets s with preimages[s] inside that row.

    Targets that share a preimage maskset are tested together, and each
    distinct row value is tested once.
    """
    groups: dict[int, int] = {}
    for s, bits in enumerate(preimages):
        groups[bits] = groups.get(bits, 0) | 1 << s
    covered = {}
    for row in set(rows):
        topset = 0
        for bits, targets in groups.items():
            if bits & ~row == 0:
                topset |= targets
        covered[row] = topset
    return tuple(map(covered.__getitem__, rows))


@lru_cache(maxsize=None)
def continuity_grids(m: int, k: int) -> ContinuityGrids:
    """Grids for every map from m to k points; see ContinuityGrids.

    Each grid reads one row of the source pair (pc reads po, sc reads so,
    spc reads spo) against the map's preimage masksets, so each is computed
    by _covered_targets once per distinct value of that row.
    """
    mt = map_tables(m, k)
    bt = bispace_tables(m)
    pc_all, sc_all, spc_all = [], [], []
    for pm in mt.pm:
        pc_all.append(_covered_targets(pm, bt.po))
        sc_all.append(_covered_targets(pm, bt.so))
        spc_all.append(_covered_targets(pm, bt.spo))
    return ContinuityGrids(tuple(pc_all), tuple(sc_all), tuple(spc_all))


def closed_route_grid(m: int, k: int, semi: bool) -> tuple[tuple[int, ...], ...]:
    """pc (semi: spc) of continuity_grids(m, k) by closed sets: per map and
    source pair, the targets s whose closed sets Y - V all have preclosed
    (semipreclosed) preimages, X - f^-1(Y - V) being preopen (semipreopen).

    As f^-1(Y - V) = X - f^-1(V), it equals the open route, so thm-4.3 and
    thm-5.1 fault only on a corrupted grid: it reads this module's own
    tables, which a fault patched into the suites' tables leaves true."""
    mt = map_tables(m, k)
    top_k = topology_tables(k)
    bt = bispace_tables(m)
    full_m = bt.top.full
    grid = []
    for preim_row in mt.preim:
        closed = []
        for opens in top_k.opens:
            bits = 0
            for v_open in opens:
                bits |= 1 << (full_m ^ preim_row[top_k.full ^ v_open])
            closed.append(bits)
        grid.append(_covered_targets(closed, bt.spo if semi else bt.po))
    return tuple(grid)


# ---------------------------------------------------------------------------
# Net convergence tables
# ---------------------------------------------------------------------------

# nets run over the directed sets of up to this many elements
MAX_DIRECTED = 3


@lru_cache(maxsize=None)
def net_catalog(size: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All (directed-set index, valuation) nets into a `size`-point carrier."""
    dsets = enumerate_directed_sets(MAX_DIRECTED)
    out = []
    for d_idx, d in enumerate(dsets):
        for values in itertools.product(range(size), repeat=d.size):
            out.append((d_idx, values))
    return tuple(out)


@lru_cache(maxsize=None)
def convergence_bits(size: int) -> tuple[int, ...]:
    """Per topology on `size` points: bits over (net index, limit point).

    Bit net_idx * size + x is set iff the net is eventually inside every
    open around x.

    A net is eventually inside u iff one of its tails, the value masks
    OR(1 << values[b] for b above a), is a subset of u. So a net's limit
    points depend only on its minimal tails, and nets that share that set
    share one limit-point mask per topology. Each group's nets are spread
    into the row by one multiplication: the group's pattern has bit
    net_idx * size per net, and multiplying by a mask below 2^size copies
    the mask into each net's slot without carries.
    """
    top = topology_tables(size)
    dsets = enumerate_directed_sets(MAX_DIRECTED)
    full = (1 << size) - 1
    patterns: dict[tuple[int, ...], int] = {}
    for n_idx, (d_idx, values) in enumerate(net_catalog(size)):
        d = dsets[d_idx]
        tails = set()
        for a in range(d.size):
            tail = 0
            for b in d.above(a):
                tail |= 1 << values[b]
            tails.add(tail)
        minimal = tuple(sorted(
            t for t in tails if not any(o != t and o & ~t == 0 for o in tails)
        ))
        patterns[minimal] = patterns.get(minimal, 0) | 1 << (n_idx * size)
    out = []
    for t in range(top.count):
        bits = 0
        for minimal, pattern in patterns.items():
            # points with an open neighbourhood that contains no tail
            escaped = 0
            for u in top.opens[t]:
                if all(tail & ~u for tail in minimal):
                    escaped |= u
            bits |= pattern * (full & ~escaped)
        out.append(bits)
    return tuple(out)
