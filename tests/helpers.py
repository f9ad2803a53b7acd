"""Shared generators and cross-backend comparison drivers for the tests."""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import random
from array import array
from unittest import mock

from bispacelab import suites
from bispacelab.finite import FiniteSpace, PointSet, _canonical_opens
from bispacelab.props import (
    Bispace,
    is_ij_preopen,
    is_ij_semiopen,
    is_ij_semipreopen,
    is_ij_weakly_preopen,
    is_preopen,
    is_weakly_preopen,
    pcl,
    spcl,
)
from bispacelab.symbolic import (
    AtomUniverse,
    Cardinality,
    SchematicFamily,
    SymSet,
    countable,
    materialize_finite,
    singleton,
    uncountable,
)
from bispacelab.maps import enumerate_directed_sets
from bispacelab.tables import (
    BispaceTables,
    TopologyTables,
    _hull_row,
    bispace_tables,
    decode_pair,
    interval_masksets,
    map_tables,
    net_catalog,
    pair_rows,
    rect_equal,
    topology_tables,
)


def rect(topset1: int, topset2: int, t_count: int) -> int:
    """Pairset {(s1,s2) : s1 in topset1, s2 in topset2}; the reference
    for suites._rect_column."""
    out = 0
    m1 = topset1
    while m1:
        low = m1 & -m1
        s1 = low.bit_length() - 1
        out |= topset2 << (s1 * t_count)
        m1 ^= low
    return out


def random_singleton_universe(rng: random.Random) -> AtomUniverse:
    k = rng.randint(3, 5)
    return AtomUniverse([singleton(f"a{i}") for i in range(k)])


def random_mixed_universe(rng: random.Random) -> AtomUniverse:
    k = rng.randint(3, 5)
    makers = (singleton, countable, uncountable)
    return AtomUniverse([rng.choice(makers)(f"a{i}") for i in range(k)])


def random_family(rng: random.Random, universe: AtomUniverse) -> SchematicFamily:
    region_ids = []
    mandatory_ids = []
    for atom in universe.atoms:
        roll = rng.random()
        if roll < 0.45:
            region_ids.append(atom.id)
        elif roll < 0.6 and atom.cardinality is Cardinality.SINGLETON:
            mandatory_ids.append(atom.id)
    return SchematicFamily(
        universe, universe.subset(*region_ids), universe.subset(*mandatory_ids)
    )


def mirror(universe: AtomUniverse, s: SymSet) -> PointSet:
    return PointSet.of(
        len(universe), (universe.position(i) for i in s.atom_ids())
    )


def reflect(universe: AtomUniverse, p: PointSet) -> SymSet:
    return universe.subset(*(universe.atoms[i].id for i in p))


def compare_singleton_universe(seed: int) -> int:
    """Symbolic closed forms vs explicit finite model; returns checks made."""
    rng = random.Random(seed)
    u = random_singleton_universe(rng)
    fam1 = random_family(rng, u)
    fam2 = random_family(rng, u)
    fin1 = materialize_finite(fam1)
    fin2 = materialize_finite(fam2)
    sym_bi = Bispace(fam1, fam2)
    fin_bi = Bispace(fin1, fin2)
    checks = 0
    for s in u.algebra_sets():
        m = mirror(u, s)
        for fam, fin in ((fam1, fin1), (fam2, fin2)):
            assert fam.is_open(s) == fin.is_open(m)
            assert mirror(u, fam.closure(s)) == fin.closure(m)
            assert mirror(u, fam.interior(s)) == fin.interior(m)
            sym_w = fam.open_between(s, fam.closure(s))
            fin_w = fin.open_between(m, fin.closure(m))
            assert (sym_w is None) == (fin_w is None)
            if sym_w is not None:
                assert fam.is_open(sym_w)
                assert s.issubset(sym_w) and sym_w.issubset(fam.closure(s))
            assert is_preopen(fam, s).holds == is_preopen(fin, m).holds
            assert is_weakly_preopen(fam, s) == is_weakly_preopen(fin, m)
            checks += 6
        for pair in ((1, 2), (2, 1)):
            assert (
                is_ij_preopen(sym_bi, pair, s).holds
                == is_ij_preopen(fin_bi, pair, m).holds
            )
            assert is_ij_weakly_preopen(sym_bi, pair, s) == is_ij_weakly_preopen(
                fin_bi, pair, m
            )
            assert is_ij_semiopen(sym_bi, pair, s) == is_ij_semiopen(fin_bi, pair, m)
            assert (
                is_ij_semipreopen(sym_bi, pair, s).holds
                == is_ij_semipreopen(fin_bi, pair, m).holds
            )
            assert mirror(u, pcl(sym_bi, pair, s)) == pcl(fin_bi, pair, m)
            assert mirror(u, spcl(sym_bi, pair, s)) == spcl(fin_bi, pair, m)
            checks += 6
    return checks


def trace_semiopen_oracle(fam_i: SchematicFamily, fam_j: SchematicFamily, a: SymSet) -> bool:
    """Decide semiopenness by enumerating member traces, independently of the
    closed form: some member O inside `a` whose j-closure covers `a`."""
    if a.is_empty or a.is_whole:
        return True
    p_j, r_j = fam_j.mandatory, fam_j.region
    need = a & r_j
    for tr in fam_i.open_traces():
        if tr.touched.is_empty:
            continue  # empty members close to empty
        if not tr.touched.issubset(a):
            continue  # X lands here, as a is not X
        if not tr.touched.disjoint(p_j):
            return True
        if (a & p_j).is_empty and need.issubset(tr.inside):
            return True
    return False


def finite_semiopen_search(sp_i: FiniteSpace, sp_j: FiniteSpace, a: PointSet) -> bool:
    """Decide semiopenness by scanning every sp_i-open O for O <= a <=
    closure_j(O); the oracle for FiniteSpace.semiopen_under's closed form."""
    for o in sp_i.opens:
        if o.issubset(a) and a.issubset(sp_j.closure(o)):
            return True
    return False


def scan_closure(n: int, opens, a: int) -> int:
    """Intersection of the closed supersets of mask `a`: the complement of
    the union of the opens missing it. The scan FiniteSpace.closure and the
    topology_tables cl rows are checked against."""
    removed = 0
    for o in opens:
        if o & a == 0:
            removed |= o
    return ((1 << n) - 1) & ~removed


def scan_interior(opens, a: int) -> int:
    """Union of the open subsets of mask `a`."""
    inside = 0
    for o in opens:
        if o & ~a == 0:
            inside |= o
    return inside


def scan_limit_points(n: int, opens, a: int) -> int:
    """Points whose every open neighbourhood meets `a` somewhere else."""
    out = 0
    for x in range(n):
        bit = 1 << x
        punctured = a & ~bit
        if all(o & punctured for o in opens if o & bit):
            out |= bit
    return out


def scan_open_between(n: int, opens, a: int, b: int):
    """The first open U, in canonical order, with a <= U <= b, or None."""
    for u in _canonical_opens(n, set(opens)):
        if a & ~u == 0 and u & ~b == 0:
            return u
    return None


def scan_axiom_violation(n: int, masks):
    """(axiom, witnesses, message) of the first open-set axiom a family of
    masks fails, or None for a topology: the empty and whole sets, then
    union and intersection over every pair in numeric mask order. The
    reference for FiniteSpace's validation through least open sets."""
    masks = set(masks)
    if 0 not in masks:
        return "empty-set-open", (), "the empty set must be open"
    if (1 << n) - 1 not in masks:
        return "whole-set-open", (), "the whole carrier must be open"
    for a, b in itertools.combinations(sorted(masks), 2):
        pa, pb = PointSet(n, a), PointSet(n, b)
        if a | b not in masks:
            return "union-closed", (pa, pb), f"union of {pa} and {pb} is missing"
        if a & b not in masks:
            return (
                "intersection-closed",
                (pa, pb),
                f"intersection of {pa} and {pb} is missing",
            )
    return None


def random_preorder_space(rng: random.Random, n: int) -> FiniteSpace:
    """The topology of up-sets of a seeded random preorder on n points, for
    carriers past the enumeration limit; sparse preorders give many opens."""
    density = rng.uniform(0.2, 1.5) / n
    up = [1 << x for x in range(n)]
    for x, y in itertools.permutations(range(n), 2):
        if rng.random() < density:
            up[x] |= 1 << y
    for k in range(n):  # transitive closure, Warshall order
        for x in range(n):
            if (up[x] >> k) & 1:
                up[x] |= up[k]
    opens = [
        m for m in range(1 << n)
        if all(up[x] & ~m == 0 for x in range(n) if (m >> x) & 1)
    ]
    return FiniteSpace(n, [PointSet(n, m) for m in opens])


def forall_closed_supersets_interior_covers(
    fam_j: SchematicFamily, fam_i: SchematicFamily, a: SymSet
) -> bool:
    """Does every fam_j-closed superset G of `a` satisfy a <= interior_i(G)?

    The closed form that props.closed_supersets_interior's open-trace loop
    is checked against on schematic families. Closed sets are complements
    of members; G contains `a` iff the member avoids `a`. interior_i(G) is
    (R_i & G) | P_i when P_i <= G (else empty), so the cover test per
    closed trace needs only: G whole, P_i avoided by the member, and
    a - P_i inside R_i.
    """
    if a.is_empty:
        return True
    p_i = fam_i.mandatory
    core_in_region = (a - p_i).issubset(fam_i.region)
    for u in fam_j.open_traces():
        if not u.touched.disjoint(a):
            continue  # G = X - U does not contain a
        if u.touched.is_empty:
            continue  # G = X, interior is X
        if not u.touched.disjoint(p_i):
            return False  # P_i escapes G: interior_i(G) is empty
        if not core_in_region:
            return False
    return True


def reference_space_forms(n: int) -> tuple[tuple[int, ...], ...]:
    """All open families on n points, by scanning every candidate family.

    Candidates are every choice of proper nonempty subsets joined with the
    empty and whole set; a candidate survives iff closed under pairwise
    union and intersection. 2^(2^n - 2) candidates, so n <= 4. Sorted as
    finite._space_forms sorts. The oracle for finite._space_forms and
    enumerate_spaces.
    """
    full = (1 << n) - 1
    middle = list(range(1, full))
    valid: list[tuple[int, ...]] = []
    for chosen in range(1 << len(middle)):
        fam = {0, full}
        pick = chosen
        while pick:
            low = pick & -pick
            fam.add(middle[low.bit_length() - 1])
            pick ^= low
        ok = True
        members = sorted(fam)
        for a, b in itertools.combinations(members, 2):
            if a | b not in fam or a & b not in fam:
                ok = False
                break
        if ok:
            valid.append(_canonical_opens(n, fam))

    def family_key(masks: tuple[int, ...]) -> tuple:
        return (len(masks), tuple(PointSet(n, m).canonical_key() for m in masks))

    valid.sort(key=family_key)
    return tuple(valid)


def reference_bispace_rows(top: TopologyTables, t1: int, t2: int):
    """Brute-force (po, wpo, so, spo, pcl, spcl) rows of one bispace pair.

    Per-subset searches straight from the definitions: po/so scan the opens,
    spo scans every candidate witness and pcl/spcl intersect the preclosed
    (semipreclosed) supersets, 4^n steps. The oracle for bispace_tables.
    """
    size = 1 << top.n
    full = top.full
    opens1 = top.opens[t1]
    cl2 = top.cl[t2]
    int1 = top.intr[t1]
    po_bits = 0
    wpo_bits = 0
    so_bits = 0
    for a in range(size):
        target = cl2[a]
        if any(a & ~u == 0 and u & ~target == 0 for u in opens1):
            po_bits |= 1 << a
        if a & ~int1[cl2[a]] == 0:
            wpo_bits |= 1 << a
        if any(o & ~a == 0 and a & ~cl2[o] == 0 for o in opens1):
            so_bits |= 1 << a
    spo_bits = 0
    for a in range(size):
        for u in range(size):
            if u & ~a == 0 and (po_bits >> u) & 1 and a & ~cl2[u] == 0:
                spo_bits |= 1 << a
                break
    pcl_row = []
    spcl_row = []
    for a in range(size):
        acc_p = full
        acc_sp = full
        for s in range(size):
            if a & ~s == 0:
                comp = full ^ s
                if (po_bits >> comp) & 1:
                    acc_p &= s
                if (spo_bits >> comp) & 1:
                    acc_sp &= s
        pcl_row.append(acc_p)
        spcl_row.append(acc_sp)
    return po_bits, wpo_bits, so_bits, spo_bits, tuple(pcl_row), tuple(spcl_row)


def reference_bispace_tables(n: int):
    """bispace_tables(n) and the (pcl, spcl) rows of hull_tables(n), built
    pair by pair: per (t1, t2), po/wpo/spo scan the subsets and so the
    tau_1-opens against interval masksets. The oracle for the build packed
    across tau_2 and for the hull rows shared by maskset."""
    top = topology_tables(n)
    t_count = top.count
    size = 1 << n
    ivl = interval_masksets(n)
    # around[t2][x]: maskset of the sets between x and cl_2(x)
    around_all = [[ivl[x][cl2[x]] for x in range(size)] for cl2 in top.cl]
    # a hull row depends only on its maskset, and many pairs share one
    # (1,639 distinct rows over the 126,025 pairs at n = 4)
    hulls: dict[int, tuple[int, ...]] = {}
    po, wpo, so, spo = [], [], [], []
    pcl_rows, spcl_rows = [], []
    for t1 in range(t_count):
        openbits1 = top.openbits[t1]
        opens1 = top.opens[t1]
        int1 = top.intr[t1]
        for t2 in range(t_count):
            cl2 = top.cl[t2]
            around = around_all[t2]
            # po: some tau_1-open set lies between a and cl_2(a);
            # spo: a lies between some preopen u and cl_2(u)
            po_bits = wpo_bits = spo_bits = 0
            for a in range(size):
                if openbits1 & around[a]:
                    po_bits |= 1 << a
                    spo_bits |= around[a]
                # wpo: a inside int_1(cl_2(a))
                if a & ~int1[cl2[a]] == 0:
                    wpo_bits |= 1 << a
            # so: a lies between some tau_1-open o and cl_2(o)
            so_bits = 0
            for o in opens1:
                so_bits |= around[o]
            for bits in (po_bits, spo_bits):
                if bits not in hulls:
                    hulls[bits] = _hull_row(bits, n)
            po.append(po_bits)
            wpo.append(wpo_bits)
            so.append(so_bits)
            spo.append(spo_bits)
            pcl_rows.append(hulls[po_bits])
            spcl_rows.append(hulls[spo_bits])
    bt = BispaceTables(top, tuple(po), tuple(wpo), tuple(so), tuple(spo))
    return bt, (tuple(pcl_rows), tuple(spcl_rows))


def reference_continuity_grids(m: int, k: int):
    """Per-pair (pc, sc, spc) grids, one loop over every source pair per
    map. The oracle for tables.continuity_grids."""
    mt = map_tables(m, k)
    bt = bispace_tables(m)
    s_count = topology_tables(k).count
    pair_count = bt.top.count ** 2
    pc_all, sc_all, spc_all = [], [], []
    for f in range(len(mt.maps)):
        pm = mt.pm[f]
        pc_rows, sc_rows, spc_rows = [], [], []
        for pair in range(pair_count):
            not_po = ~bt.po[pair]
            not_so = ~bt.so[pair]
            not_spo = ~bt.spo[pair]
            pc_bits = sc_bits = spc_bits = 0
            for s in range(s_count):
                bits = pm[s]
                if bits & not_po == 0:
                    pc_bits |= 1 << s
                if bits & not_so == 0:
                    sc_bits |= 1 << s
                if bits & not_spo == 0:
                    spc_bits |= 1 << s
            pc_rows.append(pc_bits)
            sc_rows.append(sc_bits)
            spc_rows.append(spc_bits)
        pc_all.append(tuple(pc_rows))
        sc_all.append(tuple(sc_rows))
        spc_all.append(tuple(spc_rows))
    return tuple(pc_all), tuple(sc_all), tuple(spc_all)


def reference_closed_route_grid(m: int, k: int, semi: bool):
    """Per map and source pair, the targets s such that X - f^-1(Y - V) is
    in the pair's po (semi: spo) maskset for every s-open V, tested open by
    open from the preimage rows, once per distinct maskset of a map. It
    reads the tables module's own builders, which no fault patched into the
    suites module reaches. The oracle for tables.closed_route_grid."""
    mt = map_tables(m, k)
    bt = bispace_tables(m)
    top_k = topology_tables(k)
    rows = bt.spo if semi else bt.po
    grid = []
    for preim_row in mt.preim:
        # complements of the preimages of the closed sets of each target
        closed_preimages = [
            [bt.top.full ^ preim_row[top_k.full ^ v] for v in opens]
            for opens in top_k.opens
        ]
        seen: dict[int, int] = {}
        for bits in set(rows):
            seen[bits] = sum(
                1 << s
                for s, sets in enumerate(closed_preimages)
                if all((bits >> u) & 1 for u in sets)
            )
        grid.append(tuple(seen[bits] for bits in rows))
    return tuple(grid)


def reference_convergence_bits(size: int) -> tuple[int, ...]:
    """Per topology, bit net_idx * size + x set iff the net is eventually
    inside every open around x; checked net by net and open by open. The
    oracle for tables.convergence_bits."""
    top = topology_tables(size)
    dsets = enumerate_directed_sets(3)
    nets = net_catalog(size)
    out = []
    for t in range(top.count):
        opens = top.opens[t]
        bits = 0
        for n_idx, (d_idx, values) in enumerate(nets):
            d = dsets[d_idx]
            above = [d.above(a) for a in range(d.size)]
            for x in range(size):
                ok = True
                for u in opens:
                    if not (u >> x) & 1:
                        continue
                    if not any(
                        all((u >> values[b]) & 1 for b in above[a])
                        for a in range(d.size)
                    ):
                        ok = False
                        break
                if ok:
                    bits |= 1 << (n_idx * size + x)
        out.append(bits)
    return tuple(out)


def consequence_stream(m: int, k: int, semi: bool):
    """suites._consequence_failures as one ``(f, t1, t2, direction, row,
    (bad_i, bad_ii, bad_iii))`` per read, in (f, t1, t2, direction)
    order."""
    keys, failures = suites._consequence_failures(m, k, semi)
    for f, columns in enumerate(failures):
        for t1, t2, pair, swapped in pair_rows(topology_tables(m).count):
            for direction, row in ((0, pair), (1, swapped)):
                bads = tuple(column[keys[row]] for column in columns)
                yield f, t1, t2, direction, row, bads


def reference_consequence_failures(m: int, k: int, semi: bool):
    """Per (map, source pair, direction), the row read and the topsets where
    the neighborhood, image-hull and preimage-hull consequences fail,
    recomputed for every row. The oracle for suites._consequence_failures."""
    mt = map_tables(m, k)
    bt_m = bispace_tables(m)
    top_k = topology_tables(k)
    t_m = bt_m.top.count
    t_k = top_k.count
    # supersets[b]: maskset of the supersets of b; containing[p] is that
    # of the singleton {p}
    supersets = [row[-1] for row in interval_masksets(k)]
    containing = [supersets[1 << p] for p in range(k)]
    around_table = bt_m.spo if semi else bt_m.po
    hull_table = [_hull_row(bits, m) for bits in around_table]
    for f in range(len(mt.maps)):
        img_row = mt.img[f]
        preim_row = mt.preim[f]
        assign = mt.maps[f]
        # not-subset rows: for each set and candidate hull image (preimage),
        # the topset of s where the candidate escapes cl_s(img a)
        # (f^-1(cl_s b)); lifted out of the pair loop, which only indexes them
        notsub_cl = [
            [
                sum(
                    1 << s
                    for s in range(t_k)
                    if src & ~top_k.cl[s][img_row[a]]
                )
                for src in range(1 << k)
            ]
            for a in range(1 << m)
        ]
        notsub_pre = [
            [
                sum(
                    1 << s
                    for s in range(t_k)
                    if lhs & ~preim_row[top_k.cl[s][b]]
                )
                for lhs in range(1 << m)
            ]
            for b in range(1 << k)
        ]
        for t1, t2 in itertools.product(range(t_m), repeat=2):
            for direction, row in (
                (0, bt_m.pair_index(t1, t2)), (1, bt_m.pair_index(t2, t1))
            ):
                around = around_table[row]
                hull = hull_table[row]
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
                for b in range(1 << k):
                    bad_iii |= notsub_pre[b][hull[preim_row[b]]]
                yield f, t1, t2, direction, row, (bad_i, bad_ii, bad_iii)


# ---------------------------------------------------------------------------
# Reference map suites: one loop per (map, source pair, read)
# ---------------------------------------------------------------------------
#
# The oracle for suites.MAP_SUITES, which test each map by columns first:
# every read of every map is checked in sweep order, with per-map memos only.
# They read every table through the suites module's own names, so a
# mock.patch of suites.bispace_tables, hull_tables, continuity_grids or
# map_tables reaches them as it reaches the suites. The closed route of
# thm-4.3 and thm-5.1 is the exception: like tables.closed_route_grid, it
# reads the true tables.

def _ref_has_pairsets(n: int) -> dict:
    out = {}
    for k in range(1, min(n, suites.MAX_EXHAUSTIVE_MAP_CARRIER) + 1):
        bt = suites.bispace_tables(k)
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


def _ref_thm_4_1(n: int):
    violations = []
    checked = 0
    has = _ref_has_pairsets(n)
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        bt_m = suites.bispace_tables(m)
        po_table, spo_table = bt_m.po, bt_m.spo
        t_m = bt_m.top.count
        t_k = suites.topology_tables(k).count
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
                        po_sum = po_seen[(po, direction)] = _ref_member_summary(
                            po, img_row, po_neg
                        )
                    spo_sum = spo_seen.get((spo, direction))
                    if spo_sum is None:
                        spo_sum = spo_seen[(spo, direction)] = _ref_member_summary(
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
                                    f"dir={suites._dir_name(direction)} "
                                    f"A={suites._ps(m, a)}"
                                )
                        if (spo >> a) & 1:
                            bad = r & spo_neg[img_row[a]]
                            if bad:
                                s1, s2 = decode_pair(bad, t_k)
                                violations.append(
                                    f"semipreopen m={m} k={k} f={mt.maps[f]} "
                                    f"X=({t1},{t2}) Y=({s1},{s2}) "
                                    f"dir={suites._dir_name(direction)} "
                                    f"A={suites._ps(m, a)}"
                                )
    return checked, violations


def _ref_member_summary(bits: int, img_row, neg) -> tuple[int, int]:
    count = 0
    fail = 0
    rem = bits
    while rem:
        low = rem & -rem
        rem ^= low
        count += 1
        fail |= neg[img_row[low.bit_length() - 1]]
    return count, fail


def _ref_thm_4_2(n: int):
    violations = []
    checked = 0
    has = _ref_has_pairsets(n)
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        grids = suites.continuity_grids(m, k)
        bt_m = suites.bispace_tables(m)
        po_table, spo_table = bt_m.po, bt_m.spo
        t_m = bt_m.top.count
        t_k = suites.topology_tables(k).count
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
                        bad_po = po_seen[(po_x, direction)] = _ref_escape_pairs(
                            po_x, preim_row, has_po[direction]
                        )
                    bad_spo = spo_seen.get((spo_x, direction))
                    if bad_spo is None:
                        bad_spo = spo_seen[(spo_x, direction)] = _ref_escape_pairs(
                            spo_x, preim_row, has_spo[direction]
                        )
                    hit = r & bad_po
                    if hit:
                        s1, s2 = decode_pair(hit, t_k)
                        violations.append(
                            f"preopen m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                            f"Y=({s1},{s2}) dir={suites._dir_name(direction)}"
                        )
                    hit = r & bad_spo
                    if hit:
                        s1, s2 = decode_pair(hit, t_k)
                        violations.append(
                            f"semipreopen m={m} k={k} f={mt.maps[f]} X=({t1},{t2}) "
                            f"Y=({s1},{s2}) dir={suites._dir_name(direction)}"
                        )
    return checked, violations


def _ref_escape_pairs(bits: int, preim_row, has) -> int:
    bad = 0
    for a, pre in enumerate(preim_row):
        if not (bits >> pre) & 1:
            bad |= has[a]
    return bad


def _ref_thm_4_3(n: int, semi: bool = False):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        grids = suites.continuity_grids(m, k)
        t_m = suites.bispace_tables(m).top.count
        lhs_grid = grids.spc if semi else grids.pc
        rhs_grid = reference_closed_route_grid(m, k, semi)
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
    return checked, violations


def _ref_consequence_failures(m: int, k: int, semi: bool):
    mt = suites.map_tables(m, k)
    bt_m = suites.bispace_tables(m)
    top_k = suites.topology_tables(k)
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
    hull_table = suites.hull_tables(m)[semi]
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


def _ref_thm_4_4(n: int, semi: bool = False, converse: bool = False):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        grids = suites.continuity_grids(m, k)
        gate_grid = grids.spc if semi else grids.pc
        flip = (1 << suites.topology_tables(k).count) - 1 if converse else 0
        for f, t1, t2, direction, row, bads in _ref_consequence_failures(m, k, semi):
            checked += 1
            gate_i = gate_grid[f][row] ^ flip
            if not gate_i & ((bads[0] ^ flip) | (bads[1] ^ flip) | (bads[2] ^ flip)):
                continue
            for tag, bad in zip(("neighborhood", "image-hull", "preimage-hull"), bads):
                hit = gate_i & (bad ^ flip)
                if hit:
                    s = (hit & -hit).bit_length() - 1
                    violations.append(
                        f"{tag} m={m} k={k} f={mt.maps[f]} "
                        f"X=({t1}, {t2}) "
                        f"dir={suites._dir_name(direction)} s_i={s}"
                    )
    return checked, violations


def _ref_thm_4_5(n: int, semi: bool = False):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        bt_m = suites.bispace_tables(m)
        tr = suites.trace_tables(m)
        t_m = bt_m.top.count
        opens = bt_m.top.opens
        openbits = bt_m.top.openbits
        # per sub-size j: map tables, grid and bispace pair index of the
        # restrictions to j points
        subs = [None]
        for j in range(1, m + 1):
            grids_j = suites.continuity_grids(j, k)
            subs.append((
                suites.map_tables(j, k),
                grids_j.spc if semi else grids_j.pc,
                suites.bispace_tables(j).pair_index,
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
                            f"A={suites._ps(m, region)}"
                        )
    return checked, violations


def _ref_thm_4_6(n: int):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        grids = suites.continuity_grids(m, k)
        top_m = suites.topology_tables(m)
        top_k = suites.topology_tables(k)
        t_m = top_m.count
        t_k = top_k.count
        full_k = top_k.full
        conv_m = suites.convergence_bits(m)
        conv_k = suites.convergence_bits(k)
        nets_m = suites.net_catalog(m)
        nets_k_index = {net: i for i, net in enumerate(suites.net_catalog(k))}
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
    return checked, violations


def _ref_note_4_1(n: int):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        top_m = suites.topology_tables(m)
        top_k = suites.topology_tables(k)
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
                                f"m={m} k={k} f={mt.maps[f]} t={t} s={s} "
                                f"A={suites._ps(m, a)}"
                            )
    return checked, violations


def _ref_continuity_levels(mt, grids, f: int, t_m: int) -> list[tuple]:
    """Per source pair (t1, t2), in pair order: for each level in
    _REF_LEVELS order, the target topsets (direction (1,2), direction (2,1))
    where map f is continuous, semi-, pre- or sp-continuous, flattened into
    one tuple."""
    cont, sc, pc, spc = mt.cont[f], grids.sc[f], grids.pc[f], grids.spc[f]
    return [
        (cont[t1], cont[t2], sc[p], sc[q], pc[p], pc[q], spc[p], spc[q])
        for t1, t2, p, q in pair_rows(t_m)
    ]


# the hierarchy's implications as (label, position of the level, position
# of the implied level) in a _ref_continuity_levels tuple, written here
# apart from the suite's own edge table
_REF_LEVELS = ("cont", "sc", "pc", "spc")
_REF_EDGES = tuple(
    (f"{low}=>{high}", 2 * _REF_LEVELS.index(low), 2 * _REF_LEVELS.index(high))
    for low, high in (("cont", "pc"), ("cont", "sc"), ("sc", "spc"), ("pc", "spc"))
)


def _ref_hierarchy(n: int):
    violations = []
    checked = 0
    for m, k in suites._map_size_combos(n):
        mt = suites.map_tables(m, k)
        grids = suites.continuity_grids(m, k)
        t_m = suites.bispace_tables(m).top.count
        for f in range(len(mt.maps)):
            checked += t_m * t_m
            for pair, levels in enumerate(_ref_continuity_levels(mt, grids, f, t_m)):
                for label, low, high in _REF_EDGES:
                    l1 = levels[low]
                    l2 = levels[low + 1]
                    if l1 and l2 and (l1 & ~levels[high] or l2 & ~levels[high + 1]):
                        t1, t2 = divmod(pair, t_m)
                        violations.append(
                            f"{label} m={m} k={k} f={mt.maps[f]} X=({t1},{t2})"
                        )
    return checked, violations


# ---------------------------------------------------------------------------
# Reference set-level sweeps: every subset, pair or row checked in turn
# ---------------------------------------------------------------------------
#
# The oracles for the set-level suites that decide a whole carrier size by
# whole-table tests first. Like the map references they read every table
# through the suites module's own names.

def reference_closure_laws(n: int) -> tuple[int, tuple[str, ...]]:
    """(checked, violations) of closure-laws at n, every law checked on
    every subset (pair of subsets) of every topology."""
    violations = []
    checked = 0
    for size in range(1, n + 1):
        top = suites.topology_tables(size)
        full = top.full
        for t in range(top.count):
            opens = top.opens[t]
            cl = top.cl[t]
            intr = top.intr[t]
            if cl[0] != 0:
                violations.append(f"closure-of-empty n={size} t={t}")
            for a in range(1 << size):
                checked += 1
                lp = 0
                for x in range(size):
                    bit = 1 << x
                    punctured = a & ~bit
                    if all(o & punctured for o in opens if o & bit):
                        lp |= bit
                for kind, fails in (
                    ("expansive", a & ~cl[a]),
                    ("idempotent", cl[cl[a]] != cl[a]),
                    ("interior-duality", intr[a] != full ^ cl[full ^ a]),
                    ("limit-point-law", cl[a] != a | lp),
                ):
                    if fails:
                        violations.append(
                            f"{kind} n={size} t={t} A={suites._ps(size, a)}"
                        )
            for a in range(1 << size):
                for b in range(1 << size):
                    checked += 1
                    for kind, fails in (
                        ("additive", cl[a | b] != cl[a] | cl[b]),
                        ("monotone", a & ~b == 0 and cl[a] & ~cl[b]),
                    ):
                        if fails:
                            violations.append(
                                f"{kind} n={size} t={t} A={suites._ps(size, a)} "
                                f"B={suites._ps(size, b)}"
                            )
    return checked, tuple(violations)


def reference_c1_iff_c2(n: int) -> tuple[int, tuple[str, ...]]:
    """(checked, violations) of C1-iff-C2 at n, every row compared in
    turn."""
    violations = []
    checked = 0
    for size in range(1, n + 1):
        bt = suites.bispace_tables(size)
        for t1, t2, pair, swapped in pair_rows(bt.top.count):
            for direction, row in ((0, pair), (1, swapped)):
                checked += 1 << size
                po = bt.po[row]
                wpo = bt.wpo[row]
                for kind, diff in (
                    ("squeeze-without-containment", po & ~wpo),
                    ("containment-without-squeeze", wpo & ~po),
                ):
                    if diff:
                        a = (diff & -diff).bit_length() - 1
                        violations.append(
                            f"{kind} n={size} pair=({t1}, {t2}) "
                            f"dir={suites._dir_name(direction)} A={suites._ps(size, a)}"
                        )
    return checked, tuple(violations)


def reference_open_implies_preopen(n: int) -> tuple[int, tuple[str, ...]]:
    """(checked, violations) of open-implies-preopen at n, every read of
    every row checked in turn."""
    violations = []
    checked = 0
    for size in range(1, n + 1):
        bt = suites.bispace_tables(size)
        for t1, t2, pair, swapped in pair_rows(bt.top.count):
            for row, t_i in ((pair, t1), (swapped, t2)):
                checked += 3
                opens = bt.top.openbits[t_i]
                po, so, spo = bt.po[row], bt.so[row], bt.spo[row]
                if opens & ~po:
                    violations.append(f"open-not-preopen n={size} pair=({t1},{t2})")
                if opens & ~so:
                    violations.append(f"open-not-semiopen n={size} pair=({t1},{t2})")
                if (po | so) & ~spo:
                    violations.append(f"not-semipreopen n={size} pair=({t1},{t2})")
    return checked, tuple(violations)


REFERENCE_MAP_SUITES = {
    "thm-4.1": _ref_thm_4_1,
    "thm-4.2": _ref_thm_4_2,
    "thm-4.3": _ref_thm_4_3,
    "thm-4.4": _ref_thm_4_4,
    "thm-4.5": _ref_thm_4_5,
    "thm-4.6": _ref_thm_4_6,
    "note-4.1": _ref_note_4_1,
    "note-4.2": lambda n: _ref_thm_4_4(n, converse=True),
    "thm-5.1": lambda n: _ref_thm_4_3(n, semi=True),
    "thm-5.2": lambda n: _ref_thm_4_4(n, semi=True),
    "thm-5.3": lambda n: _ref_thm_4_5(n, semi=True),
    "hierarchy": _ref_hierarchy,
}


def reference_map_suite(name: str, config) -> tuple[int, tuple[str, ...]]:
    """(checked, violations) of map suite `name` at config.n by the
    per-pair reference sweep."""
    checked, violations = REFERENCE_MAP_SUITES[name](config.n)
    return checked, tuple(violations)


# ---------------------------------------------------------------------------
# Fault injection: suites run on deliberately wrong tables
# ---------------------------------------------------------------------------

# every suite whose sweep reads bispace rows or grid rows by pair; their
# violation lists on wrong tables are frozen in tests/data/fault_injection.json
FAULT_SUITES = (
    "C1-iff-C2", "open-implies-preopen", "thm-3.1", "thm-3.2", "thm-3.3",
    "thm-3.4", "thm-3.5", "thm-3.6", "thm-3.7", "thm-4.1", "thm-4.2",
    "thm-4.3", "thm-4.4", "thm-4.5", "thm-4.6", "thm-5.1", "thm-5.2",
    "thm-5.3", "note-4.2", "hierarchy",
)


def _flip_row(rows, index: int, bit: int):
    """A copy of `rows`, a tuple or a view of bytes, with one bit flipped."""
    if isinstance(rows, tuple):
        return rows[:index] + (rows[index] ^ (1 << bit),) + rows[index + 1:]
    flipped = array(rows.format, rows)
    flipped[index] ^= 1 << bit
    return memoryview(flipped.tobytes()).cast(rows.format)


def _flip_hull(hulls, pair: int, subset: int, bit: int, semi: bool = False):
    """hull_tables' (pcl, spcl) with one bit of one pcl (semi: spcl) entry
    flipped."""
    pcl, spcl = hulls
    if semi:
        return pcl, _flip_grid(spcl, pair, subset, bit)
    return _flip_grid(pcl, pair, subset, bit), spcl


def _flip_grid(grid, f: int, pair: int, bit: int):
    return grid[:f] + (_flip_row(grid[f], pair, bit),) + grid[f + 1:]


# case name -> per table the suites module reads (bispace_tables,
# hull_tables, continuity_grids), its corruption per argument tuple or n;
# each corruption maps the true table to a copy with one bit (or one pair of
# bits) flipped
FAULT_CASES = {
    "po-pair100-bit3": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(bt, po=_flip_row(bt.po, 100, 3)),
    }},
    "spo-pair257-bit5": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(bt, spo=_flip_row(bt.spo, 257, 5)),
    }},
    "pcl-pair300-entry2": {"hull_tables": {
        3: lambda hulls: _flip_hull(hulls, 300, 2, 0),
    }},
    # the semipreclosure hull of {0, 1} in row 400 = (13, 23) gains point 2
    # while the row's spo maskset stays right: thm-3.7 and thm-5.2 report
    "spcl-pair400-entry3": {"hull_tables": {
        3: lambda hulls: _flip_hull(hulls, 400, 3, 2, semi=True),
    }},
    # the preclosure hull of the whole carrier in row 300 loses point 0:
    # thm-3.6 reports membership and monotone lines
    "pcl-pair300-entry7": {"hull_tables": {
        3: lambda hulls: _flip_hull(hulls, 300, 7, 0),
    }},
    # sets a wpo bit that po lacks: containment-without-squeeze
    "wpo-pair400-bit1": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(bt, wpo=_flip_row(bt.wpo, 400, 1)),
    }},
    # clears the bit of a tau_1-open from so: open-not-semiopen
    "so-pair500-bit4": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(bt, so=_flip_row(bt.so, 500, 4)),
    }},
    # rows 342 = (11, 23) and 678 = (23, 11) each lose the po bit of a
    # tau_1-open, so both directions of the pair fail (open-not-preopen)
    "po-pair342-pair678-both-directions": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(
            bt, po=_flip_row(_flip_row(bt.po, 342, 5), 678, 3)
        ),
    }},
    "grid32-f5-pc40-sc41": {"continuity_grids": {
        (3, 2): lambda g: dataclasses.replace(
            g, pc=_flip_grid(g.pc, 5, 40, 1), sc=_flip_grid(g.sc, 5, 41, 1)
        ),
    }},
    "grid22-f1-pair5-restriction": {"continuity_grids": {
        (2, 2): lambda g: dataclasses.replace(
            g, pc=_flip_grid(g.pc, 1, 5, 0), spc=_flip_grid(g.spc, 1, 5, 0)
        ),
    }},
    # row 100 gains subset 1 in both po and spo: thm-3.5 reports
    # preopen-restriction and semipreopen-restriction
    "po-spo-pair100-bit1": {"bispace_tables": {
        3: lambda bt: dataclasses.replace(
            bt, po=_flip_row(bt.po, 100, 1), spo=_flip_row(bt.spo, 100, 1)
        ),
    }},
    # the constant map 0 = (0, 0, 0) loses pc target 0 on row 0, a read whose
    # three consequence failure sets are all empty, so note-4.2 flags it
    "grid33-f0-pc0-bit0": {"continuity_grids": {
        (3, 3): lambda g: dataclasses.replace(g, pc=_flip_grid(g.pc, 0, 0, 0)),
    }},
    # 2-point row 5 loses subset 1; thm-3.5 also reads it as the sub-carrier
    # row of 2-point regions at n = 3: restriction and converse kinds
    "po-n2-pair5-bit1": {"bispace_tables": {
        2: lambda bt: dataclasses.replace(bt, po=_flip_row(bt.po, 5, 1)),
    }},
}


# case name -> topology-table corruption per n, as in FAULT_CASES; these
# cases run the suites that read topology rows and no bispace row
TOPOLOGY_FAULT_SUITES = ("closure-laws", "lemma-3.1", "note-3.4")
TOPOLOGY_FAULT_CASES = {
    # the closure of the empty set gains point 1 in structure 5
    "cl-t5-entry0-bit1": {
        3: lambda top: dataclasses.replace(top, cl=_flip_grid(top.cl, 5, 0, 1))
    },
    # {0, 2} loses point 0 from its closure in structure 12: not expansive
    "cl-t12-entry5-bit0": {
        3: lambda top: dataclasses.replace(top, cl=_flip_grid(top.cl, 12, 5, 0))
    },
    # the interior of {0, 1} gains point 0 in structure 20
    "intr-t20-entry3-bit0": {
        3: lambda top: dataclasses.replace(top, intr=_flip_grid(top.intr, 20, 3, 0))
    },
    # the open {1} of structure 20 becomes {0, 1}; only the limit-point law
    # reads the opens
    "opens-t20-open1-bit0": {
        3: lambda top: dataclasses.replace(top, opens=_flip_grid(top.opens, 20, 1, 0))
    },
    # each case below swaps one structure's closure for an operator that
    # breaks a single law, and its interior for the dual of that operator,
    # so that the opens stay the complements of its fixed points:
    # {2} closes to X in structure 12, a closed superset of its closure
    # {0, 2}, so additivity fails and nothing else
    "closure-t12-not-additive": {
        3: lambda top: _with_closure(top, 12, (0, 1, 7, 7, 7, 5, 7, 7))
    },
    # opens {}, {0}, {0, 1}, X; {0} closes to {0, 1} and {1} to {1, 2},
    # additive and expansive but not idempotent
    "closure-t7-not-idempotent": {
        3: lambda top: _with_closure(top, 7, (0, 3, 6, 7, 4, 7, 6, 7))
    },
    # opens {}, {0, 2}, X; {0} closes to {1}, additive and idempotent but
    # not expansive
    "closure-t5-not-expansive": {
        3: lambda top: _with_closure(top, 5, (0, 2, 2, 2, 7, 7, 7, 7))
    },
}


def _with_closure(top, t: int, cl_row: tuple[int, ...]):
    """`top` with structure t's closure row replaced by cl_row and its
    interior row by the dual of cl_row."""
    full = top.full
    intr_row = tuple(full ^ cl_row[full ^ a] for a in range(full + 1))
    return dataclasses.replace(
        top,
        cl=top.cl[:t] + (cl_row,) + top.cl[t + 1:],
        intr=top.intr[:t] + (intr_row,) + top.intr[t + 1:],
    )


def fault_injection_results(case: str, n: int = 3, which=None):
    """Run the suites `which` at carrier size n on the tables corrupted by
    `case`, by default FAULT_SUITES for a case of FAULT_CASES and
    TOPOLOGY_FAULT_SUITES for one of TOPOLOGY_FAULT_CASES.

    The suites read the corrupted tables through their module's names of
    the table builders, so no corrupted row outlives the run.
    """
    if case in TOPOLOGY_FAULT_CASES:
        patches = {"topology_tables": TOPOLOGY_FAULT_CASES[case]}
        default = TOPOLOGY_FAULT_SUITES
    else:
        patches = FAULT_CASES[case]
        default = FAULT_SUITES
    with contextlib.ExitStack() as stack:
        for attr, corruptions in patches.items():
            for key, corrupt in corruptions.items():
                args = key if isinstance(key, tuple) else (key,)
                stack.enter_context(flipped_table(attr, args, corrupt))
        return suites.run_theorem_suite(
            suites.SuiteConfig(n=n, which=which or default)
        )


def seeded_table_flips(
    count: int, seed: int, max_size: int = 3
) -> list[tuple[str, str, tuple, object]]:
    """`count` single-bit corruptions of the tables the map suites read, as
    (label, suites attribute, arguments of the corrupted table, corruption).

    They cycle through a continuity-grid row at (m, k) <= max_size, a
    po/spo row of bispace_tables(n <= max_size) or a pcl row of
    hull_tables(n), and a cont/openmap row of map_tables.
    """
    rng = random.Random(seed)
    flips = []
    for i in range(count):
        m, k = rng.randint(1, max_size), rng.randint(1, max_size)
        t_m, t_k = topology_tables(m).count, topology_tables(k).count
        f = rng.randrange(k ** m)
        if i % 3 == 0:
            field = rng.choice(("pc", "sc", "spc"))
            pair, bit = rng.randrange(t_m * t_m), rng.randrange(t_k)
            label = f"grid{m}{k}-{field}-f{f}-pair{pair}-bit{bit}"
            attr, args = "continuity_grids", (m, k)
            corrupt = _replace_field(
                field, functools.partial(_flip_grid, f=f, pair=pair, bit=bit)
            )
        elif i % 3 == 1:
            field = rng.choice(("po", "spo", "pcl"))
            pair = rng.randrange(t_m * t_m)
            if field == "pcl":
                subset, bit = rng.randrange(1 << m), rng.randrange(m)
                label = f"n{m}-pcl-pair{pair}-entry{subset}-bit{bit}"
                attr, args = "hull_tables", (m,)
                corrupt = functools.partial(
                    _flip_hull, pair=pair, subset=subset, bit=bit
                )
            else:
                bit = rng.randrange(1 << m)
                label = f"n{m}-{field}-pair{pair}-bit{bit}"
                attr, args = "bispace_tables", (m,)
                corrupt = _replace_field(
                    field, functools.partial(_flip_row, index=pair, bit=bit)
                )
        else:
            field = rng.choice(("cont", "openmap"))
            t, bit = rng.randrange(t_m), rng.randrange(t_k)
            label = f"map{m}{k}-{field}-f{f}-t{t}-bit{bit}"
            attr, args = "map_tables", (m, k)
            corrupt = _replace_field(
                field, functools.partial(_flip_grid, f=f, pair=t, bit=bit)
            )
        flips.append((label, attr, args, corrupt))
    return flips


def _replace_field(field: str, flip):
    return lambda table: dataclasses.replace(
        table, **{field: flip(getattr(table, field))}
    )


def flipped_table(attr: str, args: tuple, corrupt):
    """Patch suites.<attr> so that the call with `args` returns the
    corrupted table and every other call the true one."""
    true = getattr(suites, attr)

    def patched(*call):
        return corrupt(true(*call)) if call == args else true(*call)

    return mock.patch.object(suites, attr, patched)


def fault_injection_digests(case: str, n: int = 3) -> dict:
    """Per suite that fault_injection_results runs on the tables corrupted
    by `case`, ``{"checked", "violations", "sha256"}``, the digest being
    over the violation lines joined by newlines."""
    return {
        result.name: {
            "checked": result.checked,
            "violations": len(result.violations),
            "sha256": hashlib.sha256(
                "\n".join(result.violations).encode()
            ).hexdigest(),
        }
        for result in fault_injection_results(case, n)
    }


def table_builds(n: int, which: tuple, seed=None) -> dict:
    """Cached-table entries per lru_cache builder of tables, finite and
    maps, hull_tables among them, all from emptied caches and in one
    process: after suites._build_tables ("prebuilt"), after a run that
    follows it ("run"), and after a run without it ("serial").

    It empties every cache, so call it in a process of its own.
    """
    from bispacelab import finite, maps, tables

    builders = {
        f"{fn.__module__}.{fn.__qualname__}": fn
        for module in (tables, finite, maps)
        for fn in vars(module).values()
        if callable(getattr(fn, "cache_info", None))
    }

    def snapshot():
        return {name: fn.cache_info().currsize for name, fn in builders.items()}

    def empty_caches():
        for fn in builders.values():
            fn.cache_clear()

    config = suites.SuiteConfig(n=n, which=tuple(which), seed=seed)
    with mock.patch.object(suites, "_worker_count", lambda suite_count: 1):
        empty_caches()
        suites._build_tables(config)
        prebuilt = snapshot()
        suites.run_theorem_suite(config)
        run = snapshot()
        empty_caches()
        with mock.patch.object(suites, "_build_tables", lambda config: None):
            suites.run_theorem_suite(config)
        return {"prebuilt": prebuilt, "run": run, "serial": snapshot()}


if __name__ == "__main__":
    # Re-record tests/data/fault_injection.json; run from the repository root
    # with PYTHONPATH=src, and only on a commit whose suites are trusted.
    import json
    import pathlib

    fixture = {
        case: fault_injection_digests(case)
        for case in (*FAULT_CASES, *TOPOLOGY_FAULT_CASES)
    }
    path = pathlib.Path(__file__).parent / "data" / "fault_injection.json"
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
