"""Shared generators and cross-backend comparison drivers for the tests."""

import dataclasses
import hashlib
import itertools
import random
from unittest import mock

from bispacelab.finite import PointSet, _canonical_opens
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
    interval_masksets,
    map_tables,
    net_catalog,
    topology_tables,
)


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


def reference_bispace_tables(n: int) -> BispaceTables:
    """bispace_tables(n) built pair by pair: per (t1, t2), po/wpo/spo scan
    the subsets and so the tau_1-opens against interval masksets. The oracle
    for the build packed across tau_2."""
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
    return BispaceTables(
        top, tuple(po), tuple(wpo), tuple(so), tuple(spo),
        tuple(pcl_rows), tuple(spcl_rows),
    )


def reference_continuity_grids(m: int, k: int):
    """Per-pair (pc, sc, spc, rhs_closed, sp_rhs_closed) grids, one loop over
    every source pair per map. The oracle for tables.continuity_grids."""
    mt = map_tables(m, k)
    bt = bispace_tables(m)
    s_count = topology_tables(k).count
    pair_count = bt.top.count ** 2
    pc_all, sc_all, spc_all, rhs_all, sp_rhs_all = [], [], [], [], []
    for f in range(len(mt.maps)):
        pm = mt.pm[f]
        pmc = mt.pm_closed[f]
        pc_rows, sc_rows, spc_rows, rhs_rows, sp_rhs_rows = [], [], [], [], []
        for pair in range(pair_count):
            not_po = ~bt.po[pair]
            not_so = ~bt.so[pair]
            not_spo = ~bt.spo[pair]
            pc_bits = sc_bits = spc_bits = rhs_bits = sp_rhs_bits = 0
            for s in range(s_count):
                bits = pm[s]
                cbits = pmc[s]
                if bits & not_po == 0:
                    pc_bits |= 1 << s
                if bits & not_so == 0:
                    sc_bits |= 1 << s
                if bits & not_spo == 0:
                    spc_bits |= 1 << s
                if cbits & not_po == 0:
                    rhs_bits |= 1 << s
                if cbits & not_spo == 0:
                    sp_rhs_bits |= 1 << s
            pc_rows.append(pc_bits)
            sc_rows.append(sc_bits)
            spc_rows.append(spc_bits)
            rhs_rows.append(rhs_bits)
            sp_rhs_rows.append(sp_rhs_bits)
        pc_all.append(tuple(pc_rows))
        sc_all.append(tuple(sc_rows))
        spc_all.append(tuple(spc_rows))
        rhs_all.append(tuple(rhs_rows))
        sp_rhs_all.append(tuple(sp_rhs_rows))
    return (
        tuple(pc_all), tuple(sc_all), tuple(spc_all),
        tuple(rhs_all), tuple(sp_rhs_all),
    )


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
    hull_table = bt_m.spcl if semi else bt_m.pcl
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
    return rows[:index] + (rows[index] ^ (1 << bit),) + rows[index + 1:]


def _flip_hull(rows, pair: int, subset: int, bit: int):
    row = rows[pair]
    row = row[:subset] + (row[subset] ^ (1 << bit),) + row[subset + 1:]
    return rows[:pair] + (row,) + rows[pair + 1:]


def _flip_grid(grid, f: int, pair: int, bit: int):
    return grid[:f] + (_flip_row(grid[f], pair, bit),) + grid[f + 1:]


# case name -> (bispace-table corruption per n, grid corruption per (m, k));
# each corruption maps the true table to a dataclasses.replace copy with one
# bit (or one pair of bits) flipped
FAULT_CASES = {
    "po-pair100-bit3": (
        {3: lambda bt: dataclasses.replace(bt, po=_flip_row(bt.po, 100, 3))},
        {},
    ),
    "spo-pair257-bit5": (
        {3: lambda bt: dataclasses.replace(bt, spo=_flip_row(bt.spo, 257, 5))},
        {},
    ),
    "pcl-pair300-entry2": (
        {3: lambda bt: dataclasses.replace(bt, pcl=_flip_hull(bt.pcl, 300, 2, 0))},
        {},
    ),
    # sets a wpo bit that po lacks: containment-without-squeeze
    "wpo-pair400-bit1": (
        {3: lambda bt: dataclasses.replace(bt, wpo=_flip_row(bt.wpo, 400, 1))},
        {},
    ),
    # clears the bit of a tau_1-open from so: open-not-semiopen
    "so-pair500-bit4": (
        {3: lambda bt: dataclasses.replace(bt, so=_flip_row(bt.so, 500, 4))},
        {},
    ),
    # rows 342 = (11, 23) and 678 = (23, 11) each lose the po bit of a
    # tau_1-open, so both directions of the pair fail (open-not-preopen)
    "po-pair342-pair678-both-directions": (
        {3: lambda bt: dataclasses.replace(
            bt, po=_flip_row(_flip_row(bt.po, 342, 5), 678, 3)
        )},
        {},
    ),
    "grid32-f5-pc40-sc41": (
        {},
        {(3, 2): lambda g: dataclasses.replace(
            g, pc=_flip_grid(g.pc, 5, 40, 1), sc=_flip_grid(g.sc, 5, 41, 1)
        )},
    ),
    "grid22-f1-pair5-restriction": (
        {},
        {(2, 2): lambda g: dataclasses.replace(
            g, pc=_flip_grid(g.pc, 1, 5, 0), spc=_flip_grid(g.spc, 1, 5, 0)
        )},
    ),
    # row 100 gains subset 1 in both po and spo: thm-3.5 reports
    # preopen-restriction and semipreopen-restriction
    "po-spo-pair100-bit1": (
        {3: lambda bt: dataclasses.replace(
            bt, po=_flip_row(bt.po, 100, 1), spo=_flip_row(bt.spo, 100, 1)
        )},
        {},
    ),
    # the constant map 0 = (0, 0, 0) loses pc target 0 on row 0, a read whose
    # three consequence failure sets are all empty, so note-4.2 flags it
    "grid33-f0-pc0-bit0": (
        {},
        {(3, 3): lambda g: dataclasses.replace(g, pc=_flip_grid(g.pc, 0, 0, 0))},
    ),
    # 2-point row 5 loses subset 1; thm-3.5 also reads it as the sub-carrier
    # row of 2-point regions at n = 3: restriction and converse kinds
    "po-n2-pair5-bit1": (
        {2: lambda bt: dataclasses.replace(bt, po=_flip_row(bt.po, 5, 1))},
        {},
    ),
}


def fault_injection_results(case: str, n: int = 3, which=FAULT_SUITES):
    """Run the suites `which` at carrier size n on the tables corrupted by
    `case`.

    The suites read the corrupted tables through their module's
    `bispace_tables` and `continuity_grids`, so no corrupted row outlives
    the run.
    """
    from bispacelab import suites

    bt_faults, grid_faults = FAULT_CASES[case]
    true_bt = suites.bispace_tables
    true_grids = suites.continuity_grids

    def corrupt_bt(size):
        table = true_bt(size)
        return bt_faults[size](table) if size in bt_faults else table

    def corrupt_grids(m, k):
        grids = true_grids(m, k)
        return grid_faults[(m, k)](grids) if (m, k) in grid_faults else grids

    with mock.patch.object(suites, "bispace_tables", corrupt_bt), \
            mock.patch.object(suites, "continuity_grids", corrupt_grids):
        return suites.run_theorem_suite(suites.SuiteConfig(n=n, which=which))


def fault_injection_digests(case: str, n: int = 3) -> dict:
    """Per suite of FAULT_SUITES on the tables corrupted by `case`,
    ``{"checked", "violations", "sha256"}``, the digest being over the
    violation lines joined by newlines."""
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


if __name__ == "__main__":
    # Re-record tests/data/fault_injection.json; run from the repository root
    # with PYTHONPATH=src, and only on a commit whose suites are trusted.
    import json
    import pathlib

    fixture = {case: fault_injection_digests(case) for case in FAULT_CASES}
    path = pathlib.Path(__file__).parent / "data" / "fault_injection.json"
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
