import collections
import functools
import hashlib
import json
import operator
import os
import pathlib
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from bispacelab import suites, tables
from bispacelab.finite import PointSet, enumerate_spaces
from bispacelab.props import Bispace, is_ij_preopen
from bispacelab.reports import machine_suite
from bispacelab.tables import bispace_tables, topology_tables
from bispacelab.suites import (
    ALL_SUITES,
    MAP_SUITES,
    SET_SUITES,
    SuiteConfig,
    run_theorem_suite,
)
from helpers import (
    FAULT_CASES,
    FAULT_SUITES,
    TOPOLOGY_FAULT_CASES,
    TOPOLOGY_FAULT_SUITES,
    _flip_grid,
    _flip_row,
    _replace_field,
    fault_injection_digests,
    fault_injection_results,
    flipped_table,
    reference_c1_iff_c2,
    reference_closure_laws,
    reference_map_suite,
    reference_open_implies_preopen,
    seeded_table_flips,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n=0)
    with pytest.raises(ValueError):
        SuiteConfig(n=5)
    with pytest.raises(ValueError):
        SuiteConfig(n=2, which=("no-such-suite",))
    with pytest.raises(ValueError):
        SuiteConfig(n=2, which=("all", "no-such-suite"))
    # a repeated name runs once, at its first mention
    config = SuiteConfig(n=2, which=("thm-3.3", "thm-3.1", "thm-3.3"))
    assert config.names() == ("thm-3.3", "thm-3.1")
    with pytest.raises(ValueError, match="a seed is required for the sampled"):
        SuiteConfig(n=4, which=("thm-4.1",))
    seedless = "a seed applies only when a map suite runs at n = 4"
    with pytest.raises(ValueError, match=seedless):
        SuiteConfig(n=2, which=("thm-4.1",), seed=5)
    with pytest.raises(ValueError, match=seedless):
        SuiteConfig(n=4, which=("closure-laws",), seed=1)
    SuiteConfig(n=4, which=("thm-4.1",), seed=5)
    SuiteConfig(n=4, which=("closure-laws",))  # set suites never sample


def test_registry_covers_both_kinds():
    assert set(ALL_SUITES) == set(SET_SUITES) | set(MAP_SUITES)
    assert "thm-3.3" in SET_SUITES
    assert "C1-iff-C2" in SET_SUITES
    assert "thm-4.6" in MAP_SUITES


def test_all_suites_pass_at_n2():
    results = run_theorem_suite(SuiteConfig(n=2, which=("all",)))
    assert [r.name for r in results] == list(ALL_SUITES)
    for r in results:
        assert r.passed, f"{r.name}: {r.violations[:3]}"
        assert r.checked > 0


def test_suites_fire_their_hypotheses_at_n2():
    # floors against silently-vacuous gates (a suite whose hypothesis never
    # fires would pass without checking anything)
    results = {r.name: r.checked for r in run_theorem_suite(SuiteConfig(n=2))}
    floors = {
        "closure-laws": 80,
        "lemma-3.1": 50,
        "C1-iff-C2": 130,
        "thm-3.1": 500,
        "thm-3.3": 500,
        "thm-4.1": 1000,
        "thm-4.2": 500,
        "thm-4.4": 150,
        "thm-4.6": 60,
        "note-4.2": 150,
        "hierarchy": 80,
    }
    for name, floor in floors.items():
        assert results[name] >= floor, (name, results[name])


def test_set_suites_checked_counts_at_n4():
    # the set-level counts at the exhaustive frontier: every (pair,
    # direction) read of every row at n <= 4 is counted, for thm-3.5 once
    # per nonempty region and subset of it, with no violation
    which = ("thm-3.1", "thm-3.3", "thm-3.4", "thm-3.5", "thm-3.6", "thm-3.7")
    results = run_theorem_suite(SuiteConfig(n=4, which=which))
    assert {r.name: (r.checked, len(r.violations)) for r in results} == {
        "thm-3.1": (64_632_968, 0),
        "thm-3.3": (36_389_970, 0),
        "thm-3.4": (19_587_868, 0),
        "thm-3.5": (20_207_992, 0),
        "thm-3.6": (36_633_586, 0),
        "thm-3.7": (36_633_586, 0),
    }


def test_single_suite_selection():
    (result,) = run_theorem_suite(SuiteConfig(n=2, which=("thm-3.3",)))
    assert result.name == "thm-3.3"
    assert result.passed


def test_n1_degenerate_run_is_vacuous_pass():
    results = run_theorem_suite(SuiteConfig(n=1, which=("all",)))
    assert all(r.passed for r in results)


def test_suite_output_deterministic_at_n2():
    a = "".join(
        machine_suite(r) for r in run_theorem_suite(SuiteConfig(n=2, which=("all",)))
    )
    b = "".join(
        machine_suite(r) for r in run_theorem_suite(SuiteConfig(n=2, which=("all",)))
    )
    assert a == b


def test_remark_3_1_witness_reverifies():
    (result,) = run_theorem_suite(SuiteConfig(n=3, which=("remark-3.1",)))
    assert result.passed
    assert result.notes and result.notes[0].startswith("witness:")
    # reconstruct the recorded model and confirm it by the reference route
    note = result.notes[0]
    assert "pair=(0,4)" in note
    spaces = list(enumerate_spaces(3))
    b = Bispace(spaces[0], spaces[4])
    a, c = PointSet.of(3, (0, 2)), PointSet.of(3, (1, 2))
    assert is_ij_preopen(b, (1, 2), a).holds
    assert is_ij_preopen(b, (1, 2), c).holds
    assert not is_ij_preopen(b, (1, 2), a & c).holds


def test_sampled_sweep_runs_with_seed():
    results = run_theorem_suite(SuiteConfig(n=4, which=("hierarchy",), seed=11))
    names = [r.name for r in results]
    assert names == ["hierarchy", "sampled-maps-n4"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "predicate, wrong, kind, lines",
    [
        ("is_pairwise_semi_continuous", lambda true: False, "hierarchy", 80),
        ("is_pairwise_sp_continuous", lambda true: False, "hierarchy-sp", 106),
        ("closed_preimages_preclosed", operator.not_, "closed-characterization", 200),
    ],
)
def test_sampled_sweep_reports_each_violation_kind(
    predicate, wrong, kind, lines, processes
):
    # one reference predicate answers wrongly: the sampled sweep reports
    # the kind of line that reads it, on every draw where the answer matters
    true = getattr(suites.maps_mod, predicate)
    with mock.patch.object(
        suites.maps_mod, predicate, lambda *args: wrong(true(*args))
    ):
        results = run_theorem_suite(SuiteConfig(n=4, which=("hierarchy",), seed=7))
    sampled = results[-1]
    assert sampled.name == "sampled-maps-n4"
    assert {line.split()[0] for line in sampled.violations} == {kind}
    assert len(sampled.violations) == lines


def test_sampled_sweep_deterministic_for_fixed_seed():
    def run():
        return "".join(
            machine_suite(r)
            for r in run_theorem_suite(SuiteConfig(n=4, which=("note-4.1",), seed=3))
        )

    assert run() == run()


FAULT_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "fault_injection.json").read_text()
)


@pytest.mark.parametrize("case", sorted([*FAULT_CASES, *TOPOLOGY_FAULT_CASES]))
def test_violation_lists_on_corrupted_tables_match_fixture(case):
    # one flipped table bit must give exactly the frozen violations (count,
    # order and wording); a sweep that skips a check, or a memo keyed too
    # coarsely, changes the list
    assert fault_injection_digests(case) == FAULT_FIXTURE[case]


def test_target_pairsets_follow_patched_tables_after_a_clean_run():
    # nothing derived from the bispace tables may outlive one suite call: a
    # clean run first, then corrupted tables, in one process
    which = ("thm-4.1", "thm-4.2")
    run_theorem_suite(SuiteConfig(n=3, which=which))
    true_bt = suites.bispace_tables
    corrupt = FAULT_CASES["spo-pair257-bit5"]["bispace_tables"][3]

    def patched(size):
        return corrupt(true_bt(size)) if size == 3 else true_bt(size)

    with mock.patch.object(suites, "bispace_tables", patched):
        results = run_theorem_suite(SuiteConfig(n=3, which=which))
    expected = FAULT_FIXTURE["spo-pair257-bit5"]
    assert [len(r.violations) for r in results] == [684, 26] == [
        expected[name]["violations"] for name in which
    ]


def test_fault_fixture_fires_every_memoised_suite():
    fired = {
        name
        for digests in FAULT_FIXTURE.values()
        for name, d in digests.items()
        if d["violations"]
    }
    assert fired == set(FAULT_SUITES) | set(TOPOLOGY_FAULT_SUITES)


def test_fault_cases_fire_every_row_comparison_kind():
    # the fixture freezes digests only; this pins that each violation kind
    # of the two row-comparison suites is among them
    kinds = set()
    for case in FAULT_CASES:
        for result in fault_injection_results(
            case, which=("C1-iff-C2", "open-implies-preopen")
        ):
            kinds.update(line.split()[0] for line in result.violations)
    assert kinds == {
        "squeeze-without-containment",
        "containment-without-squeeze",
        "open-not-preopen",
        "open-not-semiopen",
        "not-semipreopen",
    }


def test_topology_fault_cases_fire_every_closure_law():
    kinds = set()
    for case in TOPOLOGY_FAULT_CASES:
        (result,) = fault_injection_results(case, which=("closure-laws",))
        kinds.update(line.split()[0] for line in result.violations)
    assert kinds == {
        "closure-of-empty", "expansive", "idempotent", "interior-duality",
        "limit-point-law", "additive", "monotone",
    }


def test_closure_laws_match_reference_sweep_on_flipped_topologies():
    # seeded single-bit flips of one cl, intr or opens entry at n = 3 and 4:
    # the same `checked` and the same violation lines in order as the sweep
    # that checks every law on every subset
    rng = random.Random(17)
    firing = 0
    for _ in range(12):
        n = rng.choice((3, 4))
        t = rng.randrange(topology_tables(n).count)
        field = rng.choice(("cl", "intr", "opens"))
        entry = rng.randrange(len(getattr(topology_tables(n), field)[t]))
        bit = rng.randrange(n)
        corrupt = _replace_field(
            field, functools.partial(_flip_grid, f=t, pair=entry, bit=bit)
        )
        with flipped_table("topology_tables", (n,), corrupt):
            (result,) = run_theorem_suite(SuiteConfig(n=n, which=("closure-laws",)))
            expected = reference_closure_laws(n)
        assert (result.checked, result.violations) == expected, (n, t, field, entry)
        firing += bool(expected[1])
    assert firing == 12


def test_row_suites_match_reference_sweeps_on_flipped_n4_rows():
    # seeded single-bit flips of a po, wpo, so or spo row of the 4-point
    # tables, with 16-bit slots: C1-iff-C2 and open-implies-preopen give the
    # `checked` and the violation lines of the sweep that reads every row
    rng = random.Random(4)
    t_count = topology_tables(4).count
    config = SuiteConfig(n=4, which=("C1-iff-C2", "open-implies-preopen"))
    fired = collections.Counter()
    for _ in range(12):
        field = rng.choice(("po", "wpo", "so", "spo"))
        pair, bit = rng.randrange(t_count * t_count), rng.randrange(16)
        corrupt = _replace_field(
            field, functools.partial(_flip_row, index=pair, bit=bit)
        )
        with flipped_table("bispace_tables", (4,), corrupt):
            results = run_theorem_suite(config)
            expected = (reference_c1_iff_c2(4), reference_open_implies_preopen(4))
        for result, (checked, violations) in zip(results, expected):
            assert (result.checked, result.violations) == (checked, violations), (
                field, pair, bit, result.name
            )
            fired[result.name] += bool(violations)
    assert fired == {"C1-iff-C2": 6, "open-implies-preopen": 9}


# the suite list of the tables-n4 benchmark workload
TABLES_N4_SUITES = (
    "closure-laws", "lemma-3.1", "C1-iff-C2", "open-implies-preopen",
    "note-3.4", "remark-3.1", "hierarchy",
)


@pytest.mark.usefixtures("processes")  # the checks see this process only
def test_tables_n4_suites_build_no_4_point_hull_row():
    # the tables-n4 suites read no hull row at n = 4, so a build of those
    # rows there is wasted work
    which = TABLES_N4_SUITES
    sizes = []
    true_hull_row = tables._hull_row

    def counting_hull_row(bits, n):
        sizes.append(n)
        return true_hull_row(bits, n)

    with mock.patch.object(tables, "_hull_row", counting_hull_row):
        tables.hull_tables.cache_clear()
        results = run_theorem_suite(SuiteConfig(n=4, which=which, seed=0))
        assert all(r.passed for r in results)
        assert 4 not in sizes
        tables.hull_tables(4)
        assert 4 in sizes


@pytest.mark.usefixtures("processes")  # the checks see this process only
def test_suite_runs_leave_cached_table_rows_unchanged():
    # bispace_tables and topology_tables hand every caller the same cached
    # rows: a suite that wrote to one would change what every later caller
    # reads (a write to a bispace row raises, as the rows are read-only
    # views; see test_tables.py). After every suite at
    # n = 3 and the tables-n4 suites at n = 4, the cached rows must equal
    # those of a fresh build
    def rows(bispace, topology):
        return (
            [bytes(getattr(bispace, name)) for name in ("po", "wpo", "so", "spo")],
            [list(row) for name in ("cl", "intr") for row in getattr(topology, name)],
        )

    cached = [(bispace_tables(n), topology_tables(n)) for n in range(1, 5)]
    run_theorem_suite(SuiteConfig(n=3))
    run_theorem_suite(SuiteConfig(n=4, which=TABLES_N4_SUITES, seed=0))
    for n, (bispace, topology) in enumerate(cached, start=1):
        fresh = (
            tables.bispace_tables.__wrapped__(n),
            tables.topology_tables.__wrapped__(n),
        )
        assert rows(bispace, topology) == rows(*fresh), n


def test_note_4_1_fires_on_a_flipped_continuity_bit():
    # note-4.1 reads only map_tables and topology_tables, which no case of
    # FAULT_CASES corrupts: map (1, 0, 1) from 3 to 2 points is marked
    # continuous from structure 7 into target 3, where it is not, and the
    # frozen lines name the sets whose closure it does not preserve
    corrupt = _replace_field("cont", lambda rows: _flip_grid(rows, 5, 7, 3))
    with flipped_table("map_tables", (3, 2), corrupt):
        (result,) = run_theorem_suite(SuiteConfig(n=3, which=("note-4.1",)))
    digest = hashlib.sha256("\n".join(result.violations).encode()).hexdigest()
    assert (result.checked, len(result.violations), digest) == (
        86_936, 3, "0d0e4ac31136401078cdd8e742f44271824f5dd2a3dd0880911c2986fd104f2d"
    )


def test_map_suites_match_reference_sweeps_on_flipped_tables():
    # every map suite against its per-pair reference sweep on 16 seeded
    # single-bit table flips and the spcl hull case of FAULT_CASES: the same
    # `checked` and the same violation lines in order. The flips are not
    # vacuous: 13 of them make some map suite report, and between them every
    # map suite but thm-4.6 reports (the tests below cover that one)
    config = SuiteConfig(n=3)
    firing = 0
    fired = set()
    spcl_case = FAULT_CASES["spcl-pair400-entry3"]["hull_tables"][3]
    flips = [
        *seeded_table_flips(16, seed=4),
        ("spcl-pair400-entry3", "hull_tables", (3,), spcl_case),
    ]
    for label, attr, args, corrupt in flips:
        names = set()
        with flipped_table(attr, args, corrupt):
            for name, run in MAP_SUITES.items():
                result = run(config)
                expected = reference_map_suite(name, config)
                assert (result.checked, result.violations) == expected, (label, name)
                if expected[1]:
                    names.add(name)
        firing += bool(names)
        fired |= names
    assert firing == 13
    assert set(MAP_SUITES) - fired == {"thm-4.6"}


@pytest.mark.parametrize("m, k, f, pair, bit", [(2, 2, 1, 11, 1), (3, 2, 2, 563, 1)])
def test_thm_4_6_matches_reference_sweep_where_a_flip_gates_a_failing_read(
    m, k, f, pair, bit
):
    # no seeded flip above makes thm-4.6 report; each of these pc flips
    # gates one read whose image nets do not converge, at a t_i that is not
    # the first one needing that target structure
    corrupt = _replace_field("pc", lambda grid: _flip_grid(grid, f, pair, bit))
    config = SuiteConfig(n=3, which=("thm-4.6",))
    with flipped_table("continuity_grids", (m, k), corrupt):
        (result,) = run_theorem_suite(config)
        expected = reference_map_suite("thm-4.6", config)
    assert (result.checked, result.violations) == expected
    assert len(result.violations) == 1


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def test_prebuild_builds_exactly_the_tables_a_serial_run_reads():
    # the tables built before any fork are those a run on empty caches
    # builds: none that no suite reads, and none left for a worker to build.
    # Every suite at n = 3, the tables-n4 suites, and each suite alone at
    # n = 3 but remark-3.1, which stops at its first witness and builds what
    # it reads up to there itself; note-4.1 at n = 4 adds the sampled sweep
    configs = [
        (3, ("all",), None),
        (4, TABLES_N4_SUITES, 0),
        (4, ("note-4.1",), 0),
        *((3, (name,), None) for name in ALL_SUITES if name != "remark-3.1"),
    ]
    tests = pathlib.Path(__file__).parent
    src = pathlib.Path(suites.__file__).parents[1]
    code = (
        "import json, helpers; "
        f"print(json.dumps([helpers.table_builds(*c) for c in {configs!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    for config, builds in zip(configs, found, strict=True):
        assert builds["prebuilt"] == builds["run"] == builds["serial"], config
    assert builds["prebuilt"]["bispacelab.tables.bispace_tables"] == 3
    # hull rows at every size for every suite at n = 3, none for tables-n4
    hulls = [builds["prebuilt"]["bispacelab.tables.hull_tables"] for builds in found]
    assert hulls[:2] == [3, 0]


def _run_apart(here, there) -> list:
    """Run two suites in this process and one worker: `there()` in the
    worker and `here()` in this process, each once both have taken their
    suite, so neither process takes both."""
    parent = os.getpid()
    started, start = os.pipe()
    here_started, here_start = os.pipe()

    def check(n):
        if os.getpid() == parent:
            os.write(here_start, b"x")
            select.select([started], [], [], 30)
            return here()
        os.write(start, b"x")
        select.select([here_started], [], [], 30)
        return there()

    added = {
        name: suites.Suite(name, check, "a test suite", ())
        for name in ("apart-a", "apart-b")
    }
    try:
        with mock.patch.dict(suites.ALL_SUITES, added), \
                mock.patch.object(suites, "_worker_count", lambda suite_count: 2):
            return run_theorem_suite(SuiteConfig(n=1, which=tuple(added)))
    finally:
        for end in (started, start, here_started, here_start):
            os.close(end)


def _passes():
    return 0, []


def _mask():
    """The CPUs this process may use, or None where the platform cannot say."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _left_as_found(mask):
    """Every worker is reaped, and this process may use the CPUs it could
    before the run."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _mask() == mask


needs_two_cpus = pytest.mark.skipif(
    len(_mask() or ()) < 2, reason="needs at least two CPUs to place processes apart"
)


def _placed():
    """A suite body that reports, as its violations, the CPUs it runs on."""
    return 0, [str(cpu) for cpu in sorted(os.sched_getaffinity(0))]


def test_two_suites_run_apart_pass():
    mask = _mask()
    results = _run_apart(_passes, _passes)
    assert [(r.name, r.checked, r.violations) for r in results] == [
        ("apart-a", 0, ()), ("apart-b", 0, ())
    ]
    _left_as_found(mask)


@needs_two_cpus
def test_each_process_runs_on_its_own_cpu_of_the_callers_mask():
    mask = _mask()
    placed = [set(map(int, r.violations)) for r in _run_apart(_placed, _placed)]
    assert all(len(cpus) == 1 and cpus <= mask for cpus in placed), placed
    assert placed[0] != placed[1]
    _left_as_found(mask)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU masks here")
def test_more_processes_than_cpus_share_them():
    mask = _mask()
    cpu = min(mask)
    os.sched_setaffinity(0, {cpu})
    try:
        placed = [set(map(int, r.violations)) for r in _run_apart(_placed, _placed)]
        assert placed == [{cpu}, {cpu}]
        _left_as_found({cpu})
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU masks here")
def test_a_run_that_cannot_pin_runs_unpinned(monkeypatch):
    mask = _mask()
    monkeypatch.delattr(os, "sched_setaffinity")
    placed = [set(map(int, r.violations)) for r in _run_apart(_placed, _placed)]
    assert placed == [mask, mask]
    _left_as_found(mask)


@needs_two_cpus
def test_a_refused_pin_leaves_only_that_process_unpinned(monkeypatch):
    mask = _mask()
    parent = os.getpid()
    pin = os.sched_setaffinity

    def refuse_in_a_worker(pid, cpus):
        if os.getpid() != parent:
            raise OSError(22, "refused")
        pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", refuse_in_a_worker)
    placed = sorted(
        (set(map(int, r.violations)) for r in _run_apart(_placed, _placed)), key=len
    )
    assert len(placed[0]) == 1 and placed[1] == mask, placed
    _left_as_found(mask)


def test_a_suite_raising_in_a_worker_raises_with_its_traceback():
    def boom():
        raise ValueError("boom in a worker")

    mask = _mask()
    with pytest.raises(RuntimeError) as raised:
        _run_apart(_passes, boom)
    message = str(raised.value)
    assert re.match(r"suite apart-[ab] raised in worker process \d+:\n", message)
    assert "in boom\n" in message
    assert message.endswith("ValueError: boom in a worker\n")
    _left_as_found(mask)


def test_a_suite_raising_here_stops_a_busy_worker():
    def boom():
        raise ValueError("boom here")

    def busy():
        time.sleep(60)
        return _passes()

    mask = _mask()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="boom here"):
        _run_apart(boom, busy)
    assert time.perf_counter() - start < 30
    _left_as_found(mask)


def test_a_worker_that_dies_makes_the_run_raise():
    mask = _mask()
    with pytest.raises(RuntimeError, match="a worker process died"):
        _run_apart(_passes, lambda: os.kill(os.getpid(), signal.SIGKILL))
    _left_as_found(mask)


def test_worker_count_follows_the_cpus_this_process_may_use():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    assert suites._worker_count(100) == cpus
    assert suites._worker_count(1) == 1
    assert suites._worker_count(0) == 1
    # forking beside another thread could copy a lock that thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert suites._worker_count(100) == 1
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
