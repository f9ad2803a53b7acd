import pytest

from bispacelab import catalog, maps, props
from bispacelab.catalog import (
    CATALOG_IDS,
    PREDICATES,
    CatalogEntry,
    build_example,
    evaluate_claim,
    negative_control_entry,
    run_catalog,
    verify_entry,
)
from bispacelab.finite import PointSet
from bispacelab.props import Bispace, finite_bispace
from bispacelab.reports import machine_report, parse_machine
from bispacelab.spacefile import parse_claims
from bispacelab.symbolic import (
    AtomUniverse,
    SchematicFamily,
    countable,
    is_countable,
    singleton,
    uncountable,
)


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_entry_reproduces_every_verdict(entry_id):
    report = verify_entry(build_example(entry_id))
    assert report.passed, "\n".join(
        f"{o.claim}: expected {o.expected}, computed {o.computed}"
        for o in report.failures
    )


def test_unknown_id_rejected():
    with pytest.raises(ValueError) as exc:
        build_example("ex-9.9")
    assert "ex-9.9" in str(exc.value)


def test_document_declaring_another_id_rejected(tmp_path, monkeypatch):
    # a copied or misnamed document must not report under the wrong id
    text = (catalog.ENTRIES / "ex-3.1.json").read_text(encoding="utf-8")
    (tmp_path / "ex-3.2.json").write_text(text, encoding="utf-8")
    monkeypatch.setattr(catalog, "ENTRIES", tmp_path)
    with pytest.raises(ValueError) as exc:
        build_example("ex-3.2")
    assert "ex-3.2.json declares the id 'ex-3.1'" in str(exc.value)


def test_negative_control_fails_with_computed_value():
    report = verify_entry(negative_control_entry())
    assert not report.passed
    (failure,) = report.failures
    assert failure.predicate == "is_preopen"
    assert failure.expected == "true"
    assert failure.computed == "false"


def test_catalog_reports_are_byte_identical_across_runs():
    first = "".join(machine_report(r) for r in run_catalog())
    second = "".join(machine_report(r) for r in run_catalog())
    assert first == second


def test_catalog_passes_and_machine_format_round_trips():
    text = "".join(machine_report(r) for r in run_catalog())
    records = parse_machine(text)
    summaries = [r for r in records if "summary" in r]
    assert len(summaries) == len(CATALOG_IDS)
    assert all(r["summary"] == "pass" for r in summaries)
    claims = [r for r in records if "claim" in r and "predicate" in r]
    for r in claims:
        assert set(r) == {
            "entry",
            "claim",
            "predicate",
            "expected",
            "computed",
            "passed",
            "witness",
            "algebra_relative",
            "duration_ms",
        }
        assert r["duration_ms"] is None


def test_human_report_lists_failures_first():
    from bispacelab.reports import human_report

    text = human_report(verify_entry(negative_control_entry()))
    lines = [l for l in text.splitlines() if l.strip().startswith(("ok", "FAIL"))]
    assert lines[0].strip().startswith("FAIL")
    assert all(l.strip().startswith("ok") for l in lines[1:])


def test_semipreopen_claim_flagged_algebra_relative():
    report = verify_entry(build_example("ex-3.5"))
    flags = {
        o.claim: o.algebra_relative for o in report.outcomes
    }
    assert any(
        flag for claim, flag in flags.items() if claim.startswith("is_ij_semipreopen")
    )


def test_known_strict_separations_pinned_by_catalog():
    """Each catalog-backed strictness gap stays pinned by its entry."""
    ex31 = verify_entry(build_example("ex-3.1"))
    ex32 = verify_entry(build_example("ex-3.2"))
    ex33 = verify_entry(build_example("ex-3.3"))
    ex34 = verify_entry(build_example("ex-3.4"))
    ex35 = verify_entry(build_example("ex-3.5"))
    ex41 = verify_entry(build_example("ex-4.1"))
    for report in (ex31, ex32, ex33, ex34, ex35, ex41):
        assert report.passed


def test_ex34_witness_is_the_augmented_pair():
    report = verify_entry(build_example("ex-3.4"))
    outcome = next(
        o for o in report.outcomes if o.predicate == "is_ij_preopen"
    )
    assert outcome.witness == "{0,1,sqrt2}"


def test_ex35_engine_witness_is_canonical_smallest():
    from bispacelab.props import is_ij_semipreopen

    entry = build_example("ex-3.5")
    w = is_ij_semipreopen(entry.bispace, (1, 2), entry.named_sets["B"])
    assert w.holds
    # {0} precedes {0,1} in canonical order and is a valid witness
    assert w.witness == entry.bispace.first.universe.subset("0")


def _finite_mapped():
    """Three points onto two, the set {1} and the target set {0}."""
    bx = finite_bispace(3, [[], [0], [0, 1], [0, 1, 2]], [[], [2], [1, 2], [0, 1, 2]])
    by = finite_bispace(2, [[], [0], [0, 1]], [[], [1], [0, 1]])
    f = maps.FiniteMap(3, 2, (0, 0, 1))
    entry = CatalogEntry("finite", "", "", bx, {}, (), f, by)
    return entry, PointSet.of(3, [1]), PointSet.of(2, [0])


def _symbolic_mapped():
    """Three atoms onto two, the set {u} and the target set {q}."""
    src = AtomUniverse([singleton("p"), countable("c"), uncountable("u")])
    bx = Bispace(
        SchematicFamily(src, src.subset("p", "u"), src.empty()),
        SchematicFamily(src, src.subset("c", "u"), src.empty()),
    )
    tgt = AtomUniverse([singleton("q"), singleton("r"), uncountable("v")])
    fam = SchematicFamily(tgt, tgt.subset("r", "v"), tgt.empty())
    f = maps.AtomMap(src, tgt, {"p": "q", "c": "q", "u": "r"})
    entry = CatalogEntry("symbolic", "", "", bx, {}, (), f, Bispace(fam, fam))
    return entry, src.subset("u"), tgt.subset("q")


def _direct(name, entry, a, b):
    """(value, witness) of predicate `name` straight from props and maps, on
    space 1, pair (1, 2), set `a`, set2 the whole carrier, witness `a`, and
    target set `b` for preimage."""
    bx, f, by = entry.bispace, entry.map_, entry.target_bispace
    sp, pair = bx.first, (1, 2)
    found = sp.open_between(a, sp.whole())
    witnessed = {
        "open_between": lambda: (found is not None, found),
        "is_preopen": lambda: props.is_preopen(sp, a),
        "is_ij_preopen": lambda: props.is_ij_preopen(bx, pair, a),
        "is_ij_semipreopen": lambda: props.is_ij_semipreopen(bx, pair, a),
        "semipreopen_witness_valid": lambda: (
            props.is_ij_preopen(bx, pair, a).holds
            and a.issubset(bx.second.closure(a)),
            a,
        ),
    }
    if name in witnessed:
        return tuple(witnessed[name]())
    plain = {
        "is_open": lambda: sp.is_open(a),
        "closure": lambda: sp.closure(a),
        "interior": lambda: sp.interior(a),
        "limit_points": lambda: sp.limit_points(a),
        "is_countable": lambda: is_countable(a),
        "is_weakly_preopen": lambda: props.is_weakly_preopen(sp, a),
        "is_ij_weakly_preopen": lambda: props.is_ij_weakly_preopen(bx, pair, a),
        "is_pairwise_preopen": lambda: props.is_pairwise_preopen(bx, a),
        "is_ij_semiopen": lambda: props.is_ij_semiopen(bx, pair, a),
        "is_ij_preclosed": lambda: props.is_ij_preclosed(bx, pair, a),
        "is_ij_semipreclosed": lambda: props.is_ij_semipreclosed(bx, pair, a),
        "pcl": lambda: props.pcl(bx, pair, a),
        "spcl": lambda: props.spcl(bx, pair, a),
        "closed_supersets_interior": lambda: props.closed_supersets_interior(bx, pair, a),
        "image": lambda: f.image(a),
        "preimage": lambda: f.preimage(b),
        "is_pairwise_continuous": lambda: maps.is_pairwise_continuous(f, bx, by),
        "is_pairwise_precontinuous": lambda: maps.is_pairwise_precontinuous(f, bx, by),
        "is_pairwise_semi_continuous": lambda: maps.is_pairwise_semi_continuous(f, bx, by),
        "is_pairwise_sp_continuous": lambda: maps.is_pairwise_sp_continuous(f, bx, by),
        "check_closure_preservation": lambda: maps.check_closure_preservation(
            f, sp, by.first, a
        ),
    }
    return plain[name](), None


_RELATIVE = {
    "is_ij_semipreopen",
    "is_ij_semipreclosed",
    "pcl",
    "spcl",
    "is_pairwise_sp_continuous",
}


@pytest.mark.parametrize("build", [_finite_mapped, _symbolic_mapped])
def test_every_predicate_matches_its_direct_call(build):
    entry, a, b = build()
    symbolic = entry.bispace.is_symbolic
    # is_countable reads atom cardinalities, limit_points finite points
    skip = "limit_points" if symbolic else "is_countable"
    # member lists, as a document writes them
    members = {
        "set": list(a),
        "set2": list(entry.bispace.first.whole()),
        "witness": list(a),
        "pair": [1, 2],
        "space": 1,
    }
    for name in PREDICATES:
        if name == skip:
            continue
        reads = PREDICATES[name].reads
        raw = {"predicate": name}
        raw.update((key, v) for key, v in members.items() if key in reads)
        if name == "preimage":
            raw["set"] = list(b)
        (claim,) = parse_claims([raw], entry, "direct")
        value, witness, relative = evaluate_claim(entry, claim)
        assert (value, witness) == _direct(name, entry, a, b), name
        assert relative == (symbolic and name in _RELATIVE), name
