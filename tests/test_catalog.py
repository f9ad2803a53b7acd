import pytest

from bispacelab.catalog import (
    CATALOG_IDS,
    build_example,
    negative_control_entry,
    run_catalog,
    verify_entry,
)
from bispacelab.reports import machine_report, parse_machine


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
