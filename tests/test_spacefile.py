import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispacelab.catalog import verify_entry
from bispacelab.spacefile import (
    FILE_PREDICATES,
    MAX_ATOMS,
    MAX_CARRIER,
    SpaceFileError,
    check_user_file,
    parse_spacefile,
)

EX_3_2_DOC = {
    "kind": "symbolic",
    "atoms": [
        {"id": "irr01", "cardinality": "uncountable", "label": "irrationals left"},
        {"id": "irr12", "cardinality": "uncountable", "label": "irrationals right"},
        {"id": "rats", "cardinality": "countable", "label": "rationals"},
    ],
    "family1": {"region": ["irr01"], "mandatory": []},
    "family2": {"region": ["irr12"], "mandatory": []},
    "sets": {"A": ["irr01"], "cl2A": ["irr01", "rats"]},
    "claims": [
        {"predicate": "closure", "set": "A", "space": 2, "expected": ["irr01", "rats"]},
        {"predicate": "interior", "set": "cl2A", "space": 1, "expected": ["irr01"]},
        {"predicate": "is_ij_weakly_preopen", "set": "A", "pair": [1, 2], "expected": True},
        {"predicate": "is_ij_preopen", "set": "A", "pair": [1, 2], "expected": False},
        {"predicate": "is_pairwise_preopen", "set": "A", "expected": False},
    ],
}

FINITE_DOC = {
    "kind": "finite",
    "carrier": 2,
    "opens1": [[], [0], [0, 1]],
    "opens2": [[], [0, 1]],
    "sets": {"A": [0], "B": [1]},
    "claims": [
        {"predicate": "is_open", "set": "A", "space": 1, "expected": True},
        {"predicate": "closure", "set": "A", "space": 2, "expected": [0, 1]},
        {"predicate": "is_ij_preopen", "set": "A", "pair": [1, 2], "expected": True},
        {"predicate": "is_weakly_preopen", "set": "B", "space": 1, "expected": False},
    ],
}


def write(tmp_path, doc, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def test_symbolic_document_reproduces_catalog_verdicts(tmp_path):
    report = check_user_file(write(tmp_path, EX_3_2_DOC))
    assert report.passed
    assert len(report.outcomes) == 5


def test_finite_document_claims(tmp_path):
    report = check_user_file(write(tmp_path, FINITE_DOC))
    assert report.passed


def test_failed_expectation_is_report_content(tmp_path):
    doc = dict(FINITE_DOC)
    doc["claims"] = [
        {"predicate": "is_open", "set": "B", "space": 1, "expected": True}
    ]
    report = check_user_file(write(tmp_path, doc))
    assert not report.passed
    (failure,) = report.failures
    assert failure.computed == "false"


def test_default_battery_runs_without_claims(tmp_path):
    doc = {k: v for k, v in FINITE_DOC.items() if k != "claims"}
    report = check_user_file(write(tmp_path, doc))
    assert report.passed
    # informational outcomes: computed values recorded, nothing expected
    assert len(report.outcomes) == 2 * 25
    assert all(o.expected == "none" for o in report.outcomes)


def test_external_claims_file_appends(tmp_path):
    doc = {k: v for k, v in EX_3_2_DOC.items() if k != "claims"}
    doc["claims"] = [
        {"predicate": "is_open", "set": "A", "space": 1, "expected": False}
    ]
    claims = {
        "claims": [
            {"predicate": "is_ij_preopen", "set": "A", "pair": [1, 2], "expected": False}
        ]
    }
    claims_path = tmp_path / "claims.json"
    claims_path.write_text(json.dumps(claims), encoding="utf-8")
    report = check_user_file(write(tmp_path, doc), claims_path)
    assert report.passed
    assert len(report.outcomes) == 2


def test_json_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "finite",\n  oops\n}', encoding="utf-8")
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(path)
    assert "line 3" in str(exc.value)


def test_axiom_violation_is_positioned(tmp_path):
    doc = {
        "kind": "finite",
        "carrier": 3,
        "opens1": [[], [0], [1], [0, 1, 2]],
        "opens2": [[], [0, 1, 2]],
    }
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(write(tmp_path, doc))
    message = str(exc.value)
    assert "opens1" in message and "union" in message


def test_unknown_atom_in_family(tmp_path):
    doc = json.loads(json.dumps(EX_3_2_DOC))
    doc["family1"]["region"] = ["nope"]
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(write(tmp_path, doc))
    assert "nope" in str(exc.value)


def test_overlapping_family_rejected(tmp_path):
    doc = json.loads(json.dumps(EX_3_2_DOC))
    doc["family1"]["mandatory"] = ["irr01"]
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(write(tmp_path, doc))
    assert "disjoint" in str(exc.value)


def test_fat_mandatory_rejected(tmp_path):
    doc = json.loads(json.dumps(EX_3_2_DOC))
    doc["family1"] = {"region": [], "mandatory": ["rats"]}
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(write(tmp_path, doc))
    assert "single points" in str(exc.value)


def test_limit_points_claims_finite_only(tmp_path):
    doc = json.loads(json.dumps(FINITE_DOC))
    doc["claims"] = [
        {"predicate": "limit_points", "set": "A", "space": 1, "expected": [1]}
    ]
    assert check_user_file(write(tmp_path, doc)).passed
    sym = json.loads(json.dumps(EX_3_2_DOC))
    sym["claims"] = [{"predicate": "limit_points", "set": "A", "space": 1}]
    with pytest.raises(SpaceFileError):
        check_user_file(write(tmp_path, sym, "sym.json"))


def test_bad_predicate_and_pair(tmp_path):
    doc = json.loads(json.dumps(FINITE_DOC))
    doc["claims"] = [{"predicate": "launch_missiles", "set": "A"}]
    with pytest.raises(SpaceFileError):
        check_user_file(write(tmp_path, doc))
    doc["claims"] = [{"predicate": "is_ij_preopen", "set": "A", "pair": [1, 1]}]
    with pytest.raises(SpaceFileError):
        check_user_file(write(tmp_path, doc))


def test_unknown_named_set_in_claim(tmp_path):
    doc = json.loads(json.dumps(FINITE_DOC))
    doc["claims"] = [{"predicate": "is_open", "set": "nope", "space": 1}]
    with pytest.raises(SpaceFileError) as exc:
        check_user_file(write(tmp_path, doc))
    assert "nope" in str(exc.value)


def test_readme_lists_the_file_predicates_in_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("Supported claim predicates:")
    paragraph = readme[start : readme.index("\n\n", start)]
    assert tuple(re.findall(r"`(\w+)`", paragraph)) == FILE_PREDICATES


def test_bad_kind(tmp_path):
    with pytest.raises(SpaceFileError):
        check_user_file(write(tmp_path, {"kind": "quantum"}))


def test_missing_file():
    with pytest.raises(SpaceFileError):
        check_user_file("/does/not/exist.json")


def test_parse_spacefile_direct():
    entry = parse_spacefile(json.dumps(FINITE_DOC), "inline")
    assert entry.entry_id == "file:inline"
    assert entry.bispace.first.size == 2


def test_user_supplied_carriers_beyond_enumeration_limit(tmp_path):
    # enumeration stops at 4 points, but explicit user spaces may be larger
    doc = {
        "kind": "finite",
        "carrier": 6,
        "opens1": [[], [0, 1], [0, 1, 2, 3, 4, 5]],
        "opens2": [[], [5], [0, 1, 2, 3, 4, 5]],
        "sets": {"A": [0]},
        "claims": [
            {"predicate": "closure", "set": "A", "space": 2, "expected": [0, 1, 2, 3, 4]},
            {"predicate": "is_ij_preopen", "set": "A", "pair": [1, 2], "expected": True},
        ],
    }
    report = check_user_file(write(tmp_path, doc))
    assert report.passed


def _indiscrete_doc(points):
    everything = list(range(points))
    return {
        "kind": "finite",
        "carrier": points,
        "opens1": [[], everything],
        "opens2": [[], everything],
        "sets": {"A": [0]},
    }


def _atoms_doc(count):
    atoms = [{"id": f"a{i}", "cardinality": "singleton"} for i in range(count)]
    return {
        "kind": "symbolic",
        "atoms": atoms,
        "family1": {"region": ["a0"], "mandatory": []},
        "family2": {"region": [], "mandatory": []},
        "sets": {"A": ["a0"]},
    }


def test_carrier_over_limit_rejected_before_any_set_is_built():
    start = time.perf_counter()
    with pytest.raises(SpaceFileError) as exc:
        parse_spacefile(json.dumps(_indiscrete_doc(24)), "big")
    assert time.perf_counter() - start < 1.0
    message = str(exc.value)
    assert "big.carrier" in message
    assert f"limit of {MAX_CARRIER} points" in message


def test_atoms_over_limit_rejected():
    with pytest.raises(SpaceFileError) as exc:
        parse_spacefile(json.dumps(_atoms_doc(MAX_ATOMS + 1)), "wide")
    message = str(exc.value)
    assert "wide.atoms" in message
    assert f"limit of {MAX_ATOMS} atoms" in message


def test_documents_at_the_limits_parse():
    finite = parse_spacefile(json.dumps(_indiscrete_doc(MAX_CARRIER)), "f")
    assert finite.bispace.first.size == MAX_CARRIER
    symbolic = parse_spacefile(json.dumps(_atoms_doc(MAX_ATOMS)), "s")
    assert len(symbolic.bispace.first.universe) == MAX_ATOMS


# ---------------------------------------------------------------------------
# Fuzzing: any JSON value either parses or raises SpaceFileError
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

# values a document plausibly holds somewhere, mixed with arbitrary ones
NEAR_VALUES = (
    st.sampled_from(
        ["A", "B", "nope", "irr01", "rats", "finite", "symbolic", "countable",
         [1, 2], [2, 1], [0], [0, 1], [True, 2], [0.0], [[0]], 1, 2, 3, True]
    )
    | JSON_VALUES
)

SET_ARGS = st.sampled_from(
    ["A", "B", "cl2A", "nope", [0], [0, 1], [0, 7], [True], ["irr01"],
     ["rats", "irr12"], ["zz"]]
) | JSON_VALUES

CLAIMS = st.lists(
    st.fixed_dictionaries(
        {"predicate": st.sampled_from(FILE_PREDICATES) | JSON_VALUES},
        optional={
            "set": SET_ARGS,
            "set2": SET_ARGS,
            "witness": SET_ARGS,
            "pair": st.sampled_from([[1, 2], [2, 1], [1, 1], [True, 2], 5, [1, 2, 3]])
            | JSON_VALUES,
            "space": st.sampled_from([1, 2, 3, True]) | JSON_VALUES,
            "expected": st.sampled_from(
                [True, False, None, [0], [0, 7], ["irr01"], ["zz"], 1]
            )
            | JSON_VALUES,
            "note": st.text(max_size=4) | JSON_VALUES,
        },
    ),
    min_size=1,
    max_size=3,
)


def parses_or_rejects(value):
    """parse_spacefile on the JSON text of `value`: the entry, or None when
    the document was rejected with a SpaceFileError."""
    try:
        return parse_spacefile(json.dumps(value), "fuzz")
    except SpaceFileError:
        return None


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for idx, child in enumerate(value):
            yield from _paths(child, prefix + (idx,))


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_fuzz_arbitrary_json_parses_or_rejects(value):
    parses_or_rejects(value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FINITE_DOC, EX_3_2_DOC]), st.data())
def test_fuzz_mutated_documents_parse_or_reject(base, data):
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            # a copy: later mutations must not edit the strategy's samples
            parent[path[-1]] = json.loads(json.dumps(data.draw(NEAR_VALUES)))
    parses_or_rejects(doc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FINITE_DOC, EX_3_2_DOC]), CLAIMS)
def test_fuzz_claims_parse_or_reject_and_accepted_claims_evaluate(base, claims):
    entry = parses_or_rejects({**base, "claims": claims})
    if entry is not None:
        # a claim accepted by the parser must evaluate without raising
        verify_entry(entry)
