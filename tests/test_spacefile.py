import itertools
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispacelab import props
from bispacelab.catalog import (
    CATALOG_IDS,
    ENTRIES,
    PREDICATES,
    CatalogEntry,
    evaluate_claim,
    verify_entry,
)
from bispacelab.cli import main
from bispacelab.finite import PointSet
from bispacelab.maps import FiniteMap
from bispacelab.spacefile import (
    MAX_ATOMS,
    MAX_CARRIER,
    SpaceFileError,
    check_user_file,
    parse_claims,
    parse_spacefile,
)

def shipped(entry_id):
    """The catalog's document for `entry_id`, as parsed JSON."""
    return json.loads((ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8"))


EX_3_2_DOC = shipped("ex-3.2")
EX_4_1_DOC = shipped("ex-4.1")

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
    assert report.entry == "ex-3.2"
    assert len(report.outcomes) == 6


def test_entries_directory_holds_one_document_per_catalog_id():
    assert sorted(p.name for p in ENTRIES.iterdir()) == [
        f"{entry_id}.json" for entry_id in CATALOG_IDS
    ]


def _set_assignment(doc, source, target):
    doc["map"]["assignment"][source] = target


def _wide_target(doc):
    doc["map"]["target"]["atoms"] = [
        {"id": f"t{i}", "cardinality": "singleton"} for i in range(MAX_ATOMS + 1)
    ]


def _claim_on_target_without_map(doc):
    del doc["map"]
    doc["claims"] = [
        {"predicate": "closure", "set": ["irr01"], "space": 1, "on": "target"}
    ]


def _finite_with_map(doc):
    doc.update(kind="finite", carrier=1, opens1=[[], [0]], opens2=[[], [0]])
    doc["sets"] = {"A": [0]}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: _set_assignment(d, "zz", "3/2"), "unknown atom id 'zz'"),
        (lambda d: _set_assignment(d, "rats01", "nope"), "unknown atom id 'nope'"),
        (lambda d: _set_assignment(d, "rats01", "rats12"), "must be a single point"),
        (lambda d: _set_assignment(d, "rats01", ["3/2"]), "atom id -> atom id"),
        (lambda d: d["map"]["assignment"].pop("rats01"), "misses source atoms"),
        (_wide_target, f"limit of {MAX_ATOMS} atoms"),
        (lambda d: d["map"].pop("target"), "missing required field 'target'"),
        (_claim_on_target_without_map, "on: needs a map section"),
        (lambda d: d.pop("map"), "preimage needs a map section"),
        (
            lambda d: d["claims"][0].update(on="source"),
            "must be 'target' for preimage",
        ),
        (
            lambda d: d["claims"][1].update(on="target"),
            "named set 'irrational-part' is not on the target",
        ),
        (
            lambda d: d["map"]["target"]["sets"].update({"both-parts": []}),
            "also names a source set",
        ),
        (_finite_with_map, "map: applies to symbolic documents"),
        # the rest of the document grammar
        (lambda d: d.update(atoms=[]), "must be a nonempty list"),
        (lambda d: d["atoms"].append(d["atoms"][0]), "duplicate atom id"),
        (lambda d: d["atoms"].__setitem__(0, "irr01"), "atoms[0]: must be an object"),
        (lambda d: d.update(family1=[]), "must be an object with region/mandatory"),
        (lambda d: d.update(sets=[]), "must be an object of name -> member list"),
        (lambda d: d.update(map=[]), "must be an object with target and assignment"),
        (lambda d: d["map"].update(target=[]), "target: must be an object"),
        (lambda d: d.update(claims={}), "claims must be a list"),
        (lambda d: d["claims"][1].update(on="left"), "must be 'source' or 'target'"),
        (
            lambda d: d.update(claims=[{
                "predicate": "open_between", "set": "both-parts",
                "set2": "rational-part", "space": 1,
            }]),
            "open_between needs set inside set2",
        ),
        (lambda d: d["claims"][1].update(note=5), "note: must be a string"),
        (lambda d: d.update(id=5), "id: must be a string"),
        (lambda d: d.update(title=["ex-4.1"]), "title: must be a string"),
    ],
)
def test_malformed_map_section_is_an_input_error(tmp_path, capsys, mutate, message):
    doc = json.loads(json.dumps(EX_4_1_DOC))
    mutate(doc)
    assert main(["check", str(write(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space.json") and message in err, err


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


@pytest.mark.parametrize(
    "claim",
    [
        # no witness computed: a closure, and a preopen claim that fails
        {"predicate": "closure", "set": "A", "space": 1, "expected": [0, 1]},
        {"predicate": "is_preopen", "set": "B", "space": 1, "expected": False},
        # a witness computed, but another one ({0})
        {"predicate": "is_ij_preopen", "set": "A", "pair": [1, 2], "expected": True},
    ],
)
def test_expected_witness_is_always_checked(tmp_path, capsys, claim):
    doc = {**FINITE_DOC, "claims": [{**claim, "expected_witness": "B"}]}
    assert main(["check", str(write(tmp_path, doc))]) == 1
    (line,) = [l for l in capsys.readouterr().out.splitlines() if "FAIL " in l]
    assert "with witness {1}, computed" in line, line


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
    assert re.findall(r"`(\w+)`", paragraph) == [
        name for name, spec in PREDICATES.items() if "map" not in spec.reads
    ]


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
         "sqrt2", "3/2", "source", "target",
         [1, 2], [2, 1], [0], [0, 1], [True, 2], [0.0], [[0]], 1, 2, 3, True]
    )
    | JSON_VALUES
)

SET_ARGS = st.sampled_from(
    ["A", "B", "cl2-A", "nope", "rational-part", "both-parts", "open-sqrt2",
     [0], [0, 1], [0, 7], [True], ["irr01"], ["rats", "irr12"], ["zz"],
     ["rats01"], ["sqrt2"], ["3/2", "rats12"]]
)


def claims_on(base):
    """Lists of 1-3 claims on the document `base`. Predicates mostly fit
    `base` (no map predicate without a map), a key the predicate reads is
    usually there and any other now and then, values are mostly names and
    member lists of `base`, and at most one key holds arbitrary JSON. A
    junk value in every key would have the parser reject nearly every
    claim, so the accepted ones would go untested."""
    target = base.get("map", {}).get("target", {})
    named = {**base.get("sets", {}), **target.get("sets", {})}
    set_args = st.sampled_from(sorted(named)) | st.sampled_from(list(named.values()))
    values = {
        "set": set_args | SET_ARGS,
        "set2": set_args | SET_ARGS,
        "witness": set_args | SET_ARGS,
        "expected_witness": set_args | SET_ARGS,
        "on": st.sampled_from(["source", "target", "both"]),
        "pair": st.sampled_from([[1, 2], [2, 1]])
        | st.sampled_from([[1, 1], [True, 2], 5, [1, 2, 3]]),
        "space": st.sampled_from([1, 2]) | st.sampled_from([3, True]),
        "expected": st.sampled_from([True, False, None])
        | st.sampled_from(list(named.values()))
        | st.sampled_from([[0], [0, 7], ["irr01"], ["zz"], ["sqrt2"], 1]),
        "note": st.text(max_size=4),
    }
    fitting = [
        name
        for name, spec in PREDICATES.items()
        if "map" in base or "map" not in spec.reads
    ]
    predicates = st.sampled_from(fitting) | st.sampled_from(list(PREDICATES))

    @st.composite
    def claim(draw):
        predicate = draw(predicates)
        reads = PREDICATES[predicate].reads
        doc = {"predicate": predicate}
        for key, strategy in values.items():
            read = key in reads or key == "expected"
            if draw(st.integers(0, 3)) < (3 if read else 1):
                doc[key] = draw(strategy)
        if draw(st.integers(0, 3)) == 0:
            doc[draw(st.sampled_from(["predicate", *values]))] = draw(JSON_VALUES)
        return doc

    return st.lists(claim(), min_size=1, max_size=3)


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


def test_every_map_claim_the_parser_accepts_evaluates():
    """Every predicate over a grid of sides, sets and expectations on the
    ex-4.1 document: a claim that parses must evaluate without raising."""
    sides = (None, "source", "target")
    sets = ("rational-part", "open-sqrt2", ["3/2"], ["irr01"])
    accepted = set()
    for predicate, on, value, expected in itertools.product(
        PREDICATES, sides, sets, (True, ["sqrt2"], ["irr01"])
    ):
        claim = {
            "predicate": predicate,
            **{key: value for key in ("set", "set2", "witness", "expected_witness")},
            "pair": [1, 2],
            "expected": expected,
            **({"on": on} if on else {}),
        }
        entry = parses_or_rejects({**EX_4_1_DOC, "claims": [claim]})
        if entry is not None:
            verify_entry(entry)
            accepted.add((predicate, entry.claims[0].args.get("on", "source")))
    assert {name for name, _ in accepted} == set(PREDICATES) - {"limit_points"}
    assert ("closure", "target") in accepted and ("preimage", "target") in accepted
    assert ("is_ij_preopen", "target") in accepted


@pytest.mark.parametrize(
    "predicate, direct",
    [
        ("is_ij_preopen", lambda by, a: props.is_ij_preopen(by, (1, 2), a)),
        ("pcl", lambda by, a: props.pcl(by, (1, 2), a)),
        ("is_pairwise_preopen", props.is_pairwise_preopen),
        (
            "closed_supersets_interior",
            lambda by, a: props.closed_supersets_interior(by, (1, 2), a),
        ),
    ],
)
def test_pair_predicates_read_the_target_bispace_on_target(predicate, direct):
    claim = {"predicate": predicate, "set": "open-sqrt2", "on": "target"}
    if predicate != "is_pairwise_preopen":
        claim["pair"] = [1, 2]
    entry = parse_spacefile(json.dumps({**EX_4_1_DOC, "claims": [claim]}), "ex")
    want = direct(entry.target_bispace, entry.named_sets["open-sqrt2"])
    if isinstance(want, props.Witnessed):
        want = (want.holds, want.witness)
    else:
        want = (want, None)
    value, witness, _ = evaluate_claim(entry, entry.claims[0])
    assert (value, witness) == want


def test_named_sets_are_read_on_their_own_side():
    # a 3-point -> 3-point finite map (no document has a finite map section
    # yet): both carriers have one size, so only the entry's record of the
    # target's names keeps the target set T off the source, and S off the
    # target
    bx = props.finite_bispace(3, [[], [0], [0, 1, 2]], [[], [0, 1, 2]])
    by = props.finite_bispace(3, [[], [2], [0, 1, 2]], [[], [0, 1, 2]])
    named = {"S": PointSet.of(3, [0]), "T": PointSet.of(3, [2])}
    f = FiniteMap(3, 3, (0, 1, 2))
    entry = CatalogEntry("finite-map", "", "", bx, named, (), f, by, frozenset("T"))
    for name, on in (("T", "source"), ("S", "target")):
        claim = {"predicate": "is_open", "set": name, "space": 1, "on": on}
        message = f"named set '{name}' is not on the {on}"
        with pytest.raises(SpaceFileError, match=message):
            parse_claims([claim], entry, "claims")
    claims = parse_claims(
        [
            {"predicate": "is_open", "set": "S", "space": 1},
            {"predicate": "is_open", "set": "T", "space": 1, "on": "target"},
        ],
        entry,
        "claims",
    )
    assert [evaluate_claim(entry, c)[0] for c in claims] == [True, True]


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_fuzz_arbitrary_json_parses_or_rejects(value):
    parses_or_rejects(value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FINITE_DOC, EX_3_2_DOC, EX_4_1_DOC]), st.data())
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
@given(st.sampled_from([FINITE_DOC, EX_3_2_DOC, EX_4_1_DOC]), st.data())
def test_fuzz_claims_parse_or_reject_and_accepted_claims_evaluate(base, data):
    entry = parses_or_rejects({**base, "claims": data.draw(claims_on(base))})
    if entry is not None:
        # a claim accepted by the parser must evaluate without raising
        verify_entry(entry)
