import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bispacelab.catalog import CATALOG_IDS, ENTRIES
from bispacelab.cli import main
from bispacelab.reports import parse_machine
from bispacelab.suites import SET_SUITES


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bispacelab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_verify_catalog_passes():
    result = run_cli("verify-catalog")
    assert result.returncode == 0
    assert result.stdout.count("[PASS]") == 9


def test_closed_stdout_ends_without_a_traceback():
    # as in `bispace-lab --format machine suite --n 3 | head -1` once the
    # reader has gone: stdout is a pipe whose read end is already closed, so
    # the first write reaches no reader (the whole output fits in the pipe
    # buffer, so closing the read end later would race the child's writes)
    for command in (("suite", "--n", "3"), ("verify-catalog",)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "bispacelab", "--format", "machine", *command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1, command
        assert result.stderr == b"", command


def test_verify_catalog_machine_round_trip():
    result = run_cli("--format", "machine", "verify-catalog")
    assert result.returncode == 0
    records = parse_machine(result.stdout)
    summaries = [r for r in records if "summary" in r]
    assert [r["entry"] for r in summaries] == [
        "ex-3.1",
        "ex-3.2",
        "ex-3.3",
        "ex-3.4",
        "ex-3.5",
        "ex-3.6",
        "ex-3.7",
        "ex-3.8",
        "ex-4.1",
    ]


def test_each_shipped_document_replays_its_catalog_block(capsys):
    assert main(["--format", "machine", "verify-catalog"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    for entry_id in CATALOG_IDS:
        doc = str(ENTRIES / f"{entry_id}.json")
        assert main(["--format", "machine", "check", doc]) == 0
        block = [line for line in lines if json.loads(line)["entry"] == entry_id]
        assert capsys.readouterr().out == "".join(block), entry_id


def test_enumerate_counts():
    result = run_cli("enumerate", "--n", "2")
    assert result.returncode == 0
    assert "total: 4 spaces on 2 points" in result.stdout


def test_enumerate_machine_format():
    result = run_cli("--format", "machine", "enumerate", "--n", "1")
    assert result.returncode == 0
    (record,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert record == {"n": 1, "index": 0, "opens": [[], [0]]}


def test_enumerate_out_of_range_is_input_error():
    result = run_cli("enumerate", "--n", "9")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_suite_subcommand_small():
    result = run_cli("suite", "--n", "2", "--which", "closure-laws,lemma-3.1")
    assert result.returncode == 0
    assert result.stdout.count("[PASS]") == 2


def test_suite_rejects_unknown_name():
    # an empty --which names the one suite "", as "thm-3.3," does
    for which in ("bogus", ""):
        result = run_cli("suite", "--n", "2", "--which", which)
        assert_input_error(result)
        assert f"unknown suite name(s) [{which!r}]" in result.stderr


def test_suite_rejects_unknown_name_beside_all():
    # "all" must not swallow a misspelt name given with it
    result = run_cli("suite", "--n", "2", "--which", "all,no-such-suite")
    assert_input_error(result)
    assert "no-such-suite" in result.stderr


def test_suite_rejects_seed_for_exhaustive_run():
    result = run_cli("suite", "--n", "2", "--seed", "5")
    assert result.returncode == 2


def test_check_command_pass_fail_and_error(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "kind": "finite",
                "carrier": 2,
                "opens1": [[], [0], [0, 1]],
                "opens2": [[], [0, 1]],
                "sets": {"A": [0]},
                "claims": [
                    {"predicate": "is_open", "set": "A", "space": 1, "expected": True}
                ],
            }
        ),
        encoding="utf-8",
    )
    assert run_cli("check", str(good)).returncode == 0

    failing = tmp_path / "failing.json"
    failing.write_text(
        good.read_text().replace("true", "false"), encoding="utf-8"
    )
    assert run_cli("check", str(failing)).returncode == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    result = run_cli("check", str(broken))
    assert result.returncode == 2
    assert "line 1" in result.stderr

    # the discrete 12-point family without {0,1}: the first unclosed pair
    doc = json.loads(
        (Path(__file__).parent / "data" / "check_finite_12.json").read_text()
    )
    doc["opens1"].remove([0, 1])
    unclosed = tmp_path / "unclosed.json"
    unclosed.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(unclosed))
    assert result.returncode == 2
    assert result.stderr == (
        "error: unclosed.json.opens1: axiom union-closed: "
        "union of {0} and {1} is missing\n"
    )


def test_determinism_across_hash_seeds():
    # byte-identical machine output even under different string-hash seeds,
    # on the finite suites, the symbolic catalog and a symbolic document
    symbolic_doc = str(Path(__file__).parent / "data" / "check_symbolic_8.json")
    for args in (
        ("suite", "--n", "2", "--which", "all"),
        ("verify-catalog",),
        ("check", symbolic_doc),
    ):
        runs = [
            run_cli("--format", "machine", *args, env_extra={"PYTHONHASHSEED": seed})
            for seed in ("1", "271828")
        ]
        assert runs[0].returncode == runs[1].returncode == 0, args
        assert runs[0].stdout == runs[1].stdout, args


def test_check_rejects_oversized_carrier_quickly(tmp_path):
    # a 24-point indiscrete bispace is a tiny file, but its subset lattice
    # has 2^24 sets; check must refuse it instead of searching
    doc = tmp_path / "big.json"
    everything = list(range(24))
    doc.write_text(
        json.dumps(
            {
                "kind": "finite",
                "carrier": 24,
                "opens1": [[], everything],
                "opens2": [[], everything],
                "sets": {"A": [0]},
            }
        ),
        encoding="utf-8",
    )
    start = time.perf_counter()
    result = run_cli("check", str(doc))
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 2
    assert "limit of 12 points" in result.stderr
    assert "Traceback" not in result.stderr


GOOD_DOC = {
    "kind": "finite",
    "carrier": 2,
    "opens1": [[], [0], [0, 1]],
    "opens2": [[], [0, 1]],
    "sets": {"A": [0]},
}


def assert_input_error(result):
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def check_claims(tmp_path, claims, doc=GOOD_DOC):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, "claims": claims}), encoding="utf-8")
    return run_cli("check", str(path))


def test_check_rejects_non_utf8_document(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(GOOD_DOC).encode() + b" \xff\xfe")
    result = run_cli("check", str(path))
    assert_input_error(result)
    assert "UTF-8" in result.stderr


def test_check_rejects_non_utf8_claims_file(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    claims = tmp_path / "claims.json"
    claims.write_bytes(b'[{"predicate": "is_open", "note": "\xe9"}]')
    result = run_cli("check", str(doc), "--claims", str(claims))
    assert_input_error(result)
    assert "UTF-8" in result.stderr


def test_check_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    result = run_cli("check", str(path))
    assert_input_error(result)
    assert "nested too deeply" in result.stderr


def test_check_rejects_pair_predicate_without_pair(tmp_path):
    result = check_claims(tmp_path, [{"predicate": "is_ij_preopen", "set": "A"}])
    assert_input_error(result)
    assert "'pair'" in result.stderr


def test_check_rejects_non_list_pair(tmp_path):
    result = check_claims(
        tmp_path, [{"predicate": "is_ij_preopen", "set": "A", "pair": 5}]
    )
    assert_input_error(result)
    assert "pair" in result.stderr


def test_check_rejects_non_string_set_argument(tmp_path):
    result = check_claims(
        tmp_path, [{"predicate": "is_open", "set": 5, "space": 1}]
    )
    assert_input_error(result)
    assert ".set" in result.stderr


def test_check_rejects_expected_point_outside_carrier(tmp_path):
    result = check_claims(
        tmp_path,
        [{"predicate": "closure", "set": "A", "space": 1, "expected": [0, 7]}],
    )
    assert_input_error(result)
    assert "outside carrier" in result.stderr


def test_check_rejects_non_integer_set_members(tmp_path):
    for members in ([0.0], [[0]], [True]):
        result = check_claims(tmp_path, [], {**GOOD_DOC, "sets": {"A": members}})
        assert_input_error(result)
        assert "sets.A" in result.stderr


def test_check_rejects_booleans_as_open_set_points(tmp_path):
    # true would otherwise be read as point 1
    doc = {**GOOD_DOC, "opens1": [[], [0], [0, True]]}
    result = check_claims(tmp_path, [], doc)
    assert_input_error(result)
    assert "opens1[2]" in result.stderr


# sha256 of `--format machine check` on the committed 8-point documents,
# recorded before algebra_sets and the trace sets shared one cached subset
# order; finite witnesses (smallest open, semipreopen witness) follow that
# order, and no catalog entry is finite
CHECK_DIGESTS = {
    "check_finite_8.json":
        "a8cb5ffe388cc835d240ce3d4d42f266fa0fb3ada43bae317e265e889e13f062",
    "check_symbolic_8.json":
        "82a8ef45ba63350ec74cd0983e56d879e3ac2093e6e4514aa4d62ce3d7268637",
    # at the carrier limit, with the discrete tau_1's 4,096 opens
    "check_finite_12.json":
        "7f0f53a7f7812e5226b8a3f8a49e249625886145692d77adb283f895d79b305f",
}

# sha256 of `--format machine suite` on every suite at n = 3, and on the
# set-level suites plus hierarchy at n = 4 with the sampled sweep at seed 0;
# they pin every `checked` count, violation list and note
SUITE_DIGESTS = {
    ("--n", "3"):
        "239c3bd25d9d9ab32a843f76d8db37a334595011807672f35ff26531d775d581",
    ("--n", "4", "--seed", "0", "--which",
     "closure-laws,lemma-3.1,C1-iff-C2,open-implies-preopen,note-3.4,"
     "remark-3.1,hierarchy"):
        "b2159cb72c3dfd6080abdc5ccb35b889db27b1f1c0856c15e9f77e2b1b0df6a9",
}


# sha256 of the other machine outputs the CI job pins: every cataloged
# verdict and witness, the order of the 355 topologies on 4 points, and the
# 13 set-level suites at n = 4
OUTPUT_DIGESTS = {
    ("verify-catalog",):
        "0124d27748f626bebe974f08a69a8988a374ce6af635e6698d0734bed3f3cd05",
    ("enumerate", "--n", "4"):
        "e5195fbfcb5379dcf88d3de4cd9025ef8ddf29fc336dd91909dbedec14a28795",
    ("suite", "--n", "4", "--which", ",".join(SET_SUITES)):
        "7229c9a24982d04906ee0f5ac06175af635455a6903599bf7dcc4f904fe1040c",
}


def test_check_machine_output_is_pinned():
    data = Path(__file__).parent / "data"
    for name, digest in CHECK_DIGESTS.items():
        result = run_cli("--format", "machine", "check", str(data / name))
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, name


def test_suite_machine_output_is_pinned():
    for args, digest in SUITE_DIGESTS.items():
        result = run_cli("--format", "machine", "suite", *args)
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, args


def test_catalog_enumeration_and_set_suite_outputs_are_pinned():
    for args, digest in OUTPUT_DIGESTS.items():
        result = run_cli("--format", "machine", *args)
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, args


# every suite at n = 4 with the sampled sweep at seed 7
FULL_N4_DIGEST = {
    ("--n", "4", "--seed", "7"):
        "4782f9cf28705160bea1da83ce5f611424970b233bea4a36c924275e2b351970",
}


# more processes than CPUs on a 2-vCPU machine at 3 and 6
@pytest.mark.parametrize("processes", [1, 2, 3, 6], indirect=True)
def test_suite_machine_output_does_not_depend_on_the_worker_count(processes, capsys):
    for args, digest in {**SUITE_DIGESTS, **FULL_N4_DIGEST}.items():
        assert main(["--format", "machine", "suite", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
