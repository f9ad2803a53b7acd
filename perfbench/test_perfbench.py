"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import docgen
import run
from bispacelab.finite import FiniteSpace
from bispacelab.spacefile import SpaceFileError, parse_spacefile

SEEDS = (0, 1, 7, 12345)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_byte_identical_documents(seed):
    assert docgen.generate(seed) == docgen.generate(seed)


def test_seeds_give_different_documents():
    texts = {tuple(d.text for d in docgen.generate(seed)) for seed in SEEDS}
    assert len(texts) == len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_finite_documents_satisfy_the_axioms(seed):
    finite = [d for d in docgen.generate(seed) if d.kind == "finite"]
    assert {d.size for d in finite} == {6, 8, 10}
    for doc in finite:
        raw = json.loads(doc.text)
        for field in ("opens1", "opens2"):
            FiniteSpace(raw["carrier"], raw[field])
        parse_spacefile(doc.text, doc.name)


@pytest.mark.parametrize("seed", SEEDS)
def test_symbolic_documents_parse_and_malformed_ones_are_rejected(seed):
    docs = docgen.generate(seed)
    for doc in docs:
        if doc.kind == "malformed":
            with pytest.raises(SpaceFileError):
                parse_spacefile(doc.text, doc.name)
        elif doc.kind == "symbolic":
            assert parse_spacefile(doc.text, doc.name).bispace.is_symbolic
    malformed = sum(d.kind == "malformed" for d in docs)
    assert 0.05 <= malformed / len(docs) <= 0.15


def test_named_set_sizes_do_not_depend_on_the_seed():
    def shape(seed):
        return [(d.kind, d.size, [len(s) for s in json.loads(d.text)["sets"].values()])
                for d in docgen.generate(seed) if d.kind != "malformed"]

    assert all(shape(seed) == shape(SEEDS[0]) for seed in SEEDS)


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_split_spans_by_layer():
    spans = [
        {"id": 0, "name": "cli", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "tables.bispace_tables", "args": [4], "parent": 0,
         "start": 0.0, "end": 4.0},
        {"id": 2, "name": "suites.sweep", "parent": 0, "start": 4.0, "end": 7.0,
         "results": [["hierarchy", 10, 1.0], ["sampled-maps-n4", 200, 0.5]]},
        {"id": 3, "name": "reports.render", "parent": 0, "start": 7.0, "end": 7.5},
    ]
    traced = {"spans": spans, "wall_s": 10.0, "unattributed_builds": 0,
              "cache": {"hits": 5, "misses": 2, "entries": 2}}
    got = run.layer_metrics(traced, untraced_wall=9.0)
    assert set(got) == set(run.PER_LAYER)
    assert got["tables.bispace_tables.n4_s"] == got["tables.build_s"] == 4.0
    assert got["suites.hierarchy.sweep_s"] == 2.5
    assert got["suites.sampled-maps-n4.sweep_s"] == 0.5
    assert got["suites.checked"] == 210
    assert got["cli.self_s"] == 2.5
    assert got["trace.overhead_s"] == 1.0
    assert got["tables.cache_misses"] == 2
