"""Repository benchmark for bispace-lab.

    python3 perfbench/run.py --workload suite-n3 --seed 0 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  suite-n3    every theorem suite at n = 3 (exhaustive; the seed is ignored)
  tables-n4   the set-level suites plus hierarchy at n = 4, seeded
  check-docs  `check` on seeded space documents, plus verify-catalog

Load is one closed-loop client: one pass at a time, each pass in a fresh
single-threaded interpreter, because the lru_cache tables live per process
and every CLI user pays for them cold. Passes repeat until --seconds is
spent (at least MIN_PASSES), and timings are medians over passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass,
which times each call into a layer from outside, plus untraced passes for
the tracing overhead, and prints the per-layer metrics. Either way every
pass's output is checked; any failed check makes the exit code 1. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import docgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

WORKLOADS = ("suite-n3", "tables-n4", "check-docs")
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_SAMPLES = 15      # at least this many set-up samples per run
SETUP_PER_PASS = 3
RUN_LIMIT_S = 170.0
MAX_MAP_CARRIER = 3     # map suites sweep source/target carriers up to 3 points
N4_SUITES = (
    "closure-laws", "lemma-3.1", "C1-iff-C2", "open-implies-preopen",
    "note-3.4", "remark-3.1", "hierarchy",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

SUITE_NAMES = tuple(EXPECTED["checked"]["suite-n3"]) + ("sampled-maps-n4",)
PER_LAYER = {
    **{f"tables.{b}_s": "s" for b in (
        "topology_tables", "bispace_tables.n3", "bispace_tables.n4",
        "trace_tables", "map_tables", "continuity_grids", "net_catalog",
        "convergence_bits", "build")},
    "tables.cache_hits": "count",
    "tables.cache_misses": "count",
    "tables.cache_entries": "count",
    "tables.unattributed_builds": "count",
    "finite.count_spaces_s": "s",
    "finite.primitives_s": "s",
    **{f"suites.{name}.sweep_s": "s" for name in SUITE_NAMES},
    "suites.sweep_s": "s",
    "suites.checked": "count",
    "props.spcl.finite_s": "s",
    "props.spcl.symbolic_s": "s",
    "props.pcl.finite_s": "s",
    "props.pcl.symbolic_s": "s",
    "props.semipreopen_s": "s",
    "props.preopen_s": "s",
    "props.semiopen_s": "s",
    "props.claims": "count",
    "symbolic.primitives_s": "s",
    "spacefile.parse_s": "s",
    "spacefile.rejected": "count",
    "catalog.verify_s": "s",
    "reports.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _prebuild(n: int, nets: bool) -> list:
    """Every cached builder call a workload's sweeps make, in build order.

    net_catalog and convergence_bits are called with one argument, as the
    suites call them, so the lru_cache keys match.
    """
    sizes = range(1, n + 1)
    map_sizes = range(1, min(n, MAX_MAP_CARRIER) + 1)
    pairs = [[m, k] for m in map_sizes for k in map_sizes]
    builds = [["finite", "count_spaces", [s]] for s in sizes]
    for name in ("topology_tables", "trace_tables", "bispace_tables"):
        builds += [["tables", name, [s]] for s in sizes]
    builds += [["tables", "map_tables", p] for p in pairs]
    builds += [["tables", "continuity_grids", p] for p in pairs]
    if nets:
        builds.append(["maps", "enumerate_directed_sets", [3]])
        builds += [["tables", "net_catalog", [s]] for s in map_sizes]
        builds += [["tables", "convergence_bits", [s]] for s in map_sizes]
    return builds


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class BenchError(Exception):
    """The benchmark cannot run here (no sources, a child died, time ran out)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode],
        cwd=ROOT, env=_child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _check_ready(line: str) -> None:
    words = line.split(maxsplit=1)
    if len(words) != 2 or words[0] != "ready":
        raise BenchError(f"child did not start: {line!r}")
    if not Path(words[1].strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported bispacelab from outside {SRC}: {words[1].strip()}")


def setup_sample() -> float:
    """Seconds from starting an interpreter until bispacelab.cli is imported."""
    start = time.perf_counter()
    proc = _spawn("setup")
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    _check_ready(line)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {err.strip()}")
    return elapsed


def run_child(mode: str, spec: dict, timeout: float) -> dict:
    proc = _spawn(mode)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} pass did not finish within {timeout:.0f} s") from None
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{mode} pass failed ({proc.returncode}): {err.strip()[-2000:]}")
    _check_ready(lines[0])
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Workloads and output checks
# ---------------------------------------------------------------------------

def _parse_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _members(rendered: str) -> set:
    return set(filter(None, rendered.strip("{}").split(",")))


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.docs = []
        if name == "suite-n3":
            self.argv = [["--format", "machine", "suite", "--n", "3"]]
            self.prebuild = _prebuild(3, nets=True)
        elif name == "tables-n4":
            self.argv = [["--format", "machine", "suite", "--n", "4", "--seed", str(seed),
                          "--which", ",".join(N4_SUITES)]]
            self.prebuild = _prebuild(4, nets=False)
        elif name == "check-docs":
            self.docs = docgen.generate(seed)
            self.argv = []
            for doc in self.docs:
                path = workdir / doc.name
                path.write_text(doc.text, encoding="utf-8")
                self.argv.append(["--format", "machine", "check", str(path)])
            self.argv.append(["--format", "machine", "verify-catalog"])
            self.prebuild = []
        else:
            raise BenchError(f"unknown workload {name!r}")
        self.digest = EXPECTED["digests"][name]
        # suite-n3 output does not depend on the seed, so its digest always applies
        self.check_digest = seed == DEFAULT_SEED or name == "suite-n3"

    def spec(self, pass_id: int) -> dict:
        return {"argv": self.argv, "prebuild": self.prebuild, "pass_id": pass_id}

    def check(self, units: list) -> tuple[dict, int]:
        """Problems per operation (a suite or a document), and the item count."""
        if self.docs:
            ops, items = self._check_docs(units)
        else:
            ops, items = self._check_suites(units[0])
        if self.check_digest:
            digest = hashlib.sha256("".join(u["stdout"] for u in units).encode()).hexdigest()
            ops["machine-output-digest"] = [] if digest == self.digest else [
                f"sha256 {digest} != recorded {self.digest}"]
        return ops, items

    def _check_suites(self, unit: dict) -> tuple[dict, int]:
        ops = {name: [] for name in EXPECTED["checked"][self.name]}
        try:
            records = _parse_lines(unit["stdout"])
        except json.JSONDecodeError as e:
            records = []
            for problems in ops.values():
                problems.append(f"machine output is not JSON lines: {e}")
        summaries = {r["entry"]: r for r in records if "summary" in r}
        for name, count in EXPECTED["checked"][self.name].items():
            r = summaries.get(name)
            if r is None:
                ops[name].append(f"missing (exit {unit['rc']}) {unit['raised'] or ''}")
            elif (r["summary"], r["violations"], r["checked"]) != ("pass", 0, count):
                ops[name].append(f"{r['summary']}, {r['violations']} violations, "
                                 f"checked {r['checked']} (frozen {count})")
        for name in sorted(summaries.keys() - ops.keys()):
            ops[name] = ["unexpected suite"]
        return ops, sum(r["checked"] for r in summaries.values())

    def _check_docs(self, units: list) -> tuple[dict, int]:
        ops = {doc.name: _check_document(doc, unit) for doc, unit in zip(self.docs, units)}
        catalog = units[-1]
        try:
            ok = (catalog["rc"] == 0 and not catalog["raised"]
                  and all(r.get("passed", r.get("summary") == "pass")
                          for r in _parse_lines(catalog["stdout"])))
        except json.JSONDecodeError:
            ok = False
        ops["verify-catalog"] = [] if ok else [f"failed (exit {catalog['rc']})"]
        return ops, len(self.docs)


def _check_document(doc, unit: dict) -> list:
    if unit["raised"]:
        return [f"raised:\n{unit['raised']}"]
    if doc.kind == "malformed":
        err = unit["stderr"]
        if unit["rc"] != 2 or unit["stdout"] or not err.startswith("error: ") \
                or "Traceback" in err:
            return [f"malformed document: exit {unit['rc']}, stderr {err[:200]!r}"]
        return []
    if unit["rc"] != 0:
        return [f"exit {unit['rc']}, stderr {unit['stderr'][:200]!r}"]
    try:
        records = _parse_lines(unit["stdout"])
    except json.JSONDecodeError as e:
        return [f"machine output is not JSON lines: {e}"]
    computed = {r["claim"]: r["computed"] for r in records if "claim" in r}
    problems = []
    if not records or records[-1].get("summary") != "pass":
        problems.append("report does not pass")
    for set_name, members in json.loads(doc.text)["sets"].items():
        a = {str(m) for m in members}
        for pair in ("(1, 2)", "(2, 1)"):
            get = lambda pred: computed.get(f"{pred}({set_name}, pair={pair})")
            po, wpo = get("is_ij_preopen"), get("is_ij_weakly_preopen")
            pcl, spcl = get("pcl"), get("spcl")
            if None in (po, wpo, pcl, spcl):
                problems.append(f"{set_name} {pair}: claims missing from the report")
                continue
            if doc.kind == "finite" and po != wpo:
                problems.append(f"{set_name} {pair}: preopen {po} but weakly preopen {wpo}")
            if not a <= _members(spcl) <= _members(pcl):
                problems.append(f"{set_name} {pair}: not A <= spcl {spcl} <= pcl {pcl}")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_times(spans: list) -> dict:
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    own = _self_times(traced["spans"])
    for s in traced["spans"]:
        name, d = s["name"], _duration(s)
        if "args" in s:  # a cached builder, built before any sweep
            values["tables.build_s"] += d
            if name == "tables.bispace_tables" and s["args"][0] in (3, 4):
                values[f"tables.bispace_tables.n{s['args'][0]}_s"] += d
            elif f"{name}_s" in values:
                values[f"{name}_s"] += d
        elif name == "suites.sweep":
            values["suites.sweep_s"] += d
            # one call can return several results (hierarchy at n = 4 also
            # runs sampled-maps-n4); those after the first use their own timing
            results = s["results"]
            later = sum(r[2] for r in results[1:])
            for i, (suite, checked, inner) in enumerate(results):
                values[f"suites.{suite}.sweep_s"] += inner if i else d - later
                values["suites.checked"] += checked
        elif "predicate" in s:
            values["props.claims"] += 1
            values[f"{name}_s"] += d
        elif name == "spacefile.parse":
            values["spacefile.parse_s"] += d
            values["spacefile.rejected"] += 1 if s.get("rejected") else 0
        elif name == "catalog.verify":
            values["catalog.verify_s"] += own[s["id"]]
        elif name == "cli":
            values["cli.self_s"] += own[s["id"]]
        elif name == "reports.render":
            values["reports.render_s"] += d
        else:
            raise BenchError(f"span {name!r} has no metric")
    values["tables.cache_hits"] = traced["cache"]["hits"]
    values["tables.cache_misses"] = traced["cache"]["misses"]
    values["tables.cache_entries"] = traced["cache"]["entries"]
    values["tables.unattributed_builds"] = traced["unattributed_builds"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return values


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run(workload: Workload, seconds: int, trace: bool) -> tuple[dict, int, int]:
    deadline = time.perf_counter() + RUN_LIMIT_S

    def remaining() -> float:
        return deadline - time.perf_counter()

    attempted = failed = 0
    problems = []

    def checked(result: dict, label: str) -> dict:
        nonlocal attempted, failed
        ops, result["items"] = workload.check(result["units"])
        attempted += len(ops)
        failed += sum(1 for bad in ops.values() if bad)
        problems.extend(f"[{label}] {op}: {p}" for op, bad in ops.items() for p in bad)
        return result

    setup_sample()  # warms the file and bytecode caches; not measured
    setups = []
    window = time.perf_counter()
    traced = None
    if trace:
        traced = checked(run_child("traced", workload.spec(0), remaining()), "traced pass")
    passes = []
    while len(passes) < (1 if trace else MIN_PASSES) or (
        time.perf_counter() - window
        + statistics.median(p["wall_s"] for p in passes) <= seconds
    ):
        if not trace:
            # the machine's speed drifts over seconds to minutes, so set-up
            # samples are spread between passes rather than taken in a burst
            setups += [setup_sample() for _ in range(SETUP_PER_PASS)]
        label = f"pass {len(passes) + 1}"
        passes.append(checked(run_child("pass", workload.spec(len(passes) + 1),
                                        remaining()), label))
    if not trace:
        setups += [setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    walls = [p["wall_s"] for p in passes]
    if trace:
        metrics = layer_metrics(traced, statistics.median(walls))
        units = PER_LAYER
        _write_trace(workload, traced, passes)
        print(f"{workload.name}: traced pass {traced['wall_s']:.3f} s, "
              f"untraced median {statistics.median(walls):.3f} s over {len(walls)} passes")
        if traced["absent"]:
            print("absent builders (reported as 0): " + ", ".join(traced["absent"]))
    else:
        samples = {
            "setup_s": setups,
            "wall_s": walls,
            "items_per_s": [p["items"] / p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        units = END_TO_END
        print(f"{workload.name} seed={workload.seed}: {len(passes)} cold passes, wall "
              + " ".join(f"{w:.3f}" for w in walls))
        for name, values in samples.items():
            print(f"  {name:<12} {metrics[name]:>12.4f} {units[name]:<4} median, "
                  f"{_quartiles(values)}")
        print(f"  {'fail_ratio':<12} {failed / max(attempted, 1):>12.4f} "
              f"{'':<4} {failed} of {attempted} operations")
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result, attempted, failed


def _write_trace(workload: Workload, traced: dict, passes: list) -> None:
    path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": [p["wall_s"] for p in passes],
        "absent_builders": traced["absent"],
        "spans": traced["spans"],
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bispacelab" / "cli.py").is_file():
        print(f"error: no bispacelab sources under {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="docs-", dir=OUT) as workdir:
            workload = Workload(args.workload, args.seed, Path(workdir))
            metrics, attempted, failed = run(workload, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
