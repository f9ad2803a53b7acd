"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass   < spec.json
    python3 perfbench/child.py traced < spec.json

The first stdout line, "ready <path of bispacelab>", is written as soon as
bispacelab.cli is imported; the parent times set-up up to that line. The
last stdout line is the pass result as JSON. The spec lists CLI argument
vectors; a plain pass runs them through cli.main, a traced pass runs the
same work layer by layer through the public API and records a span around
every call it makes into a layer.
"""

import sys

import bispacelab.cli as cli

print("ready", cli.__file__, flush=True)

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from bispacelab import catalog, finite, maps, reports, spacefile, suites, tables  # noqa: E402

CACHED_MODULES = (tables, finite, maps)

# Claim predicate -> layer that does the work; the rest are backend
# primitives, reported as "<backend>.primitives".
CLAIM_LAYER = {
    "pcl": "props.pcl.{backend}",
    "spcl": "props.spcl.{backend}",
    "is_ij_semipreopen": "props.semipreopen",
    "is_ij_semipreclosed": "props.semipreopen",
    "semipreopen_witness_valid": "props.semipreopen",
    "is_preopen": "props.preopen",
    "is_ij_preopen": "props.preopen",
    "is_pairwise_preopen": "props.preopen",
    "is_ij_preclosed": "props.preopen",
    "is_ij_semiopen": "props.semiopen",
}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def cache_counts() -> dict:
    """Summed cache_info() of every lru_cache function in tables, finite, maps."""
    seen = {}
    for module in CACHED_MODULES:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)):
                seen[id(obj)] = obj.cache_info()
    infos = seen.values()
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


class Tracer:
    """Spans kept in memory: name, start, end, parent span, pass id."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _unit(argv, rc, out, err, raised=None) -> dict:
    return {"argv": argv, "rc": rc, "stdout": out, "stderr": err, "raised": raised}


def run_plain(spec: dict) -> list:
    units = []
    for argv in spec["argv"]:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc, raised = None, traceback.format_exc()
        units.append(_unit(argv, rc, out.getvalue(), err.getvalue(), raised))
    return units


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

class TracedPass:
    """The CLI's work for one argument vector, one public call per span."""

    def __init__(self, spec: dict):
        self.tr = Tracer(spec["pass_id"])
        self.prebuild = spec["prebuild"]
        self.absent: list = []
        self.unattributed_builds = 0

    def run(self, argv: list) -> dict:
        with self.tr.span("cli", argv=argv):
            try:
                args = cli.build_parser().parse_args(argv)
                if args.command == "suite":
                    got = self.suite(args)
                elif args.command == "check":
                    got = self.check(args)
                else:
                    got = self.verify_catalog()
            except Exception:
                got = {"rc": None, "stdout": "", "raised": traceback.format_exc()}
        return _unit(argv, got["rc"], got["stdout"], got.get("stderr", ""), got.get("raised"))

    def build_tables(self) -> None:
        modules = {"finite": finite, "tables": tables, "maps": maps}
        for module_name, func_name, args in self.prebuild:
            fn = getattr(modules[module_name], func_name, None)
            name = f"{module_name}.{func_name}"
            if fn is None:  # removed by a later change: absent, not an error
                if name not in self.absent:
                    self.absent.append(name)
                continue
            with self.tr.span(name, args=args):
                fn(*args)

    def suite(self, args) -> dict:
        which = tuple(args.which.split(","))
        names = suites.SuiteConfig(n=args.n, which=which, seed=args.seed).names()
        self.build_tables()
        misses = cache_counts()["misses"]
        results = []
        for name in names:
            try:
                config = suites.SuiteConfig(n=args.n, which=(name,), seed=args.seed)
            except ValueError:  # a seed is only accepted where a sampled sweep runs
                config = suites.SuiteConfig(n=args.n, which=(name,))
            with self.tr.span("suites.sweep", suite=name) as span:
                got = suites.run_theorem_suite(config)
            span["results"] = [[r.name, r.checked, r.duration_ms / 1000.0] for r in got]
            results.extend(got)
        self.unattributed_builds += cache_counts()["misses"] - misses
        out = []
        for result in results:
            with self.tr.span("reports.render"):
                out.append(reports.machine_suite(result))
        return {"rc": 0 if all(r.passed for r in results) else 1, "stdout": "".join(out)}

    def check(self, args) -> dict:
        path = Path(args.file)
        text = path.read_text(encoding="utf-8")
        with self.tr.span("spacefile.parse") as span:
            try:
                entry = spacefile.parse_spacefile(text, path.name)
            except spacefile.SpaceFileError as e:
                span["rejected"] = True
                return {"rc": 2, "stdout": "", "stderr": f"error: {e}\n"}
        backend = "symbolic" if entry.bispace.is_symbolic else "finite"
        outcomes = []
        with self.tr.span("catalog.verify", entry=entry.entry_id):
            for claim in entry.claims:
                layer = CLAIM_LAYER.get(claim.predicate, "{backend}.primitives")
                with self.tr.span(layer.format(backend=backend), predicate=claim.predicate):
                    one = catalog.verify_entry(dataclasses.replace(entry, claims=(claim,)))
                outcomes.extend(one.outcomes)
        report = reports.Report(entry.entry_id, entry.title, tuple(outcomes), entry.note)
        with self.tr.span("reports.render"):
            text = reports.machine_report(report)
        return {"rc": 0 if report.passed else 1, "stdout": text}

    def verify_catalog(self) -> dict:
        out = []
        passed = True
        for entry_id in catalog.CATALOG_IDS:
            with self.tr.span("catalog.verify", entry=entry_id):
                report = catalog.verify_entry(catalog.build_example(entry_id))
            with self.tr.span("reports.render"):
                out.append(reports.machine_report(report))
            passed = passed and report.passed
        return {"rc": 0 if passed else 1, "stdout": "".join(out)}


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        return 0
    spec = json.loads(sys.stdin.read())
    traced = TracedPass(spec) if mode == "traced" else None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    if traced:
        units = [traced.run(argv) for argv in spec["argv"]]
    else:
        units = run_plain(spec)
    t1, cpu1 = time.perf_counter(), _cpu_s()
    result = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "units": units,
    }
    if traced:
        result.update(spans=traced.tr.spans, cache=cache_counts(), absent=traced.absent,
                      unattributed_builds=traced.unattributed_builds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
