"""Report records plus the human and machine renderings.

Machine format is JSON lines with a fixed field set per record:
entry, claim, predicate, expected, computed, witness, algebra_relative,
duration_ms. Values are canonical strings so output is byte-stable;
duration_ms is always null in machine format (wall time varies run to run
and would break byte-identical reports), while the human format prints the
measured time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def render_value(v) -> str:
    """Canonical short string for booleans, sets, and absent values."""
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v)


@dataclass(frozen=True)
class ClaimOutcome:
    claim: str                      # human-readable claim label
    predicate: str
    expected: str                   # rendered expectation ("none" when informational)
    computed: str
    passed: bool
    witness: str = "none"
    algebra_relative: bool = False
    duration_ms: float = 0.0
    note: str = ""


@dataclass(frozen=True)
class Report:
    entry: str
    title: str
    outcomes: tuple[ClaimOutcome, ...]
    note: str = ""

    @property
    def failures(self) -> tuple[ClaimOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def summary(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one theorem suite run over enumerated models."""

    name: str
    description: str
    checked: int                     # instances examined
    violations: tuple[str, ...] = field(default=())
    notes: tuple[str, ...] = field(default=())
    duration_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Machine format
# ---------------------------------------------------------------------------

def _machine_record(entry: str, o: ClaimOutcome) -> dict:
    return {
        "entry": entry,
        "claim": o.claim,
        "predicate": o.predicate,
        "expected": o.expected,
        "computed": o.computed,
        "passed": o.passed,
        "witness": o.witness,
        "algebra_relative": o.algebra_relative,
        "duration_ms": None,
    }


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def machine_report(report: Report) -> str:
    lines = [_dump(_machine_record(report.entry, o)) for o in report.outcomes]
    lines.append(
        _dump(
            {
                "entry": report.entry,
                "summary": report.summary,
                "claims": len(report.outcomes),
                "failures": len(report.failures),
            }
        )
    )
    return "\n".join(lines) + "\n"


def machine_suite(result: SuiteResult) -> str:
    outcomes = (
        ClaimOutcome(v, "suite-violation", "no violation", v, passed=False)
        for v in result.violations
    )
    lines = [_dump(_machine_record(result.name, o)) for o in outcomes]
    lines.append(
        _dump(
            {
                "entry": result.name,
                "summary": "pass" if result.passed else "fail",
                "checked": result.checked,
                "violations": len(result.violations),
                "notes": list(result.notes),
            }
        )
    )
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> list[dict]:
    """Inverse of the machine emitters (one JSON object per line)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Human format
# ---------------------------------------------------------------------------

def human_report(report: Report) -> str:
    lines = [f"[{report.summary.upper()}] {report.entry}: {report.title}"]
    if report.note:
        lines.append(f"  note: {report.note}")
    ordered = list(report.failures) + [o for o in report.outcomes if o.passed]
    for o in ordered:
        mark = "ok " if o.passed else "FAIL"
        extra = ""
        if o.witness != "none":
            extra += f" witness={o.witness}"
        if o.algebra_relative:
            extra += " [algebra-relative]"
        if o.note:
            extra += f" ({o.note})"
        lines.append(
            f"  {mark} {o.claim}: expected {o.expected}, computed {o.computed}"
            f"{extra} ({o.duration_ms:.2f} ms)"
        )
    return "\n".join(lines) + "\n"


def human_suite(result: SuiteResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    lines = [
        f"[{status}] suite {result.name}: {result.description} "
        f"({result.checked} instances, {result.duration_ms:.0f} ms)"
    ]
    for v in result.violations:
        lines.append(f"  FAIL {v}")
    for n in result.notes:
        lines.append(f"  note: {n}")
    return "\n".join(lines) + "\n"
