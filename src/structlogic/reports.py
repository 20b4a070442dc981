"""Verification reports: per-check statuses with witnesses, serialized as JSON lines.

Output is deterministic for fixed inputs: keys are sorted, witnesses keep
their discovery order (itself deterministic), and no wall-clock time is
included.
"""

from __future__ import annotations

import json

from .formats import print_formula, print_structure
from .records import field, record

SCHEMA = "structlogic-report-v1"

PASS = "pass"
FAIL = "fail"
NOT_FINITELY_TESTABLE = "not-finitely-testable"


@record
class CheckResult:
    name: str
    status: str
    counts: dict[str, int] = field(default_factory=dict)
    witnesses: list[dict] = field(default_factory=list)
    note: str = ""

    def __post_init__(self):
        if self.status == FAIL and not self.witnesses:
            raise ValueError(f"failing check {self.name!r} must carry a witness")

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@record
class VerificationReport:
    command: str
    caps: dict[str, int] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(
        self,
        name: str,
        status: str,
        counts: dict[str, int] | None = None,
        witnesses: list[dict] | None = None,
        note: str = "",
    ) -> CheckResult:
        result = CheckResult(name, status, counts or {}, witnesses or [], note)
        self.checks.append(result)
        return result

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        header = {"caps": self.caps, "command": self.command, "schema": SCHEMA}
        lines = [json.dumps(header, sort_keys=True)]
        for c in self.checks:
            record = {
                "check": c.name,
                "counts": c.counts,
                "status": c.status,
                "witnesses": c.witnesses,
            }
            if c.note:
                record["note"] = c.note
            lines.append(json.dumps(record, sort_keys=True))
        lines.append(json.dumps({"result": PASS if self.ok else FAIL}, sort_keys=True))
        return "\n".join(lines) + "\n"


def structure_witness(label: str, s) -> dict:
    return {"kind": "structure", "label": label, "value": print_structure(s)}


def formula_witness(label: str, phi) -> dict:
    return {"kind": "formula", "label": label, "value": print_formula(phi)}


def subset_witness(label: str, elems) -> dict:
    return {"kind": "subset", "label": label, "value": sorted(elems)}
