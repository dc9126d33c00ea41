"""Deterministic report assembly and canonical serialization.

Every artifact the CLI emits goes through here so that two runs on the same
model produce byte-identical JSON: dictionary keys are sorted, polynomial
terms are listed in lexicographic exponent order, and every rational is in
lowest terms with a positive denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .fans import FanCheck
from .laurent import LaurentMatrix, LaurentPoly

_STATUS_PREFIX = {"pass": "OK", "fail": "FAIL", "undetermined": "UNDET"}


@dataclass
class Report:
    command: str
    verdicts: list[FanCheck] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def extend(self, checks) -> None:
        self.verdicts.extend(checks)

    @property
    def exit_code(self) -> int:
        if any(c.status == "fail" for c in self.verdicts):
            return 1
        if any(c.status == "undetermined" for c in self.verdicts):
            return 4
        return 0


def poly_payload(f: LaurentPoly) -> list[dict]:
    out = []
    for e in sorted(f.terms):
        c = f.terms[e]
        out.append({"exponent": list(e), "num": c.numerator, "den": c.denominator})
    return out


def matrix_payload(M: LaurentMatrix) -> list[list[list[dict]]]:
    return [[poly_payload(f) for f in row] for row in M.entries]


def cochain_payload(cochain) -> dict:
    return {
        str(ci): [matrix_payload(M) for M in mats]
        for ci, mats in sorted(cochain.cones.items())
    }


def cocycle_payload(cocycle) -> dict:
    return {
        f"{s},{t}": [matrix_payload(M) for M in mats]
        for (s, t), mats in sorted(cocycle.pairs.items())
    }


def check_payload(c: FanCheck) -> dict:
    return {"check": c.name, "status": c.status, "detail": c.detail}


def report_payload(report: Report) -> dict:
    return {
        "command": report.command,
        "verdicts": [check_payload(c) for c in report.verdicts],
        "artifacts": report.artifacts,
    }


def canonical_bytes(payload) -> bytes:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def render_text(report: Report) -> bytes:
    lines = []
    for c in report.verdicts:
        prefix = _STATUS_PREFIX[c.status]
        lines.append(f"{prefix} {c.name}: {c.detail}" if c.detail else f"{prefix} {c.name}")
    if not lines:
        lines.append("OK (no checks to run)")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return canonical_bytes(report_payload(report))
    if format == "text":
        return render_text(report)
    raise ValueError(f"unknown format: {format!r}")
