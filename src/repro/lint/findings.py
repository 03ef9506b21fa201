"""Findings: what a lint rule reports, and the two render formats.

A :class:`Finding` pins an invariant violation to ``path:line:col``,
names the rule that raised it, and carries a fix hint so the console
output teaches the contract instead of merely citing it.  Ordering is
total and content-derived — ``(path, line, col, rule_id, message)`` —
which is what makes ``--format json`` byte-stable across runs: the
report is a pure function of the tree being linted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..codec import serializable

#: Schema version stamped into JSON reports.
REPORT_VERSION = 1


@serializable("finding")
@dataclass(frozen=True)
class Finding:
    """One invariant violation at a specific source location.

    Attributes:
        rule_id: registry id of the rule that fired (e.g. ``seeded-rng``).
        path: file the finding lives in, as passed to the linter.
        line: 1-based source line.
        col: 1-based source column.
        message: what is wrong, in one sentence.
        hint: how to fix or legitimately suppress it.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> tuple:
        """Deterministic report order: path, then line, col, rule, text."""
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def format(self) -> str:
        """One console line: ``path:line:col: [rule] message (fix: hint)``."""
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text


def render_text(findings: list[Finding]) -> str:
    """Console report: one line per finding plus a count trailer."""
    lines = [finding.format() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines) + "\n"


def render_json(findings: list[Finding]) -> str:
    """Machine report: sorted keys, fixed field set, trailing newline.

    Byte-stable across runs by construction — the payload contains no
    wall-clock, no environment, and the findings arrive pre-sorted by
    :meth:`Finding.sort_key`.
    """
    payload = {
        "version": REPORT_VERSION,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
