"""The merged tree is lint-clean, and every waiver is honest.

This is the same gate CI runs (``repro lint src benchmarks tools examples``),
expressed as a tier-1 test so a contract regression fails locally
before it reaches the lint job.
"""

from pathlib import Path

from repro.lint import all_rule_ids, lint_paths, scan_suppressions

REPO = Path(__file__).resolve().parents[2]
LINTED = ("src", "benchmarks", "tools", "examples")


def test_repo_tree_is_lint_clean():
    findings = lint_paths([REPO / part for part in LINTED])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_every_waiver_names_a_registered_rule_with_a_reason():
    # The satellite meta-test: a rule rename must not orphan waivers,
    # and no waiver may ride without a written justification.
    known = set(all_rule_ids())
    waivers = []
    for path in sorted((REPO / "src").rglob("*.py")):
        index = scan_suppressions(path.read_text(encoding="utf-8"))
        waivers.extend((path, waiver) for waiver in index.suppressions)
    assert waivers, "expected at least one lint-ok waiver in src/"
    for path, waiver in waivers:
        where = f"{path}:{waiver.line}"
        assert waiver.rule_ids, f"{where}: waiver names no rule"
        for rule_id in waiver.rule_ids:
            assert rule_id in known, f"{where}: unknown rule {rule_id!r}"
        assert waiver.reason, f"{where}: waiver carries no reason"
