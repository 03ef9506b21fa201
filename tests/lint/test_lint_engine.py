"""Engine-level behaviour: waivers, determinism, parse errors, filters."""

import json
from pathlib import Path

from repro.lint import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    all_rule_ids,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    scan_suppressions,
)
from repro.lint.engine import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"

UNSEEDED = (
    "import numpy as np\n"
    "rng = np.random.default_rng()\n"
)


class TestSuppressions:
    def test_waiver_on_the_finding_line(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: lint-ok[seeded-rng] fixture exercising the waiver\n"
        )
        assert lint_source(source, "mod.py") == []

    def test_waiver_on_the_line_above(self):
        source = (
            "import numpy as np\n"
            "# repro: lint-ok[seeded-rng] fixture exercising the waiver\n"
            "rng = np.random.default_rng()\n"
        )
        assert lint_source(source, "mod.py") == []

    def test_waiver_elsewhere_does_not_cover(self):
        source = (
            "# repro: lint-ok[seeded-rng] too far away to count\n"
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng()\n"
        )
        findings = lint_source(source, "mod.py")
        assert [f.rule_id for f in findings] == ["seeded-rng"]

    def test_waiver_only_covers_the_named_rule(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: lint-ok[silent-except] wrong rule named\n"
        )
        rule_ids = {f.rule_id for f in lint_source(source, "mod.py")}
        assert "seeded-rng" in rule_ids

    def test_comma_separated_rule_list(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: lint-ok[seeded-rng, silent-except] covers both ids\n"
        )
        assert lint_source(source, "mod.py") == []

    def test_reasonless_waiver_is_a_finding(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: lint-ok[seeded-rng]\n"
        )
        rule_ids = [f.rule_id for f in lint_source(source, "mod.py")]
        assert "bad-suppression" in rule_ids
        # The reasonless waiver still silences its target rule: the
        # gate fails on the waiver itself, pointing at the right line.
        assert "seeded-rng" not in rule_ids

    def test_unknown_rule_waiver_is_a_finding(self):
        source = "x = 1  # repro: lint-ok[no-such-rule] some reason\n"
        findings = lint_source(source, "mod.py")
        assert [f.rule_id for f in findings] == ["bad-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_marker_inside_a_string_is_not_a_waiver(self):
        source = (
            "import numpy as np\n"
            'text = "# repro: lint-ok[seeded-rng] not a comment"\n'
            "rng = np.random.default_rng()\n"
        )
        findings = lint_source(source, "mod.py")
        assert [f.rule_id for f in findings] == ["seeded-rng"]

    def test_scan_suppressions_parses_ids_and_reason(self):
        source = "x = 1  # repro: lint-ok[a-rule, b-rule] because reasons\n"
        index = scan_suppressions(source)
        assert len(index.suppressions) == 1
        waiver = index.suppressions[0]
        assert waiver.rule_ids == ("a-rule", "b-rule")
        assert waiver.reason == "because reasons"
        assert waiver.line == 1


class TestParseErrors:
    def test_syntax_error_is_a_parse_error_finding(self):
        findings = lint_source("def broken(:\n", "mod.py")
        assert [f.rule_id for f in findings] == ["parse-error"]
        assert findings[0].line >= 1

    def test_parse_error_is_not_suppressible(self):
        source = "# repro: lint-ok[parse-error] nice try\ndef broken(:\n"
        findings = lint_source(source, "mod.py")
        assert [f.rule_id for f in findings] == ["parse-error"]


class TestFiltersAndApi:
    def test_rule_filter_limits_findings(self):
        source = (
            "import numpy as np\n"
            "try:\n"
            "    rng = np.random.default_rng()\n"
            "except Exception:\n"
            "    rng = None\n"
        )
        everything = {f.rule_id for f in lint_source(source, "mod.py")}
        assert everything == {"seeded-rng", "silent-except"}
        only = lint_source(source, "mod.py", rules=["seeded-rng"])
        assert {f.rule_id for f in only} == {"seeded-rng"}

    def test_all_rule_ids_include_engine_ids(self):
        ids = all_rule_ids()
        assert "parse-error" in ids and "bad-suppression" in ids
        assert list(ids) == sorted(ids)

    def test_finding_round_trips_through_to_dict(self):
        finding = Finding(
            rule_id="seeded-rng",
            path="mod.py",
            line=3,
            col=7,
            message="msg",
            hint="hint",
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_lint_paths_accepts_files_and_directories(self):
        by_dir = lint_paths([FIXTURES], config=DEFAULT_CONFIG)
        by_file = lint_paths(
            sorted(FIXTURES.glob("*.py")), config=DEFAULT_CONFIG
        )
        assert by_dir == by_file

    def test_directories_expand_to_sorted_python_files(self, tmp_path):
        for rel in ("b.py", "a/z.py", "a/notes.txt", ".venv/x.py", "a/__pycache__/y.py"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("")
        # a file named twice (directly and through its directory) is read once
        files = iter_python_files([tmp_path / "b.py", tmp_path])
        assert [f.relative_to(tmp_path).as_posix() for f in files] == ["a/z.py", "b.py"]
        # Only parts below the walked directory are tested: its ancestors
        # may be dot-named (a checkout under ~/.cache), while a hidden
        # directory below it is still skipped.
        root = (tmp_path / ".hid" / "pkg").resolve()
        for rel in ("m.py", ".venv/x.py"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(UNSEEDED)
        assert [f.relative_to(root).as_posix() for f in iter_python_files([root])] == ["m.py"]
        assert [f.rule_id for f in lint_paths([root])] == ["seeded-rng"]
        assert iter_python_files([tmp_path]) == files

    def test_lock_scope_is_chosen_by_module_glob(self):
        scope = DEFAULT_CONFIG.lock_scope_for("src/repro/service/cache.py")
        assert scope is not None and scope.attrs == ("_entries", "_sizes")
        assert DEFAULT_CONFIG.lock_scope_for("src/repro/service/engine.py") is None


class TestDeterminism:
    def test_findings_sorted_by_path_line_rule(self):
        findings = lint_paths([FIXTURES])
        assert findings == sorted(findings, key=Finding.sort_key)

    def test_json_report_is_byte_stable_across_runs(self):
        first = render_json(lint_paths([FIXTURES]))
        second = render_json(lint_paths([FIXTURES]))
        assert first == second
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["count"] == len(payload["findings"])

    def test_text_report_counts_findings(self):
        report = render_text(lint_source(UNSEEDED, "mod.py"))
        assert report.endswith("1 finding\n")
        assert "[seeded-rng]" in report

    def test_clean_reports(self):
        assert render_text([]) == "0 findings\n"
        payload = json.loads(render_json([]))
        assert payload == {"count": 0, "findings": [], "version": 1}
