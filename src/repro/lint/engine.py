"""The rule engine: parse once, walk with context, enforce waivers.

One :class:`ModuleContext` is built per file — the parsed tree, a
parent map for lexical-ancestry questions ("is this mutation inside a
``with self._lock`` block?"), and an import-alias table so rules match
canonical dotted names (``np.random.default_rng`` and
``from numpy.random import default_rng`` resolve identically).  Rules
are small classes registered by id; :func:`lint_source` runs the
enabled set, drops findings covered by a ``lint-ok`` waiver, and emits
engine-level findings of its own:

* ``parse-error`` — the file does not parse; never suppressible.
* ``bad-suppression`` — a waiver with no reason, or naming a rule id
  that is not in the registry; never suppressible (a waiver cannot
  waive the rules about waivers).

Findings come back sorted by ``(path, line, col, rule id)`` so reports
are byte-stable across runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from .config import DEFAULT_CONFIG, LintConfig, module_matches
from .findings import Finding
from .suppress import scan_suppressions

#: Finding ids the engine itself owns (not suppressible, always on).
PARSE_ERROR = "parse-error"
BAD_SUPPRESSION = "bad-suppression"
ENGINE_RULE_IDS = (BAD_SUPPRESSION, PARSE_ERROR)

#: rule id -> rule class, populated by :func:`register_rule`.
RULES: dict[str, type["LintRule"]] = {}


def register_rule(cls: type["LintRule"]) -> type["LintRule"]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define rule_id")
    if cls.rule_id in RULES or cls.rule_id in ENGINE_RULE_IDS:
        raise ValueError(f"duplicate rule id: {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def all_rule_ids() -> tuple[str, ...]:
    """Every valid rule id: registered rules plus engine-level ids."""
    return tuple(sorted(set(RULES) | set(ENGINE_RULE_IDS)))


class ModuleContext:
    """One linted module: tree, parents, imports, scoping answers.

    Attributes:
        path: the file's path as handed to the linter (posix-rendered).
        source: full module text.
        tree: the parsed :class:`ast.Module`.
        config: the active :class:`LintConfig` scoping.
    """

    def __init__(
        self, path: str, source: str, tree: ast.Module, config: LintConfig
    ):
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._aliases = self._collect_aliases(tree)

    @staticmethod
    def _collect_aliases(tree: ast.Module) -> dict[str, str]:
        """name-in-scope -> canonical dotted path, from every import."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    aliases[bound] = f"{node.module}.{alias.name}"
        return aliases

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Lexical parent of ``node`` (None for the module itself)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST):
        """Nearest enclosing function/async-function def, or None."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def dotted_name(self, node: ast.AST) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, else None."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        return ".".join(reversed(parts))

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name with the leading import alias canonicalised.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the
        module did ``import numpy as np``; a ``from`` import resolves a
        bare name to its full path.  Unresolvable heads come back
        verbatim so rules can still match on suffixes.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def matches(self, patterns: tuple[str, ...]) -> bool:
        """True when this module's path falls in a config scope."""
        return module_matches(self.path, patterns)

    def in_with_lock(self, node: ast.AST, lock_attr: str) -> bool:
        """True when ``node`` sits lexically inside ``with self.<lock>``.

        Any ``self.*`` attribute ending in ``lock_attr``'s suffix
        qualifies (``self._lock``, ``self._tier_lock``), so helper
        tiers with their own locks satisfy the contract.
        """
        for ancestor in self.ancestors(node):
            if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                dotted = self.dotted_name(expr)
                if dotted is None:
                    continue
                if dotted.startswith("self.") and dotted.endswith(lock_attr):
                    return True
        return False

    def finding(
        self,
        rule: "LintRule",
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Anchor a finding for ``rule`` at ``node``'s location."""
        return Finding(
            rule_id=rule.rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


class LintRule:
    """Base rule: subclass, set the class attributes, implement check.

    Attributes:
        rule_id: registry id (kebab-case, shown in findings/waivers).
        description: one-line statement of the guarded invariant.
        hint: default fix hint attached to this rule's findings.
    """

    rule_id = ""
    description = ""
    hint = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for this module (empty when out of scope)."""
        raise NotImplementedError
        yield  # pragma: no cover


def lint_source(
    source: str,
    path: str,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one module's text; returns findings sorted for reporting.

    ``rules`` filters the registered rules by id (engine findings —
    parse errors, malformed waivers — are always emitted: they gate
    whether the file was honestly checked at all).
    """
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=PARSE_ERROR,
                path=posix,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; parse failures always gate",
            )
        ]

    enabled = set(RULES) if rules is None else set(rules) & set(RULES)
    ctx = ModuleContext(posix, source, tree, config)
    raw: list[Finding] = []
    for rule_id in sorted(enabled):
        raw.extend(RULES[rule_id]().check(ctx))

    index = scan_suppressions(source)
    findings = [
        finding
        for finding in raw
        if not index.covers(finding.rule_id, finding.line)
    ]

    known = set(all_rule_ids())
    for suppression in index.suppressions:
        problems = []
        if not suppression.rule_ids:
            problems.append("names no rule id")
        unknown = [rule for rule in suppression.rule_ids if rule not in known]
        if unknown:
            problems.append(f"names unknown rule(s): {', '.join(unknown)}")
        if not suppression.reason:
            problems.append("carries no reason")
        if problems:
            findings.append(
                Finding(
                    rule_id=BAD_SUPPRESSION,
                    path=posix,
                    line=suppression.line,
                    col=suppression.col,
                    message="malformed waiver: " + "; ".join(problems),
                    hint="write '# repro: lint-ok[rule-id] reason' with a "
                    "registered rule id and a justification",
                )
            )

    return sorted(findings, key=Finding.sort_key)


def lint_file(
    path: str | Path,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one file from disk (unreadable files are parse errors too)."""
    posix = Path(path).as_posix()
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Finding(
                rule_id=PARSE_ERROR,
                path=posix,
                line=1,
                col=1,
                message=f"cannot read file: {exc}",
                hint="the lint run must see every module it claims to gate",
            )
        ]
    return lint_source(source, posix, config=config, rules=rules)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` below a walked directory are skipped (the directory's
    own ancestors are not tested, so a tree under a dot-named directory is
    still walked).  Sorting (posix order) fixes the walk order so reports
    never depend on filesystem enumeration.
    """
    out: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.relative_to(path).parts
                )
            )
        else:
            out.append(path)
    return sorted(set(out), key=lambda p: p.as_posix())


def lint_paths(
    paths: Iterable[str | Path],
    config: LintConfig = DEFAULT_CONFIG,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint files and/or directory trees; findings in report order."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, config=config, rules=rules))
    return sorted(findings, key=Finding.sort_key)
