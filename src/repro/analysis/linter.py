"""AST lint framework behind ``repro lint``.

Generic linters cannot know that ``time.monotonic()`` is forbidden outside
:mod:`repro.core.clock`, or that comparing a simulated instant with ``==``
is a reproducibility bug.  This module provides the small framework those
project-specific checks plug into:

* a **rule registry** — a rule is an :class:`ast.NodeVisitor` subclass
  decorated with :func:`register_rule`; adding one is a ~30-line drop-in
  (see :mod:`repro.analysis.rules` for the built-ins);
* **per-rule configuration** — :class:`LintConfig` carries rule selection,
  per-rule path allowlists, and global excludes;
* **suppressions** — a ``# repro: allow=<rule>[,<rule>...]`` comment on the
  violating line (or the line directly above it) silences those rules for
  that line; ``allow=all`` silences everything;
* **text and JSON output** — :func:`render_text` / :func:`render_json`.

The framework is dependency-free (stdlib :mod:`ast` only) so it runs in CI
and pre-commit without installing anything.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path, PurePath
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Type)

#: Rule-name character set accepted in suppression comments.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow=([A-Za-z0-9_\-, ]+)")

#: Paths never linted (deliberate-violation fixtures used by the tests).
DEFAULT_EXCLUDE: Tuple[str, ...] = ("*/analysis_fixtures/*",)

#: Per-rule path allowlists applied when :attr:`LintConfig.allow_paths`
#: does not override them.  ``core/clock.py`` is the one module allowed to
#: read the wall clock — it *implements* the injected ``Clock``.
DEFAULT_ALLOW_PATHS: Mapping[str, Tuple[str, ...]] = {
    # clock.py is the sanctioned wall-clock boundary.
    "no-wall-clock": ("*/repro/core/clock.py",),
    # Tests open handles to assert on intermediate open-span state.
    "span-must-finish": ("*/tests/*",),
}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: rule: message`` (the text output line)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


@dataclass
class LintConfig:
    """Configuration for one lint run.

    Parameters
    ----------
    select:
        Rule names to run; ``None`` runs every registered rule.
    allow_paths:
        Per-rule glob patterns (matched against ``/``-normalized paths);
        a file matching a rule's pattern is exempt from that rule.
        Merged over :data:`DEFAULT_ALLOW_PATHS` (assignment wins).
    exclude:
        Glob patterns for paths skipped entirely (fixtures with deliberate
        violations, generated code).
    """

    select: Optional[Set[str]] = None
    allow_paths: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE

    def rule_allows(self, rule_name: str, path: str) -> bool:
        """True when ``path`` is allowlisted for ``rule_name``."""
        patterns = self.allow_paths.get(rule_name)
        if patterns is None:
            patterns = DEFAULT_ALLOW_PATHS.get(rule_name, ())
        return _matches_any(path, patterns)

    def excluded(self, path: str) -> bool:
        return _matches_any(path, self.exclude)


def _matches_any(path: str, patterns: Iterable[str]) -> bool:
    posix = PurePath(path).as_posix()
    return any(fnmatch(posix, pattern) or fnmatch("/" + posix, pattern)
               for pattern in patterns)


class LintRule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set :attr:`name` and :attr:`description`, implement
    ``visit_*`` methods, and call :meth:`report` when they find a
    violation.  One instance is created per file, so per-file state
    (e.g. a stack of enclosing ``with`` blocks) lives on ``self``.
    """

    #: Rule identifier used in output, ``select`` and suppressions.
    name: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""

    def __init__(self, path: str, config: LintConfig) -> None:
        self.path = path
        self.config = config
        self.violations: List[Violation] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record a violation at ``node``'s location."""
        self.violations.append(Violation(
            rule=self.name, path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message))


#: The global rule registry, keyed by rule name.
_RULES: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a :class:`LintRule` subclass to the registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _RULES:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _RULES[cls.name] = cls
    return cls


def available_rules() -> Dict[str, str]:
    """Registered rule names mapped to their one-line descriptions."""
    return {name: _RULES[name].description for name in sorted(_RULES)}


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule names suppressed on them."""
    table: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            names = {part.strip() for part in match.group(1).split(",")}
            table[lineno] = {name for name in names if name}
    return table


def _suppressed(violation: Violation,
                table: Mapping[int, Set[str]]) -> bool:
    for lineno in (violation.line, violation.line - 1):
        names = table.get(lineno)
        if names and (violation.rule in names or "all" in names):
            return True
    return False


def lint_source(source: str, path: str,
                config: Optional[LintConfig] = None) -> List[Violation]:
    """Lint one file's source text; returns violations sorted by location.

    Syntax errors are reported as a pseudo-violation under the rule name
    ``syntax-error`` rather than raised, so one broken file cannot hide the
    findings in the rest of a run.
    """
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(rule="syntax-error", path=path,
                          line=exc.lineno or 0, col=(exc.offset or 0),
                          message=str(exc.msg))]
    table = _suppressions(source)
    found: List[Violation] = []
    for name, rule_cls in sorted(_RULES.items()):
        if config.select is not None and name not in config.select:
            continue
        if config.rule_allows(name, path):
            continue
        rule = rule_cls(path, config)
        rule.visit(tree)
        found.extend(v for v in rule.violations
                     if not _suppressed(v, table))
    found.sort(key=lambda v: (v.line, v.col, v.rule))
    return found


def iter_python_files(paths: Sequence[str],
                      config: Optional[LintConfig] = None) -> Iterator[str]:
    """Expand files/directories into the ``.py`` files a run covers.

    ``exclude`` patterns apply to directory walks only — a file named
    explicitly is always linted (so ``repro lint path/to/file.py`` does
    what it says; callers like pre-commit exclude fixture paths
    themselves).
    """
    config = config or LintConfig()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            for candidate in sorted(root.rglob("*.py")):
                path = str(candidate)
                if not config.excluded(path):
                    yield path
        else:
            yield str(root)


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None
               ) -> Tuple[List[Violation], int]:
    """Lint files and directories; returns ``(violations, files_checked)``.

    Unreadable files surface as ``io-error`` pseudo-violations, mirroring
    the ``syntax-error`` convention.
    """
    config = config or LintConfig()
    violations: List[Violation] = []
    checked = 0
    for path in iter_python_files(paths, config):
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            violations.append(Violation(
                rule="io-error", path=path, line=0, col=0,
                message=str(exc)))
            continue
        checked += 1
        violations.extend(lint_source(source, path, config))
    return violations, checked


# -- baselines -------------------------------------------------------------
#
# A baseline freezes the current findings so a path expansion (new
# directories, new rules) can land without a flag-day cleanup: recorded
# findings stop failing the run, anything *new* still does.  Keyed by
# (path, rule, message) with multiplicity — line numbers are deliberately
# not part of the key, so unrelated edits that shift a legacy finding a
# few lines do not resurrect it.

#: Format marker inside baseline files.
BASELINE_VERSION = 1


def write_baseline(path: str, violations: Sequence[Violation]) -> None:
    """Record ``violations`` as the accepted baseline at ``path``."""
    findings = sorted(
        ({"path": v.path, "rule": v.rule, "message": v.message}
         for v in violations),
        key=lambda item: (item["path"], item["rule"], item["message"]))
    Path(path).write_text(json.dumps({
        "version": BASELINE_VERSION,
        "findings": findings,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_baseline(path: str) -> Dict[Tuple[str, str, str], int]:
    """Read a baseline into ``(path, rule, message) -> count``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path!r} has unsupported version {version!r}")
    counts: Dict[Tuple[str, str, str], int] = {}
    for item in payload.get("findings", []):
        key = (str(item["path"]), str(item["rule"]), str(item["message"]))
        counts[key] = counts.get(key, 0) + 1
    return counts


def filter_baseline(violations: Sequence[Violation],
                    baseline: Mapping[Tuple[str, str, str], int]
                    ) -> List[Violation]:
    """Violations not covered by the baseline (multiplicity-aware).

    Each baseline entry absorbs at most its recorded count, so a file
    *gaining* a second identical finding still fails.
    """
    budget = dict(baseline)
    fresh: List[Violation] = []
    for violation in violations:
        key = (violation.path, violation.rule, violation.message)
        remaining = budget.get(key, 0)
        if remaining > 0:
            budget[key] = remaining - 1
        else:
            fresh.append(violation)
    return fresh


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """Human-readable report: one line per violation plus a summary."""
    lines = [violation.format() for violation in violations]
    noun = "violation" if len(violations) == 1 else "violations"
    lines.append(f"{len(violations)} {noun} in {files_checked} file(s)")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    """Machine-readable report (stable key order, one JSON document)."""
    return json.dumps({
        "files_checked": files_checked,
        "violations": [violation.as_dict() for violation in violations],
    }, indent=2, sort_keys=True)
