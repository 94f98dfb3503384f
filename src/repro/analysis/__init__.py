"""Correctness tooling for the reproduction: project-aware static analysis
plus a dynamic lock-order checker.

The serving frameworks (the discrete-event simulator, the cluster model,
and the threaded runtime) rest on invariants no generic tool checks:

* simulated code must never read wall clocks or unseeded RNG — the
  golden fingerprints depend on byte-for-byte reproducibility;
* simulated instants must never be compared with raw float equality (the
  PR 2 ``stalled_until`` rounding bug froze the event loop exactly this
  way);
* the ``threading.Lock`` instances in ``telemetry``, ``runtime``,
  ``gateway`` and ``faults`` must be acquired via ``with`` and in a
  consistent global order.

:mod:`repro.analysis.linter` is an AST lint framework whose project-specific
rules (:mod:`repro.analysis.rules`) enforce the static half;
``repro lint`` is the CLI front end; see ``docs/static_analysis.md``.
:mod:`repro.analysis.lockcheck` instruments ``threading`` locks into one
lock-order graph, which the pytest plugin installs for a whole test run.
"""

from .linter import (LintConfig, LintRule, Violation, available_rules,
                     lint_paths, lint_source, register_rule, render_json,
                     render_text)
from .lockcheck import (CheckedLock, CheckedRLock, LockCheckRegistry,
                        LockOrderViolation, current_registry, install,
                        uninstall)
from . import rules as _rules  # noqa: F401  (imports register the rules)

__all__ = [
    "CheckedLock",
    "CheckedRLock",
    "LintConfig",
    "LintRule",
    "LockCheckRegistry",
    "LockOrderViolation",
    "Violation",
    "available_rules",
    "current_registry",
    "install",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_json",
    "render_text",
    "uninstall",
]
