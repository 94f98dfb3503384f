"""Correctness tooling for the reproduction: project-aware static analysis
plus a dynamic lock-order checker.

The three serving frameworks (the discrete-event simulator, the cluster
model, and the threaded runtime) rest on invariants no generic tool checks:

* simulated code must never read wall clocks or unseeded RNG — the
  differential tests depend on byte-for-byte reproducibility;
* simulated instants must never be compared with raw float equality (the
  PR 2 ``stalled_until`` rounding bug froze the event loop exactly this
  way);
* the ``threading.Lock`` instances spread across ``core``, ``telemetry``
  and ``runtime`` must be acquired via ``with`` and in a consistent global
  order.

The multi-process gateway added two substrates with invariants of their
own — forked worker processes whose payloads must be picklable and
handle-free, and a shared-memory seqlock whose even-odd protocol is the
only thing standing between readers and torn snapshots.  The
``fork-safety``, ``shm-lifecycle`` and ``seqlock-discipline`` rules
enforce those statically; :mod:`repro.analysis.lockcheck` instruments
``threading`` locks into one lock-order graph.

:mod:`repro.analysis.linter` is an AST lint framework whose project-specific
rules (:mod:`repro.analysis.rules`) enforce the static half;
``repro lint`` is the CLI front end; see ``docs/static_analysis.md``.
"""

from .linter import (LintConfig, LintRule, Violation, available_rules,
                     filter_baseline, lint_paths, lint_source, load_baseline,
                     register_rule, render_json, render_text, write_baseline)
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
    "filter_baseline",
    "install",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "uninstall",
    "write_baseline",
]
