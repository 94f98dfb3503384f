"""The project-specific lint rules behind ``repro lint``.

Each rule guards one invariant the serving frameworks rely on; the table in
``docs/static_analysis.md`` maps every rule to the incident or design
decision that motivated it.  Rules are ~30-line :class:`ast.NodeVisitor`
subclasses registered with :func:`~repro.analysis.linter.register_rule`;
use them as templates when adding new checks.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .linter import LintRule, register_rule

#: ``time``-module attributes that read a wall clock.
_WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock_gettime",
})

#: Module-level :mod:`random` functions that draw from the hidden global
#: (unseeded, process-wide) generator.  ``random.Random`` / ``SystemRandom``
#: construct explicit generators and are fine.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "expovariate", "gauss",
    "normalvariate", "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "betavariate", "gammavariate", "getrandbits",
    "seed", "setstate", "getstate", "binomialvariate",
})

#: ``numpy.random`` attributes that touch the legacy global state.
#: ``default_rng`` / ``Generator`` / ``SeedSequence`` are the sanctioned,
#: explicitly-seeded API and are not listed.
_NUMPY_GLOBAL_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "exponential", "poisson", "standard_normal", "get_state", "set_state",
    "sample", "bytes",
})


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The rightmost name of a ``Name``/``Attribute`` chain, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_rule
class NoWallClockRule(LintRule):
    """Wall-clock reads are confined to :mod:`repro.core.clock`.

    Every other component must read time through its injected ``Clock`` —
    that indirection is what lets one policy object run unchanged under
    the simulator's ``ManualClock`` and the runtime's ``MonotonicClock``,
    and what keeps the differential tests byte-for-byte reproducible.
    """

    name = "no-wall-clock"
    description = ("time.time/time.monotonic/time.sleep/datetime.now are "
                   "forbidden outside core/clock.py; read (and sleep on) "
                   "the injected Clock")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "time":
            if node.attr in _WALL_CLOCK_ATTRS:
                self.report(node, f"time.{node.attr} reads the wall clock; "
                                  "use the injected Clock's now()")
            elif node.attr == "sleep":
                self.report(node, "time.sleep is an untracked timed wait; "
                                  "use the injected SleepingClock's "
                                  "sleep() so simulated runs stay "
                                  "deterministic")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _terminal_identifier(func.value)
            if (func.attr == "now" and owner == "datetime"
                    and not node.args and not node.keywords):
                self.report(node, "argless datetime.now() reads the local "
                                  "wall clock; use the injected Clock")
            elif func.attr == "utcnow" and owner == "datetime":
                self.report(node, "datetime.utcnow() reads the wall clock; "
                                  "use the injected Clock")
        self.generic_visit(node)


@register_rule
class SeededRngOnlyRule(LintRule):
    """All randomness must flow from an explicitly seeded generator.

    The fault injector, workload generators and load generators derive
    every draw from per-purpose ``random.Random(seed)`` streams so a run is
    a pure function of its seeds.  One ``random.random()`` call through the
    hidden global generator breaks that for the whole process.
    """

    name = "seeded-rng-only"
    description = ("module-level random.* / numpy.random global state is "
                   "forbidden; pass a seeded Random/Generator")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "random"
                and node.attr in _GLOBAL_RANDOM_FNS):
            self.report(node, f"random.{node.attr} uses the process-global "
                              "RNG; draw from a seeded random.Random")
        elif (isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("numpy", "np")
                and node.attr in _NUMPY_GLOBAL_FNS):
            self.report(node, f"numpy.random.{node.attr} mutates numpy's "
                              "global RNG state; use "
                              "numpy.random.default_rng(seed)")
        self.generic_visit(node)


@register_rule
class NoSimtimeFloatEqRule(LintRule):
    """Simulated instants must not be compared with ``==`` / ``!=``.

    ``(epoch + offset) - epoch`` can round below ``offset``; PR 2's
    ``stalled_until`` bug froze the event loop exactly this way.  Windows
    over simulated time must use ordering comparisons, and producers of
    "strictly after" instants must go through
    :func:`repro.core.clock.at_or_after`.
    """

    name = "no-simtime-float-eq"
    description = ("== / != on clock/deadline/*_until values is forbidden; "
                   "use ordering or repro.core.clock.at_or_after")

    @staticmethod
    def _is_timeish(expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            ident = _terminal_identifier(node)
            if ident is not None and (
                    ident in ("now", "deadline")
                    or ident.endswith("_until")
                    or ident.endswith("_deadline")
                    or ident.endswith("_instant")):
                return True
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "now"):
                return True
        return False

    @staticmethod
    def _is_approx(expr: ast.AST) -> bool:
        return (isinstance(expr, ast.Call)
                and _terminal_identifier(expr.func) == "approx")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._is_approx(left) or self._is_approx(right):
                continue  # pytest.approx comparisons are the sanctioned form
            if self._is_timeish(left) or self._is_timeish(right):
                self.report(node, "float equality on a simulated instant "
                                  "(PR 2 stalled_until bug class); compare "
                                  "with </<= windows or produce the instant "
                                  "via repro.core.clock.at_or_after")
                break
        self.generic_visit(node)


@register_rule
class LockDisciplineRule(LintRule):
    """Locks are held via ``with`` and never across blocking calls.

    A bare ``.acquire()`` leaks the lock on any exception before the
    matching ``release()``; sleeping or waiting on a future while holding a
    lock starves every other thread contending for it (and under the
    simulator, deadlocks it outright).
    """

    name = "lock-discipline"
    description = ("threading locks must be held via 'with'; no "
                   "yield/sleep/Future.result while a lock is held")

    @staticmethod
    def _is_lockish(expr: ast.AST) -> bool:
        ident = _terminal_identifier(expr)
        return ident is not None and (
            "lock" in ident.lower() or "mutex" in ident.lower())

    @staticmethod
    def _blocking_call(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sleep":
            return "sleep()"
        if isinstance(func, ast.Attribute):
            if (func.attr == "sleep"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"):
                return "time.sleep()"
            if func.attr == "result":
                return "Future.result()"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "acquire"
                and self._is_lockish(func.value)):
            self.report(node, "bare .acquire() leaks the lock on error "
                              "paths; hold the lock with a 'with' block")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if any(self._is_lockish(item.context_expr) for item in node.items):
            for stmt in node.body:
                self._check_held(stmt)
        self.generic_visit(node)

    def _check_held(self, stmt: ast.AST) -> None:
        """Flag yields and blocking calls anywhere under a lock's body."""
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.report(node, "yield while holding a lock hands "
                                  "control away with the lock still held")
            elif isinstance(node, ast.Await):
                self.report(node, "await while holding a lock blocks every "
                                  "contending thread")
            elif isinstance(node, ast.Call):
                blocking = self._blocking_call(node)
                if blocking is not None:
                    self.report(node, f"{blocking} while holding a lock "
                                      "stalls all contending threads; move "
                                      "it outside the 'with' block")


@register_rule
class NoSwallowedEngineErrorsRule(LintRule):
    """Broad exception handlers must record, count, or re-raise.

    An engine or dispatcher thread that swallows an exception silently
    drops the query on the floor — the caller's future never resolves and
    no counter moves.  The runtime's fail-open paths all *count* the error
    (``telemetry.on_policy_error``); a handler whose body is only
    ``pass``/``continue``/``return`` hides it.
    """

    name = "no-swallowed-engine-errors"
    description = ("bare/broad except whose body neither records nor "
                   "re-raises drops engine errors silently")

    _BROAD = ("Exception", "BaseException")

    def _is_broad(self, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return _terminal_identifier(type_node) in self._BROAD

    @staticmethod
    def _handles(body: List[ast.stmt]) -> bool:
        """True when the handler body does something with the failure."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Call, ast.Assign,
                                     ast.AugAssign, ast.AnnAssign)):
                    return True
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' catches SystemExit and hides "
                              "engine errors; catch Exception and record it")
        elif self._is_broad(node.type) and not self._handles(node.body):
            self.report(node, "broad except swallows the error without "
                              "recording or re-raising; count it (e.g. "
                              "telemetry.on_policy_error()) or re-raise")
        self.generic_visit(node)
