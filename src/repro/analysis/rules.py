"""The project-specific lint rules behind ``repro lint``.

Each rule guards one invariant the serving frameworks rely on; the table in
``docs/static_analysis.md`` maps every rule to the incident or design
decision that motivated it.  Rules are ~30-line :class:`ast.NodeVisitor`
subclasses registered with :func:`~repro.analysis.linter.register_rule`;
use them as templates when adding new checks.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

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


def _chain_identifiers(node: ast.AST) -> List[str]:
    """Every name along a ``Name``/``Attribute`` chain, leftmost first."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    names.reverse()
    return names


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested defs
    (a nested function's body is that function's responsibility)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


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


#: Calls that open a span and return a live handle the caller must close.
_SPAN_OPEN_FNS = frozenset({"begin_trace", "child_span"})

#: Handle methods that neither close nor transfer ownership of a span
#: (``marker`` opens *and* finishes its child internally).
_SPAN_NEUTRAL_METHODS = frozenset({"child_span", "annotate", "marker"})


@register_rule
class SpanMustFinishRule(LintRule):
    """Span handles must be finished or handed off on every path.

    A :class:`~repro.telemetry.spans.SpanHandle` left open never reaches
    the finished ring: it leaks in the recorder's open-span table and the
    trace it belongs to renders truncated.  Within one function, a handle
    returned by ``begin_trace``/``child_span`` must therefore either be
    ``.finish()``-ed, or escape to an owner that will close it (passed to
    a call, returned, stored into an attribute/subscript/alias, or used
    as a context manager).  Discarding the handle outright (a bare
    expression statement) can never be right.
    """

    name = "span-must-finish"
    description = ("span handles from begin_trace/child_span must be "
                   "finished or handed off; discarding one leaks an "
                   "open span")

    @staticmethod
    def _opens_span(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SPAN_OPEN_FNS)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    @staticmethod
    def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
        """Walk ``func``'s body without descending into nested defs
        (a closure's handles are that closure's responsibility)."""
        return _own_nodes(func)

    def _check_function(self, func: ast.AST) -> None:
        opened: dict = {}  # local name -> opening assignment node
        parents: dict = {}
        for parent in self._own_nodes(func):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in self._own_nodes(func):
            if (isinstance(node, ast.Expr)
                    and self._opens_span(node.value)):
                fn = node.value.func.attr  # type: ignore[union-attr]
                self.report(node, f"{fn}() result discarded; the span "
                                  "can never be finished — keep the "
                                  "handle (or use .marker() for an "
                                  "instant event)")
            elif (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._opens_span(node.value)):
                opened[node.targets[0].id] = node
        for name, open_node in opened.items():
            if not self._closed_or_escapes(func, name, parents):
                self.report(open_node,
                            f"span handle {name!r} is never finished "
                            "nor handed off in this function; call "
                            f"{name}.finish(now) on every exit path or "
                            "transfer ownership")

    def _closed_or_escapes(self, func: ast.AST, name: str,
                           parents: dict) -> bool:
        for node in self._own_nodes(func):
            if not (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute):
                if parent.attr == "finish":
                    return True  # closed (first close wins; idempotent)
                if parent.attr in _SPAN_NEUTRAL_METHODS:
                    continue  # reading the handle, not transferring it
                return True  # other attribute access: treat as escape
            if isinstance(parent, (ast.Call, ast.keyword, ast.Return,
                                   ast.withitem, ast.Subscript,
                                   ast.Starred, ast.Tuple, ast.List,
                                   ast.Dict)):
                return True  # handed off to an owner that closes it
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                return True  # aliased or stored; the store owns it now
        return False


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


# ---------------------------------------------------------------------------
# Concurrency-safety rules for the async / multi-process era (PR 9).
# The gateway runs BouncerPolicy inside asyncio workers, forked processes
# and a shared-memory seqlock; one blocking call in a coroutine or one torn
# snapshot read silently destroys both the microsecond latency budget and
# the bit-identical-replay guarantee.  These rules make those invariants
# lintable.
# ---------------------------------------------------------------------------

#: ``subprocess`` entry points that block until the child completes (or,
#: for ``Popen``, fork on the event-loop thread).
_SUBPROCESS_BLOCKING = frozenset({
    "run", "call", "check_call", "check_output", "getoutput",
    "getstatusoutput", "Popen",
})

#: Socket methods that are unambiguously blocking network I/O.
_SOCKET_ALWAYS_BLOCKING = frozenset({
    "recv", "recv_into", "recvfrom", "recvfrom_into", "sendall",
})

#: Socket methods flagged only on a socket-looking receiver (the names are
#: common enough elsewhere — e.g. ``visitor.accept`` — to need the guard).
_SOCKET_GUARDED_BLOCKING = frozenset({"accept", "connect", "makefile"})

#: Receiver identifiers treated as sockets/connections for the guarded set.
_SOCKISH = ("sock", "conn")


def _is_sockish(expr: ast.AST) -> bool:
    ident = _terminal_identifier(expr)
    return ident is not None and any(
        part in ident.lower() for part in _SOCKISH)


@register_rule
class AsyncNoBlockingRule(LintRule):
    """Coroutines must never block the event loop.

    One synchronous ``time.sleep``, file read, socket call, lock acquire
    or ``Future.result`` inside ``async def`` stalls *every* connection
    multiplexed on that loop — a gateway worker mid-``time.sleep`` is
    indistinguishable from an overloaded backend, so the admission tier
    starts rejecting for latency it caused itself.  Anything directly
    ``await``-ed is exempt (that is the non-blocking form).
    """

    name = "async-no-blocking"
    description = ("blocking calls (time.sleep, sync file/socket I/O, "
                   "Lock.acquire, Future.result, subprocess) are "
                   "forbidden inside async def")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        awaited = set()
        body = list(_own_nodes(node))
        for sub in body:
            if isinstance(sub, ast.Await) and isinstance(sub.value, ast.Call):
                awaited.add(id(sub.value))
        for sub in body:
            if isinstance(sub, ast.Call) and id(sub) not in awaited:
                problem = self._blocking_shape(sub)
                if problem is not None:
                    self.report(sub, problem)
        self.generic_visit(node)

    @staticmethod
    def _blocking_shape(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return ("open() is synchronous file I/O on the event-loop "
                        "thread; move it off-loop (run_in_executor) or "
                        "out of the coroutine")
            if func.id == "sleep":
                return ("bare sleep() in a coroutine either blocks the "
                        "loop (time.sleep) or is an un-awaited "
                        "asyncio.sleep; await asyncio.sleep() instead")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        owner_name = _terminal_identifier(owner)
        if func.attr == "sleep" and owner_name == "time":
            return ("time.sleep() stalls the whole event loop; await "
                    "asyncio.sleep() (loopwatch fails runs on exactly "
                    "this shape)")
        if owner_name == "subprocess" and func.attr in _SUBPROCESS_BLOCKING:
            return (f"subprocess.{func.attr} blocks the loop waiting on "
                    "the child; use asyncio.create_subprocess_exec")
        if func.attr in _SOCKET_ALWAYS_BLOCKING:
            return (f".{func.attr}() is blocking socket I/O; use asyncio "
                    "streams (or hand the socket to the loop)")
        if func.attr in _SOCKET_GUARDED_BLOCKING and _is_sockish(owner):
            return (f"socket .{func.attr}() blocks the loop; use asyncio "
                    "streams / loop.sock_* instead")
        if func.attr == "acquire" and LockDisciplineRule._is_lockish(owner):
            return ("Lock.acquire in a coroutine blocks the loop (a "
                    "threading lock) or is an un-awaited coroutine (an "
                    "asyncio lock); use 'async with'")
        if func.attr == "result" and not node.args and not node.keywords:
            return ("Future.result() blocks until completion; await the "
                    "future instead")
        return None


@register_rule
class NoOrphanTaskRule(LintRule):
    """``create_task``/``ensure_future`` results must be kept.

    The event loop holds only a *weak* reference to a task: a handle
    discarded as a bare expression statement can be garbage-collected
    mid-flight and silently cancelled, and any exception it raised is
    reported to nobody.  Store the handle, await it, or hand it to an
    owner that will.
    """

    name = "no-orphan-task"
    description = ("create_task/ensure_future results must be stored, "
                   "awaited or handed off; a dropped task is silently "
                   "GC-cancelled")

    _SPAWNERS = frozenset({"create_task", "ensure_future"})

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            ident = _terminal_identifier(value.func)
            if ident in self._SPAWNERS:
                self.report(node, f"{ident}() result discarded; the loop "
                                  "keeps only a weak reference, so the "
                                  "task can be GC-cancelled mid-flight — "
                                  "store the handle or await it")
        self.generic_visit(node)


#: Constructors whose instances must never cross a fork/spawn boundary.
_UNPICKLABLE_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread", "socket", "create_connection",
})

#: Identifier shapes treated as live OS handles in a process payload.
_HANDLE_SUFFIXES = ("_sock", "_socket", "_conn", "_lock", "_thread")
_HANDLE_EXACT = frozenset({"sock", "socket", "conn", "connection",
                           "lock", "mutex", "thread"})


def _is_handle_identifier(ident: str) -> bool:
    lowered = ident.lower()
    return (lowered in _HANDLE_EXACT
            or lowered.endswith(_HANDLE_SUFFIXES)
            or "lock" in lowered or "mutex" in lowered)


@register_rule
class ForkSafetyRule(LintRule):
    """Process payloads must be picklable and handle-free.

    Under ``spawn`` an unpicklable target (lambda, nested function,
    bound method) fails at ``start()``; under ``fork`` it *appears* to
    work while silently duplicating locks mid-acquisition, live sockets
    and running threads into the child — the classic source of one-in-a-
    thousand worker wedges.  Worker entry points must be module-level
    functions and ``args`` must carry plain data (the gateway's
    ``WorkerSpec`` shape).
    """

    name = "fork-safety"
    description = ("multiprocessing targets must be module-level "
                   "functions; args must not carry locks, threads or "
                   "open sockets")

    def visit_Module(self, node: ast.Module) -> None:
        # Names of functions defined inside another function anywhere in
        # this file: passing one as a Process target cannot be pickled.
        self._nested_defs = set()
        for func in ast.walk(node):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(func):
                    if child is not func and isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._nested_defs.add(child.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _terminal_identifier(node.func) == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self._check_target(keyword.value)
                elif keyword.arg == "args":
                    self._check_payload(keyword.value)
        self.generic_visit(node)

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Lambda):
            self.report(target, "lambda Process target cannot be pickled "
                                "under spawn; use a module-level function")
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self.report(target, "bound-method Process target drags the "
                                "whole object (locks, sockets, threads) "
                                "across the fork; use a module-level "
                                "function taking a picklable spec")
        elif (isinstance(target, ast.Name)
                and target.id in getattr(self, "_nested_defs", set())):
            self.report(target, f"nested function {target.id!r} as a "
                                "Process target cannot be pickled under "
                                "spawn; move the entry point to module "
                                "level")

    def _check_payload(self, payload: ast.AST) -> None:
        elements = (payload.elts if isinstance(payload, (ast.Tuple,
                                                         ast.List))
                    else [payload])
        for element in elements:
            if (isinstance(element, ast.Call)
                    and _terminal_identifier(element.func)
                    in _UNPICKLABLE_CTORS):
                self.report(element, "constructing a lock/thread/socket "
                                     "in a Process payload hands the "
                                     "child a live handle; pass plain "
                                     "data and rebuild in the worker")
                continue
            ident = _terminal_identifier(element)
            if ident is not None and _is_handle_identifier(ident):
                self.report(element, f"{ident!r} looks like a live "
                                     "lock/socket/thread handle in a "
                                     "Process payload; fork duplicates "
                                     "it mid-state — pass plain data "
                                     "(paths, names, specs) instead")


@register_rule
class ShmLifecycleRule(LintRule):
    """Owned shared-memory segments must be released on every exit path.

    A ``SharedMemory(create=True)`` segment outlives the process: if the
    creating function can exit without ``close()``+``unlink()`` reachable
    (context manager, or cleanup in a ``finally``/``except``), a crash
    between creation and hand-off leaks the segment in ``/dev/shm`` until
    reboot — and the resource tracker's warnings are the only witness.
    """

    name = "shm-lifecycle"
    description = ("SharedMemory(create=True) needs close()+unlink() "
                   "reachable on every exit path (try/finally, except "
                   "cleanup, or a context manager)")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    @staticmethod
    def _creates_segment(expr: ast.AST) -> bool:
        return (isinstance(expr, ast.Call)
                and _terminal_identifier(expr.func) == "SharedMemory"
                and any(kw.arg == "create"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in expr.keywords))

    def _check_function(self, func: ast.AST) -> None:
        body = list(_own_nodes(func))
        owned: dict = {}
        for node in body:
            if (isinstance(node, ast.Expr)
                    and self._creates_segment(node.value)):
                self.report(node, "SharedMemory(create=True) handle "
                                  "discarded; the segment can never be "
                                  "closed or unlinked")
            elif (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._creates_segment(node.value)):
                owned[node.targets[0].id] = node
        for name, open_node in owned.items():
            if not self._released(name, body):
                self.report(open_node,
                            f"segment {name!r} has no close()/unlink() "
                            "reachable on failure paths; wrap the "
                            "post-create section in try/except (or "
                            "try/finally) that releases it, or use a "
                            "context manager")

    @staticmethod
    def _released(name: str, body: List[ast.AST]) -> bool:
        for node in body:
            if isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
            if isinstance(node, ast.Try):
                cleanup: List[ast.stmt] = list(node.finalbody)
                for handler in node.handlers:
                    cleanup.extend(handler.body)
                for stmt in cleanup:
                    for sub in ast.walk(stmt):
                        if (isinstance(sub, ast.Attribute)
                                and sub.attr in ("unlink", "close")
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id == name
                                and sub.attr == "unlink"):
                            return True
        return False


def _seqish(expr: ast.AST) -> bool:
    """True when a struct/name smells like the seqlock generation word."""
    ident = _terminal_identifier(expr)
    if ident is None:
        return False
    lowered = ident.lower()
    return "gen" in lowered or "seq" in lowered


@register_rule
class SeqlockDisciplineRule(LintRule):
    """Shared-memory seqlock access keeps the even-odd protocol.

    The snapshot board's only consistency guarantee is the sequence
    dance: writers bump the generation odd, copy, bump it even; readers
    copy only inside a retry loop that reads the generation before and
    re-checks it after.  A payload read outside that loop (or a write
    outside the bumps) can observe — or publish — a torn snapshot, which
    silently breaks bit-identical replay.

    Scope: expressions reaching a ``SharedMemory`` buffer — an attribute
    chain ending ``.buf`` through a name containing ``shm``, or a local
    alias assigned from one.  ``struct.pack_into``/``unpack_from`` and
    subscripts on such buffers are classified as sequence accesses (the
    struct name contains ``gen``/``seq``) or payload accesses.
    """

    name = "seqlock-discipline"
    description = ("seqlock payload reads belong inside the even-"
                   "sequence retry loop; writers must bump the sequence "
                   "before and after the copy")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    @staticmethod
    def _is_shm_buf(expr: ast.AST, aliases: set) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in aliases
        if isinstance(expr, ast.Attribute) and expr.attr == "buf":
            return any("shm" in part.lower()
                       for part in _chain_identifiers(expr.value))
        return False

    @staticmethod
    def _position(node: ast.AST) -> tuple:
        return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))

    def _check_function(self, func: ast.AST) -> None:
        body = list(_own_nodes(func))
        aliases = {node.targets[0].id for node in body
                   if isinstance(node, ast.Assign)
                   and len(node.targets) == 1
                   and isinstance(node.targets[0], ast.Name)
                   and self._is_shm_buf(node.value, set())}
        parents: dict = {func: None}
        for parent in body:
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for child in ast.iter_child_nodes(func):
            parents[child] = func

        seq_reads: List[tuple] = []
        seq_writes: List[tuple] = []
        data_reads: List[ast.AST] = []
        data_writes: List[ast.AST] = []
        for node in body:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("unpack_from", "pack_into")
                    and node.args
                    and self._is_shm_buf(node.args[0], aliases)):
                bucket = (seq_reads if node.func.attr == "unpack_from"
                          else seq_writes)
                if _seqish(node.func.value):
                    bucket.append(self._position(node))
                elif node.func.attr == "pack_into":
                    data_writes.append(node)
                else:
                    data_reads.append(node)
            elif (isinstance(node, ast.Subscript)
                    and self._is_shm_buf(node.value, aliases)):
                if isinstance(node.ctx, ast.Store):
                    data_writes.append(node)
                elif isinstance(node.ctx, ast.Load):
                    data_reads.append(node)

        self._check_writer(seq_writes, data_writes)
        self._check_reader(seq_reads, data_reads, parents)

    def _check_writer(self, seq_writes: List[tuple],
                      data_writes: List[ast.AST]) -> None:
        if not data_writes:
            return
        ordered = sorted(data_writes, key=self._position)
        first, last = ordered[0], ordered[-1]
        if not any(pos < self._position(first) for pos in seq_writes):
            self.report(first, "shared-buffer write without an odd "
                               "sequence bump before it; a concurrent "
                               "reader can copy a half-written snapshot")
        if not any(pos > self._position(last) for pos in seq_writes):
            self.report(last, "shared-buffer write without the closing "
                              "even sequence bump after it; readers "
                              "will spin on a forever-odd generation")

    def _check_reader(self, seq_reads: List[tuple],
                      data_reads: List[ast.AST], parents: dict) -> None:
        for node in data_reads:
            loop = parents.get(node)
            while loop is not None and not isinstance(
                    loop, (ast.For, ast.While)):
                loop = parents.get(loop)
            if loop is None:
                self.report(node, "seqlock payload read outside the "
                                  "even-sequence retry loop; a "
                                  "concurrent publish makes this a torn "
                                  "snapshot")
                continue
            position = self._position(node)
            loop_start = self._position(loop)
            in_loop = [pos for pos in seq_reads if pos >= loop_start]
            if not any(pos < position for pos in in_loop):
                self.report(node, "seqlock payload read before the "
                                  "generation word is sampled; read the "
                                  "(even) sequence first")
            if not any(pos > position for pos in in_loop):
                self.report(node, "seqlock payload read is never "
                                  "re-validated; re-read the generation "
                                  "after the copy and retry on mismatch")
