"""Dynamic lock-order checking: instrumented locks + a global lock graph.

Static analysis can prove a lock is *held correctly* (see the
``lock-discipline`` rule) but not that the ten ``threading`` locks across
``telemetry``, ``runtime``, ``gateway`` and ``faults`` (``core`` has none:
its host serializes) are acquired in a consistent global order.  This module checks that at runtime:

* :class:`CheckedLock` / :class:`CheckedRLock` wrap the real primitives and
  report every acquisition to a :class:`LockCheckRegistry`;
* the registry maintains a **lock graph**: holding ``A`` while acquiring
  ``B`` adds the edge ``A -> B``, stamped with the acquiring thread's
  stack;
* a new edge that closes a cycle (``B`` is already reachable back to
  ``A``) is a potential deadlock — an ABBA interleaving away from hanging
  the process — and is recorded as a :class:`LockOrderViolation` carrying
  the stacks of *both* conflicting acquisitions.

:class:`CheckedAsyncLock` / :class:`CheckedAsyncCondition` put
``asyncio.Lock``/``Condition`` into the *same* graph: inside a running
task the held stack is tracked per-task (coroutines multiplex one loop
thread, so thread-locals would invent edges between independent tasks),
and mixed async/thread cycles — the gateway's deadlock shape — are
reported like any other.

:func:`install` monkey-patches ``threading.Lock``/``threading.RLock``
(and ``asyncio.Lock``/``Condition``) so that locks constructed *from
repro code* are instrumented while stdlib machinery (futures, HTTP
servers) keeps real primitives.  The pytest plugin
(:mod:`repro.analysis.pytest_plugin`) installs it for the whole suite when
``REPRO_LOCKCHECK=1``; ``repro lint --dynamic`` installs it around a short
sim + runtime workload.

Edges are recorded *before* the blocking acquire, so an actual deadlock
interleaving still produces a report instead of hanging silently first.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

# The real primitives, captured before install() can patch them.  Every
# internal lock below uses these so the checker never instruments itself.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_ASYNC_LOCK = asyncio.Lock
_REAL_ASYNC_CONDITION = asyncio.Condition


def _current_task() -> Optional["asyncio.Task[Any]"]:
    """The running asyncio task, or ``None`` outside an event loop."""
    try:
        return asyncio.current_task()
    except RuntimeError:  # no running loop on this thread
        return None

#: Stack frames kept per recorded acquisition site.
_STACK_LIMIT = 16


def _creation_site() -> str:
    """``file:line`` of the first caller frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _capture_stack() -> str:
    """The acquiring thread's stack, trimmed of lockcheck internals."""
    frames = traceback.extract_stack(limit=_STACK_LIMIT + 4)
    kept = [f for f in frames if f.filename != __file__]
    return "".join(traceback.format_list(kept[-_STACK_LIMIT:]))


@dataclass(frozen=True)
class _Edge:
    """One observed hold-A-acquire-B ordering."""

    source: int
    target: int
    thread: str
    stack: str


@dataclass(frozen=True)
class LockOrderViolation:
    """A lock-graph cycle: two (or more) inconsistent acquisition orders."""

    #: Human-readable cycle, e.g. ``a.py:10 -> b.py:20 -> a.py:10``.
    cycle: Tuple[str, ...]
    #: The acquisition that closed the cycle.
    closing_edge: _Edge
    #: The previously recorded edges forming the return path.
    path_edges: Tuple[_Edge, ...]
    #: Creation sites by lock id (for rendering).
    names: Dict[int, str] = field(compare=False, default_factory=dict)

    def _describe(self, edge: _Edge) -> str:
        src = self.names.get(edge.source, f"lock#{edge.source}")
        dst = self.names.get(edge.target, f"lock#{edge.target}")
        return (f"thread {edge.thread!r} held {src} while acquiring {dst}"
                f"\n{edge.stack}")

    def format(self) -> str:
        """Multi-line report with the stacks of every conflicting edge."""
        lines = ["potential deadlock: lock-order cycle "
                 + " -> ".join(self.cycle)]
        lines.append("closing acquisition:")
        lines.append(self._describe(self.closing_edge))
        for edge in self.path_edges:
            lines.append("conflicts with earlier acquisition:")
            lines.append(self._describe(edge))
        return "\n".join(lines)


class LockCheckRegistry:
    """Process-wide lock graph shared by every instrumented lock.

    Thread-safe; all graph state is guarded by a *real* (uninstrumented)
    mutex.  ``raise_on_violation`` makes the acquiring thread raise
    immediately — useful in targeted tests; the suite-wide fixture instead
    collects violations and fails at session teardown so one report shows
    every cycle.
    """

    def __init__(self, raise_on_violation: bool = False) -> None:
        self._mutex = _REAL_LOCK()
        self._graph: Dict[int, Dict[int, _Edge]] = {}
        self._names: Dict[int, str] = {}
        self._held = threading.local()
        # Coroutines multiplex on one loop thread, so a thread-local held
        # stack would invent hold-while-acquire edges between *independent*
        # tasks.  Inside a task the held stack is per-task instead; the
        # weak keying lets finished tasks drop their bookkeeping.
        self._task_held: "weakref.WeakKeyDictionary[Any, List[int]]" = (
            weakref.WeakKeyDictionary())
        self.raise_on_violation = raise_on_violation
        self.violations: List[LockOrderViolation] = []

    # -- lock bookkeeping ------------------------------------------------
    def register(self, lock_id: int, name: str) -> None:
        with self._mutex:
            self._names[lock_id] = name

    def _held_stack(self) -> List[int]:
        task = _current_task()
        if task is not None:
            with self._mutex:
                task_stack = self._task_held.get(task)
                if task_stack is None:
                    task_stack = []
                    self._task_held[task] = task_stack
            return task_stack
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquiring(self, lock_id: int) -> None:
        """Record ordering edges for an acquisition about to block."""
        held = self._held_stack()
        if not held or lock_id in held:
            return  # nothing held, or a reentrant re-acquisition
        stack = None
        task = _current_task()
        thread = (task.get_name() if task is not None
                  else threading.current_thread().name)
        for source in dict.fromkeys(held):  # distinct, oldest first
            with self._mutex:
                if lock_id in self._graph.get(source, {}):
                    continue  # edge already known
            if stack is None:
                stack = _capture_stack()
            self._add_edge(_Edge(source=source, target=lock_id,
                                 thread=thread, stack=stack))

    def note_acquired(self, lock_id: int) -> None:
        self._held_stack().append(lock_id)

    def note_released(self, lock_id: int) -> None:
        held = self._held_stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == lock_id:
                del held[index]
                return

    # -- graph -----------------------------------------------------------
    def _add_edge(self, edge: _Edge) -> None:
        violation: Optional[LockOrderViolation] = None
        with self._mutex:
            targets = self._graph.setdefault(edge.source, {})
            if edge.target in targets:
                return
            targets[edge.target] = edge
            path = self._find_path(edge.target, edge.source)
            if path is not None:
                names = dict(self._names)
                cycle_ids = [edge.source, edge.target]
                cycle_ids += [e.target for e in path]
                cycle = tuple(names.get(lock_id, f"lock#{lock_id}")
                              for lock_id in cycle_ids)
                violation = LockOrderViolation(
                    cycle=cycle, closing_edge=edge,
                    path_edges=tuple(path), names=names)
                self.violations.append(violation)
        if violation is not None and self.raise_on_violation:
            raise AssertionError(violation.format())

    def _find_path(self, start: int, goal: int
                   ) -> Optional[List[_Edge]]:
        """Edge path ``start -> ... -> goal`` in the graph, if any (DFS).

        Caller holds ``self._mutex``.
        """
        stack: List[Tuple[int, List[_Edge]]] = [(start, [])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            for target, edge in self._graph.get(node, {}).items():
                if target == goal:
                    return path + [edge]
                if target not in seen:
                    seen.add(target)
                    stack.append((target, path + [edge]))
        return None

    # -- reporting -------------------------------------------------------
    def edge_count(self) -> int:
        with self._mutex:
            return sum(len(targets) for targets in self._graph.values())

    def check(self) -> None:
        """Raise :class:`AssertionError` listing every recorded cycle."""
        if self.violations:
            reports = "\n\n".join(v.format() for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} lock-order violation(s) detected "
                f"by repro.analysis.lockcheck:\n{reports}")

    def reset(self) -> None:
        with self._mutex:
            self._graph.clear()
            self.violations.clear()
            self._task_held = weakref.WeakKeyDictionary()


class CheckedLock:
    """Drop-in ``threading.Lock`` reporting acquisitions to a registry."""

    _factory = staticmethod(_REAL_LOCK)

    def __init__(self, registry: Optional[LockCheckRegistry] = None,
                 name: Optional[str] = None) -> None:
        self._inner = type(self)._factory()
        self._registry = (registry if registry is not None
                          else current_registry())
        self._name = name or _creation_site()
        if self._registry is not None:
            self._registry.register(id(self), self._name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        registry = self._registry
        if registry is not None:
            registry.note_acquiring(id(self))
        acquired = self._inner.acquire(blocking, timeout)  # type: ignore[attr-defined]
        if acquired and registry is not None:
            registry.note_acquired(id(self))
        return acquired

    def release(self) -> None:
        if self._registry is not None:
            self._registry.note_released(id(self))
        self._inner.release()  # type: ignore[attr-defined]

    def locked(self) -> bool:
        return bool(self._inner.locked())  # type: ignore[attr-defined]

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name}>"


class CheckedRLock(CheckedLock):
    """Drop-in ``threading.RLock``; reentrant re-acquisitions add no edges
    (the registry skips locks the thread already holds)."""

    _factory = staticmethod(_REAL_RLOCK)

    def locked(self) -> bool:  # RLock grew .locked() only in 3.12+
        probe = getattr(self._inner, "locked", None)
        if probe is None:  # pragma: no cover - version dependent
            return False
        return bool(probe())


class CheckedAsyncLock:
    """Drop-in ``asyncio.Lock`` reporting acquisitions to the registry.

    Async and thread locks share one lock graph: a coroutine holding an
    asyncio lock while a worker thread takes the same ``threading.Lock``
    pair in the opposite order is exactly the mixed-substrate deadlock
    the gateway can hit, and it shows up here as an ordinary cycle.
    """

    def __init__(self, registry: Optional[LockCheckRegistry] = None,
                 name: Optional[str] = None) -> None:
        self._inner = _REAL_ASYNC_LOCK()
        self._registry = (registry if registry is not None
                          else current_registry())
        self._name = name or _creation_site()
        if self._registry is not None:
            self._registry.register(id(self), self._name)

    async def acquire(self) -> bool:
        registry = self._registry
        if registry is not None:
            # Before the (potentially suspending) await, same as the
            # thread locks: a real deadlock still yields a report.
            registry.note_acquiring(id(self))
        acquired = await self._inner.acquire()
        if acquired and registry is not None:
            registry.note_acquired(id(self))
        return acquired

    def release(self) -> None:
        if self._registry is not None:
            self._registry.note_released(id(self))
        self._inner.release()

    def locked(self) -> bool:
        return bool(self._inner.locked())

    async def __aenter__(self) -> None:
        await self.acquire()

    async def __aexit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name}>"


class CheckedAsyncCondition:
    """Drop-in ``asyncio.Condition`` built on a :class:`CheckedAsyncLock`.

    ``wait()`` releases the underlying lock while suspended, so the
    registry's held stack is updated around it — otherwise every waiter
    would appear to hold the lock across arbitrary awaits and the graph
    would fill with phantom edges.
    """

    def __init__(self, lock: Optional[CheckedAsyncLock] = None,
                 registry: Optional[LockCheckRegistry] = None,
                 name: Optional[str] = None) -> None:
        self._lock = (lock if lock is not None
                      else CheckedAsyncLock(registry=registry,
                                            name=name or _creation_site()))
        self._inner = _REAL_ASYNC_CONDITION(self._lock._inner)

    async def acquire(self) -> bool:
        # repro: allow=lock-discipline (the wrapper IS the lock implementation; callers hold it via 'async with')
        return await self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    async def wait(self) -> bool:
        registry = self._lock._registry
        if registry is not None:
            registry.note_released(id(self._lock))
        try:
            return await self._inner.wait()
        finally:
            # The real condition re-acquires the inner lock before wait()
            # returns (or raises CancelledError), so the bookkeeping must
            # mirror that on every path.
            if registry is not None:
                registry.note_acquired(id(self._lock))

    async def wait_for(self, predicate: "Any") -> "Any":
        result = predicate()
        while not result:
            await self.wait()
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    async def __aenter__(self) -> None:
        await self.acquire()

    async def __aexit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._lock._name}>"


# -- threading.Lock patching ---------------------------------------------

_default_registry: Optional[LockCheckRegistry] = None
_installed: bool = False


def current_registry() -> Optional[LockCheckRegistry]:
    """The registry :func:`install` activated, or ``None``."""
    return _default_registry


def _caller_in_scope(prefixes: Tuple[str, ...]) -> bool:
    frame = sys._getframe(2)  # factory -> caller of threading.Lock()
    module = frame.f_globals.get("__name__", "")
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in prefixes)


def install(scope_prefixes: Tuple[str, ...] = ("repro",),
            registry: Optional[LockCheckRegistry] = None,
            raise_on_violation: bool = False) -> LockCheckRegistry:
    """Patch ``threading.Lock``/``RLock`` to hand repro code checked locks.

    Only call sites whose module name starts with one of
    ``scope_prefixes`` receive instrumented locks — stdlib and third-party
    code keeps the real primitives, bounding both the overhead and the
    blast radius.  Idempotent; returns the active registry.
    """
    global _default_registry, _installed
    if _installed:
        assert _default_registry is not None
        return _default_registry
    active = registry if registry is not None else LockCheckRegistry(
        raise_on_violation=raise_on_violation)
    _default_registry = active

    def _lock_factory() -> Union[CheckedLock, object]:
        if _caller_in_scope(scope_prefixes):
            return CheckedLock(active)
        return _REAL_LOCK()

    def _rlock_factory() -> Union[CheckedRLock, object]:
        if _caller_in_scope(scope_prefixes):
            return CheckedRLock(active)
        return _REAL_RLOCK()

    def _async_lock_factory(*args: object,
                            **kwargs: object) -> Union[CheckedAsyncLock,
                                                       object]:
        # Arguments mean someone is using a legacy loop= form or a
        # subclass contract we can't honour — hand back the real thing.
        if not args and not kwargs and _caller_in_scope(scope_prefixes):
            return CheckedAsyncLock(active)
        return _REAL_ASYNC_LOCK(*args, **kwargs)  # type: ignore[arg-type]

    def _async_condition_factory(
            *args: object,
            **kwargs: object) -> Union[CheckedAsyncCondition, object]:
        if not args and not kwargs and _caller_in_scope(scope_prefixes):
            return CheckedAsyncCondition(registry=active)
        return _REAL_ASYNC_CONDITION(*args, **kwargs)  # type: ignore[arg-type]

    threading.Lock = _lock_factory  # type: ignore[assignment]
    threading.RLock = _rlock_factory  # type: ignore[assignment]
    asyncio.Lock = _async_lock_factory  # type: ignore[assignment, misc]
    asyncio.Condition = _async_condition_factory  # type: ignore[assignment, misc]
    _installed = True
    return active


def uninstall() -> None:
    """Restore the real lock factories (threading and asyncio)."""
    global _default_registry, _installed
    threading.Lock = _REAL_LOCK  # type: ignore[assignment]
    threading.RLock = _REAL_RLOCK  # type: ignore[assignment]
    asyncio.Lock = _REAL_ASYNC_LOCK  # type: ignore[misc]
    asyncio.Condition = _REAL_ASYNC_CONDITION  # type: ignore[misc]
    _default_registry = None
    _installed = False
