"""A minimal, deterministic discrete-event simulator.

The paper's §5.3 study runs on "a discrete event-driven simulator we wrote
in Python 3" implementing the admission framework of its Figure 1.  This is
that simulator: a time-ordered event schedule driving callbacks against a
:class:`~repro.core.clock.ManualClock`.  Both the single-host study
(:mod:`repro.sim.server`) and the LIquid cluster model
(:mod:`repro.liquid.cluster_sim`) run on it.

Determinism: events at equal timestamps fire in scheduling order (a
monotonic sequence number breaks ties), and all randomness lives in
explicitly seeded generators owned by workloads and policies — so a run is
reproducible bit-for-bit from its seeds.

The schedule is one binary heap of plain lists ``[when, seq, fn, arg]``, so
sift operations compare entries with C-level list comparison (``seq`` is
unique, so the comparison never reaches the callback slot).  Cancellation
marks the entry dead in place (callback slot ``None``); dead entries are
skipped at pop time and swept by a lazy compaction once they dominate the
schedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from ..core.clock import ManualClock
from ..exceptions import SimulationError

Action = Callable[[], None]

#: ``arg`` sentinel for zero-argument entries (fire as ``fn()``).
_NO_ARG = object()

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("_entry", "_owner", "cancelled")

    def __init__(self, entry: List[Any], owner: "Simulator") -> None:
        self._entry = entry
        self._owner = owner
        self.cancelled = False

    @property
    def when(self) -> float:
        return self._entry[0]  # type: ignore[no-any-return]

    @property
    def seq(self) -> int:
        return self._entry[1]  # type: ignore[no-any-return]

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        entry = self._entry
        if entry[2] is not None:
            # Still scheduled: kill it in place.  A fired entry has its
            # callback slot cleared by the engine, so a late cancel cannot
            # skew the dead-entry count.
            entry[2] = None
            entry[3] = None
            self._owner._note_cancelled()


class Simulator:
    """Event schedule + simulated clock.

    Usage::

        sim = Simulator()
        sim.schedule_after(1.5, lambda: print("fired at", sim.now))
        sim.run()
    """

    #: Compact only once this many cancellations accumulate (small schedules
    #: are cheap to pop through; rebuilding them would be churn).
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0) -> None:
        self.clock = ManualClock(start)
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0
        self._heap: List[List[Any]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still scheduled.

        Cancelled events stay in the heap as placeholders until they are
        either popped or swept by the lazy compaction, but they are never
        counted here.
        """
        return len(self._heap) - self._cancelled

    def _schedule_call(self, when: float, fn: Callable[[Any], None],
                       arg: Any) -> None:
        """Handle-free scheduling for internal hot paths.

        The caller guarantees ``when >= now``; the entry cannot be
        cancelled.
        """
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, [when, seq, fn, arg])

    def _note_cancelled(self) -> None:
        """A scheduled entry was cancelled; compact when mostly dead.

        Long runs with many cancellations (timeout guards that almost
        always get cancelled) would otherwise grow the schedule — and the
        cost of every push — without bound.  Compaction keeps the live
        entries once more than half of the heap is placeholders, rebuilding
        the list in place because :meth:`run` holds a reference to it.
        """
        self._cancelled += 1
        heap = self._heap
        if (self._cancelled >= self._COMPACT_MIN_CANCELLED
                and self._cancelled * 2 >= len(heap)):
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapq.heapify(heap)
            self._cancelled = 0

    def schedule_at(self, when: float, action: Action) -> ScheduledEvent:
        """Schedule ``action`` to run at absolute simulated time ``when``."""
        # Written so that NaN, which compares false to everything and would
        # corrupt the heap order, takes the refusing branch.
        if not when >= self.clock._now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        entry: List[Any] = [when, seq, action, _NO_ARG]
        _heappush(self._heap, entry)
        return ScheduledEvent(entry, self)

    def schedule_after(self, delay: float, action: Action) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(
                f"delay must be a non-negative number: {delay}")
        return self.schedule_at(self.clock._now + delay, action)

    def step(self) -> bool:
        """Fire the next event; return False when no live events remain."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the schedule drains, ``until`` is reached, or the
        event budget is spent.

        ``until`` advances the clock to exactly that instant when the
        schedule drains early, so time-based assertions hold either way.
        """
        fired = 0
        clock = self.clock
        heap = self._heap
        while heap:
            entry = heap[0]
            fn = entry[2]
            if fn is None:  # cancelled placeholder
                _heappop(heap)
                self._cancelled -= 1
                continue
            when = entry[0]
            if until is not None and when > until:
                break
            if max_events is not None and fired >= max_events:
                return
            _heappop(heap)
            # Pops are non-decreasing in time, so the direct write cannot
            # move the clock backwards (ManualClock.set's guard, skipped
            # for speed).
            clock._now = when
            self._events_processed += 1
            fired += 1
            arg = entry[3]
            entry[2] = None
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
        if until is not None and clock._now < until:
            clock.set(until)
