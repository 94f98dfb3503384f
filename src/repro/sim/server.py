"""Simulated serving host: FIFO queue + P query engine processes (Fig. 1).

"The simulator implements the framework in Figure 1.  It assumes a query
engine with a fixed number of processes and gives the admitted queries to
the idle processes on a first-come, first-serve basis" (§5.3).

The host owns the queue (exposing a live :class:`~repro.core.policy.QueueView`
to the policy), invokes the policy at arrival, and fires the Point 1/2/3
metric hooks the framework promises.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # avoid a sim <-> telemetry import cycle at runtime
    from ..faults import FaultInjector
    from ..telemetry.hub import Telemetry

from ..core.context import HostContext
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import AdmissionResult, Query
from ..exceptions import ConfigurationError
from .report import ServerMetrics
from .simulator import Simulator
from .workload import service_time_of

PolicyFactory = Callable[[HostContext], AdmissionPolicy]
DecisionHook = Callable[[float, Query, AdmissionResult], None]
PriorityFn = Callable[[Query], float]


class SimulatedServer:
    """One serving host inside a :class:`~repro.sim.simulator.Simulator`.

    Parameters
    ----------
    sim:
        The simulator supplying time and event scheduling.
    parallelism:
        ``P`` — number of query engine processes.
    policy_factory:
        Builds the admission policy from the host's context; invoked once.
    service_time_fn:
        Maps an admitted query to its processing duration in seconds.
        Defaults to reading the demand pre-sampled by the workload.
    on_decision:
        Optional hook called after every admission decision — the
        per-second traces behind the paper's Figure 3 are collected here.
    enforce_deadlines:
        Drop admitted queries whose deadline passed while they queued
        (LIquid's expiration enforcement, §5.1), and account engine time
        spent on responses that completed after their deadline as wasted
        work.  Queries without a deadline are unaffected.
    priority_fn:
        Optional scheduling priority (lower runs first; FIFO among equals).
        The paper's systems serve queries in FIFO order and list priority
        disciplines as future work (§7); this knob implements that
        extension.  Note Bouncer's Eq. 2 wait estimate assumes FIFO, so
        under a priority discipline its estimates are approximate for
        low-priority types.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink; when supplied,
        the host records counters and (if a tracer is attached) per-query
        decision traces at the Point 1/2/3 hooks.  ``None`` (the default)
        skips all telemetry work.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Blackout/crash/
        queue-drop windows veto arrivals before the policy runs (reason
        ``FAULT_INJECTED``), slowdown/spike windows reshape service times,
        engine-stall windows freeze dispatch until they close, and error
        windows terminate admitted queries with an error verdict.  The
        injector must be armed (its window origin set) by the caller —
        :func:`~repro.sim.driver.run_simulation` arms at measurement
        start.
    host_label:
        This host's name for fault targeting and telemetry attribution.
    """

    def __init__(self, sim: Simulator, parallelism: int,
                 policy_factory: PolicyFactory,
                 service_time_fn: Callable[[Query], float] = service_time_of,
                 on_decision: Optional[DecisionHook] = None,
                 enforce_deadlines: bool = True,
                 priority_fn: Optional[PriorityFn] = None,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 host_label: str = "sim") -> None:
        if parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {parallelism}")
        self._sim = sim
        self.parallelism = parallelism
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=sim.clock, queue=self.queue_view,
                               parallelism=parallelism)
        self.policy = policy_factory(self.ctx)
        self._service_time_fn = service_time_fn
        self._on_decision = on_decision
        self._enforce_deadlines = enforce_deadlines
        self._priority_fn = priority_fn
        self._telemetry = telemetry
        self._faults = fault_injector
        self._host = host_label
        # Arrival instant of the burst currently flowing through
        # ``offer_many``; lets the batch callback be a plain bound method
        # instead of a per-burst closure.
        self._batch_now = 0.0
        # Dispatch-resume instant scheduled for an active engine stall;
        # guards against piling up duplicate wake-up events.
        self._stall_wakeup_at: Optional[float] = None
        self._queue: Deque[Query] = deque()
        self._heap: List[Tuple[float, int, Query]] = []
        self._heap_seq = itertools.count()
        self._idle = parallelism
        self.metrics = ServerMetrics(start_time=sim.now)

    @property
    def queue_length(self) -> int:
        """Queries waiting (not in service)."""
        if self._priority_fn is not None:
            return len(self._heap)
        return len(self._queue)

    @property
    def idle_processes(self) -> int:
        """Engine processes currently free."""
        return self._idle

    @property
    def in_flight(self) -> int:
        """Queries currently being processed by engine processes."""
        return self.parallelism - self._idle

    def offer(self, query: Query) -> AdmissionResult:
        """Present an arriving query to the admission policy.

        Accepted queries enter the FIFO queue; rejected ones are dropped on
        the spot (the early rejection the paper's §2 motivates — they
        "never make it into the data system's queue").
        """
        now = self._sim.now
        query.arrival_time = now
        self.metrics.note_arrival(query, now)
        if self._faults is not None:
            # A blacked-out or lossy host refuses before the policy runs —
            # the fault sits in front of admission, like a dead NIC would.
            override = self._faults.admission_override(query, now,
                                                       self._host)
            if override is not None:
                self._apply_decision(query, override, now)
                return override
        result = self.policy.decide(query)
        self._apply_decision(query, result, now)
        return result

    def offer_many(self, queries: Sequence[Query]) -> List[AdmissionResult]:
        """Present a burst of same-tick arrivals through one batch decision.

        Bit-identical to calling :meth:`offer` once per query in order: the
        policy's ``decide_many`` fires :meth:`_apply_decision` after each
        decision, so an accepted query is enqueued (and possibly dispatched)
        before the next query in the burst is decided — exactly the state
        sequential arrivals would observe.  With a fault injector *armed*
        the burst degrades to the scalar loop, because fault windows
        interleave probabilistic draws (admission overrides, error
        verdicts) with dispatch in arrival order and batching would
        reorder that stream.  A merely attached-but-unarmed injector is
        inert (all its hooks are no-ops that consume no randomness), so it
        does not force the degradation; neither does an attached tracer —
        telemetry fires per decision inside :meth:`_apply_decision` either
        way, so tracing and batching compose.
        """
        if not queries:
            return []
        if self._faults is not None and self._faults.armed:
            return [self.offer(query) for query in queries]
        now = self._sim.now
        note_arrival = self.metrics.note_arrival
        for query in queries:
            query.arrival_time = now
            note_arrival(query, now)
        self._batch_now = now
        return self.policy.decide_many(queries,
                                       on_decision=self._apply_batched)

    def _apply_batched(self, query: Query, result: AdmissionResult) -> None:
        self._apply_decision(query, result, self._batch_now)

    def _apply_decision(self, query: Query, result: AdmissionResult,
                        now: float) -> None:
        """Post-decision side effects, shared by the scalar and batch paths.

        Hooks and telemetry fire for every decision; an accepted query is
        stamped, enqueued, and offered to an idle engine immediately.
        """
        if self._on_decision is not None:
            self._on_decision(now, query, result)
        if self._telemetry is not None:
            self._telemetry.on_decision(query, result, now=now,
                                        queue_length=self.queue_length,
                                        policy=self.policy)
        if not result.accepted:
            self.metrics.record_rejection(query, result)
            return
        query.enqueued_at = now
        # Sample the service demand once and stamp it on the query; dispatch
        # reuses the stamp instead of re-deriving it (one fn call saved per
        # admitted query on the hot path).
        query.service_time = self._service_time_fn(query)
        self.metrics.record_admission(query.service_time)
        if self._priority_fn is not None:
            heapq.heappush(self._heap, (self._priority_fn(query),
                                        next(self._heap_seq), query))
        else:
            self._queue.append(query)
        self.queue_view.on_enqueue(query.qtype)
        self.policy.on_enqueued(query)
        self._dispatch()

    def reset_measurement(self) -> None:
        """End the warm-up phase: zero metrics and policy tallies.

        Learned policy state (histograms, moving averages) is preserved —
        only the accounting restarts, as in the paper's warmed-up runs.
        """
        self.metrics.reset(self._sim.now)
        self.policy.reset_stats()

    # -- engine processes -------------------------------------------------
    def _pop_next(self) -> Optional[Query]:
        if self._priority_fn is not None:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]
        if not self._queue:
            return None
        return self._queue.popleft()

    def _dispatch(self) -> None:
        while self._idle > 0:
            if self._faults is not None and self.queue_length > 0:
                stall_end = self._faults.stalled_until(self._sim.now,
                                                       self._host)
                if stall_end is not None:
                    # Engines frozen: defer dispatch until the stall window
                    # closes (one wake-up per window end, not per arrival).
                    if self._stall_wakeup_at != stall_end:
                        self._stall_wakeup_at = stall_end
                        self._faults.note_stall(self._sim.now, self._host)
                        self._sim.schedule_at(stall_end,
                                              self._resume_after_stall)
                    return
            query = self._pop_next()
            if query is None:
                return
            now = self._sim.now
            if (self._enforce_deadlines and query.deadline is not None
                    and now > query.deadline):
                # Expired while queued: drop without engine work (§5.1).
                self.queue_view.on_dequeue(query.qtype)
                self.metrics.record_expiration(query, wasted_work=0.0)
                if self._telemetry is not None:
                    self._telemetry.on_expired(query, now=now)
                continue
            query.dequeued_at = now
            self.queue_view.on_dequeue(query.qtype)
            wait = query.wait_time or 0.0
            self.policy.on_dequeued(query, wait)
            if self._telemetry is not None:
                self._telemetry.on_dequeue(query, now=now)
            self._idle -= 1
            service = (query.service_time
                       if query.service_time is not None
                       else self._service_time_fn(query))
            errored = False
            if self._faults is not None:
                service = self._faults.shape_service(service, query, now,
                                                     self._host)
                errored = self._faults.should_error(query, now, self._host)
            if errored:
                self._sim.schedule_after(
                    service, lambda q=query: self._complete(q, True))
            else:
                # Handle-free scheduling: completions are never cancelled,
                # so skip the ScheduledEvent allocation and the closure.
                self._sim._schedule_call(now + service, self._complete_ok,
                                         query)

    def _resume_after_stall(self) -> None:
        self._stall_wakeup_at = None
        self._dispatch()

    def _complete_ok(self, query: Query) -> None:
        """Non-errored completion callback for the handle-free hot path."""
        self._complete(query, False)

    def _complete(self, query: Query, errored: bool = False) -> None:
        now = self._sim.now
        query.completed_at = now
        wait = query.wait_time or 0.0
        processing = query.processing_time or 0.0
        if errored:
            # Injected engine fault: the work was done but the client gets
            # an error — a terminal verdict, accounted as such.
            self.policy.on_completed(query, wait, processing)
            self.metrics.record_error(query)
        elif (self._enforce_deadlines and query.deadline is not None
                and now > query.deadline):
            # Completed after expiration: the engine time was wasted on a
            # response the client gave up on (the paper's §2 scenario).
            self.policy.on_completed(query, wait, processing)
            self.metrics.record_expiration(query, wasted_work=processing)
        else:
            self.policy.on_completed(query, wait, processing)
            self.metrics.record_completion(query)
        if self._telemetry is not None:
            if errored:
                self._telemetry.span_mark_fault(query, "engine_error", now)
            self._telemetry.on_completion(query, now=now, errored=errored)
        self._idle += 1
        self._dispatch()
