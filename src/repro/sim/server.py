"""Simulated serving host: FIFO queue + P query engine processes (Fig. 1).

"The simulator implements the framework in Figure 1.  It assumes a query
engine with a fixed number of processes and gives the admitted queries to
the idle processes on a first-come, first-serve basis" (§5.3).

The host owns the queue (exposing a live :class:`~repro.core.policy.QueueView`
to the policy), invokes the policy at arrival, and fires the Point 1/2/3
metric hooks the framework promises.  The cluster model's brokers and
shards (:mod:`repro.liquid.cluster_sim`) are this host too: they subclass
it and replace only what a LIquid host does differently.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence

if TYPE_CHECKING:  # avoid a sim <-> telemetry import cycle at runtime
    from ..faults import FaultInjector
    from ..telemetry.hub import Telemetry

from ..core.context import HostContext
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import AdmissionResult, Query, RejectReason
from ..exceptions import ConfigurationError
from .report import ServerMetrics
from .simulator import Simulator
from .workload import service_time_of

PolicyFactory = Callable[[HostContext], AdmissionPolicy]
DecisionHook = Callable[[float, Query, AdmissionResult], None]


class SimulatedServer:
    """One Figure-1 host inside a :class:`~repro.sim.simulator.Simulator`.

    An arrival meets the fault override, the queue cap and the policy, in
    that order.  A query whose deadline passes while it queues is dropped
    without engine work; one that completes late counts its engine time
    as wasted (LIquid's expiration enforcement, §5.1).

    Parameters
    ----------
    sim:
        The simulator supplying time and event scheduling.
    parallelism:
        ``P`` — number of query engine processes.
    policy_factory:
        Builds the admission policy from the host's context; invoked once.
    on_decision:
        Optional hook called after every admission decision — the
        per-second traces behind the paper's Figure 3 are collected here.
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

    #: Queue length at which arrivals are refused (``QUEUE_FULL``) before
    #: the policy runs; ``ClusterConfig.queue_cap`` on the cluster's hosts.
    _queue_cap: float = math.inf

    def __init__(self, sim: Simulator, parallelism: int,
                 policy_factory: PolicyFactory,
                 on_decision: Optional[DecisionHook] = None,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 host_label: str = "sim") -> None:
        if parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {parallelism}")
        self._sim = sim
        self._clock = sim.clock
        self.parallelism = parallelism
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=sim.clock, queue=self.queue_view,
                               parallelism=parallelism)
        self.policy = policy_factory(self.ctx)
        self._on_decision = on_decision
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
        self._idle = parallelism
        self.metrics = ServerMetrics(start_time=sim.now)

    @property
    def queue_length(self) -> int:
        """Queries waiting (not in service)."""
        return len(self._queue)

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
        now = self._clock._now
        query.arrival_time = now
        self.metrics.note_arrival(query, now)
        result = self._decide(query, now)
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
        way, so tracing and batching compose.  The queue cap never binds
        here: this host's queue is unbounded.
        """
        if not queries:
            return []
        if self._faults is not None and self._faults.armed:
            return [self.offer(query) for query in queries]
        now = self._clock._now
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
        """This host's side of a decision, shared by the scalar and batch
        paths: the decision hook and the measurement, then :meth:`_admit`.
        """
        if self._on_decision is not None:
            self._on_decision(now, query, result)
        if result.accepted:
            # Stamp the service demand once; dispatch reads the stamp.
            query.service_time = service_time_of(query)
            self.metrics.record_admission(query.service_time)
        else:
            self.metrics.record_rejection(query, result)
        self._admit(query, result, now)

    def reset_measurement(self) -> None:
        """End the warm-up phase: zero metrics and policy tallies.

        Learned policy state (histograms, moving averages) is preserved —
        only the accounting restarts, as in the paper's warmed-up runs.
        """
        self.metrics.reset(self._sim.now)
        self.policy.reset_stats()

    # -- the Figure-1 path, shared with the cluster's brokers and shards ----
    def _decide(self, query: Query, now: float) -> AdmissionResult:
        """The verdict on an arrival: a blacked-out or lossy host refuses
        before its policy runs, like a dead NIC would; so does a full
        queue; otherwise the policy decides."""
        if self._faults is not None:
            override = self._faults.admission_override(query, now,
                                                       self._host)
            if override is not None:
                return override
        if len(self._queue) >= self._queue_cap:
            result = AdmissionResult.reject(RejectReason.QUEUE_FULL)
            self.policy.stats.record(query.qtype, result)
            return result
        return self.policy.decide(query)

    def _admit(self, query: Query, result: AdmissionResult,
               now: float) -> bool:
        """Point-1 telemetry, then an accepted ``query`` is stamped,
        queued and offered to an idle engine; True when it was."""
        if self._telemetry is not None:
            self._telemetry.on_decision(query, result, now=now,
                                        queue_length=len(self._queue),
                                        policy=self.policy)
        if not result.accepted:
            return False
        query.enqueued_at = now
        self._queue.append(query)
        self.queue_view.on_enqueue(query.qtype)
        self.policy.on_enqueued(query)
        if self._idle:
            self._dispatch()
        return True

    def _dispatch(self) -> None:
        queue = self._queue
        now = self._clock._now
        while self._idle > 0 and queue:
            if self._faults is not None:
                stall_end = self._faults.stalled_until(now, self._host)
                if stall_end is not None:
                    # Engines frozen: defer dispatch until the stall window
                    # closes (one wake-up per window end, not per arrival).
                    if self._stall_wakeup_at != stall_end:
                        self._stall_wakeup_at = stall_end
                        self._faults.note_stall(now, self._host)
                        self._sim.schedule_at(stall_end,
                                              self._resume_after_stall)
                    return
            query = queue.popleft()
            self.queue_view.on_dequeue(query.qtype)
            if query.deadline is not None and now > query.deadline:
                # Expired while queued: drop without engine work (§5.1).
                if self._telemetry is not None:
                    self._telemetry.on_expired(query, now=now)
                self._finished(query, False)
                continue
            query.dequeued_at = now
            self.policy.on_dequeued(
                query, now - query.enqueued_at)  # type: ignore[operator]
            if self._telemetry is not None:
                self._telemetry.on_dequeue(query, now=now)
            self._idle -= 1
            self._start(query, now)

    def _resume_after_stall(self) -> None:
        self._stall_wakeup_at = None
        self._dispatch()

    def _start(self, query: Query, now: float) -> None:
        """Run a dequeued ``query`` on an engine process for its service
        demand, reshaped by active slowdown/spike windows; an active error
        window poisons it."""
        service: float = query.service_time  # type: ignore[assignment]
        if self._faults is not None:
            service = self._faults.shape_service(service, query, now,
                                                 self._host)
            if self._faults.should_error(query, now, self._host):
                self._sim._schedule_call(now + service, self._complete_error,
                                         query)
                return
        # Handle-free scheduling: completions are never cancelled.
        self._sim._schedule_call(now + service, self._complete, query)

    def _complete_error(self, query: Query) -> None:
        """Completion of a query an injected engine fault poisoned."""
        self._complete(query, True)

    def _complete(self, query: Query, errored: bool = False) -> None:
        now = self._clock._now
        query.completed_at = now
        dequeued = query.dequeued_at
        # An errored query was worked on all the same: the engine did the
        # work, then errored it, so the policy hears of it like any other.
        self.policy.on_completed(
            query, dequeued - query.enqueued_at,  # type: ignore[operator]
            now - dequeued)  # type: ignore[operator]
        if self._telemetry is not None:
            if errored:
                self._telemetry.span_mark_fault(query, "engine_error", now)
            self._telemetry.on_completion(query, now=now, errored=errored)
        self._idle += 1
        self._finished(query, errored)
        if self._queue:
            self._dispatch()

    def _finished(self, query: Query, errored: bool) -> None:
        """Account the outcome of a query its engine finished, or of one
        whose deadline passed while it queued."""
        if errored:
            self.metrics.record_error(query)
        elif query.deadline is not None and self._clock._now > query.deadline:
            # Expired: a late response wasted its engine time on a client
            # that gave up (§2); a query dropped in the queue wasted none.
            self.metrics.record_expiration(
                query, wasted_work=query.processing_time or 0.0)
        else:
            self.metrics.record_completion(query)
