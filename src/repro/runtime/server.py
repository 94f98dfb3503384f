"""A real (wall-clock, threaded) admission-controlled server.

This is the production-shaped counterpart of the simulated host: the same
Figure-1 framework — admission decision at arrival, FIFO queue, a fixed
pool of engine worker threads, Point 1/2/3 metric hooks — running on
:class:`~repro.core.clock.MonotonicClock` against a user-supplied handler
(e.g. :meth:`repro.liquid.service.LiquidService.execute`).

Policies are constructed from the server's :class:`~repro.core.context
.HostContext` exactly as in simulation, so a policy validated in the
simulator deploys here unchanged — the property the paper relies on when it
moves Bouncer from the §5.3 simulator to the §5.4 LIquid cluster.

Threading: this is the one host with threads, and :mod:`repro.core` takes
no locks of its own, so the server serializes: one host lock is held around
every group of calls into the policy and the queue view — decide through
enqueue on a submitter thread, the dequeue hooks and the completion hook
on a worker thread, the policy half of a scrape — three acquisitions per
served query.  Handlers, future resolution and the blocking side of the
ingress queue run outside it.

Telemetry: every server owns a :class:`~repro.telemetry.Telemetry` (pass
one with a :class:`~repro.telemetry.DecisionTracer` to capture per-query
decision traces), its operational counters (``policy_errors``,
``expired_count``) live in the telemetry registry, and
:meth:`serve_telemetry` starts an HTTP thread exposing ``/metrics`` and
``/traces`` for live scrapes.
"""

from __future__ import annotations

import queue as queue_module
import threading
from concurrent.futures import Future
from typing import Any, Callable, List, Optional, Sequence

from ..core.context import HostContext
from ..core.clock import MonotonicClock
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import AdmissionResult, Query
from ..exceptions import (ConfigurationError, DeadlineExceededError,
                          InjectedFaultError, QueryRejectedError,
                          ShuttingDownError)
from ..faults import FaultInjector
from ..telemetry.http import TelemetryHTTPServer
from ..telemetry.hub import Telemetry, render_metrics

Handler = Callable[[Query], Any]
PolicyFactory = Callable[[HostContext], AdmissionPolicy]

_SHUTDOWN = object()

#: Extra join budget granted after an aborted drain: long enough for a
#: worker to finish its in-flight handler and consume the re-sent shutdown
#: sentinel, short enough that ``stop`` never hangs on a wedged handler.
_ABORT_GRACE = 5.0


def decide_many_fail_open(
        policy: AdmissionPolicy, queries: Sequence[Query],
        apply: Callable[[Query, AdmissionResult], None],
        on_policy_error: Callable[[], None]) -> None:
    """Run one ``decide_many`` burst with per-query fail-open.

    The batch counterpart of ``submit``'s try/except: a policy exception
    admits exactly the query that raised (``apply`` sees an accept,
    ``on_policy_error`` fires once) and the burst resumes batching the
    remainder.  ``apply`` receives every (query, result) pair in arrival
    order, exactly once.  Used by :meth:`AdmissionServer.submit_many`;
    the gateway worker runs the same semantics over ``decide_types``
    without a ``Query`` per decision, and
    ``tests/test_gateway.py::TestShardEngine::test_policy_error_fails_open``
    holds the two hosts to the same bits, log and tallies.
    """
    done = 0

    def record(query: Query, result: AdmissionResult) -> None:
        nonlocal done
        apply(query, result)
        done += 1

    total = len(queries)
    while done < total:
        start = done
        try:
            results = policy.decide_many(list(queries[start:]),
                                         on_decision=record)
        except Exception:
            # Fail open for exactly the query that broke the policy, then
            # resume batching the remainder — the per-query counterpart
            # of the scalar path's fail-open.
            on_policy_error()
            if done < total:
                record(queries[done], AdmissionResult.accept())
            continue
        if done == start:
            # Defensive: a decide_many that returned without firing the
            # callback (contract violation) must not spin forever; apply
            # whatever it returned, positionally.
            for query, result in zip(list(queries[start:]), results):
                record(query, result)
            if done == start:
                break


class AdmissionServer:
    """FIFO queue + worker threads behind an admission policy.

    Parameters
    ----------
    policy_factory:
        Builds the admission policy from this host's context.
    handler:
        Executes one admitted query and returns its result; runs on a
        worker thread.  Exceptions propagate into the query's future.
    workers:
        ``P`` — number of engine worker threads.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` to record into (share
        one across servers to aggregate, attach a tracer to capture
        decision traces).  When omitted the server creates a private
        registry-only instance, so counters always work and tracing is off.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` — the same chaos
        machinery the simulated hosts take.  Blackout/crash/queue-drop
        windows refuse arrivals (``QueryRejectedError`` with reason
        ``FAULT_INJECTED``), stall windows freeze the workers, slowdown/
        spike windows stretch handler time with real sleeps, and error
        windows fail the query's future with
        :class:`~repro.exceptions.InjectedFaultError`.  Armed at
        :meth:`start` so plan windows are relative to server start.
    host_label:
        This server's name for fault targeting and telemetry attribution
        (defaults to ``"runtime"``; give replicas distinct labels).

    Usage::

        server = AdmissionServer(factory, handler, workers=8)
        server.start()
        exposition = server.serve_telemetry()   # optional: /metrics scrape
        try:
            future = server.submit(Query(qtype="edge", payload=...))
            print(future.result(timeout=1.0))
        finally:
            server.stop()

    ``submit`` raises :class:`~repro.exceptions.QueryRejectedError`
    immediately when the policy rejects — the "early rejection" the paper's
    §2 motivates: the caller learns at once and can fail over, and the
    query never occupies the queue.  An admitted query whose ``deadline``
    passes while it queues is dropped at dequeue: its future fails with
    :class:`~repro.exceptions.DeadlineExceededError` without spending
    handler time (LIquid's expiration enforcement, §5.1).
    """

    def __init__(self, policy_factory: PolicyFactory, handler: Handler,
                 workers: int = 8,
                 telemetry: Optional[Telemetry] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 host_label: str = "runtime") -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._clock = MonotonicClock()
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=self._clock, queue=self.queue_view,
                               parallelism=workers)
        self.policy = policy_factory(self.ctx)
        self._handler = handler
        self._workers_count = workers
        #: Metric-point sink; fail-open and expiration counters live in its
        #: registry (scrapable), replacing the former ad-hoc int attributes.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._faults = fault_injector
        self._host = host_label
        self._queue: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._threads: list = []
        self._started = False
        self._stopping = False
        #: The host lock: guards the lifecycle flags and serializes every
        #: call into ``policy`` and ``queue_view`` (module docstring).
        self._lock = threading.Lock()
        self._exposition: Optional[TelemetryHTTPServer] = None

    # -- operational counters (backed by the telemetry registry) ---------
    @property
    def expired_count(self) -> int:
        """Admitted queries dropped in the queue past their deadline."""
        return self.telemetry.expired_count

    @property
    def cancelled_count(self) -> int:
        """Admitted queries abandoned unprocessed when :meth:`stop` gave
        up on the drain (their futures report ``cancelled()``)."""
        return self.telemetry.cancelled_count

    @property
    def policy_errors(self) -> int:
        """Exceptions raised by the policy's decide()/hooks; the server
        fails open (admits) on these, because a crashing admission policy
        must degrade to "no admission control", not to an outage."""
        return self.telemetry.policy_error_count

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Spin up the worker threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            self._stopping = False
        if self._faults is not None:
            self._faults.arm(self._clock.now())
        for idx in range(self._workers_count):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-engine-{idx}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting work, drain what fits in ``timeout``, and join.

        Queries already queued are still processed (graceful drain) while
        the shared ``timeout`` budget lasts.  If the drain cannot finish
        in time, the backlog is abandoned: every still-queued future is
        cancelled (counted in :attr:`cancelled_count`) and the workers are
        re-signalled so they exit as soon as their in-flight handler
        returns.  Either way no future is left unresolved — a submission
        that raced behind the shutdown sentinels is cancelled in the final
        sweep.  The telemetry exposition thread, if running, is stopped
        too.
        """
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        deadline = (None if timeout is None
                    else self._clock.now() + timeout)
        for thread in self._threads:
            budget = (None if deadline is None
                      else max(0.0, deadline - self._clock.now()))
            thread.join(timeout=budget)
        stuck = [t for t in self._threads if t.is_alive()]
        if stuck:
            # Drain timed out.  Abandon the backlog (cancelling its
            # futures) and re-sentinel, so each remaining worker exits
            # right after its current handler instead of working the
            # whole queue down.
            self._cancel_queued()
            for _ in stuck:
                self._queue.put(_SHUTDOWN)
            for thread in stuck:
                thread.join(timeout=_ABORT_GRACE)
        self._threads.clear()
        with self._lock:
            self._started = False
        # Final sweep: a submit() that passed the stopping check before the
        # flag flipped can enqueue behind the sentinels; nothing will ever
        # dequeue it now, so resolve its future here.
        self._cancel_queued()
        if self._exposition is not None:
            self._exposition.stop()
            self._exposition = None

    def _cancel_queued(self) -> None:
        """Empty the ingress queue, cancelling every queued future."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                return
            if item is _SHUTDOWN:
                continue
            query, future = item
            with self._lock:
                self.queue_view.on_dequeue(query.qtype)
            if future.cancel():
                self.telemetry.on_cancelled(query, now=self._clock.now())

    def __enter__(self) -> "AdmissionServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- telemetry exposition --------------------------------------------
    def render_metrics(self) -> str:
        """Full scrape body: policy/queue exposition + telemetry registry.

        A strict superset of :func:`repro.telemetry.render_metrics` — the
        policy-side counters and Bouncer percentile estimates, the
        fail-open/expiration counters, and everything the telemetry
        registry accumulated (measured latency histograms, traces-side
        counters).
        """
        policy_errors, expired = self.policy_errors, self.expired_count
        with self._lock:
            base = render_metrics(self.policy, self.queue_view,
                                  policy_errors=policy_errors,
                                  expired_count=expired)
        return base + self.telemetry.render()

    def render_traces(self, limit: Optional[int] = None,
                      qtype: Optional[str] = None) -> str:
        """Recent decision-trace events as JSONL ("" when tracing is off)."""
        tracer = self.telemetry.tracer
        if tracer is None:
            return ""
        return tracer.render_jsonl(limit, qtype)

    def render_spans(self, limit: Optional[int] = None,
                     qtype: Optional[str] = None,
                     fmt: str = "jsonl") -> str:
        """Recent lifecycle spans ("" when span tracing is off).

        ``fmt`` is ``"jsonl"`` (one span per line) or ``"chrome"``
        (Perfetto-loadable trace-event JSON).
        """
        spans = self.telemetry.spans
        if spans is None:
            return ""
        if fmt == "chrome":
            return spans.render_chrome(limit, qtype)
        return spans.render_jsonl(limit, qtype)

    def serve_telemetry(self, host: str = "127.0.0.1",
                        port: int = 0) -> TelemetryHTTPServer:
        """Start (or return) the HTTP exposition thread for this server.

        Binds an ephemeral port by default; read it from the returned
        server's ``port``.  Stopped automatically by :meth:`stop`.
        """
        if self._exposition is None:
            traces_fn = (self.render_traces
                         if self.telemetry.tracer is not None else None)
            spans_fn = (self.render_spans
                        if self.telemetry.spans is not None else None)
            self._exposition = TelemetryHTTPServer(
                metrics_fn=self.render_metrics, traces_fn=traces_fn,
                spans_fn=spans_fn, host=host, port=port).start()
        return self._exposition

    # -- submission ------------------------------------------------------
    def submit(self, query: Query) -> "Future[Any]":
        """Offer a query; returns a future, or raises on rejection.

        Raises
        ------
        QueryRejectedError
            The admission policy rejected the query (early rejection).
        ShuttingDownError
            The server is stopping or was never started.
        """
        now = self._clock.now()
        query.arrival_time = now
        with self._lock:
            self._check_accepting()
            # Fault verdicts sit in front of admission: a blacked-out or
            # lossy host refuses before the policy ever sees the query.
            result = (None if self._faults is None else
                      self._faults.admission_override(query, now,
                                                      self._host))
            if result is None:
                try:
                    result = self.policy.decide(query)
                except Exception:
                    # Fail open: a broken policy should cost admission
                    # control, not availability.  Counted for alerting.
                    self.telemetry.on_policy_error()
                    result = AdmissionResult.accept()
            # Still under the lock: N concurrent submitters that all
            # decided against the same queue state would over-admit.
            future = self._apply_decision(query, result, now)
        if future is None:
            raise QueryRejectedError(result)
        return future

    def _check_accepting(self) -> None:
        if not self._started or self._stopping:
            raise ShuttingDownError("server is not accepting queries")

    def try_submit(self, query: Query
                   ) -> "tuple[AdmissionResult, Optional[Future[Any]]]":
        """Like :meth:`submit` but returns the rejection instead of raising.

        Load generators use this to count rejections without exception
        overhead distorting latency measurements.
        """
        try:
            future = self.submit(query)
        except QueryRejectedError as exc:
            return exc.result, None
        return AdmissionResult.accept(), future

    def submit_many(
            self, queries: Sequence[Query]
    ) -> "List[tuple[AdmissionResult, Optional[Future[Any]]]]":
        """Offer a burst of queries through one batch decision.

        The batch analogue of calling :meth:`try_submit` per query, in
        order: all queries share one arrival timestamp (they arrived
        together), the policy sees them as a single ``decide_many`` burst,
        and each accepted query is enqueued before the next is decided.
        Per-query fail-open is preserved — a policy exception admits the
        query that hit it and the batch resumes after it.  With a fault
        injector armed the burst degrades to the scalar loop, keeping the
        injector's probabilistic draw order intact.

        Returns ``(result, future-or-None)`` pairs in arrival order;
        rejections are returned, not raised.
        """
        if self._faults is not None:
            with self._lock:
                self._check_accepting()
            return [self.try_submit(query) for query in queries]
        now = self._clock.now()
        for query in queries:
            query.arrival_time = now
        out: "List[tuple[AdmissionResult, Optional[Future[Any]]]]" = []

        def apply(query: Query, result: AdmissionResult) -> None:
            out.append((result, self._apply_decision(query, result, now)))

        with self._lock:
            self._check_accepting()
            decide_many_fail_open(self.policy, queries, apply,
                                  self.telemetry.on_policy_error)
        return out

    def _apply_decision(self, query: Query, result: AdmissionResult,
                        now: float) -> "Optional[Future[Any]]":
        """Record one decision and enqueue on acceptance (shared tail).

        The single post-decision sequence behind :meth:`submit`,
        :meth:`submit_many`, and the gateway workers: Point-1 telemetry,
        then — only for accepted queries — the future, the enqueue
        bookkeeping (``enqueued_at``, queue view, policy hook), and the
        handoff to the worker queue.  Returns the future, or ``None`` for
        a rejection.  Keeping both submission paths on this one method is
        what makes their fail-open behaviour identical by construction.
        """
        self.telemetry.on_decision(query, result, now=now,
                                   queue_length=self.queue_view.length(),
                                   policy=self.policy)
        if not result.accepted:
            return None
        future: "Future[Any]" = Future()
        query.enqueued_at = now
        self.queue_view.on_enqueue(query.qtype)
        self.policy.on_enqueued(query)
        self._queue.put((query, future))
        return future

    # -- workers -----------------------------------------------------------
    def _apply_service_faults(self, query: Query,
                              handler_started: float) -> None:
        """Stretch real handler time per active slowdown/spike windows.

        A wall-clock handler cannot be slowed retroactively, so the shaped
        duration is realized by sleeping the difference after the handler
        returns — the client-observed processing time is what the fault
        plan prescribes.
        """
        elapsed = self._clock.now() - handler_started
        shaped = self._faults.shape_service(  # type: ignore[union-attr]
            elapsed, query, handler_started, self._host)
        if shaped > elapsed:
            self._clock.sleep(shaped - elapsed)

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            query, future = item
            now = self._clock.now()
            if self._faults is not None:
                # Engines frozen by a stall window: sleep it out before
                # touching the query (the queue does not drain meanwhile).
                stall_end = self._faults.stalled_until(now, self._host)
                if stall_end is not None:
                    self._faults.note_stall(now, self._host)
                    self._clock.sleep(stall_end - now)
                    now = self._clock.now()
            if query.deadline is not None and now > query.deadline:
                with self._lock:
                    self.queue_view.on_dequeue(query.qtype)
                self.telemetry.on_expired(query, now=now)
                future.set_exception(DeadlineExceededError(
                    f"query {query.query_id} expired in the queue"))
                continue
            query.dequeued_at = now
            with self._lock:
                self.queue_view.on_dequeue(query.qtype)
                try:
                    self.policy.on_dequeued(query, query.wait_time or 0.0)
                except Exception:
                    # Policy hooks are advisory: a buggy hook must not
                    # kill the worker or the query.
                    self.telemetry.on_policy_error()
            self.telemetry.on_dequeue(query, now=now)
            handler_started = self._clock.now()
            failure: Optional[Exception] = None
            injected = False
            try:
                outcome = self._handler(query)
            except Exception as exc:  # propagate into the caller's future
                failure = exc
            if failure is None and self._faults is not None:
                self._apply_service_faults(query, handler_started)
                injected = self._faults.should_error(query, self._clock.now(),
                                                     self._host)
            query.completed_at = now = self._clock.now()
            with self._lock:
                try:
                    # An errored query still reports the work it cost: the
                    # engine did the work, then the handler or a fault
                    # errored the query.
                    self.policy.on_completed(query, query.wait_time or 0.0,
                                             query.processing_time or 0.0)
                except Exception:
                    self.telemetry.on_policy_error()
            if injected:
                self.telemetry.span_mark_fault(query, "engine_error", now)
                failure = InjectedFaultError(
                    f"query {query.query_id} poisoned by fault plan "
                    f"{self._faults.plan.name!r}")  # type: ignore[union-attr]
            self.telemetry.on_completion(query, now=now,
                                         errored=failure is not None)
            if failure is None:
                future.set_result(outcome)
            else:
                future.set_exception(failure)
