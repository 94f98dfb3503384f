"""The telemetry facade the serving frameworks call at the metric points.

:class:`Telemetry` bundles a :class:`~repro.telemetry.registry
.MetricsRegistry`, an optional :class:`~repro.telemetry.tracer
.DecisionTracer`, an optional :class:`~repro.telemetry.spans.SpanRecorder`,
and an optional :class:`~repro.telemetry.calibration.CalibrationTracker`
behind the hooks every host fires (decision, dequeue, completion,
expiration) plus the fail-open policy-error counter.  Hosts accept
``telemetry=None`` and skip the calls entirely, so uninstrumented runs pay
a single ``is None`` test per metric point.

One ``Telemetry`` can serve a whole cluster: :meth:`scoped` returns a view
sharing the registry, tracer, span recorder, and calibration tracker but
stamping a different ``host`` label (``broker-0``, ``shard-3``, …), which
is how the LIquid cluster model attributes events to hosts.  Each view
binds its per-type children on their first record, so no hook builds a
label key.  :func:`render_metrics`, the policy-side exposition
(``repro_admission_*``), writes through a throwaway registry, so both
scrapes share one Prometheus writer.

Bouncer evidence (``ewt_mean``, per-percentile ``ert_p``, the SLO targets,
the cold-start flag) is captured on *sampled* decisions only: the
percentile estimates ride along on the :class:`~repro.core.types
.AdmissionResult` for free, and the wait estimate is recomputed from the
live queue — a cost paid once per sampled query, not per query.  The span
recorder and calibration tracker use the same deterministic query-id hash,
so a sampled query's point events, spans, and calibration join always
appear together.

Span handles live on ``query.span_ctx`` between hooks; the ``span_*``
helpers here own every open/close transition, so hosts never hold a raw
handle.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..core.bouncer import BouncerPolicy
from ..core.policy import AdmissionPolicy, QueueView
from ..core.starvation import _StarvationWrapper
from ..core.types import AdmissionResult, Query, RejectReason
from .calibration import CalibrationTracker
from .registry import MetricFamily, MetricsRegistry
from .spans import SpanContext, SpanRecorder
from .tracer import DecisionTracer, TraceEvent


def _unwrap_bouncer(policy: Optional[AdmissionPolicy]
                    ) -> Optional[BouncerPolicy]:
    if isinstance(policy, _StarvationWrapper):
        policy = policy.inner
    return policy if isinstance(policy, BouncerPolicy) else None


def render_metrics(policy: AdmissionPolicy,
                   queue: Optional[QueueView] = None, *,
                   policy_errors: Optional[int] = None,
                   expired_count: Optional[int] = None) -> str:
    """A policy's counters (and queue state) as exposition text.

    Per-type accepted/rejected counters, the starvation wrapper's
    overrides, and for a Bouncer its published percentile processing
    times, Eq. 2 wait estimate and fast-path counters, rendered through
    a throwaway ``repro_admission`` :class:`MetricsRegistry` (stable
    ordering: by family, then labels).  ``policy_errors`` (fail-open
    admissions) and ``expired_count`` (deadline drops) are host-side
    counters; ``None`` omits them.

    It reads the policy and the view, so like every call into them it is
    the host's to serialize: the threaded :class:`~repro.runtime.server
    .AdmissionServer` wraps it in its host lock
    (``server.render_metrics()``).
    """
    registry = MetricsRegistry(prefix="repro_admission")
    accepted = registry.counter("accepted_total",
                                "Queries admitted, by type.")
    rejected = registry.counter("rejected_total",
                                "Queries rejected, by type and reason.")
    per_type = policy.stats.types()
    for qtype, tally in per_type.items():
        accepted.labels(qtype=qtype).inc(tally.accepted)
        if tally.rejected and not tally.rejected_by_reason:
            rejected.labels(qtype=qtype, reason="unknown").inc(
                tally.rejected)
        for reason, count in tally.rejected_by_reason.items():
            rejected.labels(qtype=qtype, reason=reason.value).inc(count)
    # The unlabelled counters, as (name, value, help); None omits one.
    totals = [("policy_errors_total", policy_errors,
               "Policy exceptions absorbed by the fail-open host."),
              ("expired_total", expired_count,
               "Admitted queries dropped in the queue past their deadline.")]
    if queue is not None:
        registry.gauge("queue_length", "Queries waiting in the FIFO queue."
                       ).labels().set(queue.length())
        occupancy = registry.gauge("queue_occupancy",
                                   "Queries waiting, by type.")
        for qtype, count in queue.occupancy().items():
            occupancy.labels(qtype=qtype).set(count)
    if isinstance(policy, _StarvationWrapper):
        totals.append(("overrides_total", policy.override_count,
                       "Rejections overridden by the starvation strategy."))
    bouncer = _unwrap_bouncer(policy)
    if bouncer is not None:
        processing = registry.gauge(
            "processing_seconds",
            "Published percentile processing times, by type.")
        for qtype in per_type:
            snapshot = bouncer.processing_snapshot(qtype)
            if snapshot.is_empty:
                continue
            for percentile in bouncer.slos.for_type(qtype).percentiles:
                processing.labels(qtype=qtype, quantile=f"{percentile:g}"
                                  ).set(snapshot.percentile(percentile))
        registry.gauge("estimated_wait_seconds",
                       "Bouncer's mean queue-wait estimate (Eq. 2)."
                       ).labels().set(bouncer.estimate_wait_mean())
        fast = bouncer.fast_path_stats
        totals += [
            ("estimator_cache_hits", fast.cache_hits,
             "Fast-path estimator cache hits (epoch-keyed snapshot "
             "stats)."),
            ("estimator_cache_misses", fast.cache_misses,
             "Fast-path estimator cache misses (new publish epoch)."),
            ("eq2_recomputes", fast.eq2_recomputes,
             "Eq. 2 reads of a queued type's mean (none held, or past "
             "its publish horizon)."),
            ("batch_calls", fast.batch_calls,
             "decide_types invocations (decisions by type name)."),
            ("batch_queries", fast.batch_queries,
             "Queries decided through decide_types.")]
    for name, value, help_text in totals:
        if value is not None:
            registry.counter(name, help_text).labels().inc(value)
    return registry.render()


class _BindOnUse(dict):
    """A dict that fills a missing key with ``bind(key)`` on first use.

    No lock: threads racing on one missing key each store what ``bind``
    returns, and every child comes from its family's get-or-create, so
    they store the same child.  Recording stays under the children's own
    locks, which are synchronisation: ``AdmissionServer``'s workers fire
    ``on_dequeue``/``on_completion`` outside the host lock.
    """

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable[[Any], Any]) -> None:
        super().__init__()
        self._bind = bind

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._bind(key)
        return value


class Telemetry:
    """Registry + optional tracer/spans/calibration, stamped with this
    host's name.

    Parameters
    ----------
    registry:
        Shared metric registry; a fresh one is created when omitted.
    tracer:
        Optional decision tracer.  ``None`` keeps counters/histograms but
        records no per-query events.
    host:
        Label stamped on every metric and event this view records.
    spans:
        Optional lifecycle-span recorder.  ``None`` disables span
        emission (hosts pay nothing).
    calibration:
        Optional estimator-calibration tracker joining point-1 estimates
        to point-2/3 measurements.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[DecisionTracer] = None,
                 host: str = "main",
                 spans: Optional[SpanRecorder] = None,
                 calibration: Optional[CalibrationTracker] = None) -> None:
        self.registry = registry if registry is not None else (
            MetricsRegistry())
        self.tracer = tracer
        self.host = host
        self.spans = spans
        self.calibration = calibration
        reg = self.registry
        self._accepted = reg.counter(
            "accepted_total", "Queries admitted, by host and type.")
        self._rejected = reg.counter(
            "rejected_total",
            "Queries rejected, by host, type, and reason.")
        self._expired = reg.counter(
            "expired_total",
            "Admitted queries dropped in the queue past their deadline.")
        self._cancelled = reg.counter(
            "cancelled_total",
            "Admitted queries abandoned at shutdown before any worker "
            "dequeued them (their futures are cancelled).")
        self._policy_errors = reg.counter(
            "policy_errors_total",
            "Policy decide()/hook exceptions absorbed by fail-open hosts.")
        self._faults_injected = reg.counter(
            "faults_injected_total",
            "Fault activations realized by the injector, by host and kind.")
        self._retries = reg.counter(
            "retries_total",
            "Retry attempts issued after rejections or timeouts.")
        self._hedges = reg.counter(
            "hedges_total",
            "Hedged duplicate sub-queries issued against slow shards.")
        self._degraded = reg.counter(
            "degraded_responses_total",
            "Responses served from partial (healthy-replica) results.")
        self._queue_wait = reg.histogram(
            "queue_wait_seconds", "Measured FIFO queue wait (Point 2).")
        self._processing = reg.histogram(
            "processing_seconds", "Measured processing time (Point 3).")
        self._response = reg.histogram(
            "response_seconds",
            "Measured response time wt+pt (Point 3, paper Eq. 1).")
        self._ewt_gauge = reg.gauge(
            "bouncer_ewt_seconds",
            "Bouncer's latest mean queue-wait estimate (Eq. 2).")
        self._ert_gauge = reg.gauge(
            "bouncer_ert_seconds",
            "Bouncer's latest percentile response-time estimates "
            "(Eqs. 3-4), by type and quantile.")
        self._cache_hits = reg.counter(
            "estimator_cache_hits",
            "Bouncer fast-path estimator cache hits (epoch-keyed "
            "snapshot-stat memo; see docs/performance.md).")
        self._cache_misses = reg.counter(
            "estimator_cache_misses",
            "Bouncer fast-path estimator cache misses (a snapshot's "
            "derived stats were computed for a new publish epoch).")
        self._eq2_recomputes = reg.counter(
            "eq2_recomputes",
            "Bouncer's Eq. 2 reads of a queued type's mean (none held, "
            "or past its publish horizon).")
        self._calibration_gauge = reg.gauge(
            "estimator_calibration",
            "Estimator calibration stats: rolling mean signed error and "
            "APE per estimator term, and rolling SLO attainment, by type "
            "(synced at render time).")
        # Last-synced FastPathStats per policy, for delta accounting.
        self._fast_seen: dict = {}
        #: qtype -> this host's children of that type, each bound on its
        #: first record (see :meth:`_bind`), so no hook builds a label key.
        self._typed = _BindOnUse(
            lambda qtype: _BindOnUse(partial(self._bind, qtype)))

    def scoped(self, host: str) -> "Telemetry":
        """A view onto the same registry/tracer/spans/calibration under
        another host label."""
        return Telemetry(registry=self.registry, tracer=self.tracer,
                         host=host, spans=self.spans,
                         calibration=self.calibration)

    def _bind(self, qtype: str, key: Any) -> Any:
        """This host's ``qtype`` child for ``key``: a family for its
        per-type series, a reason for ``rejected_total``, a percentile for
        ``bouncer_ert_seconds``."""
        if isinstance(key, MetricFamily):
            return key.labels(host=self.host, qtype=qtype)
        if isinstance(key, str):
            return self._rejected.labels(host=self.host, qtype=qtype,
                                         reason=key)
        return self._ert_gauge.labels(host=self.host, qtype=qtype,
                                      quantile=f"{key:g}")

    # -- convenience readers (the runtime server's counter properties) ----
    @property
    def policy_error_count(self) -> int:
        return int(self._policy_errors.labels(host=self.host).value)

    @property
    def expired_count(self) -> int:
        return int(self._expired.labels(host=self.host).value)

    @property
    def cancelled_count(self) -> int:
        return int(self._cancelled.labels(host=self.host).value)

    def faults_injected_total(self) -> int:
        """Realized fault injections across all hosts and kinds."""
        return int(sum(child.value
                       for child in self._faults_injected.children()
                       .values()))

    def retries_total(self) -> int:
        """Retry attempts recorded across all hosts."""
        return int(sum(child.value
                       for child in self._retries.children().values()))

    def hedges_total(self) -> int:
        """Hedged sub-queries recorded across all hosts."""
        return int(sum(child.value
                       for child in self._hedges.children().values()))

    def degraded_total(self) -> int:
        """Degraded (partial-result) responses across all hosts."""
        return int(sum(child.value
                       for child in self._degraded.children().values()))

    def render(self) -> str:
        """Exposition text for the shared registry (calibration gauges
        are synced from the tracker first)."""
        calibration = self.calibration
        if calibration is not None:
            for labels, value in calibration.gauge_values():
                self._calibration_gauge.labels(**labels).set(value)
        return self.registry.render()

    # -- metric-point hooks ------------------------------------------------
    def on_decision(self, query: Query, result: AdmissionResult,
                    now: float, queue_length: int = 0,
                    policy: Optional[AdmissionPolicy] = None) -> None:
        """Point 1: an admission verdict was produced for ``query``."""
        qtype = query.qtype
        children = self._typed[qtype]
        if result.accepted:
            children[self._accepted].inc()
        else:
            children[result.reason.value if result.reason
                     else "unknown"].inc()
        for percentile, value in result.estimates.items():
            children[percentile].set(value)
        if policy is not None:
            self.record_fast_path(policy)
        tracer = self.tracer
        calibration = self.calibration
        query_id = query.query_id
        trace_this = tracer is not None and tracer.sampled(query_id)
        calibrate_this = (calibration is not None
                          and calibration.sampled(query_id))
        if not trace_this and not calibrate_this:
            self._span_decision(query, result, now)
            return
        # Bouncer evidence, computed once and shared by both sinks.
        ewt_mean: Optional[float] = None
        cold: Optional[bool] = None
        slo_map: dict = {}
        bouncer = _unwrap_bouncer(policy)
        if bouncer is not None:
            ewt_mean = bouncer.estimate_wait_mean()
            self._ewt_gauge.labels(host=self.host).set(ewt_mean)
            snap = bouncer.processing_snapshot(qtype)
            cold = snap.count < bouncer.config.min_samples
            slo = (bouncer.slos.default if cold
                   else bouncer.slos.for_type(qtype))
            slo_map = {f"{p:g}": target for p, target in slo.items()}
        ert_map = {f"{p:g}": v for p, v in result.estimates.items()}
        if trace_this:
            event = TraceEvent(
                event="decision", point=1, ts=now, query_id=query_id,
                qtype=qtype, host=self.host, accepted=result.accepted,
                reason=result.reason.value if result.reason else None,
                overridden=result.overridden or None,
                queue_length=queue_length, ert=ert_map)
            if bouncer is not None:
                event.ewt_mean = ewt_mean
                event.cold_start = cold
                event.slo = slo_map
                stats = bouncer.fast_path_stats
                event.fast_path = {
                    "estimator_cache_hits": stats.cache_hits,
                    "estimator_cache_misses": stats.cache_misses,
                    "eq2_recomputes": stats.eq2_recomputes}
            tracer.record(event)
        if calibrate_this:
            calibration.note_decision(
                query_id, qtype, accepted=result.accepted,
                reason=result.reason.value if result.reason else None,
                ewt_mean=ewt_mean, ert=ert_map, slo=slo_map)
        self._span_decision(query, result, now)

    def record_fast_path(self, policy: AdmissionPolicy) -> None:
        """Sync a Bouncer's :class:`~repro.core.bouncer.FastPathStats`
        into the estimator counters (delta-based; safe to call often)."""
        bouncer = _unwrap_bouncer(policy)
        if bouncer is None:
            return
        stats = bouncer.fast_path_stats
        hits = stats.cache_hits
        misses = stats.cache_misses
        recomputes = stats.eq2_recomputes
        seen = self._fast_seen.get(id(bouncer), (0, 0, 0))
        if (hits, misses, recomputes) == seen:
            return
        self._fast_seen[id(bouncer)] = (hits, misses, recomputes)
        if hits > seen[0]:
            self._cache_hits.labels(host=self.host).inc(hits - seen[0])
        if misses > seen[1]:
            self._cache_misses.labels(host=self.host).inc(misses - seen[1])
        if recomputes > seen[2]:
            self._eq2_recomputes.labels(host=self.host).inc(
                recomputes - seen[2])

    def on_dequeue(self, query: Query, now: float) -> None:
        """Point 2: an engine process pulled ``query`` from the queue."""
        wait = query.wait_time or 0.0
        self._typed[query.qtype][self._queue_wait].observe(wait)
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="dequeue", point=2, ts=now, query_id=query.query_id,
                qtype=query.qtype, host=self.host, wait_time=wait))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_dequeue(query.query_id, wait)
        self.span_dequeue(query, now)

    def on_completion(self, query: Query, now: float,
                      errored: bool = False) -> None:
        """Point 3: ``query`` finished; its response is about to ship."""
        qtype = query.qtype
        processing = query.processing_time or 0.0
        response = query.response_time or 0.0
        children = self._typed[qtype]
        children[self._processing].observe(processing)
        children[self._response].observe(response)
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="completion", point=3, ts=now,
                query_id=query.query_id, qtype=qtype, host=self.host,
                wait_time=query.wait_time, processing_time=processing,
                response_time=response))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_completion(query.query_id, response)
        late = query.deadline is not None and now > query.deadline
        self.span_complete(query, now,
                           status=("error" if errored
                                   else "expired" if late else "ok"))

    def on_expired(self, query: Query, now: float) -> None:
        """An admitted query was dropped in the queue past its deadline."""
        self._expired.labels(host=self.host).inc()
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="expired", point=3, ts=now, query_id=query.query_id,
                qtype=query.qtype, host=self.host,
                wait_time=query.wait_time))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_expired(query.query_id, query.qtype)
        self.span_expired(query, now)

    def on_cancelled(self, query: Query, now: float) -> None:
        """An admitted query was abandoned unprocessed at shutdown."""
        self._cancelled.labels(host=self.host).inc()
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="cancelled", point=3, ts=now,
                query_id=query.query_id, qtype=query.qtype,
                host=self.host))
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, "cancelled")

    def on_policy_error(self) -> None:
        """The host absorbed a policy exception (fail-open admission)."""
        self._policy_errors.labels(host=self.host).inc()

    # -- span lifecycle helpers --------------------------------------------
    # Hosts never hold raw SpanHandles: every open handle lives on
    # ``query.span_ctx`` between hooks, and each helper below performs a
    # complete open/close (or handoff) transition.

    def _span_decision(self, query: Query, result: AdmissionResult,
                       now: float) -> None:
        """Open (accepted) or record whole (rejected) the root span."""
        spans = self.spans
        if spans is None:
            return
        ctx = query.span_ctx
        if ctx is not None:
            # Adopted span (a shard-side attempt): the parent trace owns
            # the root; this host only adds/closes its own phases.
            if not result.accepted:
                query.span_ctx = None
                reason = result.reason.value if result.reason else "unknown"
                status = ("fault"
                          if result.reason is RejectReason.FAULT_INJECTED
                          else "rejected")
                ctx.root.finish(now, status=status, reason=reason)
                return
            ctx.queue = ctx.root.child_span("queue_wait", now,
                                            host=self.host)
            return
        if not result.accepted:
            reason = result.reason.value if result.reason else "unknown"
            status = ("fault"
                      if result.reason is RejectReason.FAULT_INJECTED
                      else "rejected")
            spans.record_trace(query.query_id, query.qtype, self.host,
                               start=query.arrival_time, end=now,
                               status=status, reason=reason)
            return
        ctx = spans.open_lifecycle(query.query_id, query.qtype, self.host,
                                   query.arrival_time, now)
        if ctx is None:
            return
        if result.overridden:
            ctx.root.annotate(overridden=True)
        query.span_ctx = ctx

    def span_adopt(self, query: Query, handle: Optional[Any]) -> None:
        """Attach an already-open span handle (opened by another host,
        e.g. a broker-side attempt span) as ``query``'s root, so this
        host's queue/execute/close transitions land under it."""
        if self.spans is None or handle is None:
            return
        query.span_ctx = SpanContext(handle,
                                     execute_name="shard_execute")

    def span_annotate(self, query: Query, **attrs: Any) -> None:
        """Attach attributes to the query's root span (no-op unsampled)."""
        ctx = query.span_ctx
        if ctx is not None:
            ctx.root.annotate(**attrs)

    def span_dequeue(self, query: Query, now: float) -> None:
        """Close the queue-wait span and open the execution span."""
        ctx = query.span_ctx
        if ctx is not None:
            self.spans.transition_execute(ctx, now, self.host)

    def span_complete(self, query: Query, now: float,
                      status: str = "ok") -> None:
        """Close every phase span still open, then the root span."""
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, status)

    def span_expired(self, query: Query, now: float) -> None:
        """Close all open spans for a query dropped in the queue."""
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, "expired")

    def span_mark_fault(self, query: Query, kind: str,
                        now: float) -> None:
        """Attach an instantaneous fault marker to the query's trace."""
        ctx = query.span_ctx
        if ctx is None:
            return
        target = ctx.execute if ctx.execute is not None else ctx.root
        target.marker("fault", now, status="fault", kind=kind)

    # -- chaos hooks (fault injection and the resilience it triggers) ------
    def on_fault_injected(self, kind: str, qtype: str = "") -> None:
        """The fault injector realized one injection on this host."""
        self._faults_injected.labels(host=self.host, kind=kind).inc()

    def on_retry(self) -> None:
        """A client/broker retried after a rejection or timeout."""
        self._retries.labels(host=self.host).inc()

    def on_hedge(self) -> None:
        """A broker hedged a slow sub-query to another shard."""
        self._hedges.labels(host=self.host).inc()

    def on_degraded(self) -> None:
        """A response shipped with partial (healthy-replica) results."""
        self._degraded.labels(host=self.host).inc()
