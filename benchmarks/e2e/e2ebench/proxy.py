"""The traced run's instruments that sit at the policy boundary.

:class:`TimingPolicy` wraps whatever a ``policy_factory`` returns and times
every call a host makes into the policy layer; :class:`Tracer` holds the
counters and the spans.  Every call is counted, a deterministic 1-in-64 is
kept as a span under the coarse ``workload > repeat > phase`` spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core import AdmissionPolicy, AdmissionResult, Query

from .measure import now_ns, percentile

#: One call in this many becomes a span.
SPAN_EVERY = 64


class Tracer:
    """Counters and spans of one traced repeat."""

    def __init__(self, workload: str, repeat: int) -> None:
        self.workload = workload
        self.repeat = repeat
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []          # stack of open coarse span ids
        self.policies: List["TimingPolicy"] = []
        #: Policy time per decision: one entry per ``decide`` call, and one
        #: per ``decide_many`` call (host callbacks excluded, divided by
        #: the batch size).
        self.decision_ns: List[float] = []
        self.policy_ns = 0
        self.decide_calls = 0
        self.many_calls = 0
        self.many_queries = 0
        self.hook_ns = 0
        self.hook_calls = 0
        self.accepted = 0

    # -- spans -------------------------------------------------------------
    def add_span(self, name: str, start: int, end: int) -> int:
        self.spans.append({
            "id": len(self.spans), "name": name, "start_ns": start,
            "end_ns": end, "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "repeat": self.repeat})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span (workload, repeat, phase) around a block."""
        span_id = self.add_span(name, now_ns(), 0)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[span_id]["end_ns"] = now_ns()

    # -- the proxy ---------------------------------------------------------
    def wrap(self, policy: AdmissionPolicy) -> AdmissionPolicy:
        proxy = TimingPolicy(policy, self)
        self.policies.append(proxy)
        return proxy

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """The ``core.bouncer.*`` / ``core.starvation.*`` ledger rows."""
        wall_ns = wall_s * 1e9
        decisions = self.decide_calls + self.many_queries
        hits = misses = recomputes = overrides = 0
        for proxy in self.policies:
            policy: Any = proxy.inner
            overrides += getattr(policy, "override_count", 0)
            # Starvation wrappers expose the Bouncer underneath as .inner.
            fast = getattr(getattr(policy, "inner", policy),
                           "fast_path_stats", None)
            if fast is not None:
                hits += fast.cache_hits
                misses += fast.cache_misses
                recomputes += fast.eq2_recomputes
        return {
            "core.bouncer.decide_calls": self.decide_calls,
            "core.bouncer.decide_us_p50":
                percentile(self.decision_ns, 50) / 1e3,
            "core.bouncer.decide_us_p99":
                percentile(self.decision_ns, 99) / 1e3,
            "core.bouncer.decide_incl_share": self.policy_ns / wall_ns,
            "core.bouncer.decide_many_calls": self.many_calls,
            "core.bouncer.batch_mean_size":
                self.many_queries / self.many_calls
                if self.many_calls else 0.0,
            "core.bouncer.hooks_incl_share": self.hook_ns / wall_ns,
            "core.bouncer.cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "core.bouncer.eq2_recomputes_per_kdecision":
                1000.0 * recomputes / decisions if decisions else 0.0,
            "core.bouncer.accept_ratio":
                self.accepted / decisions if decisions else 0.0,
            "core.starvation.overrides": overrides,
        }


class TimingPolicy(AdmissionPolicy):
    """Transparent timing proxy: same decisions, same tallies, same name.

    The methods are flat on purpose: every call and attribute lookup here
    is overhead the traced repeat pays per query.
    """

    def __init__(self, inner: AdmissionPolicy, tracer: Tracer) -> None:
        # No super().__init__(): the tallies stay the inner policy's own.
        self.inner = inner
        self.name = inner.name
        self.stats = inner.stats
        self._tracer = tracer
        self._on_decision: Any = None
        self._in_host = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def _decide(self, query: Query) -> AdmissionResult:
        return self.inner._decide(query)

    def decide(self, query: Query) -> AdmissionResult:
        tracer = self._tracer
        start = now_ns()
        result = self.inner.decide(query)
        end = now_ns()
        tracer.decision_ns.append(end - start)
        tracer.policy_ns += end - start
        tracer.decide_calls += 1
        if result.accepted:
            tracer.accepted += 1
        if not tracer.decide_calls % SPAN_EVERY:
            tracer.add_span("decide", start, end)
        return result

    def _timed_callback(self, query: Query, result: AdmissionResult) -> None:
        # The host enqueues and dispatches inside the callback; that time
        # belongs to the host's layer, not the policy's.
        entered = now_ns()
        self._on_decision(query, result)
        self._in_host += now_ns() - entered

    def decide_many(self, queries: Sequence[Query],
                    on_decision: Optional[Any] = None
                    ) -> List[AdmissionResult]:
        tracer = self._tracer
        self._on_decision = on_decision
        self._in_host = 0
        start = now_ns()
        results = self.inner.decide_many(
            queries, None if on_decision is None else self._timed_callback)
        end = now_ns()
        spent = end - start - self._in_host
        tracer.decision_ns.append(spent / len(queries))
        tracer.policy_ns += spent
        tracer.many_calls += 1
        tracer.many_queries += len(queries)
        for result in results:
            if result.accepted:
                tracer.accepted += 1
        if not tracer.many_calls % SPAN_EVERY:
            tracer.add_span("decide_many", start, end)
        return results

    def on_enqueued(self, query: Query) -> None:
        tracer = self._tracer
        start = now_ns()
        self.inner.on_enqueued(query)
        end = now_ns()
        tracer.hook_ns += end - start
        tracer.hook_calls += 1
        if not tracer.hook_calls % SPAN_EVERY:
            tracer.add_span("on_enqueued", start, end)

    def on_dequeued(self, query: Query, wait_time: float) -> None:
        tracer = self._tracer
        start = now_ns()
        self.inner.on_dequeued(query, wait_time)
        end = now_ns()
        tracer.hook_ns += end - start
        tracer.hook_calls += 1
        if not tracer.hook_calls % SPAN_EVERY:
            tracer.add_span("on_dequeued", start, end)

    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        tracer = self._tracer
        start = now_ns()
        self.inner.on_completed(query, wait_time, processing_time)
        end = now_ns()
        tracer.hook_ns += end - start
        tracer.hook_calls += 1
        if not tracer.hook_calls % SPAN_EVERY:
            tracer.add_span("on_completed", start, end)

    def reset_stats(self) -> None:
        self.inner.reset_stats()
