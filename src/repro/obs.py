"""Operational metrics exposition for admission-controlled hosts.

A production deployment of an admission control policy lives or dies by
its observability: operators need per-type acceptance/rejection counters,
rejection causes, queue state, and the policy's current latency estimates
on a dashboard.  :func:`render_metrics` turns a policy + queue view into
the de-facto text exposition format (Prometheus-style ``name{labels}
value`` lines), with no dependency on any metrics library.

Usage::

    from repro.obs import render_metrics
    print(render_metrics(server.policy, server.queue_view))

It reads the policy and the view, so like every call into them it is the
host's to serialize: on a single-threaded host call it as above; the
threaded :class:`~repro.runtime.server.AdmissionServer` wraps it in its
host lock (``server.render_metrics()``).

Works with every policy in the library; Bouncer additionally exposes its
per-type percentile processing-time estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core.bouncer import BouncerPolicy
from .core.policy import AdmissionPolicy, QueueView
from .core.starvation import _StarvationWrapper

_PREFIX = "repro_admission"


def _escape(value: str) -> str:
    # Per the Prometheus text-format spec, label values must escape
    # backslash, double-quote, AND line-feed — a raw newline would split
    # the sample line and corrupt the whole scrape body.
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _line(name: str, labels: Dict[str, str], value: float) -> str:
    if labels:
        inner = ",".join(f'{key}="{_escape(val)}"'
                         for key, val in sorted(labels.items()))
        return f"{_PREFIX}_{name}{{{inner}}} {value:g}"
    return f"{_PREFIX}_{name} {value:g}"


def render_metrics(policy: AdmissionPolicy,
                   queue: Optional[QueueView] = None, *,
                   policy_errors: Optional[int] = None,
                   expired_count: Optional[int] = None) -> str:
    """Render a policy's counters (and queue state) as exposition text.

    Stable output ordering (sorted by metric, then labels) so scrapes and
    tests can diff it.

    ``policy_errors`` (fail-open admissions after a policy exception) and
    ``expired_count`` (deadline drops) are host-side counters — pass them
    from the serving host (e.g. :class:`~repro.runtime.server
    .AdmissionServer`) to include them in the scrape; ``None`` omits them.
    """
    lines: List[str] = []
    lines.append(f"# HELP {_PREFIX}_accepted_total Queries admitted, "
                 f"by type.")
    lines.append(f"# TYPE {_PREFIX}_accepted_total counter")
    per_type = policy.stats.types()
    for qtype in sorted(per_type):
        counters = per_type[qtype]
        lines.append(_line("accepted_total", {"qtype": qtype},
                           counters.accepted))
    lines.append(f"# HELP {_PREFIX}_rejected_total Queries rejected, "
                 f"by type and reason.")
    lines.append(f"# TYPE {_PREFIX}_rejected_total counter")
    for qtype in sorted(per_type):
        counters = per_type[qtype]
        if counters.rejected and not counters.rejected_by_reason:
            lines.append(_line("rejected_total",
                               {"qtype": qtype, "reason": "unknown"},
                               counters.rejected))
            continue
        for reason in sorted(counters.rejected_by_reason,
                             key=lambda r: r.value):
            lines.append(_line(
                "rejected_total",
                {"qtype": qtype, "reason": reason.value},
                counters.rejected_by_reason[reason]))

    if policy_errors is not None:
        lines.append(f"# HELP {_PREFIX}_policy_errors_total Policy "
                     f"exceptions absorbed by the fail-open host.")
        lines.append(f"# TYPE {_PREFIX}_policy_errors_total counter")
        lines.append(_line("policy_errors_total", {}, policy_errors))
    if expired_count is not None:
        lines.append(f"# HELP {_PREFIX}_expired_total Admitted queries "
                     f"dropped in the queue past their deadline.")
        lines.append(f"# TYPE {_PREFIX}_expired_total counter")
        lines.append(_line("expired_total", {}, expired_count))

    if queue is not None:
        lines.append(f"# HELP {_PREFIX}_queue_length Queries waiting in "
                     f"the FIFO queue.")
        lines.append(f"# TYPE {_PREFIX}_queue_length gauge")
        lines.append(_line("queue_length", {}, queue.length()))
        occupancy = queue.occupancy()
        for qtype in sorted(occupancy):
            lines.append(_line("queue_occupancy", {"qtype": qtype},
                               occupancy[qtype]))

    # Unwrap starvation strategies to reach the Bouncer inside, and report
    # the wrapper's own override counter.
    inner = policy
    if isinstance(policy, _StarvationWrapper):
        lines.append(f"# HELP {_PREFIX}_overrides_total Rejections "
                     f"overridden by the starvation strategy.")
        lines.append(f"# TYPE {_PREFIX}_overrides_total counter")
        lines.append(_line("overrides_total", {}, policy.override_count))
        inner = policy.inner

    if isinstance(inner, BouncerPolicy):
        lines.append(f"# HELP {_PREFIX}_processing_seconds Published "
                     f"percentile processing times, by type.")
        lines.append(f"# TYPE {_PREFIX}_processing_seconds gauge")
        for qtype in sorted(per_type):
            snapshot = inner.processing_snapshot(qtype)
            if snapshot.is_empty:
                continue
            slo = inner.slos.for_type(qtype)
            for percentile in slo.percentiles:
                lines.append(_line(
                    "processing_seconds",
                    {"qtype": qtype, "quantile": f"{percentile:g}"},
                    snapshot.percentile(percentile)))
        lines.append(_line("estimated_wait_seconds", {},
                           inner.estimate_wait_mean()))
        fast = inner.fast_path_stats
        lines.append(f"# HELP {_PREFIX}_estimator_cache_hits Fast-path "
                     f"estimator cache hits (epoch-keyed snapshot stats).")
        lines.append(f"# TYPE {_PREFIX}_estimator_cache_hits counter")
        lines.append(_line("estimator_cache_hits", {}, fast.cache_hits))
        lines.append(f"# HELP {_PREFIX}_estimator_cache_misses Fast-path "
                     f"estimator cache misses (new publish epoch).")
        lines.append(f"# TYPE {_PREFIX}_estimator_cache_misses counter")
        lines.append(_line("estimator_cache_misses", {},
                           fast.cache_misses))
        lines.append(f"# HELP {_PREFIX}_eq2_recomputes Full recomputes of "
                     f"the incremental Eq. 2 term table.")
        lines.append(f"# TYPE {_PREFIX}_eq2_recomputes counter")
        lines.append(_line("eq2_recomputes", {}, fast.eq2_recomputes))
        lines.append(f"# HELP {_PREFIX}_batch_calls decide_many "
                     f"invocations (batched admission).")
        lines.append(f"# TYPE {_PREFIX}_batch_calls counter")
        lines.append(_line("batch_calls", {}, fast.batch_calls))
        lines.append(f"# HELP {_PREFIX}_batch_queries Queries decided "
                     f"through decide_many batches.")
        lines.append(f"# TYPE {_PREFIX}_batch_queries counter")
        lines.append(_line("batch_queries", {}, fast.batch_queries))

    return "\n".join(lines) + "\n"
