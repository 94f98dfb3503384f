"""Measurement collection and experiment reports.

The paper compares policies "on three dimensions: SLO violations, rejection
ratio, and system utilization" (§5.3).  :class:`ServerMetrics` gathers the
raw samples during a run; :class:`SimulationReport` condenses them into the
per-type and overall statistics the tables and figures need.

Report percentiles are *exact* order statistics over the recorded samples
(unlike the bucketed approximations policies use on the hot path), so the
reproduction's figures are not polluted by estimator error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._stats import mean, percentiles
from ..core.types import AdmissionResult, Query

#: Percentiles every report computes for response/processing/wait times.
REPORT_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)


class _TypeSamples:
    """Raw per-type samples collected during the measurement window."""

    __slots__ = ("waits", "procs", "responses", "rejected", "expired",
                 "errors")

    def __init__(self) -> None:
        self.waits: List[float] = []
        self.procs: List[float] = []
        self.responses: List[float] = []
        self.rejected = 0
        self.expired = 0
        self.errors = 0


class ServerMetrics:
    """Accumulates completions and rejections for one host.

    Every :meth:`reset` opens a new measurement window.  Arrivals are
    stamped with the window they arrived in (:meth:`note_arrival`), and a
    terminal outcome counts only if its query carries the current stamp.
    Arrival time cannot tell: the warm-up part of a burst that straddles
    the boundary arrives at the very instant the window opens.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._per_type: Dict[str, _TypeSamples] = {}
        self.window = 0
        self.start_time = start_time
        self.last_arrival = start_time
        self.busy_time = 0.0
        self.admitted_work = 0.0
        self.wasted_work = 0.0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.errors = 0
        self.admitted = 0

    def record_error(self, query: Query) -> None:
        """An admitted query terminated with an error verdict (e.g. an
        injected engine fault).  The engine time is spent but the client
        gets an error, not a response — a terminal outcome, so no query is
        ever lost from the accounting."""
        self.busy_time += query.processing_time or 0.0
        self.wasted_work += query.processing_time or 0.0
        if query.window != self.window:
            return
        self._samples(query.qtype).errors += 1
        self.errors += 1

    def record_expiration(self, query: Query, wasted_work: float) -> None:
        """An admitted query timed out in the queue (dropped at dequeue) or
        completed after its deadline.  ``wasted_work`` is the engine time
        spent producing a response nobody will read — the useless work the
        paper's early rejections exist to avoid (§2)."""
        self.wasted_work += wasted_work
        if query.window != self.window:
            return
        self._samples(query.qtype).expired += 1
        self.expired += 1

    def record_admission(self, service_time: float) -> None:
        """Account the service demand of an admitted query.

        The utilization the paper plots (its Figure 7) is *admitted load
        versus capacity*: AcceptFraction reads exactly its threshold there
        even while its engines stay 100% busy draining backlog, which only
        this definition produces.
        """
        self.admitted_work += service_time
        self.admitted += 1

    def note_arrival(self, query: Query, now: float) -> None:
        """Stamp ``query`` with the open window and track the newest
        arrival; utilization is measured up to it, excluding the post-run
        drain that would otherwise dilute it."""
        query.window = self.window
        self.last_arrival = now

    def _samples(self, qtype: str) -> _TypeSamples:
        samples = self._per_type.get(qtype)
        if samples is None:
            samples = _TypeSamples()
            self._per_type[qtype] = samples
        return samples

    def record_completion(self, query: Query) -> None:
        """Account a finished query (Point 3 outcome)."""
        # All processing done inside the window counts toward utilization,
        # including warm-up strays finishing after the window opened.
        self.busy_time += query.processing_time or 0.0
        if query.window != self.window:
            # A warm-up stray: it arrived before the measurement window
            # opened and only completed after; its outcome is not measured.
            return
        samples = self._samples(query.qtype)
        samples.waits.append(query.wait_time or 0.0)
        samples.procs.append(query.processing_time or 0.0)
        samples.responses.append(query.response_time or 0.0)
        self.completed += 1

    def record_rejection(self, query: Query, result: AdmissionResult) -> None:
        """Account an early rejection."""
        self._samples(query.qtype).rejected += 1
        self.rejected += 1

    def reset(self, now: float) -> None:
        """Restart the measurement window at ``now`` (end of warm-up)."""
        self._per_type.clear()
        self.window += 1
        self.start_time = now
        self.last_arrival = now
        self.busy_time = 0.0
        self.admitted_work = 0.0
        self.wasted_work = 0.0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.errors = 0
        self.admitted = 0

    def utilization(self, now: float, parallelism: int) -> float:
        """Admitted load over capacity in the window, capped at 1.0."""
        span = now - self.start_time
        if span <= 0 or parallelism <= 0:
            return 0.0
        return min(1.0, self.admitted_work / (span * parallelism))

    def busy_utilization(self, now: float, parallelism: int) -> float:
        """Completed-work utilization (engines' busy fraction proxy)."""
        span = now - self.start_time
        if span <= 0 or parallelism <= 0:
            return 0.0
        return min(1.0, self.busy_time / (span * parallelism))

    def attainment(self, threshold: float) -> Dict[str, float]:
        """Fraction of completed responses within ``threshold`` seconds.

        Keyed per type plus ``"ALL"``; a type with no completions scores
        0.0 (matches the cluster model's accounting).
        """
        result: Dict[str, float] = {}
        total = 0
        within_total = 0
        for qtype, samples in self._per_type.items():
            within = sum(1 for r in samples.responses if r <= threshold)
            count = len(samples.responses)
            result[qtype] = within / count if count else 0.0
            total += count
            within_total += within
        result["ALL"] = within_total / total if total else 0.0
        return result

    def build_type_stats(self) -> Dict[str, "TypeStats"]:
        """Condense the per-type samples into report statistics."""
        stats = {}
        for qtype, samples in self._per_type.items():
            completed = len(samples.responses)
            stats[qtype] = TypeStats(
                qtype=qtype,
                completed=completed,
                rejected=samples.rejected,
                expired=samples.expired,
                errors=samples.errors,
                response=percentiles(samples.responses, REPORT_PERCENTILES),
                processing=percentiles(samples.procs, REPORT_PERCENTILES),
                wait=percentiles(samples.waits, REPORT_PERCENTILES),
                response_mean=mean(samples.responses),
                processing_mean=mean(samples.procs),
                wait_mean=mean(samples.waits),
            )
        return stats

    def build_overall_stats(self) -> "TypeStats":
        """Pool every type's samples into the ALL row."""
        responses: List[float] = []
        procs: List[float] = []
        waits: List[float] = []
        rejected = 0
        expired = 0
        errors = 0
        for samples in self._per_type.values():
            responses.extend(samples.responses)
            procs.extend(samples.procs)
            waits.extend(samples.waits)
            rejected += samples.rejected
            expired += samples.expired
            errors += samples.errors
        return TypeStats(
            qtype="ALL",
            completed=len(responses),
            rejected=rejected,
            expired=expired,
            errors=errors,
            response=percentiles(responses, REPORT_PERCENTILES),
            processing=percentiles(procs, REPORT_PERCENTILES),
            wait=percentiles(waits, REPORT_PERCENTILES),
            response_mean=mean(responses),
            processing_mean=mean(procs),
            wait_mean=mean(waits),
        )


@dataclass
class TypeStats:
    """Per-query-type outcome statistics for one run.

    ``response``, ``processing`` and ``wait`` map percentile -> seconds.
    """

    qtype: str
    completed: int = 0
    rejected: int = 0
    #: Admitted queries that expired (queue timeout or late completion).
    expired: int = 0
    #: Admitted queries terminated by an error verdict (injected faults).
    errors: int = 0
    response: Dict[float, float] = field(default_factory=dict)
    processing: Dict[float, float] = field(default_factory=dict)
    wait: Dict[float, float] = field(default_factory=dict)
    response_mean: float = 0.0
    processing_mean: float = 0.0
    wait_mean: float = 0.0

    @property
    def received(self) -> int:
        """Queries of this type offered to the policy in the window."""
        return self.completed + self.rejected + self.expired + self.errors

    @property
    def rejection_pct(self) -> float:
        """Percentage of received queries rejected (0-100)."""
        received = self.received
        return 100.0 * self.rejected / received if received else 0.0


@dataclass
class SimulationReport:
    """Everything a table or figure needs from one simulation run."""

    policy_name: str
    rate_qps: float
    parallelism: int
    duration: float
    utilization: float
    per_type: Dict[str, TypeStats]
    overall: TypeStats
    offered: int = 0
    seed: Optional[int] = None
    #: Per-type (plus ``"ALL"``) fraction of completions within the SLO
    #: threshold; filled when ``run_simulation`` gets one.
    attainment: Dict[str, float] = field(default_factory=dict)

    def stats_for(self, qtype: Optional[str] = None) -> TypeStats:
        """Stats for one type, or the overall aggregate when ``None``."""
        if qtype is None:
            return self.overall
        return self.per_type.get(qtype, TypeStats(qtype=qtype))

    def rejection_pct(self, qtype: Optional[str] = None) -> float:
        """Rejection percentage for one type (overall when ``None``)."""
        return self.stats_for(qtype).rejection_pct

    def response_percentile(self, qtype: Optional[str], p: float) -> float:
        """Measured response-time percentile in seconds (0.0 if no data)."""
        return self.stats_for(qtype).response.get(p, 0.0)

    def processing_percentile(self, qtype: Optional[str], p: float) -> float:
        """Measured processing-time percentile in seconds (0.0 if none)."""
        return self.stats_for(qtype).processing.get(p, 0.0)

    def __str__(self) -> str:
        lines = [
            f"policy={self.policy_name} rate={self.rate_qps:.0f}qps "
            f"util={self.utilization:.1%} "
            f"rejected={self.overall.rejection_pct:.2f}%"
        ]
        for qtype in sorted(self.per_type):
            stats = self.per_type[qtype]
            p50 = stats.response.get(50.0, 0.0) * 1000
            p90 = stats.response.get(90.0, 0.0) * 1000
            lines.append(
                f"  {qtype:<14} recv={stats.received:<8} "
                f"rej={stats.rejection_pct:6.2f}%  "
                f"rt_p50={p50:8.2f}ms rt_p90={p90:8.2f}ms")
        return "\n".join(lines)


