"""Estimator calibration: joining Bouncer's predictions to measurements.

At point 1 (admission) Bouncer commits to estimates — the Eq. 2 mean queue
wait ``ewt_mean`` and the Eq. 3/4 percentile response times ``ert_p`` — and
at points 2/3 the framework measures what actually happened.  The decision
tracer records both sides but as disjoint events; this module performs the
join, per query, and maintains the derived views the ROADMAP's adaptive
items (self-tuning Bouncer, admission-aware autoscaling) need as input:

* **Signed error** per type: ``measured − predicted`` for the mean-wait
  estimate (against the point-2 wait) and each percentile estimate
  (against the point-3 response time).  Negative = overestimate
  (admission was too conservative), positive = underestimate (SLO risk).
* **Absolute percentage error (APE)** per type and estimator term, the
  paper-style accuracy view that is comparable across types with very
  different service times.
* **Rolling SLO attainment** per type: over the last *window* completions,
  the fraction that met each percentile target recorded at decision time.
* **Rejection attribution**: which term of Algorithm 1 fired — for
  ``slo_estimate`` rejections, the set of breached percentiles (e.g.
  ``p90`` or ``p50+p90``); for every other reason, the reason itself.
  Counters are exclusive, so they sum to the total rejected count.

Everything here is pure observation on the same deterministic sampling
hash the tracer uses; it never feeds back into admission.  State is
bounded: rolling windows are deques and the pending join table is capped
(oldest pending entries are evicted, counted in ``evicted``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .._stats import mean, percentile
from ..exceptions import ConfigurationError
from .tracer import TraceEvent, sampler

#: Default rolling-window length (per-type samples retained per series).
DEFAULT_WINDOW = 4096
#: Default cap on in-flight (decided but not yet measured) joins.
DEFAULT_MAX_PENDING = 65536


class _Pending:
    """One accepted decision awaiting its point-2/3 measurements."""

    __slots__ = ("qtype", "ewt_mean", "ert", "slo")

    def __init__(self, qtype: str, ewt_mean: Optional[float],
                 ert: Dict[str, float], slo: Dict[str, float]) -> None:
        self.qtype = qtype
        self.ewt_mean = ewt_mean
        self.ert = ert
        self.slo = slo


class _TypeCalibration:
    """Rolling per-type error and attainment series."""

    __slots__ = ("qtype", "window", "ewt_signed", "ewt_ape",
                 "ert_signed", "ert_ape", "attained", "joined",
                 "expired", "rejected_by_term")

    def __init__(self, qtype: str, window: int) -> None:
        self.qtype = qtype
        self.window = window
        #: measured_wait − ewt_mean, seconds.
        self.ewt_signed: Deque[float] = deque(maxlen=window)
        #: |measured_wait − ewt_mean| / measured_wait (when wait > 0).
        self.ewt_ape: Deque[float] = deque(maxlen=window)
        #: per percentile key ("50", "90"): measured_rt − ert_p, seconds.
        self.ert_signed: Dict[str, Deque[float]] = {}
        self.ert_ape: Dict[str, Deque[float]] = {}
        #: per percentile key: 1.0 if response_time <= slo target else 0.0.
        self.attained: Dict[str, Deque[float]] = {}
        self.joined = 0
        self.expired = 0
        #: exclusive attribution: breached-percentile label or reason.
        self.rejected_by_term: Dict[str, int] = {}

    def _series(self, table: Dict[str, Deque[float]],
                key: str) -> Deque[float]:
        series = table.get(key)
        if series is None:
            series = deque(maxlen=self.window)
            table[key] = series
        return series


class CalibrationTracker:
    """Joins point-1 predictions to point-2/3 measurements, per query.

    Feed it from the `Telemetry` facade (``note_*`` methods) or rebuild it
    offline from an exported JSONL trace with
    :func:`calibration_from_events`.  Thread-safe; all timestamps come
    from the caller's injected clock.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 sample_rate: float = 1.0) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}")
        self.window = window
        self.max_pending = max_pending
        self.sample_rate = sample_rate
        #: ``sampled(query_id)``: the tracer's :func:`~repro.telemetry
        #: .tracer.sampler` verdict at this rate.
        self.sampled = sampler(sample_rate)
        self._lock = threading.Lock()
        self._pending: "OrderedDict[int, _Pending]" = OrderedDict()
        self._per_type: Dict[str, _TypeCalibration] = {}
        self.rejected_total = 0
        self.evicted = 0

    def _entry(self, qtype: str) -> _TypeCalibration:
        entry = self._per_type.get(qtype)
        if entry is None:
            entry = _TypeCalibration(qtype, self.window)
            self._per_type[qtype] = entry
        return entry

    # -- feed (point events) ----------------------------------------------
    def note_decision(self, query_id: int, qtype: str, accepted: bool,
                      reason: Optional[str],
                      ewt_mean: Optional[float],
                      ert: Dict[str, float],
                      slo: Dict[str, float]) -> None:
        """Record a point-1 verdict (sampling is applied here)."""
        if not self.sampled(query_id):
            return
        with self._lock:
            entry = self._entry(qtype)
            if not accepted:
                self.rejected_total += 1
                term = self._attribution(reason, ert, slo)
                entry.rejected_by_term[term] = (
                    entry.rejected_by_term.get(term, 0) + 1)
                return
            self._pending[query_id] = _Pending(
                qtype, ewt_mean, dict(ert), dict(slo))
            while len(self._pending) > self.max_pending:
                self._pending.popitem(last=False)
                self.evicted += 1

    @staticmethod
    def _attribution(reason: Optional[str], ert: Dict[str, float],
                     slo: Dict[str, float]) -> str:
        """Exclusive attribution label for one rejection.

        Algorithm 1 rejects when *any* percentile estimate exceeds its
        target; the label names every term that breached, so a rejection
        caused jointly by p50 and p90 counts once as ``p50+p90``.
        """
        if reason != "slo_estimate":
            return reason or "unknown"
        breached = sorted(
            (key for key, estimate in ert.items()
             if key in slo and estimate > slo[key]), key=float)
        if not breached:
            return "slo_estimate"
        return "+".join(f"p{key}" for key in breached)

    def note_dequeue(self, query_id: int, wait_time: float) -> None:
        """Record the point-2 measured queue wait for a pending join."""
        with self._lock:
            pending = self._pending.get(query_id)
            if pending is None:
                return
            entry = self._entry(pending.qtype)
            if pending.ewt_mean is not None:
                signed = wait_time - pending.ewt_mean
                entry.ewt_signed.append(signed)
                if wait_time > 0:
                    entry.ewt_ape.append(abs(signed) / wait_time)

    def note_completion(self, query_id: int,
                        response_time: float) -> None:
        """Record the point-3 measured response time; completes the join."""
        with self._lock:
            pending = self._pending.pop(query_id, None)
            if pending is None:
                return
            entry = self._entry(pending.qtype)
            entry.joined += 1
            for key, estimate in pending.ert.items():
                signed = response_time - estimate
                entry._series(entry.ert_signed, key).append(signed)
                if response_time > 0:
                    entry._series(entry.ert_ape, key).append(
                        abs(signed) / response_time)
            for key, target in pending.slo.items():
                entry._series(entry.attained, key).append(
                    1.0 if response_time <= target else 0.0)

    def note_expired(self, query_id: int, qtype: str) -> None:
        """An admitted query hit its deadline before completing.

        The join is abandoned (there is no point-3 measurement) but the
        expiry itself is evidence of estimator optimism, so it is counted
        and every SLO percentile window records a miss.  The sampling
        verdict is re-applied here because expiry is the one exit path
        that can arrive without a pending join (all-or-nothing join
        integrity: unsampled queries must not leak into any counter).
        """
        if not self.sampled(query_id):
            return
        with self._lock:
            pending = self._pending.pop(query_id, None)
            entry = self._entry(pending.qtype if pending else qtype)
            entry.expired += 1
            if pending is not None:
                for key in pending.slo:
                    entry._series(entry.attained, key).append(0.0)

    # -- derived views -----------------------------------------------------
    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def qtypes(self) -> List[str]:
        with self._lock:
            return sorted(self._per_type)

    def rejection_attribution(self) -> Dict[str, Dict[str, int]]:
        """Per-type exclusive rejection counters: {qtype: {term: n}}."""
        with self._lock:
            return {qtype: dict(entry.rejected_by_term)
                    for qtype, entry in self._per_type.items()}

    def type_stats(self, qtype: str) -> Optional["TypeCalibrationStats"]:
        """Frozen summary statistics for one type (None if never seen)."""
        with self._lock:
            entry = self._per_type.get(qtype)
            if entry is None:
                return None
            return TypeCalibrationStats.from_entry(entry)

    def stats(self) -> Dict[str, "TypeCalibrationStats"]:
        """Frozen summary statistics for every observed type."""
        with self._lock:
            return {qtype: TypeCalibrationStats.from_entry(entry)
                    for qtype, entry in self._per_type.items()}

    def gauge_values(self) -> List[Tuple[Dict[str, str], float]]:
        """Flattened (labels, value) pairs for registry exposition."""
        out: List[Tuple[Dict[str, str], float]] = []
        for qtype, stat in sorted(self.stats().items()):
            if stat.ewt_signed_mean is not None:
                out.append(({"qtype": qtype, "estimator": "ewt_mean",
                             "stat": "signed_error_mean"},
                            stat.ewt_signed_mean))
            if stat.ewt_ape_mean is not None:
                out.append(({"qtype": qtype, "estimator": "ewt_mean",
                             "stat": "ape_mean"}, stat.ewt_ape_mean))
            for key, value in sorted(stat.ert_signed_mean.items()):
                out.append(({"qtype": qtype, "estimator": f"ert_p{key}",
                             "stat": "signed_error_mean"}, value))
            for key, value in sorted(stat.ert_ape_mean.items()):
                out.append(({"qtype": qtype, "estimator": f"ert_p{key}",
                             "stat": "ape_mean"}, value))
            for key, value in sorted(stat.attainment.items()):
                out.append(({"qtype": qtype, "estimator": f"slo_p{key}",
                             "stat": "attainment"}, value))
        return out


class TypeCalibrationStats:
    """Frozen per-type calibration summary (what the report prints)."""

    __slots__ = ("qtype", "joined", "expired", "rejected_by_term",
                 "ewt_signed_mean", "ewt_signed_p90", "ewt_ape_mean",
                 "ert_signed_mean", "ert_ape_mean", "attainment",
                 "window_fill")

    def __init__(self, qtype: str) -> None:
        self.qtype = qtype
        self.joined = 0
        self.expired = 0
        self.rejected_by_term: Dict[str, int] = {}
        self.ewt_signed_mean: Optional[float] = None
        self.ewt_signed_p90: Optional[float] = None
        self.ewt_ape_mean: Optional[float] = None
        self.ert_signed_mean: Dict[str, float] = {}
        self.ert_ape_mean: Dict[str, float] = {}
        self.attainment: Dict[str, float] = {}
        self.window_fill = 0

    @classmethod
    def from_entry(cls, entry: _TypeCalibration) -> "TypeCalibrationStats":
        stat = cls(entry.qtype)
        stat.joined = entry.joined
        stat.expired = entry.expired
        stat.rejected_by_term = dict(entry.rejected_by_term)
        if entry.ewt_signed:
            samples = list(entry.ewt_signed)
            stat.ewt_signed_mean = mean(samples)
            stat.ewt_signed_p90 = percentile(sorted(samples), 90.0)
            stat.window_fill = len(samples)
        if entry.ewt_ape:
            stat.ewt_ape_mean = mean(list(entry.ewt_ape))
        for key, series in entry.ert_signed.items():
            if series:
                stat.ert_signed_mean[key] = mean(list(series))
        for key, series in entry.ert_ape.items():
            if series:
                stat.ert_ape_mean[key] = mean(list(series))
        for key, series in entry.attained.items():
            if series:
                stat.attainment[key] = mean(list(series))
        return stat

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_term.values())


def calibration_from_events(events: Sequence[TraceEvent],
                            window: int = DEFAULT_WINDOW
                            ) -> CalibrationTracker:
    """Rebuild a tracker offline from exported decision-trace events.

    The trace is self-describing (decisions carry estimates and SLO
    targets), so this replays the same join the live tracker performs —
    the ``repro calibrate-report --trace`` path.
    """
    tracker = CalibrationTracker(window=window)
    for event in events:
        if event.event == "decision":
            tracker.note_decision(
                event.query_id, event.qtype,
                accepted=bool(event.accepted), reason=event.reason,
                ewt_mean=event.ewt_mean, ert=event.ert, slo=event.slo)
        elif event.event == "dequeue":
            if event.wait_time is not None:
                tracker.note_dequeue(event.query_id, event.wait_time)
        elif event.event == "completion":
            if event.response_time is not None:
                tracker.note_completion(event.query_id,
                                        event.response_time)
        elif event.event == "expired":
            tracker.note_expired(event.query_id, event.qtype)
    return tracker


def render_calibration_report(tracker: CalibrationTracker,
                              title: Optional[str] = None) -> str:
    """Render the predicted-vs-measured and attribution tables
    (the ``repro calibrate-report`` output); ``title`` labels the
    decision source."""
    # Deferred to avoid a telemetry <-> bench import cycle (the bench
    # package imports the telemetry-instrumented simulators).
    from ..bench.tables import format_table

    def ms(value: Optional[float]) -> str:
        return f"{value * 1000:+.3f}" if value is not None else "-"

    def pct(value: Optional[float]) -> str:
        return f"{value * 100:.1f}%" if value is not None else "-"

    stats = tracker.stats()
    ordered = sorted(stats)
    sections: List[str] = []

    ert_keys = sorted({key for stat in stats.values()
                       for key in stat.ert_signed_mean}, key=float)
    att_keys = sorted({key for stat in stats.values()
                       for key in stat.attainment}, key=float)

    headers = ["type", "joined", "expired", "ewt err (ms)",
               "ewt p90 err (ms)", "ewt APE"]
    for key in ert_keys:
        headers += [f"ert_p{key} err (ms)", f"ert_p{key} APE"]
    for key in att_keys:
        headers.append(f"p{key} att")
    rows = []
    for qtype in ordered:
        stat = stats[qtype]
        row: List[object] = [qtype, stat.joined, stat.expired,
                             ms(stat.ewt_signed_mean),
                             ms(stat.ewt_signed_p90),
                             pct(stat.ewt_ape_mean)]
        for key in ert_keys:
            row.append(ms(stat.ert_signed_mean.get(key)))
            row.append(pct(stat.ert_ape_mean.get(key)))
        for key in att_keys:
            row.append(pct(stat.attainment.get(key)))
        rows.append(row)
    caption = ("Estimator calibration (measured - predicted; negative = "
               "overestimate / conservative admission)")
    if title:
        caption = f"{caption} — {title}"
    sections.append(format_table(headers, rows, title=caption))

    # -- rejection attribution by Algorithm 1 term ------------------------
    terms = sorted({term for stat in stats.values()
                    for term in stat.rejected_by_term})
    headers = ["type", "rejected"] + terms
    rows = []
    total_by_term: Dict[str, int] = {}
    total_rejected = 0
    for qtype in ordered:
        stat = stats[qtype]
        row = [qtype, stat.rejected]
        for term in terms:
            count = stat.rejected_by_term.get(term, 0)
            row.append(count)
            total_by_term[term] = total_by_term.get(term, 0) + count
        total_rejected += stat.rejected
        rows.append(row)
    rows.append(["ALL", total_rejected]
                + [total_by_term.get(term, 0) for term in terms])
    sections.append(format_table(
        headers, rows,
        title="Rejection attribution by Algorithm 1 term (exclusive; "
              f"rows sum to rejected; sampled rejections: "
              f"{tracker.rejected_total})"))
    return "\n\n".join(sections)
