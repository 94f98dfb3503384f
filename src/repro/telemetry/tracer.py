"""Per-query decision traces at the paper's Figure-1 metric points.

A :class:`TraceEvent` is one structured record of a query crossing a metric
point:

* **Point 1** (``decision``) — the admission verdict at arrival, with the
  policy's evidence: Bouncer's mean-wait estimate (Eq. 2), its percentile
  response-time estimates (Eqs. 3–4), the SLO targets they were compared
  against, and whether the cold-start fallback was in effect.
* **Point 2** (``dequeue``) — an engine process picked the query up; the
  measured queue wait.
* **Point 3** (``completion``) — the response is ready; measured
  processing and response times.  Deadline drops surface as ``expired``.

:class:`DecisionTracer` keeps events in a bounded ring buffer (oldest
evicted first) with a deterministic per-query sampling decision, so points
2 and 3 of a sampled query are always captured together with its point 1
and the hot path stays cheap at low sampling rates.  Export is JSONL — one
event per line — consumed by ``repro trace-report`` and the ``/traces``
endpoint.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from ..exceptions import ConfigurationError

#: Default ring-buffer capacity (events, not queries).
DEFAULT_CAPACITY = 16384

#: Knuth's multiplicative hash constant; spreads sequential query ids
#: uniformly over 32 bits for the sampling decision.
_HASH_MULTIPLIER = 2654435761
_HASH_SPACE = 2 ** 32


def _below(threshold: int, query_id: int) -> bool:
    return (query_id * _HASH_MULTIPLIER) % _HASH_SPACE < threshold


def sampler(sample_rate: float) -> Callable[[int], bool]:
    """The deterministic per-query sampling verdict at ``sample_rate``.

    One multiplicative hash of the query id against a threshold, shared
    by the decision tracer, the span recorder and the calibration
    tracker: sinks built at one rate sample the same queries, and a
    seeded run samples the same ids every time.
    """
    if not 0.0 <= sample_rate <= 1.0:
        raise ConfigurationError(
            f"sample_rate must be in [0, 1], got {sample_rate}")
    return partial(_below, int(sample_rate * _HASH_SPACE))


@dataclass
class TraceEvent:
    """One metric-point crossing of one query.

    ``None`` fields are omitted from the JSONL form; a decision event
    carries the estimate fields, a completion event the measured times.
    """

    event: str             # decision|dequeue|completion|expired|cancelled
    point: int                    # 1, 2, or 3 (Figure 1)
    ts: float                     # host-clock seconds
    query_id: int
    qtype: str
    host: Optional[str] = None
    accepted: Optional[bool] = None
    reason: Optional[str] = None
    overridden: Optional[bool] = None
    queue_length: Optional[int] = None
    ewt_mean: Optional[float] = None
    ert: Dict[str, float] = field(default_factory=dict)
    slo: Dict[str, float] = field(default_factory=dict)
    cold_start: Optional[bool] = None
    wait_time: Optional[float] = None
    processing_time: Optional[float] = None
    response_time: Optional[float] = None
    #: Cumulative estimator fast-path counters at decision time
    #: (``estimator_cache_hits``/``misses``, ``eq2_recomputes``).
    fast_path: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Compact dict form: ``None`` and empty-mapping fields omitted."""
        out: dict = {"event": self.event, "point": self.point,
                     "ts": self.ts, "query_id": self.query_id,
                     "qtype": self.qtype}
        for name in ("host", "accepted", "reason", "overridden",
                     "queue_length", "ewt_mean", "cold_start",
                     "wait_time", "processing_time", "response_time"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.ert:
            out["ert"] = self.ert
        if self.slo:
            out["slo"] = self.slo
        if self.fast_path:
            out["fast_path"] = self.fast_path
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            event=data["event"], point=int(data["point"]),
            ts=float(data["ts"]), query_id=int(data["query_id"]),
            qtype=data["qtype"], host=data.get("host"),
            accepted=data.get("accepted"), reason=data.get("reason"),
            overridden=data.get("overridden"),
            queue_length=data.get("queue_length"),
            ewt_mean=data.get("ewt_mean"),
            ert=dict(data.get("ert", {})), slo=dict(data.get("slo", {})),
            cold_start=data.get("cold_start"),
            wait_time=data.get("wait_time"),
            processing_time=data.get("processing_time"),
            response_time=data.get("response_time"),
            fast_path=dict(data.get("fast_path", {})))


class DecisionTracer:
    """Bounded, sampled recorder of :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are evicted when full, and
        ``dropped`` counts evictions so exports can flag truncation.
    sample_rate:
        Fraction of queries traced, in ``[0, 1]``.  The decision is a
        deterministic hash of the query id, so every metric point of a
        sampled query is kept and re-running a seeded simulation samples
        the same queries.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample_rate: float = 1.0) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, "
                                     f"got {capacity}")
        self.capacity = capacity
        self.sample_rate = sample_rate
        #: ``sampled(query_id)``: this tracer's :func:`sampler` verdict.
        self.sampled = sampler(sample_rate)
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    def record(self, event: TraceEvent) -> None:
        """Append one event (evicting the oldest past capacity)."""
        with self._lock:
            self._events.append(event)
            self.recorded += 1

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer so far."""
        with self._lock:
            return max(0, self.recorded - len(self._events))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self, limit: Optional[int] = None,
               qtype: Optional[str] = None) -> List[TraceEvent]:
        """Snapshot of retained events, oldest first (newest when limited),
        optionally restricted to one query type."""
        with self._lock:
            snapshot = list(self._events)
        if qtype is not None:
            snapshot = [event for event in snapshot
                        if event.qtype == qtype]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:] if limit else []
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.recorded = 0

    # -- export ----------------------------------------------------------
    def render_jsonl(self, limit: Optional[int] = None,
                     qtype: Optional[str] = None) -> str:
        """Retained events as JSONL text (``/traces`` endpoint body)."""
        lines = [event.to_json() for event in self.events(limit, qtype)]
        if not lines:
            return ""
        return "\n".join(lines) + "\n"

    def export_jsonl(self, path: str,
                     limit: Optional[int] = None) -> int:
        """Write retained events to ``path``; returns the events written."""
        events = self.events(limit)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(events)


def parse_jsonl(text: str) -> List[TraceEvent]:
    """Parse JSONL trace text back into events (blank lines skipped)."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise ConfigurationError(
                f"malformed trace line {lineno}: {exc}") from exc
    return events


def load_jsonl(path: str) -> List[TraceEvent]:
    """Read a JSONL trace file exported by :meth:`export_jsonl`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read())
