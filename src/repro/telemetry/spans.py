"""End-to-end lifecycle spans for sampled queries (``repro.tracing``).

Where the decision tracer records *point crossings* (the paper's Figure-1
metric points), this module records *intervals*: every sampled query gets
one trace — client send → admission → queue wait → execution (in the
cluster model: per-round fan-out, per-shard sub-query attempts, retries,
hedges, merges) → response, expiry, or rejection — as a tree of
:class:`Span` records linked by ``trace_id`` / ``parent_id``.

Design constraints, in order:

* **Pure observation.**  Span emission never touches an RNG, never reads a
  clock itself (every timestamp is passed in from the host's injected
  clock), and never feeds back into admission — decisions are bit-identical
  with tracing on or off (``tests/test_spans.py`` holds a differential
  guard on the Figure-6 workload).
* **Deterministic sampling.**  The per-trace sampling verdict is the same
  multiplicative hash of the root query id the decision tracer uses, so a
  seeded run samples the same queries every time, and a query's metric-point
  events and its spans are sampled *together* (join integrity).
* **Deterministic ids.**  ``trace_id`` is the root query id; span ids are
  numbered in creation order within their trace.  Two seeded runs produce
  byte-identical span files.
* **Closed on all exit paths.**  Every opened span must be finished —
  rejection, expiry, injected fault, handler exception included.  The
  ``span-must-finish`` lint rule enforces the static discipline and
  :attr:`SpanRecorder.open_count` lets tests assert the dynamic one.

Export formats: JSONL (one span per line, mirrors the decision tracer) and
the Chrome trace-event format (``catapult`` JSON), which Perfetto and
``chrome://tracing`` load directly for a flame-chart view of where time
went.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..exceptions import ConfigurationError
from .tracer import _HASH_MULTIPLIER, _HASH_SPACE

#: Default ring-buffer capacity (finished spans, not traces).
DEFAULT_SPAN_CAPACITY = 65536

#: Span names considered queueing time by the critical-path breakdown.
QUEUE_SPANS = frozenset({"queue_wait"})
#: Span names considered engine execution time.
EXECUTE_SPANS = frozenset({"execute", "shard_execute"})
#: Span names considered fan-out coordination time (cluster model).
FANOUT_SPANS = frozenset({"fanout_round", "subquery", "shard_attempt"})
#: Span names attributed to resilience machinery.
RETRY_SPANS = frozenset({"retry"})
HEDGE_SPANS = frozenset({"hedge"})
MERGE_SPANS = frozenset({"merge"})

#: Shared sentinel for "no attributes yet": most spans never get attrs,
#: so the hot path avoids allocating a dict per span.  Never mutated —
#: :meth:`Span.annotate` / :meth:`Span.finish` copy-on-write past it.
_EMPTY_ATTRS: Dict[str, Any] = {}


class Span:
    """One timed interval in a query's lifecycle trace.

    ``trace_id`` is the root query's id; ``parent_id`` is ``None`` only for
    the root span.  ``status`` is ``"ok"`` on the happy path and otherwise
    names the exit path (``rejected``, ``expired``, ``error``, ``fault``,
    ``failed``, ``degraded``).  ``attrs`` carries small structured extras
    (rejection reason, shard index, retry attempt number).

    A span opened by a :class:`SpanRecorder` is its own handle: it carries
    its recorder and per-trace id allocator, so :meth:`child_span` /
    :meth:`finish` need no wrapper object (the per-query hot path
    allocates exactly one object per span).  Spans parsed back from an
    export have no recorder and are read-only records.  An *open* span
    must be :meth:`finish`-ed on every exit path — rejection, expiry,
    exception — or handed off to the component that will (the
    ``span-must-finish`` lint rule checks the static discipline).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "qtype",
                 "host", "start", "end", "status", "attrs",
                 "_recorder", "_state")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, qtype: str, host: str, start: float,
                 end: Optional[float] = None, status: str = "ok",
                 attrs: Optional[Dict[str, Any]] = None,
                 recorder: Optional["SpanRecorder"] = None,
                 state: Optional["_TraceState"] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.qtype = qtype
        self.host = host
        self.start = start
        self.end = end
        self.status = status
        self.attrs: Dict[str, Any] = (attrs if attrs is not None
                                      else _EMPTY_ATTRS)
        self._recorder = recorder
        self._state = state

    # -- handle methods (valid on spans opened by a recorder) -------------
    def child_span(self, name: str, now: float,
                   host: Optional[str] = None, **attrs: Any) -> "Span":
        """Open a child span starting at ``now`` (host defaults to ours)."""
        return self._recorder._open(  # type: ignore[union-attr]
            self._state, self.trace_id, self.span_id, name, self.qtype,
            host if host is not None else self.host, now, attrs)

    def marker(self, name: str, now: float, status: str = "ok",
               host: Optional[str] = None, **attrs: Any) -> None:
        """Record an instantaneous child span (opened and closed at
        ``now``) — injected-fault and annotation events use this so no
        handle needs to be carried around."""
        child = self.child_span(name, now, host=host, **attrs)
        child.finish(now, status=status)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes without closing the span."""
        if self.attrs is _EMPTY_ATTRS:
            self.attrs = {}
        self.attrs.update(attrs)

    def finish(self, now: float, status: Optional[str] = None,
               **attrs: Any) -> None:
        """Close the span at ``now`` (idempotent; first close wins)."""
        if self.end is not None:
            return
        self.end = now
        if status is not None:
            self.status = status
        if attrs:
            if self.attrs is _EMPTY_ATTRS:
                self.attrs = {}
            self.attrs.update(attrs)
        self._recorder._close(self)  # type: ignore[union-attr]

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and finish (``None`` while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict:
        out: dict = {"trace_id": self.trace_id, "span_id": self.span_id,
                     "name": self.name, "qtype": self.qtype,
                     "host": self.host, "start": self.start,
                     "end": self.end, "status": self.status}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(trace_id=int(data["trace_id"]),
                   span_id=int(data["span_id"]),
                   parent_id=data.get("parent_id"),
                   name=data["name"], qtype=data["qtype"],
                   host=data.get("host", ""),
                   start=float(data["start"]),
                   end=(float(data["end"])
                        if data.get("end") is not None else None),
                   status=data.get("status", "ok"),
                   attrs=dict(data.get("attrs", {})))

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, parent={self.parent_id}, "
                f"status={self.status!r}, start={self.start}, "
                f"end={self.end})")


class _TraceState:
    """Per-trace span-id allocator (ids are creation-ordered per trace)."""

    __slots__ = ("next_id",)

    def __init__(self) -> None:
        self.next_id = 1

    def allocate(self) -> int:
        span_id = self.next_id
        self.next_id += 1
        return span_id


#: Historical name for an *open* span.  Handles used to be a wrapper
#: object; the wrapper cost three allocations per query on the hot path,
#: so open spans now serve as their own handles.
SpanHandle = Span


class SpanContext:
    """The open span handles a host carries on a query while it flows
    through the framework (stored at ``query.span_ctx``).

    ``root`` spans the whole lifecycle; ``queue`` and ``execute`` are the
    currently open phase spans (at most one is open at a time).
    ``execute_name`` is the name the execution child span will get —
    ``"execute"`` on primary hosts, ``"shard_execute"`` for adopted
    shard-side attempts, so the critical-path breakdown can tell engine
    time on the two tiers apart.

    A lifecycle context doubles as the trace's span-id allocator (same
    duck type as ``_TraceState``; ids 1 and 2 are the root and queue-wait
    spans, so children start at 3) and carries ``closed``, the count of
    phase spans finished without their ``recorded`` accounting yet —
    :meth:`SpanRecorder.transition_execute` runs lock-free and defers
    that bookkeeping to :meth:`SpanRecorder.finish_lifecycle`.
    """

    __slots__ = ("root", "queue", "execute", "execute_name", "next_id",
                 "closed")

    def __init__(self, root: Optional[Span] = None,
                 queue: Optional[Span] = None,
                 execute: Optional[Span] = None,
                 execute_name: str = "execute") -> None:
        self.root = root
        self.queue = queue
        self.execute = execute
        self.execute_name = execute_name
        self.next_id = 3
        self.closed = 0

    def allocate(self) -> int:
        span_id = self.next_id
        self.next_id += 1
        return span_id


class SpanRecorder:
    """Bounded, sampled recorder of lifecycle spans.

    Parameters
    ----------
    capacity:
        Ring-buffer size for *finished* spans; oldest evicted first, with
        :attr:`dropped` counting evictions.
    sample_rate:
        Fraction of traces recorded, in ``[0, 1]``; the verdict is the
        decision tracer's deterministic hash of the root query id, so the
        same queries are sampled by both subsystems.
    """

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY,
                 sample_rate: float = 1.0) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self._threshold = int(sample_rate * _HASH_SPACE)
        self._lock = threading.Lock()
        self._finished: Deque[Span] = deque(maxlen=capacity)
        # Keyed by ``id(span)``: the table holds the only strong reference
        # an open span needs, the key can't collide while the entry lives,
        # and both store and pop are cheaper than composite tuple keys.
        self._open_spans: Dict[int, Span] = {}
        # Lifecycle contexts opened by :meth:`open_lifecycle`, keyed by
        # ``id(ctx)``.  Their root/queue/execute spans live on the context
        # rather than in ``_open_spans`` — one store + one pop per query
        # instead of one pair per span on the hot path.
        self._open_ctxs: Dict[int, "SpanContext"] = {}
        self.recorded = 0

    def sampled(self, query_id: int) -> bool:
        """Deterministic per-trace sampling verdict (one multiply)."""
        if self._threshold >= _HASH_SPACE:
            return True
        if self._threshold <= 0:
            return False
        return (query_id * _HASH_MULTIPLIER) % _HASH_SPACE < self._threshold

    # -- span lifecycle ---------------------------------------------------
    def begin_trace(self, query_id: int, qtype: str, host: str,
                    now: float, name: str = "query"
                    ) -> Optional[Span]:
        """Open the root span of a new trace, or ``None`` if unsampled."""
        if not self.sampled(query_id):
            return None
        state = _TraceState()
        return self._open(state, query_id, None, name, qtype, host, now, {})

    def record_trace(self, query_id: int, qtype: str, host: str,
                     start: float, end: float, status: str = "ok",
                     name: str = "query", **attrs: Any) -> bool:
        """Record a complete single-span trace atomically (if sampled).

        Rejections use this: the whole lifecycle is one interval with no
        children, so no open handle ever exists to leak."""
        if not self.sampled(query_id):
            return False
        with self._lock:
            span = Span(trace_id=query_id, span_id=1, parent_id=None,
                        name=name, qtype=qtype, host=host, start=start,
                        end=end, status=status, attrs=dict(attrs))
            self._finished.append(span)
            self.recorded += 1
        return True

    def _open(self, state: _TraceState, trace_id: int,
              parent_id: Optional[int], name: str, qtype: str, host: str,
              now: float, attrs: Dict[str, Any]) -> Span:
        span = Span(trace_id, state.allocate(), parent_id, name, qtype,
                    host, now, attrs=attrs if attrs else None,
                    recorder=self, state=state)
        # A single dict store is GIL-atomic, so the open table needs no
        # lock here; every *finished*-side mutation stays under the lock.
        self._open_spans[id(span)] = span
        return span

    def _close(self, span: Span) -> None:
        with self._lock:
            self._open_spans.pop(id(span), None)
            self._finished.append(span)
            self.recorded += 1

    # -- batched lifecycle transitions (the per-query hot path) -----------
    # One recorder call (and at most one lock acquisition) per Figure-1
    # point keeps full-sampling span overhead low (``lifecycle_spans`` row of
    # benchmarks/bench_overhead.py).

    def open_lifecycle(self, query_id: int, qtype: str, host: str,
                       start: float, now: float
                       ) -> Optional["SpanContext"]:
        """Open a root span (at ``start``) plus its ``queue_wait`` child
        (at ``now``) in one operation; ``None`` if the trace is unsampled.
        This is the accepted-admission fast path."""
        threshold = self._threshold
        if threshold < _HASH_SPACE and (
                threshold <= 0
                or (query_id * _HASH_MULTIPLIER) % _HASH_SPACE >= threshold):
            return None
        ctx = SpanContext()
        root = Span(query_id, 1, None, "query", qtype, host, start,
                    None, "ok", None, self, ctx)
        queue = Span(query_id, 2, 1, "queue_wait", qtype, host, now,
                     None, "ok", None, self, ctx)
        ctx.root = root
        ctx.queue = queue
        self._open_ctxs[id(ctx)] = ctx
        return ctx

    def transition_execute(self, ctx: "SpanContext", now: float,
                           host: str) -> None:
        """Close ``ctx``'s queue-wait span and open its execution span
        (named ``ctx.execute_name``).  Lock-free: every shared-state
        mutation here is a single GIL-atomic dict/deque operation, and
        the closed queue span's ``recorded`` accounting is deferred to
        :meth:`finish_lifecycle` via ``ctx.closed``."""
        root = ctx.root
        state = root._state
        # A lifecycle context is its own allocator; its spans live on the
        # context, not in the open-span table.  Adopted contexts (root
        # opened by another host via ``child_span``) keep per-span entries.
        tracked = state is ctx
        span = Span(root.trace_id, state.allocate(),  # type: ignore[union-attr]
                    root.span_id, ctx.execute_name,
                    root.qtype, host, now, None, "ok", None, self, state)
        queue = ctx.queue
        if queue is not None and queue.end is None:
            queue.end = now
            if not tracked:
                self._open_spans.pop(id(queue), None)
            self._finished.append(queue)
            ctx.closed += 1
        if not tracked:
            self._open_spans[id(span)] = span
        ctx.queue = None
        ctx.execute = span

    def finish_lifecycle(self, ctx: "SpanContext", now: float,
                         status: str) -> None:
        """Close every phase span ``ctx`` still holds open (queue-wait,
        execution, root) at ``now`` in one locked sweep.  The root keeps
        ``status``; an open queue-wait span closes neutrally on ``"ok"``
        roots (it ended when the query left the queue, not abnormally)."""
        queue = ctx.queue
        execute = ctx.execute
        root = ctx.root
        tracked = root is not None and root._state is ctx
        open_spans = self._open_spans
        finished = self._finished
        closed = ctx.closed
        with self._lock:
            if queue is not None and queue.end is None:
                queue.end = now
                # Queue-wait only carries an abnormal status when the
                # query died *in* the queue; execution-phase failures
                # close it neutrally (it ended at dequeue).
                if status == "expired":
                    queue.status = "expired"
                if not tracked:
                    open_spans.pop(id(queue), None)
                finished.append(queue)
                closed += 1
            if execute is not None and execute.end is None:
                execute.end = now
                if status != "ok":
                    execute.status = status
                if not tracked:
                    open_spans.pop(id(execute), None)
                finished.append(execute)
                closed += 1
            if root is not None and root.end is None:
                root.end = now
                if status != "ok":
                    root.status = status
                if not tracked:
                    open_spans.pop(id(root), None)
                finished.append(root)
                closed += 1
            self.recorded += closed
            if tracked:
                self._open_ctxs.pop(id(ctx), None)
        ctx.closed = 0

    # -- introspection ----------------------------------------------------
    @staticmethod
    def _ctx_open(ctx: "SpanContext") -> List[Span]:
        return [span for span in (ctx.root, ctx.queue, ctx.execute)
                if span is not None and span.end is None]

    @property
    def open_count(self) -> int:
        """Spans opened but not yet finished (must drain to 0 after a
        run — the dynamic side of ``span-must-finish``)."""
        with self._lock:
            return len(self._open_spans) + sum(
                len(self._ctx_open(ctx))
                for ctx in self._open_ctxs.values())

    def open_spans(self) -> List[Span]:
        """Snapshot of currently open spans (diagnostics and tests)."""
        with self._lock:
            out = list(self._open_spans.values())
            for ctx in self._open_ctxs.values():
                out.extend(self._ctx_open(ctx))
            return out

    @property
    def dropped(self) -> int:
        """Finished spans evicted from the ring buffer so far."""
        with self._lock:
            return max(0, self.recorded - len(self._finished))

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def spans(self, limit: Optional[int] = None,
              qtype: Optional[str] = None) -> List[Span]:
        """Finished spans, oldest first (newest when limited), optionally
        restricted to one query type."""
        with self._lock:
            snapshot = list(self._finished)
        if qtype is not None:
            snapshot = [span for span in snapshot if span.qtype == qtype]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._open_spans.clear()
            self._open_ctxs.clear()
            self.recorded = 0

    # -- export -----------------------------------------------------------
    def render_jsonl(self, limit: Optional[int] = None,
                     qtype: Optional[str] = None) -> str:
        """Finished spans as JSONL text (the ``/spans`` endpoint body)."""
        lines = [span.to_json() for span in self.spans(limit, qtype)]
        if not lines:
            return ""
        return "\n".join(lines) + "\n"

    def export_jsonl(self, path: str,
                     limit: Optional[int] = None) -> int:
        """Write finished spans to ``path``; returns the spans written."""
        spans = self.spans(limit)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(span.to_json())
                handle.write("\n")
        return len(spans)

    def render_chrome(self, limit: Optional[int] = None,
                      qtype: Optional[str] = None) -> str:
        """Finished spans in the Chrome trace-event format."""
        return render_chrome_trace(self.spans(limit, qtype))

    def export_chrome(self, path: str,
                      limit: Optional[int] = None) -> int:
        """Write a Perfetto-loadable Chrome trace file; returns the span
        count exported."""
        spans = self.spans(limit)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_chrome_trace(spans))
            handle.write("\n")
        return len(spans)


def parse_spans_jsonl(text: str) -> List[Span]:
    """Parse JSONL span text back into spans (blank lines skipped)."""
    spans = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise ConfigurationError(
                f"malformed span line {lineno}: {exc}") from exc
    return spans


def load_spans_jsonl(path: str) -> List[Span]:
    """Read a JSONL span file exported by :meth:`SpanRecorder.export_jsonl`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spans_jsonl(handle.read())


def render_chrome_trace(spans: List[Span]) -> str:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable).

    Each host becomes one "process" (with a ``process_name`` metadata
    record so Perfetto shows the host label); each trace renders as one
    "thread" within the host that owns its root span, so a query's
    lifecycle reads as a single lane in the flame chart.  Durations are
    complete events (``"ph": "X"``) with microsecond timestamps.
    """
    pids: Dict[str, int] = {}
    events: List[dict] = []
    for span in spans:
        pid = pids.setdefault(span.host, len(pids) + 1)
        if span.end is None:
            continue
        args: Dict[str, Any] = {"status": span.status,
                                "qtype": span.qtype,
                                "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.qtype,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": span.trace_id,
            "args": args,
        })
    meta = [{"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": host}}
            for host, pid in sorted(pids.items(), key=lambda kv: kv[1])]
    return json.dumps({"traceEvents": meta + events,
                       "displayTimeUnit": "ms"}, sort_keys=True)


class TypeSpanSummary:
    """Per-query-type critical-path aggregates derived from spans."""

    __slots__ = ("qtype", "traces", "completed", "rejected", "expired",
                 "failed", "total", "queue_wait", "execute", "fanout",
                 "retry", "hedge", "merge", "retries", "hedges", "faults")

    def __init__(self, qtype: str) -> None:
        self.qtype = qtype
        self.traces = 0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.failed = 0
        #: Summed seconds per critical-path category across all traces.
        self.total = 0.0
        self.queue_wait = 0.0
        self.execute = 0.0
        self.fanout = 0.0
        self.retry = 0.0
        self.hedge = 0.0
        self.merge = 0.0
        self.retries = 0
        self.hedges = 0
        self.faults = 0

    def mean(self, category_sum: float) -> float:
        """Mean seconds per trace for one category sum."""
        return category_sum / self.traces if self.traces else 0.0


def summarize_spans(spans: List[Span]) -> Dict[str, TypeSpanSummary]:
    """Aggregate spans into per-type critical-path breakdowns.

    Only root spans define trace membership and outcome; child spans
    contribute their durations to the category their name maps to
    (queue wait, execution, fan-out, retry, hedge, merge).
    """
    per_type: Dict[str, TypeSpanSummary] = {}

    def entry(qtype: str) -> TypeSpanSummary:
        summary = per_type.get(qtype)
        if summary is None:
            summary = TypeSpanSummary(qtype)
            per_type[qtype] = summary
        return summary

    for span in spans:
        summary = entry(span.qtype)
        duration = span.duration or 0.0
        if span.parent_id is None:
            summary.traces += 1
            summary.total += duration
            if span.status == "ok" or span.status == "degraded":
                summary.completed += 1
            elif span.status == "expired":
                summary.expired += 1
            elif span.status in ("rejected", "fault"):
                summary.rejected += 1
            else:
                summary.failed += 1
            continue
        if span.name in QUEUE_SPANS:
            summary.queue_wait += duration
        elif span.name in EXECUTE_SPANS:
            summary.execute += duration
        elif span.name in FANOUT_SPANS:
            summary.fanout += duration
        elif span.name in RETRY_SPANS:
            summary.retry += duration
            summary.retries += 1
        elif span.name in HEDGE_SPANS:
            summary.hedge += duration
            summary.hedges += 1
        elif span.name in MERGE_SPANS:
            summary.merge += duration
        if span.name == "fault":
            summary.faults += 1
    return per_type


def render_span_report(per_type: Dict[str, TypeSpanSummary],
                       title: Optional[str] = None) -> str:
    """Render the per-type critical-path breakdown table
    (the ``repro spans`` output); ``title`` labels the span source."""
    # Deferred to avoid a telemetry <-> bench import cycle (the bench
    # package imports the telemetry-instrumented simulators).
    from ..bench.tables import format_table

    def ms(value: float) -> str:
        return f"{value * 1000:.3f}"

    headers = ["type", "traces", "ok", "rej", "exp", "fail",
               "total (ms)", "queue (ms)", "exec (ms)", "fanout (ms)",
               "retry (ms)", "hedge (ms)", "merge (ms)"]
    rows = []
    totals = TypeSpanSummary("ALL")
    for qtype in sorted(per_type):
        s = per_type[qtype]
        rows.append([s.qtype, s.traces, s.completed, s.rejected,
                     s.expired, s.failed, ms(s.mean(s.total)),
                     ms(s.mean(s.queue_wait)), ms(s.mean(s.execute)),
                     ms(s.mean(s.fanout)), ms(s.mean(s.retry)),
                     ms(s.mean(s.hedge)), ms(s.mean(s.merge))])
        totals.traces += s.traces
        totals.completed += s.completed
        totals.rejected += s.rejected
        totals.expired += s.expired
        totals.failed += s.failed
        totals.total += s.total
        totals.queue_wait += s.queue_wait
        totals.execute += s.execute
        totals.fanout += s.fanout
        totals.retry += s.retry
        totals.hedge += s.hedge
        totals.merge += s.merge
        totals.retries += s.retries
        totals.hedges += s.hedges
    s = totals
    rows.append([s.qtype, s.traces, s.completed, s.rejected, s.expired,
                 s.failed, ms(s.mean(s.total)), ms(s.mean(s.queue_wait)),
                 ms(s.mean(s.execute)), ms(s.mean(s.fanout)),
                 ms(s.mean(s.retry)), ms(s.mean(s.hedge)),
                 ms(s.mean(s.merge))])
    caption = ("Critical-path breakdown (mean ms per traced query, "
               f"{totals.retries} retries / {totals.hedges} hedges "
               "spanned)")
    if title:
        caption = f"{caption} — {title}"
    return format_table(headers, rows, title=caption)
