"""Core value types shared by policies, simulators, and runtime servers.

The paper's framework (its Figure 1) revolves around *queries* flowing
through an admission decision, a FIFO queue, and a pool of query engine
processes.  This module defines the small, immutable vocabulary those
components exchange: :class:`Query`, :class:`Decision`,
:class:`RejectReason`, and :class:`AdmissionResult`.

All times in this library are expressed in **seconds** as floats, on
whatever clock the enclosing component uses (simulated or monotonic
wall-clock).  Latency SLO targets, histogram values, and estimates all share
this unit so they can be compared directly.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Mapping, Optional

#: Name of the catch-all query type.  Queries whose type string is not
#: registered with a policy are treated as this type, and the policy's
#: "general" histogram and default SLO apply to them (paper §3, Appendix A).
DEFAULT_QUERY_TYPE = "default"

_query_ids = itertools.count(1)


def next_query_id() -> int:
    """Return a process-wide unique, monotonically increasing query id."""
    return next(_query_ids)


class Query:
    """A single client query travelling through the admission framework.

    One ``Query`` is allocated per arrival on the hot path, so the class
    uses ``__slots__`` (no per-instance ``__dict__``) to keep allocation
    and attribute access cheap.

    Parameters
    ----------
    qtype:
        Short string naming the query's type (paper §3: e.g. part of a REST
        path or a datalog rule name).  Policies look SLOs and histograms up
        by this string; unrecognized strings fall back to
        :data:`DEFAULT_QUERY_TYPE`.
    arrival_time:
        Instant the query arrived at the host, on the host's clock.
    deadline:
        Optional absolute expiration instant.  Policies that pre-reject
        queries expected to time out (AcceptFraction in LIquid) consult it;
        ``None`` means "generous expiration", as in the paper's §5.4 runs.
    payload:
        Opaque application payload (e.g. a :mod:`repro.liquid` query object).
    """

    __slots__ = ("qtype", "arrival_time", "deadline", "payload", "query_id",
                 "enqueued_at", "dequeued_at", "completed_at",
                 "service_time", "span_ctx", "window")

    def __init__(self, qtype: str, arrival_time: float = 0.0,
                 deadline: Optional[float] = None, payload: Any = None,
                 query_id: Optional[int] = None) -> None:
        self.qtype = qtype
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.payload = payload
        self.query_id = next(_query_ids) if query_id is None else query_id
        # Timestamps stamped by the framework as the query progresses.  They
        # are mutable bookkeeping, not part of the query's identity.
        self.enqueued_at: Optional[float] = None
        self.dequeued_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        # Hosts may stash the sampled service demand here at admission so it
        # is not re-derived at dispatch (see repro.sim.server).
        self.service_time: Optional[float] = None
        # Open lifecycle-span handles for a span-sampled query
        # (a repro.telemetry.spans.SpanContext); None when tracing is off
        # or the query is unsampled.  Observational only.
        self.span_ctx: Optional[Any] = None
        # Measurement window the host was in when the query arrived; a
        # host with a warm-up phase stamps it to tell warm-up strays from
        # measured queries (see repro.sim.report.ServerMetrics).
        self.window = 0

    def __repr__(self) -> str:
        return (f"Query(qtype={self.qtype!r}, "
                f"arrival_time={self.arrival_time!r}, "
                f"query_id={self.query_id!r})")

    @property
    def wait_time(self) -> Optional[float]:
        """Time spent in the FIFO queue (``wt(Q)`` in the paper), if known."""
        if self.enqueued_at is None or self.dequeued_at is None:
            return None
        return self.dequeued_at - self.enqueued_at

    @property
    def processing_time(self) -> Optional[float]:
        """Time from dequeue to completion (``pt(Q)``), if known."""
        if self.dequeued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.dequeued_at

    @property
    def response_time(self) -> Optional[float]:
        """Total response time ``rt(Q) = wt(Q) + pt(Q)`` (paper Eq. 1).

        The paper's extra host-handling term ``xi`` is assumed zero, as the
        authors do.
        """
        if self.enqueued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class Decision(enum.Enum):
    """Outcome of an admission decision."""

    ACCEPT = "accept"
    REJECT = "reject"

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self is Decision.ACCEPT


class RejectReason(enum.Enum):
    """Why a policy rejected a query.

    The paper's policies reject for different causes; recording the cause
    lets operators (and our experiment reports) attribute rejections.
    """

    #: A percentile response-time estimate exceeded its SLO target
    #: (Bouncer, Algorithm 1).
    SLO_ESTIMATE = "slo_estimate"
    #: The FIFO queue reached its configured maximum length (MaxQL, or the
    #: safety cap available to every policy in LIquid).
    QUEUE_FULL = "queue_full"
    #: The estimated mean queue wait time exceeded the limit (MaxQWT).
    WAIT_LIMIT = "wait_limit"
    #: Probabilistic shedding to stay under the utilization threshold
    #: (AcceptFraction).
    CAPACITY = "capacity"
    #: The query was predicted to miss its expiration deadline in the queue
    #: (AcceptFraction's timeout pre-rejection).
    EXPECTED_TIMEOUT = "expected_timeout"
    #: Rejected by a downstream component (e.g. a shard) rather than by the
    #: local policy.
    DOWNSTREAM = "downstream"
    #: Unconditional rejection (testing / drain mode).
    ADMINISTRATIVE = "administrative"
    #: The query was refused by an injected fault (blackout, crash, or
    #: queue drop from :mod:`repro.faults`), not by the admission policy.
    FAULT_INJECTED = "fault_injected"


class AdmissionResult:
    """A decision plus the evidence that produced it.

    ``estimates`` carries the percentile response-time estimates a policy
    computed (e.g. ``{50: 0.021, 90: 0.047}`` for Bouncer), which the
    starvation-avoidance wrappers, tests, and experiment reports inspect.
    ``overridden`` is set by starvation-avoidance strategies when they flip
    an inner rejection into an acceptance (paper §4).

    One result is allocated per decision, so the class uses ``__slots__``.
    Instances are treated as immutable by convention (nothing in the
    framework mutates one after construction).
    """

    __slots__ = ("decision", "reason", "estimates", "overridden")

    def __init__(self, decision: Decision,
                 reason: Optional[RejectReason] = None,
                 estimates: Optional[Mapping[int, float]] = None,
                 overridden: bool = False) -> None:
        self.decision = decision
        self.reason = reason
        self.estimates: Mapping[int, float] = (
            estimates if estimates is not None else {})
        self.overridden = overridden

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdmissionResult):
            return NotImplemented
        return (self.decision is other.decision
                and self.reason is other.reason
                and dict(self.estimates) == dict(other.estimates)
                and self.overridden == other.overridden)

    def __repr__(self) -> str:
        return (f"AdmissionResult(decision={self.decision!r}, "
                f"reason={self.reason!r}, estimates={self.estimates!r}, "
                f"overridden={self.overridden!r})")

    @property
    def accepted(self) -> bool:
        """True when the decision admits the query."""
        return self.decision is Decision.ACCEPT

    @staticmethod
    def accept(estimates: Optional[Mapping[int, float]] = None,
               overridden: bool = False) -> "AdmissionResult":
        """Build an acceptance result."""
        return AdmissionResult(Decision.ACCEPT, None, estimates or {},
                               overridden)

    @staticmethod
    def reject(reason: RejectReason,
               estimates: Optional[Mapping[int, float]] = None
               ) -> "AdmissionResult":
        """Build a rejection result with its cause."""
        return AdmissionResult(Decision.REJECT, reason, estimates or {})

    def __str__(self) -> str:
        if self.accepted:
            suffix = " (override)" if self.overridden else ""
            return f"ACCEPT{suffix}"
        reason = self.reason.value if self.reason else "unspecified"
        return f"REJECT[{reason}]"
