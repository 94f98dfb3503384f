"""Admission policy interface and shared bookkeeping.

This module defines the contract between the admission control *framework*
(the simulated server, the LIquid cluster model, and the real threaded
runtime) and the *policies* (Bouncer, the baselines, and the starvation
wrappers).  It mirrors the paper's Figure 1:

* ``decide(query)`` is called on arrival — **Point 1** is right after it.
* ``on_enqueued(query)`` is called when an accepted query enters the queue.
* ``on_dequeued(query, wait_time)`` — **Point 2**, when an engine process
  pulls the query for processing.
* ``on_completed(query, wait_time, processing_time)`` — **Point 3**, after
  the query has been processed and the response is ready.

Policies keep whatever metrics they need off these hooks (histograms,
queue-type counts, sliding windows); the framework guarantees the calls.
:class:`PolicyStats` provides the per-type accept/reject accounting every
policy shares.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .types import AdmissionResult, Decision, Query, RejectReason

#: Callback fired by :meth:`AdmissionPolicy.decide_many` after each decision,
#: in arrival order, before the next query in the batch is decided.  Hosts
#: use it to apply per-query side effects (telemetry, enqueue, dispatch) at
#: exactly the point the scalar loop would.
DecisionCallback = Callable[[Query, AdmissionResult], None]


@dataclass
class TypeCounters:
    """Accept/reject tallies for one query type."""

    accepted: int = 0
    rejected: int = 0
    rejected_by_reason: Dict[RejectReason, int] = field(default_factory=dict)

    @property
    def received(self) -> int:
        """Total queries seen: accepted plus rejected."""
        return self.accepted + self.rejected

    @property
    def rejection_ratio(self) -> float:
        """Fraction of received queries that were rejected (0.0 if none)."""
        received = self.received
        return self.rejected / received if received else 0.0


class PolicyStats:
    """Cumulative accept/reject accounting, per query type.

    These counters cover the whole run (not a sliding window); they feed the
    rejection-percentage tables and figures in the evaluation.  Not
    synchronized: the host that owns the policy serializes writers and
    readers alike (module docstring).
    """

    def __init__(self) -> None:
        self._per_type: Dict[str, TypeCounters] = {}

    def record(self, qtype: str, result: AdmissionResult) -> None:
        """Tally one admission outcome for ``qtype``."""
        counters = self._per_type.get(qtype)
        if counters is None:
            counters = self._per_type[qtype] = TypeCounters()
        if result.decision is Decision.ACCEPT:
            counters.accepted += 1
        else:
            counters.rejected += 1
            if result.reason is not None:
                by_reason = counters.rejected_by_reason
                by_reason[result.reason] = (
                    by_reason.get(result.reason, 0) + 1)

    def record_bits(self, qtypes: Iterable[str], bits: bytes,
                    reason: RejectReason) -> None:
        """Tally one outcome per ``(qtype, bit)`` pair, up to the shorter
        of the two: ``b"1"`` accepts, ``b"0"`` rejects for ``reason``."""
        per_type = self._per_type
        for qtype, bit in zip(qtypes, bits):
            counters = per_type.get(qtype)
            if counters is None:
                counters = per_type[qtype] = TypeCounters()
            if bit == 0x31:
                counters.accepted += 1
            else:
                counters.rejected += 1
                by_reason = counters.rejected_by_reason
                by_reason[reason] = by_reason.get(reason, 0) + 1

    def for_type(self, qtype: str) -> TypeCounters:
        """Counters for one type (zeros when never seen)."""
        return self._per_type.get(qtype, TypeCounters())

    def totals(self) -> TypeCounters:
        """Aggregate counters across all query types."""
        total = TypeCounters()
        for counters in self._per_type.values():
            total.accepted += counters.accepted
            total.rejected += counters.rejected
            for reason, count in counters.rejected_by_reason.items():
                total.rejected_by_reason[reason] = (
                    total.rejected_by_reason.get(reason, 0) + count)
        return total

    def types(self) -> Dict[str, TypeCounters]:
        """Snapshot copy of the per-type counters."""
        return {qtype: TypeCounters(c.accepted, c.rejected,
                                    dict(c.rejected_by_reason))
                for qtype, c in self._per_type.items()}

    def reset(self) -> None:
        """Clear all counters (used when a warm-up phase ends)."""
        self._per_type.clear()


class AdmissionPolicy(abc.ABC):
    """Base class for all admission control policies.

    Subclasses implement :meth:`_decide`; this base wraps it so every
    decision is recorded in :attr:`stats` exactly once, including decisions
    made by wrapping strategies.
    """

    #: Human-readable policy name used in reports and figures.
    name: str = "policy"

    def __init__(self) -> None:
        self.stats = PolicyStats()

    def decide(self, query: Query) -> AdmissionResult:
        """Decide admission for ``query`` and record the outcome."""
        result = self._decide(query)
        self.stats.record(query.qtype, result)
        return result

    def decide_many(
            self, queries: Sequence[Query],
            on_decision: Optional[DecisionCallback] = None,
    ) -> List[AdmissionResult]:
        """Decide admission for a burst of queries, in arrival order.

        The contract is *bit-identity with the scalar loop*: for any
        ``queries``, the results, :attr:`stats` tallies, and every side
        effect applied through ``on_decision`` must be indistinguishable
        from calling :meth:`decide` once per query and invoking
        ``on_decision(query, result)`` after each.  ``on_decision`` runs
        before the next query in the batch is decided, so a host callback
        that enqueues an accepted query changes the state later decisions
        observe — exactly as sequential arrivals would.

        This default implementation *is* that scalar loop, which makes it
        correct by construction for every policy; an override must keep
        the contract, and ``tests/test_batch_differential.py`` holds every
        policy to it.
        """
        results: List[AdmissionResult] = []
        for query in queries:
            result = self.decide(query)
            results.append(result)
            if on_decision is not None:
                on_decision(query, result)
        return results

    def decide_types(self, qtypes: Sequence[str], out: bytearray) -> None:
        """Decide queries known only by type name (hosts with no queue
        entry per query): append ``b"1"``/``b"0"`` to ``out`` as each is
        decided, so if the policy raises, ``len(out)`` indexes the query
        that raised.  This default is :meth:`decide_many` over fresh
        queries, correct for every policy; Bouncer overrides it."""
        def append(query: Query, result: AdmissionResult) -> None:
            out.extend(b"1" if result.accepted else b"0")

        self.decide_many([Query(qtype=qtype) for qtype in qtypes], append)

    @abc.abstractmethod
    def _decide(self, query: Query) -> AdmissionResult:
        """Policy-specific decision logic (no stats side effects)."""

    # -- framework hooks (Figure 1 metric points) ------------------------
    def on_enqueued(self, query: Query) -> None:
        """An accepted query entered the FIFO queue."""

    def on_dequeued(self, query: Query, wait_time: float) -> None:
        """Point 2: a query was pulled from the queue for processing."""

    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        """Point 3: a query finished; its response is about to be sent."""

    def reset_stats(self) -> None:
        """Forget accept/reject tallies (not learned state); end of warm-up."""
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class AlwaysAcceptPolicy(AdmissionPolicy):
    """Admit everything.  The no-admission-control control condition."""

    name = "always-accept"

    def _decide(self, query: Query) -> AdmissionResult:
        return AdmissionResult.accept()


class AlwaysRejectPolicy(AdmissionPolicy):
    """Reject everything (drain mode / testing)."""

    name = "always-reject"

    def _decide(self, query: Query) -> AdmissionResult:
        return AdmissionResult.reject(RejectReason.ADMINISTRATIVE)


class QueueView:
    """What a policy may observe about the host's FIFO queue.

    The framework owns the queue; policies receive a live view with per-type
    occupancy (Bouncer's Eq. 2 input, walked in ``counts``' own order) and
    total length (MaxQL's input).  Implementations must keep
    :meth:`count_for` and :meth:`length` cheap — they run on every arrival.
    Not synchronized: the owning host serializes
    :meth:`on_enqueue`/:meth:`on_dequeue` with the policy calls that read
    the view (module docstring).
    """

    __slots__ = ("counts", "_length")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._length = 0

    def on_enqueue(self, qtype: str) -> None:
        self.counts[qtype] = self.counts.get(qtype, 0) + 1
        self._length += 1

    def on_dequeue(self, qtype: str) -> None:
        remaining = self.counts.get(qtype, 0) - 1
        if remaining > 0:
            self.counts[qtype] = remaining
        else:
            self.counts.pop(qtype, None)
        self._length -= 1

    def count_for(self, qtype: str) -> int:
        """Number of queued queries of ``qtype``."""
        return self.counts.get(qtype, 0)

    def length(self) -> int:
        """Total queue length ``l``."""
        return self._length

    def occupancy(self) -> Dict[str, int]:
        """Snapshot of per-type queue counts."""
        return dict(self.counts)
