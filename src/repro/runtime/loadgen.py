"""Open-loop load generation against a real :class:`AdmissionServer`.

The paper's load generator is a modified wrk2 that "sends HTTPS requests at
an average rate given by the user, and emulates traffic burstiness with
inter-departure times following an exponential distribution", drawing
queries from per-type query sets according to a mix.  This module is that
tool's in-process counterpart:

* **Open-loop** departures: the schedule of send instants is fixed up
  front from the Poisson process, independent of response times, so slow
  responses cannot throttle the offered load (the coordinated-omission
  mistake wrk2 exists to avoid).
* Per-query outcomes (accepted/rejected, response time) are recorded
  against the *scheduled* send time.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._stats import mean, percentiles
from ..core.clock import SleepingClock
from ..core.types import Query
from ..exceptions import ConfigurationError
from ..faults import RetryPolicy
from .server import AdmissionServer

#: Percentiles reported for measured response times.
LOADGEN_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)

QueryFactory = Callable[[random.Random], Query]


@dataclass
class LoadResult:
    """Outcome of one load-generation run."""

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    duration: float = 0.0
    response_times: Dict[str, List[float]] = field(default_factory=dict)
    rejected_by_type: Dict[str, int] = field(default_factory=dict)
    #: Resubmissions performed after rejections (retry policy active).
    retries: int = 0
    #: Queries whose retry budget (or deadline) ran out — they are counted
    #: in ``rejected`` too: exhaustion surfaces as a reject, not an error.
    retry_exhausted: int = 0

    @property
    def rejection_pct(self) -> float:
        return 100.0 * self.rejected / self.offered if self.offered else 0.0

    @property
    def offered_qps(self) -> float:
        return self.offered / self.duration if self.duration else 0.0

    def response_percentiles(self, qtype: Optional[str] = None
                             ) -> Dict[float, float]:
        """Measured percentiles for one type, or pooled when ``None``."""
        if qtype is None:
            pooled: List[float] = []
            for values in self.response_times.values():
                pooled.extend(values)
            return percentiles(pooled, LOADGEN_PERCENTILES)
        return percentiles(self.response_times.get(qtype, []),
                           LOADGEN_PERCENTILES)

    def mean_response(self) -> float:
        pooled: List[float] = []
        for values in self.response_times.values():
            pooled.extend(values)
        return mean(pooled)


class LoadGenerator:
    """Drives an :class:`AdmissionServer` at a fixed mean rate.

    Parameters
    ----------
    server:
        The target server (must be started).
    query_factory:
        Draws the next query to send (type + payload); receives the
        generator's RNG so runs are reproducible.
    rate_qps:
        Mean departure rate of the Poisson schedule.
    retry:
        Optional :class:`~repro.faults.RetryPolicy`.  A rejected
        submission is retried after capped exponential backoff with
        jitter, stopping early if the backoff would cross the query's
        deadline; exhaustion counts the query as *rejected* (plus
        ``retry_exhausted``), never as an error.  Retry sleeps happen
        inline, so heavy retrying bends the open-loop schedule — keep
        budgets small when measuring latency.
    deadline:
        Optional per-query SLO deadline in seconds: each query's absolute
        ``deadline`` is stamped ``send_instant + deadline`` on the
        server's clock and propagates with the query (queue expiration,
        retry aborts, and — through the replica/cluster paths —
        sub-query expiration).
    clock:
        Time source for the departure schedule, deadline stamps and
        backoff sleeps; defaults to the target server's clock.  Tests
        inject a :class:`~repro.core.clock.ManualClock` to cover
        retry/deadline paths deterministically (sleeps become advances).
    """

    def __init__(self, server: AdmissionServer, query_factory: QueryFactory,
                 rate_qps: float, seed: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None,
                 clock: Optional[SleepingClock] = None) -> None:
        # Comparisons are written so that NaN fails them.
        if not 0 < rate_qps < math.inf:
            raise ConfigurationError(
                f"rate_qps must be finite and > 0, got {rate_qps}")
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0, got {deadline}")
        self._server = server
        self._query_factory = query_factory
        self._rate = float(rate_qps)
        self._rng = random.Random(seed)
        self._retry = retry
        self._deadline = deadline
        self._clock: SleepingClock = (
            clock if clock is not None else server.ctx.clock)

    def run(self, num_queries: int,
            result_timeout: float = 30.0) -> LoadResult:
        """Send ``num_queries`` on the open-loop schedule and collect results.

        Futures are collected after the send loop finishes so waiting on
        responses never delays departures.
        """
        if num_queries < 1:
            raise ConfigurationError("num_queries must be >= 1")
        # Fix the whole departure schedule up front (open loop).
        start = self._clock.now() + 0.005
        send_at = []
        cursor = start
        for _ in range(num_queries):
            cursor += self._rng.expovariate(self._rate)
            send_at.append(cursor)

        result = LoadResult()
        in_flight = []
        for scheduled in send_at:
            self._clock.sleep(scheduled - self._clock.now())
            query = self._query_factory(self._rng)
            if self._deadline is not None:
                query.deadline = self._clock.now() + self._deadline
            result.offered += 1
            future = self._submit_with_retry(query, result)
            if future is None:
                result.rejected += 1
                result.rejected_by_type[query.qtype] = (
                    result.rejected_by_type.get(query.qtype, 0) + 1)
            else:
                in_flight.append((query, future))

        for query, future in in_flight:
            try:
                future.result(timeout=result_timeout)
            except Exception:
                result.errors += 1
                continue
            result.accepted += 1
            response = query.response_time
            if response is not None:
                result.response_times.setdefault(query.qtype, []).append(
                    response)
        result.duration = self._clock.now() - start
        return result

    def _submit_with_retry(self, query: Query, result: LoadResult
                           ) -> "Optional[Future[Any]]":
        """Submit once, then retry rejections per the retry policy.

        Returns the accepted future, or ``None`` when the query was
        rejected for good (no retry policy, budget spent, or a backoff
        that would cross the query's deadline).
        """
        admission, future = self._server.try_submit(query)
        if future is not None or self._retry is None:
            return future
        attempt = 0
        while True:
            delay = self._retry.backoff(attempt, now=self._clock.now(),
                                        deadline=query.deadline)
            if delay is None:
                result.retry_exhausted += 1
                return None
            self._clock.sleep(delay)
            attempt += 1
            result.retries += 1
            self._server.telemetry.on_retry()
            admission, future = self._server.try_submit(query)
            if future is not None:
                return future
