"""Event-driven model of a LIquid cluster (brokers + shards, paper §5.4).

The paper's real-system study runs on a 12-broker / 16-shard cluster where
"the brokers are the queries' entry point", each query triggers "one or
more communication rounds between the broker and the shards", brokers run
the policy under test, and shards always run AcceptFraction capped at 80%
CPU.  The decisive real-system effect (Figure 13) is that the *processing
time observed by brokers rises with load* because shard hosts have FIFO
queues of their own — "unlike an ideal parallel query engine".

This module reproduces that structure as a discrete-event model:

* A :class:`BrokerHost` implements the Figure-1 framework (admission, FIFO
  queue, engine processes).  A broker engine process executes a query by
  walking its rounds: each round it issues one sub-query per target shard,
  then *blocks* until every shard response returns, then pays a small
  broker-local merge cost.  Broker-observed processing time therefore
  includes shard queueing delay.
* A :class:`ShardHost` is a c-server FIFO queue running AcceptFraction;
  sub-query service times are per-query-type lognormals.
* Sub-queries rejected by a shard fail the whole query, surfacing as a
  rejection at the broker (reason ``DOWNSTREAM``) — in the paper's runs the
  brokers produce the vast majority of rejections, and that holds here.

Hosts, processes, and rates can be scaled down proportionally (see
:mod:`repro.bench.experiments`), preserving per-host load and hence the
queueing behaviour, while keeping the simulation laptop-sized.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Sequence)

from collections import deque
from itertools import accumulate

if TYPE_CHECKING:  # runtime import would cycle through repro.telemetry
    from ..faults import FaultInjector
    from ..telemetry.hub import Telemetry

from ..core.baselines.accept_fraction import (AcceptFractionConfig,
                                              AcceptFractionPolicy)
from ..core.context import HostContext
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import AdmissionResult, Query, RejectReason
from ..exceptions import ConfigurationError
from ..sim.report import SampleStore, TypeStats
from ..sim.simulator import Simulator

PolicyFactory = Callable[[HostContext], AdmissionPolicy]

#: Sentinel fan-out: the sub-query batch goes to every shard.
FANOUT_ALL = "all"
#: Sentinel fan-out: the sub-query goes to a single (hashed) shard.
FANOUT_ONE = "one"


@dataclass(frozen=True)
class QueryTypeCost:
    """Cost model for one query type in the cluster simulation.

    ``rounds`` broker-shard communication rounds; each round issues one
    sub-query to each target shard (``fanout``).  Sub-query service times
    are lognormal with the given median and sigma; ``broker_overhead`` is
    the broker-local merge cost paid after each round.
    """

    name: str
    proportion: float
    rounds: int
    fanout: str
    subquery_median: float
    subquery_sigma: float
    broker_overhead: float = 0.0001
    #: ``log(subquery_median)``, taken once: every sub-query samples it.
    subquery_mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1 for {self.name}")
        if self.fanout not in (FANOUT_ALL, FANOUT_ONE):
            raise ConfigurationError(
                f"fanout must be 'all' or 'one', got {self.fanout!r}")
        if self.subquery_median <= 0 or self.subquery_sigma < 0:
            raise ConfigurationError(
                f"invalid sub-query distribution for {self.name}")
        object.__setattr__(self, "subquery_mu",
                           math.log(self.subquery_median))

    @property
    def subquery_mean(self) -> float:
        """Analytic mean sub-query service time."""
        return math.exp(self.subquery_mu + self.subquery_sigma ** 2 / 2)

    def sample_subquery(self, rng: random.Random) -> float:
        if self.subquery_sigma == 0.0:
            return self.subquery_median
        return rng.lognormvariate(self.subquery_mu, self.subquery_sigma)

    def shard_work_per_query(self, num_shards: int) -> float:
        """Expected total shard CPU-seconds one query of this type costs."""
        targets = num_shards if self.fanout == FANOUT_ALL else 1
        return self.rounds * targets * self.subquery_mean


@dataclass
class ClusterConfig:
    """Shape of the simulated cluster and its workload.

    Defaults model the paper's cluster scaled down 4x (3 brokers and
    4 shards instead of 12 and 16); drive it at 1/4 the paper's cluster
    rates for equivalent per-host load.
    """

    cost_table: Sequence[QueryTypeCost]
    num_brokers: int = 3
    num_shards: int = 4
    broker_processes: int = 32
    shard_processes: int = 48
    queue_cap: int = 800
    shard_max_utilization: float = 0.80
    #: Load-dependent service inflation at shards: a sub-query dispatched
    #: while a fraction ``b`` of the shard's processes are busy runs
    #: ``1 + gamma * b**power`` times slower.  This models the CPU
    #: interference (cache/memory contention, GC) that makes the paper's
    #: real shards slow down with load — the effect behind its Figure 13 —
    #: which pure queueing with dozens of servers cannot produce.
    shard_slowdown_gamma: float = 1.2
    shard_slowdown_power: float = 2.0
    #: Same interference model for the broker-local per-round merge cost:
    #: response accumulation and sub-query result processing on a busy
    #: broker host contend for CPU with the other engine processes.
    broker_slowdown_gamma: float = 0.6
    broker_slowdown_power: float = 2.0
    #: Optional override for the shards' admission policy.  ``None`` keeps
    #: the paper's setup (AcceptFraction at ``shard_max_utilization``);
    #: supply a factory to experiment with e.g. Bouncer on both tiers
    #: (the pairing discussion of §5.6).
    shard_policy_factory: Optional[PolicyFactory] = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.cost_table:
            raise ConfigurationError("cost_table must not be empty")
        total = sum(c.proportion for c in self.cost_table)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"cost table proportions must sum to 1, got {total}")
        self._costs = {c.name: c for c in self.cost_table}
        if len(self._costs) != len(self.cost_table):
            raise ConfigurationError(
                f"duplicate query types: {[c.name for c in self.cost_table]}")
        for attr in ("num_brokers", "num_shards", "broker_processes",
                     "shard_processes", "queue_cap"):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")

    def cost_for(self, qtype: str) -> QueryTypeCost:
        """The cost model entry for one query type (KeyError if absent)."""
        return self._costs[qtype]

    def weighted_shard_work(self) -> float:
        """Expected shard CPU-seconds per query across the mix."""
        return sum(c.proportion * c.shard_work_per_query(self.num_shards)
                   for c in self.cost_table)

    def shard_saturation_qps(self) -> float:
        """Cluster arrival rate at which shard CPU demand equals supply."""
        capacity = self.num_shards * self.shard_processes
        return capacity / self.weighted_shard_work()


@dataclass(frozen=True)
class ResilienceConfig:
    """Broker-side resilience knobs for sub-query failures (chaos runs).

    Without a resilience config the broker keeps the paper's baseline
    behaviour: any refused sub-query fails the whole query (a ``DOWNSTREAM``
    rejection).  With one, the broker absorbs transient shard faults:

    timeouts
        A physical sub-query attempt unanswered after ``subquery_timeout``
        seconds is treated as failed (retry/degrade path) and its eventual
        response is ignored.  This is what keeps a stalled shard from
        pinning broker engine processes for the whole stall — the engine
        gives up, degrades or fails fast, and recycles.
    retries
        A refused, errored, or timed-out sub-query is re-issued up to
        ``max_subquery_retries`` times after a short linear backoff
        (``retry_backoff * attempt``).  Single-shard (``fanout='one'``)
        sub-queries fail over to a *different* shard — the replica path —
        while fan-out-to-all sub-queries must re-ask the same shard (its
        partition lives nowhere else).
    hedging
        A ``fanout='one'`` sub-query still unresolved ``hedge_after``
        seconds after issue is duplicated to another shard; the first
        response wins and the loser is ignored (settle-once).
    graceful degradation
        When ``degraded_ok`` is set, a fan-out-to-all round that lost some
        shards but heard from at least one completes with partial results
        instead of failing — the §2 "alternative results" fallback.
    """

    max_subquery_retries: int = 1
    retry_backoff: float = 0.002
    hedge_after: Optional[float] = 0.008
    degraded_ok: bool = True
    subquery_timeout: Optional[float] = 0.010

    def __post_init__(self) -> None:
        if self.max_subquery_retries < 0:
            raise ConfigurationError("max_subquery_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ConfigurationError("hedge_after must be > 0")
        if self.subquery_timeout is not None and self.subquery_timeout <= 0:
            raise ConfigurationError("subquery_timeout must be > 0")


class _QueryExecution:
    """Per-query state while a broker engine process walks its rounds."""

    __slots__ = ("query", "cost", "broker", "rounds_left", "pending",
                 "failed", "degraded", "round_successes", "round_span",
                 "merge_span")

    def __init__(self, query: Query, cost: QueryTypeCost,
                 broker: "BrokerHost") -> None:
        self.query = query
        self.cost = cost
        self.broker = broker
        self.rounds_left = cost.rounds
        self.pending = 0
        self.failed = False
        self.degraded = False
        self.round_successes = 0
        # Open lifecycle spans for a span-sampled query: the current
        # fan-out round and its merge (closed in _after_merge).
        self.round_span = None
        self.merge_span = None


class _SubQuery:
    """One *logical* sub-query: settles exactly once despite retries/hedges.

    Physical attempts (the original issue, backed-off retries, a hedge)
    all report through :meth:`answer`; the first success — or the last
    failure once the retry budget and every in-flight attempt are spent —
    settles the logical sub-query toward its round.  Late responses from
    the losing attempt are ignored.
    """

    __slots__ = ("execution", "primary", "settled", "hedged",
                 "outstanding", "retries_used", "span")

    def __init__(self, execution: _QueryExecution,
                 primary: int) -> None:
        self.execution = execution
        self.primary = primary
        self.settled = False
        self.hedged = False
        self.outstanding = 0
        self.retries_used = 0
        # Open "subquery" span (child of the round span) for a sampled
        # query; physical attempts hang off it, closed at settle.
        self.span: Optional[Any] = None

    def answer(self, ok: bool) -> None:
        """One attempt's outcome: a shard's answer or the attempt's timeout."""
        self.outstanding -= 1
        if self.settled:
            return  # another attempt already settled this sub-query
        execution = self.execution
        if not ok:
            execution.broker._attempt_failed(self)
            return
        self.settled = True
        if self.span is not None:
            self.span.finish(execution.broker._clock._now)
            self.span = None
        execution.round_successes += 1
        execution.pending -= 1
        if execution.pending == 0:
            execution.broker._merge(execution)


class _HostCore:
    """The Figure-1 host brokers and shards share: admission in front of a
    FIFO queue, engine processes behind it, and the fault hooks at both."""

    policy: AdmissionPolicy

    def __init__(self, sim: Simulator, config: ClusterConfig, host: str,
                 processes: int, telemetry: Optional["Telemetry"],
                 fault_injector: Optional["FaultInjector"]) -> None:
        self._sim = sim
        self._clock = sim.clock
        self._host = host
        self._processes = processes
        self._idle = processes
        self._queue_cap = config.queue_cap
        self._telemetry = telemetry
        self._faults = fault_injector
        self._stall_wakeup_at: Optional[float] = None
        self._queue: Deque[Query] = deque()
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=sim.clock, queue=self.queue_view,
                               parallelism=processes)

    def _admit(self, query: Query, now: float) -> bool:
        """Fault override, queue cap, policy, telemetry: True when
        ``query`` was admitted, queued and offered to an idle engine."""
        policy = self.policy
        queue = self._queue
        result: Optional[AdmissionResult] = None
        if self._faults is not None:
            # A blacked-out/crashed/lossy host refuses before its policy
            # runs (the verdict is always a FAULT_INJECTED rejection).
            result = self._faults.admission_override(query, now, self._host)
        if result is None:
            if len(queue) >= self._queue_cap:
                result = AdmissionResult.reject(RejectReason.QUEUE_FULL)
                policy.stats.record(query.qtype, result)
            else:
                result = policy.decide(query)
        if self._telemetry is not None:
            self._telemetry.on_decision(query, result, now=now,
                                        queue_length=len(queue),
                                        policy=policy)
        if not result.accepted:
            return False
        query.enqueued_at = now
        queue.append(query)
        self.queue_view.on_enqueue(query.qtype)
        policy.on_enqueued(query)
        if self._idle:
            self._dispatch()
        return True

    def _dispatch(self) -> None:
        queue = self._queue
        now = self._clock._now
        while self._idle > 0 and queue:
            if self._faults is not None:
                stall_end = self._faults.stalled_until(now, self._host)
                if stall_end is not None:
                    # Engines frozen: defer dispatch until the stall window
                    # closes (one wake-up per window end, not per arrival).
                    if self._stall_wakeup_at != stall_end:
                        self._stall_wakeup_at = stall_end
                        self._faults.note_stall(now, self._host)
                        self._sim.schedule_at(stall_end,
                                              self._resume_after_stall)
                    return
            query = queue.popleft()
            query.dequeued_at = now
            self.queue_view.on_dequeue(query.qtype)
            self.policy.on_dequeued(
                query, now - query.enqueued_at)  # type: ignore[operator]
            if self._telemetry is not None:
                self._telemetry.on_dequeue(query, now=now)
            self._idle -= 1
            self._start(query, now)

    def _resume_after_stall(self) -> None:
        self._stall_wakeup_at = None
        self._dispatch()

    def _start(self, query: Query, now: float) -> None:
        """Run a dequeued ``query`` on an engine process (per host type)."""
        raise NotImplementedError


class ShardHost(_HostCore):
    """One shard: c-server FIFO queue under AcceptFraction (§5.4 setup).

    A sub-query's :class:`Query` carries its sampled service demand in
    ``service_time`` and the caller's answer callback in ``payload``.
    """

    def __init__(self, sim: Simulator, config: ClusterConfig,
                 index: int, rng: random.Random,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None) -> None:
        super().__init__(sim, config, f"shard-{index}",
                         config.shard_processes, telemetry, fault_injector)
        self.index = index
        self._gamma = config.shard_slowdown_gamma
        self._power = config.shard_slowdown_power
        if config.shard_policy_factory is not None:
            self.policy = config.shard_policy_factory(self.ctx)
        else:
            self.policy = AcceptFractionPolicy(
                self.ctx,
                AcceptFractionConfig(
                    max_utilization=config.shard_max_utilization,
                    processing_units=config.shard_processes),
                rng=random.Random(rng.randrange(2 ** 32)))
        self.rejected_subqueries = 0
        self.completed_subqueries = 0
        self.errored_subqueries = 0

    def offer(self, parent: Query, service_time: float,
              callback: Callable[[bool], None],
              parent_span: Optional[Any] = None) -> bool:
        """Submit one sub-query; ``callback(ok)`` fires exactly once, with
        its outcome.

        Returns True when the sub-query was admitted.  A rejection invokes
        the callback immediately (the error response a real shard returns
        straight away).  ``parent_span`` (an open broker-side attempt
        span) is adopted: this shard's queue/execution/rejection spans
        land under it, and the shard closes it at the attempt's outcome.
        """
        now = self._clock._now
        subquery = Query(parent.qtype, now, parent.deadline, callback)
        subquery.service_time = service_time
        if parent_span is not None and self._telemetry is not None:
            self._telemetry.span_adopt(subquery, parent_span)
        if self._admit(subquery, now):
            return True
        self.rejected_subqueries += 1
        callback(False)
        return False

    def _start(self, subquery: Query, now: float) -> None:
        # Load-dependent service inflation at dispatch (ClusterConfig).
        busy = (self._processes - self._idle) / self._processes
        service = subquery.service_time * (  # type: ignore[operator]
            1.0 + self._gamma * busy ** self._power)
        if self._faults is not None:
            service = self._faults.shape_service(service, subquery, now,
                                                 self._host)
            if self._faults.should_error(subquery, now, self._host):
                self._sim._schedule_call(now + service, self._complete_error,
                                         subquery)
                return
        # Handle-free scheduling: completions are never cancelled.
        self._sim._schedule_call(now + service, self._complete, subquery)

    def _complete_error(self, subquery: Query) -> None:
        """Completion of a sub-query an injected engine fault poisoned."""
        self._complete(subquery, True)

    def _complete(self, subquery: Query, errored: bool = False) -> None:
        now = self._clock._now
        subquery.completed_at = now
        dequeued = subquery.dequeued_at
        self.policy.on_completed(
            subquery, dequeued - subquery.enqueued_at,  # type: ignore[operator]
            now - dequeued)  # type: ignore[operator]
        if self._telemetry is not None:
            if errored:
                self._telemetry.span_mark_fault(subquery, "engine_error", now)
            self._telemetry.on_completion(subquery, now=now, errored=errored)
        if errored:
            # Injected engine fault: work was done, response is an error —
            # the broker treats it like a refusal (retry/degrade path).
            self.errored_subqueries += 1
        else:
            self.completed_subqueries += 1
        self._idle += 1
        subquery.payload(not errored)
        if self._queue:
            self._dispatch()


class BrokerHost(_HostCore):
    """One broker: admission (policy under test) + round-walking engines."""

    def __init__(self, sim: Simulator, config: ClusterConfig, index: int,
                 policy_factory: PolicyFactory, shards: List[ShardHost],
                 metrics: "ClusterMetrics", rng: random.Random,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        super().__init__(sim, config, f"broker-{index}",
                         config.broker_processes, telemetry, fault_injector)
        self.index = index
        self._shards = shards
        self._metrics = metrics
        self._rng = rng
        self._resilience = resilience
        self._cost_for = config.cost_for
        self._gamma = config.broker_slowdown_gamma
        self._power = config.broker_slowdown_power
        self._timeout = (resilience.subquery_timeout
                         if resilience is not None else None)
        self.policy = policy_factory(self.ctx)

    def offer(self, query: Query) -> None:
        """Present an arriving query to this broker's admission policy."""
        now = self._clock._now
        query.arrival_time = now
        query.window = self._metrics.window
        if not self._admit(query, now):
            self._metrics.record_rejection(query, at_broker=True)

    def _start(self, query: Query, now: float) -> None:
        self._start_round(_QueryExecution(query, self._cost_for(query.qtype),
                                          self))

    # -- round protocol -----------------------------------------------------
    def _alternate_shard(self, avoid_index: int) -> ShardHost:
        choices = [s for s in self._shards if s.index != avoid_index]
        return choices[self._rng.randrange(len(choices))]

    def _start_round(self, execution: _QueryExecution) -> None:
        cost = execution.cost
        shards = self._shards
        targets: Sequence[ShardHost] = shards
        if cost.fanout == FANOUT_ONE:
            targets = (shards[self._rng.randrange(len(shards))],)
        execution.pending = len(targets)
        execution.round_successes = 0
        now = self._clock._now
        ctx = execution.query.span_ctx
        round_span = None
        if ctx is not None and ctx.execute is not None:
            round_span = execution.round_span = ctx.execute.child_span(
                "fanout_round", now,
                round=cost.rounds - execution.rounds_left + 1,
                targets=len(targets))
        res = self._resilience
        hedgeable = (res is not None and res.hedge_after is not None
                     and cost.fanout == FANOUT_ONE and len(shards) > 1)
        for shard in targets:
            sub = _SubQuery(execution, shard.index)
            if round_span is not None:
                sub.span = round_span.child_span("subquery", now,
                                                 shard=shard.index)
            self._launch(sub, shard)
            if hedgeable:
                self._sim._schedule_call(now + res.hedge_after,
                                         self._fire_hedge, sub)

    def _launch(self, sub: _SubQuery, shard: ShardHost,
                delay: float = 0.0, label: str = "shard_attempt") -> None:
        """Start one physical attempt (now, or after a retry backoff).

        ``label`` names the attempt span — ``shard_attempt`` for the
        original issue, ``retry``/``hedge`` for resilience reissues, so
        the critical-path breakdown attributes their full duration
        (backoff included) to the right category.
        """
        sub.outstanding += 1
        attempt_span = None
        if sub.span is not None:
            attempt_span = sub.span.child_span(
                label, self._clock._now, host=f"shard-{shard.index}",
                shard=shard.index)
        if delay > 0.0:
            self._sim.schedule_after(
                delay, lambda: self._issue_now(sub, shard, attempt_span))
        else:
            self._issue_now(sub, shard, attempt_span)

    def _issue_now(self, sub: _SubQuery, shard: ShardHost,
                   attempt_span: Optional[Any] = None) -> None:
        if sub.settled:
            # A hedge won while this retry was backing off.
            sub.outstanding -= 1
            if attempt_span is not None:
                attempt_span.finish(self._clock._now, status="cancelled")
            return
        execution = sub.execution
        service = execution.cost.sample_subquery(self._rng)
        if self._timeout is None:
            shard.offer(execution.query, service, sub.answer,
                        parent_span=attempt_span)
            return
        # Settle-once per attempt: the first of {shard answer, timeout}
        # wins and the loser is ignored, so a stalled shard's eventual
        # answer cannot count twice against the sub-query.
        attempt_done = [False]

        def answer(ok: bool) -> None:
            if not attempt_done[0]:
                attempt_done[0] = True
                sub.answer(ok)

        shard.offer(execution.query, service, answer,
                    parent_span=attempt_span)
        if not attempt_done[0] and not sub.settled:
            self._sim._schedule_call(self._clock._now + self._timeout,
                                     answer, False)

    def _fire_hedge(self, sub: _SubQuery) -> None:
        if sub.settled or sub.hedged:
            return
        sub.hedged = True
        self._metrics.hedges += 1
        if self._telemetry is not None:
            self._telemetry.on_hedge()
        self._launch(sub, self._alternate_shard(sub.primary),
                     label="hedge")

    def _attempt_failed(self, sub: _SubQuery) -> None:
        """An attempt was refused, errored or timed out: retry it, or settle
        the sub-query failed once no attempt is left in flight."""
        execution = sub.execution
        res = self._resilience
        if res is not None and sub.retries_used < res.max_subquery_retries:
            # Retry after a short backoff.  fanout='one' fails over to a
            # different shard (any replica can answer); fanout='all' must
            # re-ask the same shard — its partition lives nowhere else.
            sub.retries_used += 1
            self._metrics.retries += 1
            if self._telemetry is not None:
                self._telemetry.on_retry()
            if execution.cost.fanout == FANOUT_ONE and len(self._shards) > 1:
                shard = self._alternate_shard(sub.primary)
            else:
                shard = self._shards[sub.primary]
            self._launch(sub, shard,
                         delay=res.retry_backoff * sub.retries_used,
                         label="retry")
            return
        if sub.outstanding > 0:
            return  # a hedge (or backed-off retry) is still in flight
        sub.settled = True
        if sub.span is not None:
            sub.span.finish(self._clock._now, status="failed")
            sub.span = None
        execution.failed = True
        execution.pending -= 1
        if execution.pending == 0:
            self._merge(execution)

    def _merge(self, execution: _QueryExecution) -> None:
        """Every sub-query of the round settled: pay the merge cost, inflated
        by how busy this broker is (CPU interference between its engines)."""
        now = self._clock._now
        busy = (self._processes - self._idle) / self._processes
        overhead = execution.cost.broker_overhead * (
            1.0 + self._gamma * busy ** self._power)
        if self._faults is not None:
            overhead = self._faults.shape_service(
                overhead, execution.query, now, self._host)
        if execution.round_span is not None:
            execution.merge_span = execution.round_span.child_span(
                "merge", now, host=self._host)
        self._sim._schedule_call(now + overhead, self._after_merge, execution)

    def _after_merge(self, execution: _QueryExecution) -> None:
        now = self._clock._now
        if execution.merge_span is not None:
            execution.merge_span.finish(now)
            execution.merge_span = None
        if execution.round_span is not None:
            execution.round_span.finish(
                now, status="failed" if execution.failed else "ok")
            execution.round_span = None
        execution.rounds_left -= 1
        if execution.failed:
            res = self._resilience
            if (res is not None and res.degraded_ok
                    and execution.cost.fanout == FANOUT_ALL
                    and execution.round_successes > 0):
                # Partial fan-out: serve from the shards that answered
                # rather than failing the query outright.
                execution.failed = False
                execution.degraded = True
            else:
                self._finish(execution)
                return
        if execution.rounds_left == 0:
            self._finish(execution)
        else:
            self._start_round(execution)

    def _finish(self, execution: _QueryExecution) -> None:
        query = execution.query
        now = self._clock._now
        query.completed_at = now
        self._idle += 1
        telemetry = self._telemetry
        if execution.failed:
            # A shard refused a sub-query: the client sees an error, which
            # counts as a rejection attributed downstream.
            self._metrics.record_rejection(query, at_broker=False)
            if telemetry is not None:
                telemetry.span_complete(query, now, status="failed")
        else:
            dequeued = query.dequeued_at
            self.policy.on_completed(
                query, dequeued - query.enqueued_at,  # type: ignore[operator]
                now - dequeued)  # type: ignore[operator]
            self._metrics.record_completion(query, execution.degraded)
            if telemetry is not None:
                if execution.degraded:
                    telemetry.on_degraded()
                    telemetry.span_annotate(query, degraded=True)
                telemetry.on_completion(query, now=now)
        if self._queue:
            self._dispatch()


class ClusterMetrics(SampleStore):
    """Cluster-wide per-type outcome samples (measured at the brokers).

    Every :meth:`reset` opens a new measurement window; brokers stamp each
    arrival with the open window (``Query.window``), and an outcome counts
    only if its query carries the current stamp — a warm-up query that
    completes or fails after the window opened is not measured.
    """

    measures_wait = False

    def __init__(self) -> None:
        super().__init__()
        self.broker_rejections: Dict[str, int] = {}
        self.shard_rejections: Dict[str, int] = {}
        self.measure_start = 0.0
        #: Resilience counters (sub-query retries, hedges, and queries
        #: completed with partial fan-out results).
        self.retries = 0
        self.hedges = 0
        self.degraded = 0

    def record_completion(self, query: Query, degraded: bool = False) -> None:
        """A query was served (``degraded``: from partial fan-out)."""
        if query.window != self.window:
            return
        if degraded:
            self.degraded += 1
        samples = self._samples(query.qtype)
        samples.responses.append(query.response_time or 0.0)
        samples.procs.append(query.processing_time or 0.0)

    def record_rejection(self, query: Query, at_broker: bool) -> None:
        """A query was refused by its broker or failed downstream."""
        if query.window != self.window:
            return
        bucket = (self.broker_rejections if at_broker
                  else self.shard_rejections)
        bucket[query.qtype] = bucket.get(query.qtype, 0) + 1
        self._samples(query.qtype).rejected += 1

    def reset(self, now: float = 0.0) -> None:
        """Open the next measurement window at ``now`` (end of warm-up)."""
        self._next_window()
        self.broker_rejections.clear()
        self.shard_rejections.clear()
        self.measure_start = now
        self.retries = 0
        self.hedges = 0
        self.degraded = 0

    def measured_types(self) -> List[str]:
        """Sorted by name, not by first outcome: the cluster's reports
        list and pool types (the ALL row's means sum) in this order."""
        return sorted(self._per_type)

    def attainment(self, threshold: float) -> Dict[str, float]:
        """As the single host's, but a type with no completion (rejected
        or failed only) has no entry."""
        return self._attainment(threshold, [
            qtype for qtype in self.measured_types()
            if self._per_type[qtype].responses])


@dataclass
class ClusterReport:
    """Outcome of one cluster run, shaped like a single-host report."""

    policy_name: str
    rate_qps: float
    duration: float
    per_type: Dict[str, TypeStats]
    overall: TypeStats
    broker_rejections: int = 0
    shard_rejections: int = 0
    seed: Optional[int] = None
    #: Resilience accounting (nonzero only in fault-injected runs).
    retries: int = 0
    hedges: int = 0
    degraded: int = 0
    faults_injected: int = 0
    #: Per-type (plus ``"ALL"``) fraction of completed responses within
    #: the run's ``attainment_threshold``; empty when none was given.
    attainment: Dict[str, float] = field(default_factory=dict)

    def stats_for(self, qtype: Optional[str] = None) -> TypeStats:
        if qtype is None:
            return self.overall
        return self.per_type.get(qtype, TypeStats(qtype=qtype))

    def rejection_pct(self, qtype: Optional[str] = None) -> float:
        return self.stats_for(qtype).rejection_pct

    def response_percentile(self, qtype: Optional[str], p: float) -> float:
        return self.stats_for(qtype).response.get(p, 0.0)

    def processing_percentile(self, qtype: Optional[str], p: float) -> float:
        return self.stats_for(qtype).processing.get(p, 0.0)


class LiquidClusterSim:
    """Wires brokers and shards into one simulated cluster."""

    def __init__(self, sim: Simulator, config: ClusterConfig,
                 broker_policy_factory: PolicyFactory,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        self._sim = sim
        self.config = config
        self.metrics = ClusterMetrics()
        self.telemetry = telemetry
        self.fault_injector = fault_injector
        root_rng = random.Random(config.seed)
        # Each host records through a scoped view stamping its own host
        # label ("shard-0", "broker-2", ...) into the shared registry.
        self.shards = [ShardHost(sim, config, i,
                                 random.Random(root_rng.randrange(2 ** 32)),
                                 telemetry=(telemetry.scoped(f"shard-{i}")
                                            if telemetry else None),
                                 fault_injector=fault_injector)
                       for i in range(config.num_shards)]
        self.brokers = [BrokerHost(sim, config, i, broker_policy_factory,
                                   self.shards, self.metrics,
                                   random.Random(root_rng.randrange(2 ** 32)),
                                   telemetry=(telemetry.scoped(f"broker-{i}")
                                              if telemetry else None),
                                   fault_injector=fault_injector,
                                   resilience=resilience)
                        for i in range(config.num_brokers)]
        self._next_broker = 0

    def offer(self, query: Query) -> None:
        """Route an arriving query to a broker (round-robin balancing)."""
        broker = self.brokers[self._next_broker]
        self._next_broker = (self._next_broker + 1) % len(self.brokers)
        broker.offer(query)

    def reset_measurement(self, now: float = 0.0) -> None:
        self.metrics.reset(now)
        for broker in self.brokers:
            broker.policy.reset_stats()
        for shard in self.shards:
            shard.policy.reset_stats()
            shard.rejected_subqueries = 0
            shard.completed_subqueries = 0
            shard.errored_subqueries = 0


def run_cluster_simulation(config: ClusterConfig,
                           broker_policy_factory: PolicyFactory,
                           rate_qps: float, num_queries: int,
                           warmup_queries: Optional[int] = None,
                           seed: int = 1,
                           telemetry: Optional["Telemetry"] = None,
                           fault_injector: Optional["FaultInjector"] = None,
                           resilience: Optional[ResilienceConfig] = None,
                           attainment_threshold: Optional[float] = None
                           ) -> ClusterReport:
    """Drive the simulated cluster at ``rate_qps`` and report outcomes.

    Mirrors :func:`repro.sim.driver.run_simulation`: Poisson arrivals with
    pre-drawn types, a warm-up phase excluded from measurement, then
    ``num_queries`` measured arrivals and a full drain.  ``telemetry``
    (optional) receives per-host counters and decision traces from every
    broker and shard.  ``fault_injector`` (armed at measurement start, so
    plan windows are relative to the measured phase) injects faults at the
    hosts its plan targets; ``resilience`` turns on broker-side retry /
    hedging / graceful degradation; ``attainment_threshold`` additionally
    reports the fraction of completed responses within that many seconds.
    """
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if rate_qps <= 0:
        raise ConfigurationError("rate_qps must be > 0")
    if warmup_queries is None:
        warmup_queries = max(num_queries // 5, int(2.0 * rate_qps), 1000)
    total = warmup_queries + num_queries

    sim = Simulator()
    cluster = LiquidClusterSim(sim, config, broker_policy_factory,
                               telemetry=telemetry,
                               fault_injector=fault_injector,
                               resilience=resilience)
    arrival_rng = random.Random(seed)
    cumulative = list(accumulate(cost.proportion for cost in config.cost_table))
    cumulative[-1] = 1.0
    names = [cost.name for cost in config.cost_table]

    offered = 0

    def arrive(_arg: object = None) -> None:
        # ``_arg`` is unused; taking one parameter lets arrivals chain on
        # the simulator's handle-free ``_schedule_call`` path.
        nonlocal offered
        offered += 1
        if offered == warmup_queries + 1:
            # Open the measurement window before the first measured query.
            cluster.reset_measurement(sim.now)
            if fault_injector is not None:
                fault_injector.arm(sim.now)
        # The first type whose cumulative share reaches the draw.
        qtype = names[bisect_left(cumulative, arrival_rng.random())]
        cluster.offer(Query(qtype=qtype, arrival_time=sim.now))
        if offered < total:
            gap = arrival_rng.expovariate(rate_qps)
            sim._schedule_call(sim.now + gap, arrive, None)

    sim._schedule_call(sim.now + arrival_rng.expovariate(rate_qps),
                       arrive, None)
    sim.run()

    metrics = cluster.metrics
    return ClusterReport(
        policy_name=cluster.brokers[0].policy.name,
        rate_qps=rate_qps,
        duration=sim.now - metrics.measure_start,
        per_type=metrics.build_type_stats(),
        overall=metrics.build_overall_stats(),
        broker_rejections=sum(metrics.broker_rejections.values()),
        shard_rejections=sum(metrics.shard_rejections.values()),
        seed=seed,
        retries=metrics.retries,
        hedges=metrics.hedges,
        degraded=metrics.degraded,
        faults_injected=(fault_injector.total_injected()
                         if fault_injector is not None else 0),
        attainment=(metrics.attainment(attainment_threshold)
                    if attainment_threshold is not None else {}),
    )
