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
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Sequence, Tuple)

from collections import deque

if TYPE_CHECKING:  # runtime import would cycle through repro.telemetry
    from ..faults import FaultInjector
    from ..telemetry import Telemetry

from .._stats import mean, percentiles
from ..core.baselines import AcceptFractionConfig, AcceptFractionPolicy
from ..core.context import HostContext
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import AdmissionResult, Query, RejectReason
from ..exceptions import ConfigurationError
from ..sim.report import REPORT_PERCENTILES, TypeStats
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

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1 for {self.name}")
        if self.fanout not in (FANOUT_ALL, FANOUT_ONE):
            raise ConfigurationError(
                f"fanout must be 'all' or 'one', got {self.fanout!r}")
        if self.subquery_median <= 0 or self.subquery_sigma < 0:
            raise ConfigurationError(
                f"invalid sub-query distribution for {self.name}")

    @property
    def subquery_mu(self) -> float:
        return math.log(self.subquery_median)

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
        names = [c.name for c in self.cost_table]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate query types: {names}")
        for attr in ("num_brokers", "num_shards", "broker_processes",
                     "shard_processes", "queue_cap"):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")

    def cost_for(self, qtype: str) -> QueryTypeCost:
        """The cost model entry for one query type (KeyError if absent)."""
        for cost in self.cost_table:
            if cost.name == qtype:
                return cost
        raise KeyError(qtype)

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
    all report through :meth:`BrokerHost._on_sub_outcome`; the first
    success — or the last failure once the retry budget and every
    in-flight attempt are spent — settles the logical sub-query toward
    its round.  Late responses from the losing attempt are ignored.
    """

    __slots__ = ("execution", "cost", "primary", "settled", "hedged",
                 "outstanding", "retries_used", "span")

    def __init__(self, execution: _QueryExecution,
                 primary: int) -> None:
        self.execution = execution
        self.cost = execution.cost
        self.primary = primary
        self.settled = False
        self.hedged = False
        self.outstanding = 0
        self.retries_used = 0
        # Open "subquery" span (child of the round span) for a sampled
        # query; physical attempts hang off it, closed at settle.
        self.span = None


class ShardHost:
    """One shard: c-server FIFO queue under AcceptFraction (§5.4 setup)."""

    def __init__(self, sim: Simulator, config: ClusterConfig,
                 index: int, rng: random.Random,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None) -> None:
        self._sim = sim
        self._config = config
        self.index = index
        self._rng = rng
        self._telemetry = telemetry
        self._faults = fault_injector
        self._host = f"shard-{index}"
        self._stall_wakeup_at: Optional[float] = None
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=sim.clock, queue=self.queue_view,
                               parallelism=config.shard_processes)
        if config.shard_policy_factory is not None:
            self.policy: AdmissionPolicy = config.shard_policy_factory(
                self.ctx)
        else:
            self.policy = AcceptFractionPolicy(
                self.ctx,
                AcceptFractionConfig(
                    max_utilization=config.shard_max_utilization,
                    processing_units=config.shard_processes),
                rng=random.Random(rng.randrange(2 ** 32)))
        self._queue: Deque[Tuple[Query, float, Callable[[bool], None]]] = (
            deque())
        self._idle = config.shard_processes
        self.rejected_subqueries = 0
        self.completed_subqueries = 0
        self.errored_subqueries = 0

    def offer(self, parent: Query, service_time: float,
              callback: Callable[[bool], None],
              parent_span: Optional[Any] = None) -> bool:
        """Submit one sub-query; ``callback(ok)`` fires on the outcome.

        Returns True when the sub-query was admitted.  A rejection invokes
        the callback immediately (the error response a real shard returns
        straight away).  ``parent_span`` (an open broker-side attempt
        span) is adopted: this shard's queue/execution/rejection spans
        land under it, and the shard closes it at the attempt's outcome.
        """
        now = self._sim.now
        subquery = Query(qtype=parent.qtype, arrival_time=now,
                         deadline=parent.deadline)
        if self._telemetry is not None and parent_span is not None:
            self._telemetry.span_adopt(subquery, parent_span)
        if self._faults is not None:
            # A blacked-out/crashed/lossy shard refuses before its policy
            # runs; the broker sees the failure immediately and may retry
            # elsewhere (the resilience path).
            override = self._faults.admission_override(subquery, now,
                                                       self._host)
            if override is not None:
                if self._telemetry is not None:
                    self._telemetry.on_decision(
                        subquery, override, now=now,
                        queue_length=self.queue_view.length(),
                        policy=self.policy)
                self.rejected_subqueries += 1
                callback(False)
                return False
        if self.queue_view.length() >= self._config.queue_cap:
            result = AdmissionResult.reject(RejectReason.QUEUE_FULL)
            self.policy.stats.record(subquery.qtype, result)
        else:
            result = self.policy.decide(subquery)
        if self._telemetry is not None:
            self._telemetry.on_decision(
                subquery, result, now=now,
                queue_length=self.queue_view.length(), policy=self.policy)
        if not result.accepted:
            self.rejected_subqueries += 1
            callback(False)
            return False
        subquery.enqueued_at = now
        self._queue.append((subquery, service_time, callback))
        self.queue_view.on_enqueue(subquery.qtype)
        self.policy.on_enqueued(subquery)
        self._dispatch()
        return True

    def _dispatch(self) -> None:
        while self._idle > 0 and self._queue:
            if self._faults is not None:
                stall_end = self._faults.stalled_until(self._sim.now,
                                                       self._host)
                if stall_end is not None:
                    # Engines frozen: defer dispatch until the stall window
                    # closes (one wake-up per window end, not per arrival).
                    if self._stall_wakeup_at != stall_end:
                        self._stall_wakeup_at = stall_end
                        self._faults.note_stall(self._sim.now, self._host)
                        self._sim.schedule_at(stall_end,
                                              self._resume_after_stall)
                    return
            subquery, service_time, callback = self._queue.popleft()
            now = self._sim.now
            subquery.dequeued_at = now
            self.queue_view.on_dequeue(subquery.qtype)
            self.policy.on_dequeued(subquery, subquery.wait_time or 0.0)
            if self._telemetry is not None:
                self._telemetry.on_dequeue(subquery, now=now)
            self._idle -= 1
            busy_fraction = ((self._config.shard_processes - self._idle)
                             / self._config.shard_processes)
            slowdown = 1.0 + (self._config.shard_slowdown_gamma
                              * busy_fraction
                              ** self._config.shard_slowdown_power)
            service = service_time * slowdown
            errored = False
            if self._faults is not None:
                service = self._faults.shape_service(service, subquery,
                                                     now, self._host)
                errored = self._faults.should_error(subquery, now,
                                                    self._host)
            # Handle-free scheduling: completions are never cancelled, so
            # skip the ScheduledEvent allocation and the closure.
            self._sim._schedule_call(now + service, self._complete_entry,
                                     (subquery, callback, errored))

    def _complete_entry(self, item: "Tuple[Query, Callable[[bool], None], "
                                    "bool]") -> None:
        subquery, callback, errored = item
        self._complete(subquery, callback, errored)

    def _resume_after_stall(self) -> None:
        self._stall_wakeup_at = None
        self._dispatch()

    def _complete(self, subquery: Query, callback: Callable[[bool], None],
                  errored: bool = False) -> None:
        subquery.completed_at = self._sim.now
        self.policy.on_completed(subquery, subquery.wait_time or 0.0,
                                 subquery.processing_time or 0.0)
        if self._telemetry is not None:
            if errored:
                self._telemetry.span_mark_fault(subquery, "engine_error",
                                                self._sim.now)
            self._telemetry.on_completion(subquery, now=self._sim.now,
                                          errored=errored)
        if errored:
            # Injected engine fault: work was done, response is an error —
            # the broker treats it like a refusal (retry/degrade path).
            self.errored_subqueries += 1
        else:
            self.completed_subqueries += 1
        self._idle += 1
        callback(not errored)
        self._dispatch()


class BrokerHost:
    """One broker: admission (policy under test) + round-walking engines."""

    def __init__(self, sim: Simulator, config: ClusterConfig, index: int,
                 policy_factory: PolicyFactory, shards: List[ShardHost],
                 metrics: "ClusterMetrics", rng: random.Random,
                 telemetry: Optional["Telemetry"] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        self._sim = sim
        self._config = config
        self.index = index
        self._shards = shards
        self._metrics = metrics
        self._rng = rng
        self._telemetry = telemetry
        self._faults = fault_injector
        self._resilience = resilience
        self._host = f"broker-{index}"
        self._stall_wakeup_at: Optional[float] = None
        self.queue_view = QueueView()
        self.ctx = HostContext(clock=sim.clock, queue=self.queue_view,
                               parallelism=config.broker_processes)
        self.policy = policy_factory(self.ctx)
        self._queue: Deque[Query] = deque()
        self._idle = config.broker_processes

    def offer(self, query: Query) -> None:
        """Present an arriving query to this broker's admission policy."""
        now = self._sim.now
        query.arrival_time = now
        if self._faults is not None:
            override = self._faults.admission_override(query, now,
                                                       self._host)
            if override is not None:
                if self._telemetry is not None:
                    self._telemetry.on_decision(
                        query, override, now=now,
                        queue_length=self.queue_view.length(),
                        policy=self.policy)
                self._metrics.record_rejection(query.qtype, at_broker=True)
                return
        if self.queue_view.length() >= self._config.queue_cap:
            result = AdmissionResult.reject(RejectReason.QUEUE_FULL)
            self.policy.stats.record(query.qtype, result)
        else:
            result = self.policy.decide(query)
        if self._telemetry is not None:
            self._telemetry.on_decision(
                query, result, now=now,
                queue_length=self.queue_view.length(), policy=self.policy)
        if not result.accepted:
            self._metrics.record_rejection(query.qtype, at_broker=True)
            return
        query.enqueued_at = now
        self._queue.append(query)
        self.queue_view.on_enqueue(query.qtype)
        self.policy.on_enqueued(query)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle > 0 and self._queue:
            if self._faults is not None:
                stall_end = self._faults.stalled_until(self._sim.now,
                                                       self._host)
                if stall_end is not None:
                    if self._stall_wakeup_at != stall_end:
                        self._stall_wakeup_at = stall_end
                        self._faults.note_stall(self._sim.now, self._host)
                        self._sim.schedule_at(stall_end,
                                              self._resume_after_stall)
                    return
            query = self._queue.popleft()
            query.dequeued_at = self._sim.now
            self.queue_view.on_dequeue(query.qtype)
            self.policy.on_dequeued(query, query.wait_time or 0.0)
            if self._telemetry is not None:
                self._telemetry.on_dequeue(query, now=self._sim.now)
            self._idle -= 1
            execution = _QueryExecution(query, self._config.cost_for(
                query.qtype), self)
            self._start_round(execution)

    def _resume_after_stall(self) -> None:
        self._stall_wakeup_at = None
        self._dispatch()

    # -- round protocol -----------------------------------------------------
    def _target_shards(self, cost: QueryTypeCost) -> List[ShardHost]:
        if cost.fanout == FANOUT_ALL:
            return self._shards
        return [self._shards[self._rng.randrange(len(self._shards))]]

    def _alternate_shard(self, avoid_index: int) -> ShardHost:
        choices = [s for s in self._shards if s.index != avoid_index]
        return choices[self._rng.randrange(len(choices))]

    def _start_round(self, execution: _QueryExecution) -> None:
        targets = self._target_shards(execution.cost)
        execution.pending = len(targets)
        execution.round_successes = 0
        ctx = execution.query.span_ctx
        if ctx is not None and ctx.execute is not None:
            execution.round_span = ctx.execute.child_span(
                "fanout_round", self._sim.now,
                round=execution.cost.rounds - execution.rounds_left + 1,
                targets=len(targets))
        res = self._resilience
        hedgeable = (res is not None and res.hedge_after is not None
                     and execution.cost.fanout == FANOUT_ONE
                     and len(self._shards) > 1)
        for shard in targets:
            sub = _SubQuery(execution, shard.index)
            if execution.round_span is not None:
                sub.span = execution.round_span.child_span(
                    "subquery", self._sim.now, shard=shard.index)
            self._launch(sub, shard)
            if hedgeable:
                self._sim._schedule_call(self._sim.now + res.hedge_after,
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
                label, self._sim.now, host=f"shard-{shard.index}",
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
                attempt_span.finish(self._sim.now, status="cancelled")
            return
        service = sub.cost.sample_subquery(self._rng)
        res = self._resilience
        # Per-attempt settle: the first of {shard response, timeout} wins;
        # the loser is ignored, so a stalled shard's eventual answer cannot
        # double-count against the sub-query's bookkeeping.
        attempt_done = [False]

        def on_outcome(ok: bool) -> None:
            if attempt_done[0]:
                return
            attempt_done[0] = True
            self._on_sub_outcome(sub, ok)

        shard.offer(sub.execution.query, service, on_outcome,
                    parent_span=attempt_span)
        if (not attempt_done[0] and not sub.settled
                and res is not None and res.subquery_timeout is not None):
            self._sim._schedule_call(
                self._sim.now + res.subquery_timeout, on_outcome, False)

    def _fire_hedge(self, sub: _SubQuery) -> None:
        if sub.settled or sub.hedged:
            return
        sub.hedged = True
        self._metrics.hedges += 1
        if self._telemetry is not None:
            self._telemetry.on_hedge()
        self._launch(sub, self._alternate_shard(sub.primary),
                     label="hedge")

    def _on_sub_outcome(self, sub: _SubQuery, ok: bool) -> None:
        sub.outstanding -= 1
        if sub.settled:
            return  # another attempt already settled this sub-query
        if ok:
            sub.settled = True
            if sub.span is not None:
                sub.span.finish(self._sim.now)
                sub.span = None
            self._settle_sub(sub.execution, failed=False)
            return
        res = self._resilience
        if res is not None and sub.retries_used < res.max_subquery_retries:
            # Retry after a short backoff.  fanout='one' fails over to a
            # different shard (any replica can answer); fanout='all' must
            # re-ask the same shard — its partition lives nowhere else.
            sub.retries_used += 1
            self._metrics.retries += 1
            if self._telemetry is not None:
                self._telemetry.on_retry()
            if sub.cost.fanout == FANOUT_ONE and len(self._shards) > 1:
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
            sub.span.finish(self._sim.now, status="failed")
            sub.span = None
        self._settle_sub(sub.execution, failed=True)

    def _settle_sub(self, execution: _QueryExecution, failed: bool) -> None:
        if failed:
            execution.failed = True
        else:
            execution.round_successes += 1
        execution.pending -= 1
        if execution.pending > 0:
            return
        # Round finished: pay the broker-local merge cost, inflated by how
        # busy this broker host is (CPU interference between its engines).
        busy_fraction = ((self._config.broker_processes - self._idle)
                         / self._config.broker_processes)
        slowdown = 1.0 + (self._config.broker_slowdown_gamma
                          * busy_fraction
                          ** self._config.broker_slowdown_power)
        overhead = execution.cost.broker_overhead * slowdown
        if self._faults is not None:
            overhead = self._faults.shape_service(
                overhead, execution.query, self._sim.now, self._host)
        if execution.round_span is not None:
            execution.merge_span = execution.round_span.child_span(
                "merge", self._sim.now, host=self._host)
        self._sim._schedule_call(self._sim.now + overhead,
                                 self._after_merge, execution)

    def _after_merge(self, execution: _QueryExecution) -> None:
        if execution.merge_span is not None:
            execution.merge_span.finish(self._sim.now)
            execution.merge_span = None
        if execution.round_span is not None:
            execution.round_span.finish(
                self._sim.now,
                status="failed" if execution.failed else "ok")
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
        query.completed_at = self._sim.now
        self._idle += 1
        if execution.failed:
            # A shard refused a sub-query: the client sees an error, which
            # counts as a rejection attributed downstream.
            self._metrics.record_rejection(query.qtype, at_broker=False)
            if self._telemetry is not None:
                self._telemetry.span_complete(query, self._sim.now,
                                              status="failed")
        else:
            self.policy.on_completed(query, query.wait_time or 0.0,
                                     query.processing_time or 0.0)
            if execution.degraded:
                self._metrics.degraded += 1
                if self._telemetry is not None:
                    self._telemetry.on_degraded()
                    self._telemetry.span_annotate(query, degraded=True)
            self._metrics.record_completion(query)
            if self._telemetry is not None:
                self._telemetry.on_completion(query, now=self._sim.now)
        self._dispatch()


class ClusterMetrics:
    """Cluster-wide per-type outcome samples (measured at the brokers)."""

    def __init__(self) -> None:
        self.responses: Dict[str, List[float]] = {}
        self.processing: Dict[str, List[float]] = {}
        self.broker_rejections: Dict[str, int] = {}
        self.shard_rejections: Dict[str, int] = {}
        self.measure_start = 0.0
        #: Resilience counters (sub-query retries, hedges, and queries
        #: completed with partial fan-out results).
        self.retries = 0
        self.hedges = 0
        self.degraded = 0

    def record_completion(self, query: Query) -> None:
        if query.arrival_time < self.measure_start:
            # Warm-up stray completing after the measurement window opened.
            return
        qtype = query.qtype
        self.responses.setdefault(qtype, []).append(
            query.response_time or 0.0)
        self.processing.setdefault(qtype, []).append(
            query.processing_time or 0.0)

    def record_rejection(self, qtype: str, at_broker: bool) -> None:
        bucket = (self.broker_rejections if at_broker
                  else self.shard_rejections)
        bucket[qtype] = bucket.get(qtype, 0) + 1

    def reset(self, now: float = 0.0) -> None:
        self.responses.clear()
        self.processing.clear()
        self.broker_rejections.clear()
        self.shard_rejections.clear()
        self.measure_start = now
        self.retries = 0
        self.hedges = 0
        self.degraded = 0

    def attainment(self, threshold: float) -> Dict[str, float]:
        """Fraction of completed responses at or under ``threshold``,
        per type plus pooled under ``"ALL"`` (empty types report 0)."""
        out: Dict[str, float] = {}
        total = 0
        within = 0
        for qtype, responses in sorted(self.responses.items()):
            hits = sum(1 for r in responses if r <= threshold)
            out[qtype] = hits / len(responses) if responses else 0.0
            total += len(responses)
            within += hits
        out["ALL"] = within / total if total else 0.0
        return out

    def _measured_types(self) -> List[str]:
        """Types with any outcome, sorted: set order follows the process's
        string-hash seed, and the pooled means sum in this order."""
        return sorted(set(self.responses) | set(self.broker_rejections)
                      | set(self.shard_rejections))

    def build_type_stats(self) -> Dict[str, TypeStats]:
        stats: Dict[str, TypeStats] = {}
        for qtype in self._measured_types():
            responses = self.responses.get(qtype, [])
            procs = self.processing.get(qtype, [])
            rejected = (self.broker_rejections.get(qtype, 0)
                        + self.shard_rejections.get(qtype, 0))
            stats[qtype] = TypeStats(
                qtype=qtype,
                completed=len(responses),
                rejected=rejected,
                response=percentiles(responses, REPORT_PERCENTILES),
                processing=percentiles(procs, REPORT_PERCENTILES),
                response_mean=mean(responses),
                processing_mean=mean(procs),
            )
        return stats

    def build_overall_stats(self) -> TypeStats:
        pooled_rt: List[float] = []
        pooled_pt: List[float] = []
        rejected = 0
        for qtype in self._measured_types():
            pooled_rt.extend(self.responses.get(qtype, []))
            pooled_pt.extend(self.processing.get(qtype, []))
            rejected += (self.broker_rejections.get(qtype, 0)
                         + self.shard_rejections.get(qtype, 0))
        return TypeStats(
            qtype="ALL",
            completed=len(pooled_rt),
            rejected=rejected,
            response=percentiles(pooled_rt, REPORT_PERCENTILES),
            processing=percentiles(pooled_pt, REPORT_PERCENTILES),
            response_mean=mean(pooled_rt),
            processing_mean=mean(pooled_pt),
        )


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
    cumulative: List[float] = []
    running = 0.0
    for cost in config.cost_table:
        running += cost.proportion
        cumulative.append(running)
    cumulative[-1] = 1.0
    names = [cost.name for cost in config.cost_table]

    offered = 0
    measure_start = [0.0]

    def next_query(now: float) -> Query:
        draw = arrival_rng.random()
        idx = 0
        while cumulative[idx] < draw:
            idx += 1
        return Query(qtype=names[idx], arrival_time=now)

    def arrive(_arg: object = None) -> None:
        # ``_arg`` is unused; taking one parameter lets arrivals chain on
        # the simulator's handle-free ``_schedule_call`` path.
        nonlocal offered
        offered += 1
        if offered == warmup_queries + 1:
            # Open the measurement window before the first measured query.
            cluster.reset_measurement(sim.now)
            measure_start[0] = sim.now
            if fault_injector is not None:
                fault_injector.arm(sim.now)
        cluster.offer(next_query(sim.now))
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
        duration=sim.now - measure_start[0],
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
