"""End-to-end single-host simulation runs (the paper's §5.3 methodology).

:func:`run_simulation` wires a workload, a policy, and a simulated host
together: it generates Poisson arrivals at the requested rate, runs a
warm-up phase whose outcomes are discarded ("preceded by a warm-up phase to
avoid capturing cold start effects", §5.3), measures the remaining queries,
drains the system, and returns a :class:`~repro.sim.report.SimulationReport`.

Identical seeds produce identical arrival sequences regardless of the
policy under test, so policy comparisons see the same incoming traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

if TYPE_CHECKING:  # runtime import would cycle through repro.telemetry
    from ..faults import FaultInjector
    from ..telemetry import Telemetry

from ..core.types import Query, QueryPool
from ..exceptions import ConfigurationError
from .report import SimulationReport
from .server import DecisionHook, PolicyFactory, SimulatedServer
from .simulator import Simulator
from .workload import ArrivalSchedule, WorkloadMix

#: Queries pre-generated per workload chunk (see
#: :meth:`~repro.sim.workload.ArrivalSchedule.iter_chunks`).
_CHUNK_SIZE = 1024


def run_simulation(mix: WorkloadMix, policy_factory: PolicyFactory,
                   rate_qps: float, num_queries: int,
                   parallelism: int = 100,
                   warmup_queries: Optional[int] = None,
                   seed: int = 1,
                   on_decision: Optional[DecisionHook] = None,
                   telemetry: Optional["Telemetry"] = None,
                   fault_injector: Optional["FaultInjector"] = None,
                   attainment_threshold: Optional[float] = None,
                   burst: int = 1,
                   batched_admission: Optional[bool] = None,
                   chunked_workload: bool = True,
                   query_pooling: Optional[bool] = None
                   ) -> SimulationReport:
    """Simulate one policy under one traffic rate and report the outcome.

    Parameters
    ----------
    mix:
        The query mix (types, proportions, processing-time distributions).
    policy_factory:
        Builds the admission policy from the host context (clock, queue
        view, parallelism).
    rate_qps:
        Mean arrival rate of the Poisson process.
    num_queries:
        Queries generated *after* warm-up (the measured population).
    parallelism:
        ``P``, the number of query engine processes (paper: 100).
    warmup_queries:
        Queries offered before measurement starts; defaults to the larger
        of 20% of ``num_queries`` and two seconds of traffic, so histograms
        publish and the cold-start backlog drains before measurement at
        every rate the paper sweeps.
    seed:
        Workload RNG seed.  Policies with internal randomness derive their
        own seeds; pass a seeded policy factory for full determinism.
    on_decision:
        Optional per-decision hook (receives simulated time, the query, and
        the result) for time-series experiments such as Figure 3.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink forwarded to the
        simulated host; attach a tracer to capture per-query decision
        traces of the run (warm-up included — filter on timestamps if
        needed).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Armed at the
        first measured arrival (if not armed already), so the plan's
        windows are relative to the start of the measured phase.
    attainment_threshold:
        When set, the report's ``attainment`` maps each type (plus
        ``"ALL"``) to the fraction of completed responses within this many
        seconds — the SLO-attainment measure the chaos harness compares.
    burst:
        Arrivals per Poisson instant (see
        :class:`~repro.sim.workload.ArrivalSchedule`); 1 reproduces the
        historical per-query arrival stream exactly.
    batched_admission:
        With ``burst > 1``, route each burst through
        :meth:`~repro.sim.server.SimulatedServer.offer_many` (one
        ``decide_many`` call per same-instant burst) instead of per-query
        ``offer`` calls; with ``burst == 1`` every arrival is one
        :meth:`~repro.sim.server.SimulatedServer.offer` either way.
        Defaults to ``True``; both routes are bit-identical (the batch-arm
        differential guard in ``tests/test_batch_differential.py``
        compares them end to end), so the knob exists for that
        comparison, not for behavioural choice.
    chunked_workload:
        Pre-generate arrivals in blocks through
        :meth:`~repro.sim.workload.ArrivalSchedule.iter_chunks` instead of
        one query at a time.  Bit-identical either way (same RNG stream,
        same order); ``False`` is the differential reference arm.
    query_pooling:
        Recycle ``Query`` objects through a
        :class:`~repro.core.types.QueryPool` (workload acquires, host
        releases at each terminal point).  Defaults to on exactly when
        nothing can retain a query past its terminal point: chunked
        generation active and no ``on_decision`` hook or telemetry sink
        attached.
    """
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if burst < 1:
        raise ConfigurationError("burst must be >= 1")
    if batched_admission is None:
        batched_admission = True
    if query_pooling is None:
        query_pooling = (chunked_workload and on_decision is None
                         and telemetry is None)
    if warmup_queries is None:
        warmup_queries = max(num_queries // 5, int(2.0 * rate_qps), 1000)
    total = warmup_queries + num_queries
    pool = QueryPool() if query_pooling else None

    sim = Simulator()
    server = SimulatedServer(sim, parallelism, policy_factory,
                             on_decision=on_decision, telemetry=telemetry,
                             fault_injector=fault_injector,
                             query_pool=pool)
    schedule = ArrivalSchedule(mix, rate_qps, seed=seed, burst=burst)
    offered = 0
    generated = 0
    utilization = [0.0]

    def begin_measurement() -> None:
        # Open the window before offering the first measured query so its
        # outcome is included and every warm-up one isn't.
        server.reset_measurement()
        if fault_injector is not None:
            fault_injector.arm(sim.now)

    if chunked_workload:
        # Chunk-buffered arrivals on the handle-free scheduling path:
        # queries are pre-generated in blocks and each arrival event
        # chains the next through ``_schedule_call`` (no per-arrival
        # closure or cancellation handle).  Chaining — not bulk-scheduling
        # the whole chunk — preserves the exact event sequence-number
        # order of the per-query path, so ties resolve identically.
        chunk_iter = schedule.iter_chunks(_CHUNK_SIZE, pool=pool)
        buffer = next(chunk_iter)
        buflen = len(buffer)
        pos = 0
        schedule_call = sim._schedule_call
        measure_at = warmup_queries + 1

        if burst == 1:
            def arrive_one(query: Query) -> None:
                nonlocal offered, buffer, buflen, pos
                offered += 1
                if offered == measure_at:
                    begin_measurement()
                server.offer(query)
                if offered != total:
                    if pos == buflen:
                        buffer = next(chunk_iter)
                        buflen = len(buffer)
                        pos = 0
                    nxt = buffer[pos]
                    pos += 1
                    schedule_call(nxt.arrival_time, arrive_one, nxt)
                else:
                    # Freeze utilization at the last arrival so the
                    # post-run drain does not dilute the measurement.
                    utilization[0] = server.metrics.utilization(
                        sim.now, parallelism)

            first = buffer[0]
            pos = 1
            schedule_call(first.arrival_time, arrive_one, first)
        else:
            def next_chunked_burst() -> List[Query]:
                nonlocal buffer, buflen, pos, generated
                # Chunks hold whole bursts, so a burst never straddles.
                if pos == buflen:
                    buffer = next(chunk_iter)
                    buflen = len(buffer)
                    pos = 0
                queries = buffer[pos:pos + burst]
                pos += burst
                remaining = total - generated
                if len(queries) > remaining:
                    del queries[remaining:]
                generated += len(queries)
                return queries

            def arrive_chunked_burst(queries: List[Query]) -> None:
                # Offer the burst in measurement-window segments: a burst
                # straddling the warm-up boundary is split so the reset
                # lands between the last warm-up query and the first
                # measured one — the instant the per-query path resets at.
                nonlocal offered
                index = 0
                while index < len(queries):
                    if offered == warmup_queries:
                        begin_measurement()
                    if offered < warmup_queries:
                        length = min(len(queries) - index,
                                     warmup_queries - offered)
                    else:
                        length = len(queries) - index
                    segment = queries[index:index + length]
                    if batched_admission:
                        server.offer_many(segment)
                    else:
                        for query in segment:
                            server.offer(query)
                    offered += length
                    index += length
                if offered == total:
                    utilization[0] = server.metrics.utilization(
                        sim.now, parallelism)
                else:
                    nxt = next_chunked_burst()
                    schedule_call(nxt[0].arrival_time,
                                  arrive_chunked_burst, nxt)

            first_burst = next_chunked_burst()
            schedule_call(first_burst[0].arrival_time,
                          arrive_chunked_burst, first_burst)
        sim.run()
    else:
        arrivals: Iterator[Query] = iter(schedule)

        def finish_or_continue() -> None:
            if offered == total:
                # Freeze utilization at the last arrival so the post-run
                # drain does not dilute (or inflate) the measurement.
                utilization[0] = server.metrics.utilization(
                    sim.now, parallelism)
            else:
                nxt = next_burst()
                sim.schedule_at(nxt[0].arrival_time,
                                lambda: arrive_burst(nxt))

        def arrive(query: Query) -> None:
            nonlocal offered
            offered += 1
            if offered == warmup_queries + 1:
                begin_measurement()
            server.offer(query)
            if offered == total:
                utilization[0] = server.metrics.utilization(
                    sim.now, parallelism)
            else:
                nxt = next(arrivals)
                sim.schedule_at(nxt.arrival_time, lambda: arrive(nxt))

        def next_burst() -> List[Query]:
            nonlocal generated
            queries: List[Query] = []
            while len(queries) < burst and generated < total:
                queries.append(next(arrivals))
                generated += 1
            return queries

        def arrive_burst(queries: List[Query]) -> None:
            # Offer the burst in measurement-window segments: a burst that
            # straddles the warm-up boundary is split so the reset lands
            # between the last warm-up query and the first measured one —
            # the same instant the per-query path resets at.
            nonlocal offered
            index = 0
            while index < len(queries):
                if offered == warmup_queries:
                    begin_measurement()
                if offered < warmup_queries:
                    length = min(len(queries) - index,
                                 warmup_queries - offered)
                else:
                    length = len(queries) - index
                segment = queries[index:index + length]
                if batched_admission:
                    server.offer_many(segment)
                else:
                    for query in segment:
                        server.offer(query)
                offered += length
                index += length
            finish_or_continue()

        if burst == 1:
            # One arrival per instant is one ``decide``, never a batch of
            # one (the historical per-query path, byte-for-byte).
            first = next(arrivals)
            sim.schedule_at(first.arrival_time, lambda: arrive(first))
        else:
            burst_queries = next_burst()
            sim.schedule_at(burst_queries[0].arrival_time,
                            lambda: arrive_burst(burst_queries))
        sim.run()

    server.flush_telemetry()
    measure_end = max(server.metrics.last_arrival,
                      server.metrics.start_time)
    duration = measure_end - server.metrics.start_time
    per_type = server.metrics.build_type_stats()
    overall = server.metrics.build_overall_stats()
    return SimulationReport(
        policy_name=server.policy.name,
        rate_qps=rate_qps,
        parallelism=parallelism,
        duration=duration,
        utilization=utilization[0],
        per_type=per_type,
        overall=overall,
        offered=num_queries,
        seed=seed,
        attainment=(server.metrics.attainment(attainment_threshold)
                    if attainment_threshold is not None else {}),
    )
