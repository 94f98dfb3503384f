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

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # runtime import would cycle through repro.telemetry
    from ..faults import FaultInjector
    from ..telemetry.hub import Telemetry

from ..core.types import Query
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
                   burst: int = 1) -> SimulationReport:
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
        historical per-query arrival stream exactly.  A same-instant burst
        goes through :meth:`~repro.sim.server.SimulatedServer.offer_many`
        (one ``decide_many`` call), a lone arrival through
        :meth:`~repro.sim.server.SimulatedServer.offer`.
    """
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if burst < 1:
        raise ConfigurationError("burst must be >= 1")
    if warmup_queries is None:
        warmup_queries = max(num_queries // 5, int(2.0 * rate_qps), 1000)
    total = warmup_queries + num_queries

    sim = Simulator()
    server = SimulatedServer(sim, parallelism, policy_factory,
                             on_decision=on_decision, telemetry=telemetry,
                             fault_injector=fault_injector)
    schedule = ArrivalSchedule(mix, rate_qps, seed=seed, burst=burst)
    offered = 0
    utilization = 0.0

    def begin_measurement() -> None:
        # Open the window before offering the first measured query so its
        # outcome is included and every warm-up one isn't.
        server.reset_measurement()
        if fault_injector is not None:
            fault_injector.arm(sim.now)

    def freeze_utilization() -> None:
        # Read at the last arrival so the post-run drain does not dilute
        # (or inflate) the measurement.
        nonlocal utilization
        utilization = server.metrics.utilization(sim.now, parallelism)

    # Arrivals are pre-generated in chunks, and each arrival event chains
    # the next through ``_schedule_call`` (no per-arrival closure or
    # cancellation handle).  Chaining — not bulk-scheduling the chunk —
    # gives each arrival a sequence number behind the events its
    # predecessor caused, which is how same-instant ties have always
    # resolved.
    chunks = schedule.iter_chunks(_CHUNK_SIZE)
    buffer: List[Query] = []
    pos = 0
    schedule_call = sim._schedule_call

    def arrive_one(query: Query) -> None:
        # One arrival per instant is one ``decide``, never a batch of one.
        nonlocal offered, buffer, pos
        offered += 1
        if offered == warmup_queries + 1:
            begin_measurement()
        server.offer(query)
        if offered == total:
            freeze_utilization()
            return
        if pos == len(buffer):
            buffer = next(chunks)
            pos = 0
        nxt = buffer[pos]
        pos += 1
        schedule_call(nxt.arrival_time, arrive_one, nxt)

    def next_burst() -> List[Query]:
        nonlocal buffer, pos
        # Chunks hold whole bursts, so a burst never straddles two.
        if pos == len(buffer):
            buffer = next(chunks)
            pos = 0
        queries = buffer[pos:pos + burst]
        pos += burst
        del queries[total - offered:]  # the run may end mid-burst
        return queries

    def arrive_burst(queries: List[Query]) -> None:
        # A burst straddling the warm-up boundary is split so the reset
        # lands between the last warm-up query and the first measured one
        # — the instant the one-at-a-time path resets at.
        nonlocal offered
        if offered < warmup_queries < offered + len(queries):
            split = warmup_queries - offered
            server.offer_many(queries[:split])
            offered += split
            queries = queries[split:]
        if offered == warmup_queries:
            begin_measurement()
        server.offer_many(queries)
        offered += len(queries)
        if offered == total:
            freeze_utilization()
        else:
            nxt = next_burst()
            schedule_call(nxt[0].arrival_time, arrive_burst, nxt)

    if burst == 1:
        buffer = next(chunks)
        pos = 1
        schedule_call(buffer[0].arrival_time, arrive_one, buffer[0])
    else:
        first_burst = next_burst()
        schedule_call(first_burst[0].arrival_time, arrive_burst, first_burst)
    sim.run()

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
        utilization=utilization,
        per_type=per_type,
        overall=overall,
        offered=num_queries,
        seed=seed,
        attainment=(server.metrics.attainment(attainment_threshold)
                    if attainment_threshold is not None else {}),
    )
