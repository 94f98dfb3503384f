"""The ``repro lint --dynamic`` workload: concurrency checks at runtime.

Static rules cannot see runtime acquisition order, event-loop stalls or
cross-process races, so the dynamic check drives the real components the
way the differential tests do, fully instrumented:

* **lockcheck** — the sim + threaded-runtime workload from PR 4, plus the
  asyncio side: every ``threading`` *and* ``asyncio`` lock constructed
  from repro code lands in one global lock graph; any cycle is a
  potential deadlock, reported with both acquisition stacks.
* **loopwatch** — a single-shard gateway worker is run *in this process*
  (its asyncio loop on a side thread) under a
  :class:`~repro.analysis.loopwatch.LoopWatch` while a decide burst and
  snapshot publishes drive it; any loop callback over budget fails the
  run.
* **gateway** — a two-shard :class:`~repro.gateway.GatewayServer` fleet
  (real ``spawn`` processes) serves interleaved publish/decide rounds,
  exercising the fork boundary and the shared-memory board end to end.
* **seqlock race** — a writer thread republishes epoch-stamped snapshot
  sets as fast as it can while this thread reads the board; any view
  mixing epochs is a torn read (the exact failure the seqlock exists to
  prevent).  ``buggy_writer=True`` seeds a write that skips the
  generation bumps, proving the harness *can* see a tear.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.types import Query
from .lockcheck import LockCheckRegistry, LockOrderViolation, install, uninstall
from .loopwatch import LoopWatch, StallEvent

#: Queries driven through each framework; small enough to finish in a
#: couple of seconds, large enough to exercise every metric-point lock.
_SIM_QUERIES = 2_000
_RUNTIME_QUERIES = 300

#: Publish/decide rounds against the spawned two-shard gateway fleet.
_GATEWAY_ROUNDS = 8
_GATEWAY_BATCH = 256

#: Rounds and batch size for the in-process monitored-loop worker.
_LOOP_ROUNDS = 6
_LOOP_BATCH = 64

#: Per-callback budget for the monitored loop, in seconds.  A healthy
#: worker callback (decide batch of 64) runs in well under a millisecond;
#: the generous budget keeps CI scheduler noise out of the signal while
#: still catching any real blocking call by orders of magnitude.
_LOOP_BUDGET = 0.25

#: Reader/writer race harness defaults.
_RACE_READS = 400
_RACE_PUBLISHES = 200


@dataclass(frozen=True)
class SeqlockRaceReport:
    """What the seqlock reader observed while the writer raced it."""

    #: Coherent views the reader obtained.
    reads: int
    #: Views that mixed snapshot epochs — torn reads (must be 0).
    torn: int
    #: Distinct publish epochs observed across all reads.
    generations: int


@dataclass
class DynamicCheckResult:
    """Everything ``repro lint --dynamic`` measured, one object."""

    registry: LockCheckRegistry
    stalls: List[StallEvent] = field(default_factory=list)
    race: Optional[SeqlockRaceReport] = None
    #: Decisions served by the spawned gateway fleet (``None`` when the
    #: gateway leg was skipped).
    gateway_decisions: Optional[int] = None
    #: Decisions served by the in-process monitored-loop worker.
    loop_decisions: Optional[int] = None
    loop_budget: float = _LOOP_BUDGET

    def problems(self) -> List[str]:
        """Human-readable failures; empty means the run is clean."""
        problems: List[str] = []
        for violation in self.registry.violations:
            problems.append(violation.format())
        for stall in self.stalls:
            problems.append(stall.format())
        if self.race is not None and self.race.torn:
            problems.append(
                f"seqlock race: {self.race.torn} torn read(s) out of "
                f"{self.race.reads} — the board published a view readers "
                f"can observe half-written")
        if self.loop_decisions == 0:
            problems.append("monitored-loop worker served no decisions")
        if self.gateway_decisions == 0:
            problems.append("gateway fleet served no decisions")
        return problems

    def ok(self) -> bool:
        return not self.problems()


def run_dynamic_check(seed: int = 11,
                      gateway: bool = True) -> DynamicCheckResult:
    """Run every instrumented workload; returns the combined result.

    ``gateway=False`` skips the spawned two-shard fleet (the slowest
    leg) — targeted tests use it to keep the in-process checks fast.
    """
    registry = install()
    result = DynamicCheckResult(registry=registry)
    try:
        _sim_workload(seed)
        _runtime_workload(seed)
        watch = LoopWatch(budget=_LOOP_BUDGET)
        watch.install()
        try:
            result.loop_decisions = _loop_workload(seed)
        finally:
            watch.uninstall()
        result.stalls = watch.stalls
        result.race = run_seqlock_race(seed)
        if gateway:
            result.gateway_decisions = _gateway_workload(seed)
    finally:
        uninstall()
    return result


def _sim_workload(seed: int) -> None:
    from ..bench import make_bouncer, simulation_mix
    from ..sim import run_simulation

    mix = simulation_mix()
    run_simulation(mix, make_bouncer(),
                   rate_qps=1.2 * mix.full_load_qps(50),
                   num_queries=_SIM_QUERIES, parallelism=50, seed=seed)


def _runtime_workload(seed: int) -> None:
    from ..bench import make_bouncer, simulation_mix
    from ..faults import (FaultInjector, FaultKind, FaultPlan, FaultSpec,
                          RetryConfig, RetryPolicy)
    from ..runtime import AdmissionServer, LoadGenerator
    from ..telemetry import DecisionTracer, Telemetry

    mix = simulation_mix()
    names = list(mix.type_names)

    def factory(rng: random.Random) -> Query:
        return Query(qtype=rng.choice(names))

    telemetry = Telemetry(tracer=DecisionTracer(sample_rate=0.25))
    # A mild probabilistic drop window keeps the injector's RLock ->
    # telemetry-registry nesting (the deepest lock chain in the tree) on
    # the exercised path.
    plan = FaultPlan(name="lockcheck-probe", seed=seed, specs=(
        FaultSpec(kind=FaultKind.QUEUE_DROP, start=0.0, probability=0.05),))
    server = AdmissionServer(make_bouncer(), handler=lambda query: None,
                             workers=4, telemetry=telemetry,
                             fault_injector=FaultInjector(plan, telemetry))
    server.start()
    try:
        retry = RetryPolicy(RetryConfig(max_retries=1, base_delay=0.001,
                                        max_delay=0.002), seed=seed)
        generator = LoadGenerator(server, factory, rate_qps=3_000.0,
                                  seed=seed, retry=retry, deadline=0.25)
        generator.run(_RUNTIME_QUERIES, result_timeout=10.0)
    finally:
        server.stop()


def _gateway_workload(seed: int) -> int:
    """Publish/decide rounds against a real two-shard spawned fleet."""
    from ..bench.gateway_perf import (GATEWAY_TYPES, build_policy_spec,
                                      build_publication)
    from ..gateway import GatewayServer

    rng = random.Random(seed)
    names = list(GATEWAY_TYPES)
    weights = [GATEWAY_TYPES[name][3] for name in names]
    decisions = 0
    server = GatewayServer(build_policy_spec(), shards=2)
    server.start()
    try:
        for round_index in range(_GATEWAY_ROUNDS):
            types, general = build_publication(round_index, seed)
            server.publish(types, general)
            qtypes = rng.choices(names, weights=weights, k=_GATEWAY_BATCH)
            decisions += len(server.decide_many(qtypes))
        server.collect_stats()
    finally:
        server.stop()
    return decisions


def _connect_with_retry(path: str, timeout: float = 30.0) -> socket.socket:
    from ..core.clock import MonotonicClock

    clock = MonotonicClock()
    deadline = clock.now() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if clock.now() > deadline:
                raise
            clock.sleep(0.02)


def _loop_workload(seed: int) -> int:
    """Drive a gateway worker's asyncio loop *in this process*.

    The worker's event loop runs on a side thread so the installed
    :class:`LoopWatch` times its callbacks; this thread plays the parent,
    publishing snapshots and sending decide frames over the unix socket.
    """
    from ..bench.gateway_perf import (GATEWAY_TYPES, build_policy_spec,
                                      build_publication)
    from ..gateway.snapshot import SnapshotBoard
    from ..gateway.worker import WorkerSpec, worker_main

    rng = random.Random(seed + 1)
    names = list(GATEWAY_TYPES)
    tmpdir = tempfile.mkdtemp(prefix="repro-lint-loop-")
    board = SnapshotBoard.create()
    spec = WorkerSpec(
        shard=0,
        socket_path=os.path.join(tmpdir, "shard-0.sock"),
        log_path=os.path.join(tmpdir, "decisions-0.log"),
        board_name=board.name,
        policy=build_policy_spec())
    worker = threading.Thread(target=worker_main, args=(spec,),
                              name="repro-lint-loop-worker", daemon=True)
    worker.start()
    decisions = 0
    try:
        conn = _connect_with_retry(spec.socket_path)
        stream = conn.makefile("rwb")
        try:
            for round_index in range(_LOOP_ROUNDS):
                types, general = build_publication(round_index, seed)
                board.publish(types, general)
                qtypes = rng.choices(names, k=_LOOP_BATCH)
                seq = round_index + 1
                frame = (f"d {seq} " + ",".join(qtypes) + "\n").encode("ascii")
                stream.write(frame)
                stream.flush()
                line = stream.readline()
                if not line.startswith(b"r %d " % seq):
                    raise RuntimeError(
                        f"monitored worker returned a bad frame: {line!r}")
                decisions += len(line.rsplit(b" ", 1)[1].rstrip(b"\n"))
            stream.write(b"x\n")
            stream.flush()
            stream.readline()
        finally:
            stream.close()
            conn.close()
    finally:
        worker.join(timeout=10.0)
        board.unlink()
        shutil.rmtree(tmpdir, ignore_errors=True)
    return decisions


def run_seqlock_race(seed: int = 11, reads: int = _RACE_READS,
                     publishes: int = _RACE_PUBLISHES,
                     buggy_writer: bool = False) -> SeqlockRaceReport:
    """Race a publisher against a reader on one snapshot board.

    Every publication stamps *all* its snapshots with one epoch, so a
    coherent view is uniform in epoch; a view mixing epochs is a torn
    read.  With ``buggy_writer=True`` one slot is rewritten *without*
    the generation bumps after a normal publish — the seeded bug the
    harness must detect (and the reason the seqlock protocol exists).
    """
    from ..core.histogram import LatencyHistogram
    from ..gateway.snapshot import (GENERAL_SLOT, _NAME_LEN, _SLOTS_OFF,
                                    SnapshotBoard)

    rng = random.Random(seed)
    type_names = ("alpha", "beta", "gamma", "delta")

    def publication(epoch: int) -> Tuple[Dict[str, object], object]:
        types = {}
        for name in type_names:
            hist = LatencyHistogram()
            for _ in range(8):
                hist.record(0.001 + rng.random() * 0.05)
            types[name] = hist.snapshot(epoch=epoch)
        general = LatencyHistogram()
        general.record(0.001 + rng.random() * 0.05)
        return types, general.snapshot(epoch=epoch)

    # Pre-built in this thread: the workload stays a pure function of the
    # seed even though publication order interleaves with reads.
    publications = [publication(epoch) for epoch in range(1, publishes + 1)]

    board = SnapshotBoard.create(slots=len(type_names) + 1)
    observed = 0
    torn = 0
    epochs_seen = set()
    try:
        if buggy_writer:
            types, general = publications[0]
            board.publish(types, general)  # type: ignore[arg-type]
            # The seeded bug: rewrite slot 0 with a different epoch,
            # skipping the odd/even generation bumps entirely.
            rogue_types, _ = publications[-1]
            rogue_name = next(iter(rogue_types))
            name_bytes = rogue_name.encode("utf-8")
            payload = rogue_types[rogue_name].to_bytes()  # type: ignore[attr-defined]
            buf = board._shm.buf
            # repro: allow=seqlock-discipline (this IS the seeded bug the harness must detect)
            _NAME_LEN.pack_into(buf, _SLOTS_OFF, len(name_bytes))
            start = _SLOTS_OFF + _NAME_LEN.size
            buf[start:start + len(name_bytes)] = name_bytes
            start += len(name_bytes)
            # repro: allow=seqlock-discipline (deliberately unprotected write; see above)
            buf[start:start + len(payload)] = payload
        stop = threading.Event()

        def publisher() -> None:
            for types, general in publications[1 if buggy_writer else 0:]:
                if stop.is_set():
                    break
                board.publish(types, general)  # type: ignore[arg-type]

        writer = threading.Thread(target=publisher, daemon=True,
                                  name="repro-seqlock-writer")
        if not buggy_writer:
            writer.start()
        try:
            for _ in range(reads):
                view = board.read()
                if view is None:
                    continue
                observed += 1
                epochs = {snapshot.epoch
                          for snapshot in view.types.values()}
                if view.general is not None:
                    epochs.add(view.general.epoch)
                if len(epochs) > 1:
                    torn += 1
                epochs_seen.update(epochs)
        finally:
            stop.set()
            if writer.is_alive():
                writer.join(timeout=10.0)
    finally:
        board.unlink()
    return SeqlockRaceReport(reads=observed, torn=torn,
                             generations=len(epochs_seen))


def render_dynamic_report(registry: LockCheckRegistry) -> str:
    """Text summary of one lock registry: coverage plus any violations."""
    violations: List[LockOrderViolation] = registry.violations
    lines = [f"dynamic lockcheck: {registry.edge_count()} lock-order "
             f"edge(s) observed, {len(violations)} violation(s)"]
    for violation in violations:
        lines.append(violation.format())
    return "\n".join(lines)


def render_check_report(result: DynamicCheckResult) -> str:
    """Text summary for the CLI: one line per instrument, then failures."""
    race = result.race
    lines = [render_dynamic_report(result.registry),
             f"dynamic loopwatch: {len(result.stalls)} stall(s) over "
             f"{result.loop_budget * 1e3:.0f} ms budget "
             f"({result.loop_decisions if result.loop_decisions is not None else 0} "
             f"decisions on the monitored loop)"]
    if race is not None:
        lines.append(f"seqlock race: {race.reads} coherent read(s), "
                     f"{race.generations} generation(s) observed, "
                     f"{race.torn} torn")
    if result.gateway_decisions is not None:
        lines.append(f"gateway fleet: {result.gateway_decisions} "
                     f"decision(s) across 2 shards")
    for problem in result.problems():
        if problem not in {v.format() for v in result.registry.violations}:
            lines.append(problem)
    return "\n".join(lines)
