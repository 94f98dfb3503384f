"""The gateway parent: worker fleet, snapshot board, and client API.

:class:`GatewayServer` is the multi-process sibling of
:class:`~repro.runtime.AdmissionServer`: where the threaded server scales
query *execution* across worker threads behind one policy, the gateway
scales admission *decisions* across worker processes, each owning a
consistent-hash shard of query types.  The division of labour:

* the parent creates the :class:`~repro.gateway.snapshot.SnapshotBoard`
  and is its single writer (:meth:`GatewayServer.publish`);
* each worker process (:mod:`repro.gateway.worker`) serves decisions on
  a unix socket, adopting board generations between frames;
* clients route with the same :class:`~repro.gateway.hashring
  .ShardRouter` the parent uses — in-process via :meth:`decide_many`, or
  from generator processes speaking the socket protocol directly
  (:mod:`repro.gateway.loadgen`).

Shutdown mirrors the threaded server's drain-then-abandon contract: each
worker is asked to flush its decision log and exit (``x``), given
``timeout`` to comply, then terminated; the board is unlinked last.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import socket
import tempfile
import threading
from dataclasses import dataclass
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set)

from ..core.clock import MonotonicClock
from ..core.histogram import BucketLayout, HistogramSnapshot
from ..exceptions import ConfigurationError, ShuttingDownError
from ..telemetry.registry import MetricsRegistry
from ..telemetry.shards import record_shard_stats
from .hashring import ShardRouter
from .snapshot import BOARD_DEFAULT_SLOTS, SnapshotBoard
from .worker import _WIRE_SAFE, PolicySpec, WorkerSpec, worker_main

_ACCEPT = ord("1")


@dataclass(frozen=True)
class WorkerStats:
    """One worker's counter snapshot, as collected by the parent."""

    shard: int
    decisions: int
    accepted: int
    rejected: int
    policy_errors: int
    generation: int
    snapshot_syncs: int
    per_type: Mapping[str, Mapping[str, int]]


class GatewayServer:
    """N admission worker processes behind a consistent-hash router.

    Parameters
    ----------
    policy:
        The :class:`~repro.gateway.worker.PolicySpec` every worker builds
        its Bouncer from (shards differ by traffic, not configuration).
    shards:
        Worker-process count (>= 1).
    board_slots:
        Snapshot-board capacity (distinct query types + general).
    layout:
        Histogram bucket layout the board sizes its slots for.
    runtime_dir:
        Directory for sockets and decision logs; a private temp dir when
        omitted.
    registry:
        Optional metrics registry; :meth:`collect_stats` lands per-shard
        gauges in it (see :mod:`repro.telemetry.shards`).
    start_method:
        ``multiprocessing`` start method; ``spawn`` (default) gives every
        worker a clean interpreter on all platforms.
    """

    def __init__(self, policy: PolicySpec, shards: int = 4,
                 board_slots: int = BOARD_DEFAULT_SLOTS,
                 layout: Optional[BucketLayout] = None,
                 runtime_dir: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None,
                 start_method: str = "spawn") -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.policy_spec = policy
        self.shards = int(shards)
        self.router = ShardRouter(shards)
        self.registry = registry
        self._board_slots = board_slots
        self._layout = layout
        self._runtime_dir = runtime_dir
        self._ctx = multiprocessing.get_context(start_method)
        self._clock = MonotonicClock()
        self._board: Optional[SnapshotBoard] = None
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._conns: Dict[int, socket.socket] = {}
        self._files: Dict[int, io.BufferedRWPair] = {}
        self._io_lock = threading.Lock()
        #: Per-connection ``d``-frame counter (the ``<seq>`` a reply must
        #: echo) and the shards whose connection lost step or died; both
        #: guarded by ``_io_lock``.
        self._seqs = [0] * self.shards
        self._broken: Set[int] = set()
        self._started = False
        self._stopped = False
        self._owns_dir = False
        #: shard -> decision-log path, readable after :meth:`stop`.
        self.decision_log_paths: Dict[int, str] = {}

    # -- lifecycle -------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Create the board, spawn the fleet, wait for every socket."""
        if self._started:
            return
        if self._runtime_dir is None:
            self._runtime_dir = tempfile.mkdtemp(prefix="repro-gw-")
            self._owns_dir = True
        self._board = SnapshotBoard.create(slots=self._board_slots,
                                           layout=self._layout)
        for shard in range(self.shards):
            spec = WorkerSpec(
                shard=shard,
                socket_path=os.path.join(self._runtime_dir,
                                         f"shard-{shard}.sock"),
                log_path=os.path.join(self._runtime_dir,
                                      f"decisions-{shard}.log"),
                board_name=self._board.name,
                policy=self.policy_spec)
            self.decision_log_paths[shard] = spec.log_path
            proc = self._ctx.Process(target=worker_main, args=(spec,),
                                     name=f"repro-gw-{shard}", daemon=True)
            proc.start()
            self._procs.append(proc)
        deadline = self._clock.now() + timeout
        for shard in range(self.shards):
            self._conns[shard] = self._await_socket(shard, deadline)
            self._files[shard] = self._conns[shard].makefile("rwb")
        self._started = True

    def _await_socket(self, shard: int, deadline: float) -> socket.socket:
        path = os.path.join(self._runtime_dir or "",
                            f"shard-{shard}.sock")
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                return sock
            except OSError:
                sock.close()
                if not self._procs[shard].is_alive():
                    raise ConfigurationError(
                        f"gateway worker {shard} died during startup "
                        f"(exit code {self._procs[shard].exitcode})")
                if self._clock.now() > deadline:
                    raise ConfigurationError(
                        f"gateway worker {shard} did not come up in time")
                self._clock.sleep(0.02)

    def socket_paths(self) -> Dict[int, str]:
        """shard -> unix-socket path (load generators connect directly)."""
        return {shard: os.path.join(self._runtime_dir or "",
                                    f"shard-{shard}.sock")
                for shard in range(self.shards)}

    # -- snapshot publication -------------------------------------------
    def publish(self, types: Mapping[str, HistogramSnapshot],
                general: Optional[HistogramSnapshot] = None) -> int:
        """Publish histogram snapshots to every worker; returns the new
        board generation.  Single-threaded with respect to itself."""
        if self._board is None:
            raise ShuttingDownError("gateway is not running")
        return self._board.publish(types, general)

    @property
    def generation(self) -> int:
        """Latest published board generation (0 before any publish)."""
        return self._board.generation if self._board is not None else 0

    # -- client API ------------------------------------------------------
    def decide_many(self, qtypes: Sequence[str]) -> List[bool]:
        """Route one burst through the owning shards; results in order.

        Every owning shard's frame is written before any reply is read,
        so the workers decide concurrently and the burst costs one wait.
        A shard whose exchange fails (EOF, ``OSError``, a reply that is
        not ``r <seq> <bits>`` for the sequence number sent and the
        queries owned) is marked broken once the other replies of this
        burst have been read, and the burst raises; later bursts that
        need a broken shard raise before writing to anyone.
        """
        if not self._started or self._stopped:
            raise ShuttingDownError("gateway is not accepting queries")
        if not qtypes:
            return []
        if not all(map(_WIRE_SAFE, qtypes)):
            raise ConfigurationError(
                "query types must be non-empty printable ASCII without "
                "',' or whitespace, got "
                f"{next(q for q in qtypes if not _WIRE_SAFE(q))!r}")
        owners = list(map(self.router.shard_for, qtypes))
        grouped: Dict[int, List[str]] = {}
        for shard, qtype in zip(owners, qtypes):
            grouped.setdefault(shard, []).append(qtype)
        heads: Dict[int, bytes] = {}
        replies: Dict[int, Iterator[int]] = {}
        failed: Dict[int, str] = {}
        with self._io_lock:
            if not self._broken.isdisjoint(grouped):
                raise ShuttingDownError(
                    "gateway worker(s) "
                    f"{sorted(self._broken.intersection(grouped))} are "
                    "broken; nothing was sent")
            for shard, owned in grouped.items():
                seq = self._seqs[shard] = self._seqs[shard] + 1
                stream = self._files[shard]
                try:
                    stream.write(b"d %d %s\n" % (
                        seq, ",".join(owned).encode("ascii")))
                    stream.flush()
                    heads[shard] = b"r %d " % seq
                except OSError as exc:
                    failed[shard] = repr(exc)
            for shard, head in heads.items():
                try:
                    line = self._files[shard].readline()
                except OSError as exc:
                    failed[shard] = repr(exc)
                    continue
                bits = line[len(head):-1]
                if (line.startswith(head) and line.endswith(b"\n")
                        and len(bits) == len(grouped[shard])):
                    replies[shard] = iter(bits)
                else:
                    failed[shard] = f"bad reply {line[:80]!r}"
            if failed:
                self._broken.update(failed)
                raise ShuttingDownError(
                    f"gateway worker(s) {sorted(failed)} failed mid-burst "
                    f"and are marked broken: {failed}")
        return [next(replies[shard]) == _ACCEPT for shard in owners]

    def collect_stats(self) -> Dict[int, WorkerStats]:
        """Pull counters from every worker not marked broken, over the
        control channel.

        Also lands the per-shard gauges in :attr:`registry` when one was
        provided (see :mod:`repro.telemetry.shards`).
        """
        if not self._started or self._stopped:
            raise ShuttingDownError("gateway is not running")
        raw: Dict[int, Dict[str, object]] = {}
        with self._io_lock:
            for shard in sorted(set(range(self.shards)) - self._broken):
                stream = self._files[shard]
                stream.write(b"s\n")
                stream.flush()
                line = stream.readline()
                if not line.startswith(b"S "):
                    raise ShuttingDownError(
                        f"gateway worker {shard} returned a bad stats "
                        f"frame: {line!r}")
                raw[shard] = json.loads(line[2:].decode("utf-8"))
        if self.registry is not None:
            record_shard_stats(self.registry, raw)
        return {shard: WorkerStats(
            shard=int(stats.get("shard", shard)),
            decisions=int(stats["decisions"]),      # type: ignore[arg-type]
            accepted=int(stats["accepted"]),        # type: ignore[arg-type]
            rejected=int(stats["rejected"]),        # type: ignore[arg-type]
            policy_errors=int(
                stats["policy_errors"]),            # type: ignore[arg-type]
            generation=int(stats["generation"]),    # type: ignore[arg-type]
            snapshot_syncs=int(
                stats["snapshot_syncs"]),           # type: ignore[arg-type]
            per_type=stats.get("per_type", {}),     # type: ignore[arg-type]
        ) for shard, stats in raw.items()}

    # -- shutdown --------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Flush logs, stop the fleet, destroy the board (idempotent).

        Worker teardown mirrors ``AdmissionServer.stop``: ask nicely
        (``x`` — flush the decision log and exit), wait out ``timeout``,
        then terminate whoever is left.  Logs of terminated workers may
        be missing; callers that need them should size ``timeout``
        generously.
        """
        if self._stopped:
            return
        self._stopped = True
        with self._io_lock:
            for shard in range(self.shards):
                stream = self._files.get(shard)
                if stream is None:
                    continue
                try:
                    stream.write(b"x\n")
                    stream.flush()
                    stream.readline()
                except OSError:
                    pass                 # worker already gone; join below
        deadline = self._clock.now() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - self._clock.now()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for shard, stream in self._files.items():
            try:
                stream.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        self._files.clear()
        self._conns.clear()
        self._procs.clear()
        if self._board is not None:
            self._board.unlink()
            self._board = None
        self._started = False

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
