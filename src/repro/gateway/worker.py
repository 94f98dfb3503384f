"""Gateway worker process: one shard's Bouncer behind a unix socket.

Each worker owns the consistent-hash shard of query types routed to it and
runs a private :class:`~repro.core.bouncer.BouncerPolicy` on a *frozen*
:class:`~repro.core.clock.ManualClock`.  Freezing the clock removes every
time-driven state change (dual-buffer swaps, bootstrap publishes) from the
worker, so its policy state advances only through the two channels the
decision log records: snapshot-board generations applied and decisions
made.  That is what makes a worker's admission stream *bit-identical* to a
single-process replay of its log — the check the ``gateway_rpc`` workload
of ``benchmarks/e2e`` runs on every worker log.

The transport is a line protocol over a unix stream socket, served by one
``selectors`` loop per worker over the listening socket and every
connection it accepted:

``d <seq> <qt1,qt2,...>``
    Decide a batch; replies ``r <seq> <bits>`` with one ``0``/``1`` per
    query, in order.
``s``
    Replies ``S <json>`` with the worker's counters (the per-shard stats
    the parent aggregates over this control channel).
``x``
    Flush the decision log to the spec'd path, reply ``X <decisions>``,
    and shut the worker down.

A ``d`` frame the log could not record faithfully — no ``<seq>``, an
empty type, a type that is not a :data:`_WIRE_SAFE` token — closes the
connection that sent it; nothing of it is decided or logged, and every
other connection keeps being served.  A frame is decided by the policy's
``decide_types`` pass, with no ``Query`` per decision, and fails open
per query like ``AdmissionServer.submit_many``
(:meth:`ShardEngine.decide_batch`).
"""

from __future__ import annotations

import json
import os
import re
import selectors
import socket
import stat
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.bouncer import BouncerConfig, BouncerPolicy
from ..core.clock import ManualClock
from ..core.context import HostContext
from ..core.policy import QueueView
from ..core.slo import LatencySLO, SLORegistry
from ..core.types import Query
from .snapshot import SnapshotBoard

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: What may travel as one query type inside a ``d`` frame: printable
#: ASCII with no comma (the separator) and no space or control character
#: (a newline would start a second frame).
_TOKEN = r"[!-+\--~]+"
_WIRE_SAFE = re.compile(_TOKEN).fullmatch
#: A ``d`` frame's whole type list, checked in one match.
_FRAME_TYPES = re.compile(f"{_TOKEN}(?:,{_TOKEN})*".encode("ascii")).fullmatch

#: Bytes asked of one ``recv``; a read may hold several frames or part of
#: one.
_RECV_BYTES = 1 << 16

#: What :func:`_answer` tells the loop to do with the connection next.
_KEEP, _CLOSE, _STOP = range(3)


@dataclass(frozen=True)
class PolicySpec:
    """Picklable recipe for one shard's policy.

    Primitives only: the spec crosses the ``spawn`` pickling boundary
    into every worker, and a log replay rebuilds the *same* policy
    from it in-process.  SLO targets are ``{percentile: seconds}``
    mappings; ``queue_fill`` is the static simulated per-type queue depth
    each worker carries (the gateway is an admission tier — it decides
    and answers, it does not execute, so Eq. 2's occupancy term is a
    configured stand-in for the protected engine's queue).
    """

    default_slo: Mapping[float, float]
    type_slos: Mapping[str, Mapping[float, float]] = field(
        default_factory=dict)
    queue_fill: Mapping[str, int] = field(default_factory=dict)
    parallelism: int = 8
    min_samples: int = 1
    retain_min_samples: int = 1
    bootstrap_samples: int = 0

    def build(self) -> Tuple[BouncerPolicy, QueueView, ManualClock]:
        """Construct the policy (frozen clock, static queue fill)."""
        clock = ManualClock(0.0)
        queue = QueueView()
        ctx = HostContext(clock=clock, queue=queue,
                          parallelism=self.parallelism)
        registry = SLORegistry(
            default=LatencySLO(dict(self.default_slo)),
            per_type={qtype: LatencySLO(dict(targets))
                      for qtype, targets in self.type_slos.items()})
        policy = BouncerPolicy(ctx, BouncerConfig(
            slos=registry, min_samples=self.min_samples,
            retain_min_samples=self.retain_min_samples,
            bootstrap_samples=self.bootstrap_samples))
        # Deterministic fill order: sorted by type, then sequential.
        for qtype in sorted(self.queue_fill):
            for _ in range(int(self.queue_fill[qtype])):
                query = Query(qtype=qtype)
                query.enqueued_at = 0.0
                queue.on_enqueue(qtype)
                policy.on_enqueued(query)
        return policy, queue, clock


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, picklable for ``spawn``.

    ``ready`` is the write end of a pipe the worker sends one empty
    message on once its socket listens; the parent waits on it instead of
    polling the socket path.
    """

    shard: int
    socket_path: str
    log_path: str
    board_name: Optional[str]
    policy: PolicySpec
    ready: Connection


class ShardEngine:
    """Transport-free core of a worker: policy + log + counters.

    Kept separate from the socket loop so tests (and ``benchmarks/e2e``)
    can drive the exact decision/sync sequence in-process.
    """

    def __init__(self, spec: PolicySpec,
                 board: Optional[SnapshotBoard] = None,
                 shard: int = 0) -> None:
        self.policy, self.queue_view, self.clock = spec.build()
        self._board = board
        self.shard = shard
        self.generation = 0
        self.decisions = 0
        self.accepted = 0
        self.policy_errors = 0
        self.snapshot_syncs = 0
        self.per_type: Dict[str, List[int]] = {}   # qtype -> [decided, ok]
        # Append-only decision log, packed as UTF-8 bytes.  A list of str
        # held one ~50-byte object per decision; one bytearray holds the
        # same flushed text (each record appended with its newline) in a
        # single growing buffer — ~10x less memory per million decisions
        # and no join pass at flush time.
        self._log = bytearray()

    def sync_board(self) -> None:
        """Adopt the board's latest generation, if it moved.

        The generation word is the doorbell: the board is read and
        decoded only when its stable generation differs from the one
        applied.  A writer mid-publish one past that generation (odd
        word) leaves the worker deciding under its current view, without
        waiting — a valid linearization, since the frame could as well
        have arrived before the publish began.

        The applied generation is appended to the decision log *before*
        any decision made under it, giving the replay the exact preload
        positions.  Epochs are adopted from the published snapshots, so
        estimator caches invalidate identically in every process.
        """
        board = self._board
        if board is None or board.generation == self.generation:
            return
        view = board.read()
        assert view is not None              # the generation moved off 0
        self.generation = view.generation
        self.policy.preload_snapshots(view.types, view.general,
                                      adopt_epochs=True)
        self.snapshot_syncs += 1
        self._log += f"g {view.generation}\n".encode("utf-8")

    def decide_batch(self, qtypes: Sequence[str]) -> str:
        """Decide one frame; returns the accept bits as a 0/1 string.

        If the policy's ``decide_types`` pass raises, query ``len(out)``
        fails open (bit ``1``, ``policy_errors`` + 1, no policy tally) and
        the pass resumes after it; log and tallies follow from the bits.
        """
        self.sync_board()
        out = bytearray()
        while True:
            try:
                self.policy.decide_types(qtypes[len(out):], out)
                break
            except Exception:
                self.policy_errors += 1
                if len(out) >= len(qtypes):
                    break
                out += b"1"
        bits = out.decode("ascii")
        self._log += "".join([f"d {qtype} {bit}\n" for qtype, bit
                              in zip(qtypes, bits)]).encode("utf-8")
        per_type = self.per_type
        for qtype, bit in zip(qtypes, bits):
            tally = per_type.get(qtype)
            if tally is None:
                tally = per_type[qtype] = [0, 0]
            tally[0] += 1
            if bit == "1":
                tally[1] += 1
        self.decisions += len(bits)
        self.accepted += bits.count("1")
        return bits

    def stats(self) -> Dict[str, object]:
        """Counter snapshot shipped over the control channel."""
        return {
            "shard": self.shard,
            "decisions": self.decisions,
            "accepted": self.accepted,
            "rejected": self.decisions - self.accepted,
            "policy_errors": self.policy_errors,
            "generation": self.generation,
            "snapshot_syncs": self.snapshot_syncs,
            "per_type": {qtype: {"decided": tally[0], "accepted": tally[1]}
                         for qtype, tally in sorted(self.per_type.items())},
        }

    def flush_log(self, path: str) -> int:
        """Write the decision log; returns the number of decisions.

        The flushed text is byte-for-byte what the ``List[str]`` log
        produced (newline-terminated records, empty file for an empty
        log) — the replay reader is unchanged.
        """
        with open(path, "wb") as handle:
            handle.write(self._log)
        return self.decisions


def _answer(engine: ShardEngine, log_path: str,
            frames: Sequence[bytes]) -> Tuple[bytes, int]:
    """Answer complete frames (newlines stripped) in order.

    Returns the reply bytes and what to do with the connection next:
    :data:`_KEEP`, :data:`_CLOSE` after the replies to the frames before a
    malformed ``d`` frame, or :data:`_STOP` after ``x``.
    """
    out = bytearray()
    for line in frames:
        verb = line[:1]
        if verb == b"d":
            gap = line.find(b" ", 2)
            payload = line[gap + 1:]
            if gap < 3 or line[1:2] != b" " or not _FRAME_TYPES(payload):
                return bytes(out), _CLOSE
            bits = engine.decide_batch(payload.decode("ascii").split(","))
            out += b"r %s %s\n" % (line[2:gap], bits.encode("ascii"))
        elif verb == b"s":
            out += b"S %s\n" % json.dumps(engine.stats()).encode("utf-8")
        elif verb == b"x":
            out += b"X %d\n" % engine.flush_log(log_path)
            return bytes(out), _STOP
        # Unknown verbs are ignored: a newer parent may speak a superset
        # and the worker must not wedge the connection.
    return bytes(out), _KEEP


def worker_main(spec: WorkerSpec) -> None:
    """Process entry point (the ``spawn`` target): serve every connection
    from one ``selectors`` loop until ``x``.

    Each connection keeps the bytes after its last newline until the rest
    of that frame arrives; the complete frames of one read are answered
    in order with one ``sendall``.  Sends block, so a client that stops
    reading its replies stalls the worker once its socket buffer fills.
    """
    board = (SnapshotBoard.attach(spec.board_name)
             if spec.board_name else None)
    engine = ShardEngine(spec.policy, board, spec.shard)
    selector = selectors.DefaultSelector()
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    inbox: Dict[socket.socket, bytes] = {}

    def drop(conn: socket.socket) -> None:
        selector.unregister(conn)
        del inbox[conn]
        conn.close()

    try:
        # A socket file left by an earlier worker would fail the bind.
        try:
            if stat.S_ISSOCK(os.stat(spec.socket_path).st_mode):
                os.remove(spec.socket_path)
        except FileNotFoundError:
            pass
        listener.bind(spec.socket_path)
        listener.listen(100)
        selector.register(listener, selectors.EVENT_READ)
        spec.ready.send_bytes(b"")
        spec.ready.close()
        while True:
            for key, _ in selector.select():
                if key.fileobj is listener:
                    conn, _ = listener.accept()
                    selector.register(conn, selectors.EVENT_READ)
                    inbox[conn] = b""
                    continue
                conn = key.fileobj  # type: ignore[assignment]
                try:
                    data = conn.recv(_RECV_BYTES)
                except OSError:
                    data = b""
                if not data:
                    drop(conn)
                    continue
                pending = inbox[conn] + data
                end = pending.rfind(b"\n") + 1
                inbox[conn] = pending[end:]
                if not end:
                    continue
                reply, then = _answer(engine, spec.log_path,
                                      pending[:end - 1].split(b"\n"))
                if reply:
                    try:
                        conn.sendall(reply)
                    except OSError:          # the client went away
                        then = max(then, _CLOSE)     # _STOP still stops
                if then == _STOP:
                    return
                if then == _CLOSE:
                    drop(conn)
    finally:
        for conn in inbox:
            conn.close()
        listener.close()
        selector.close()
        if board is not None:
            board.close()

