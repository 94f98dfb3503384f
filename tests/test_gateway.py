"""Tests for the sharded admission gateway (repro.gateway)."""

import functools
import multiprocessing
import os
import shutil
import socket
import tempfile

import pytest

from repro.core import AdmissionPolicy, LatencyHistogram
from repro.core.clock import MonotonicClock
from repro.core.histogram import HistogramSnapshot
from repro.core.types import Query
from repro.exceptions import ConfigurationError, ShuttingDownError
from repro.gateway import (BOARD_DEFAULT_SLOTS, GatewayServer, PolicySpec,
                           ShardRouter, SnapshotBoard, run_open_loop)
from repro.gateway.snapshot import GENERAL_SLOT, MAX_NAME_BYTES
from repro.gateway.worker import ShardEngine, WorkerSpec, worker_main
from repro.runtime.server import decide_many_fail_open
from repro.telemetry import MetricsRegistry
from repro.telemetry.shards import aggregate_shard_stats
from tests.gateway_workload import (build_policy_spec, build_publication,
                                    replay_decision_log)


QTYPES = ["point_read", "range_scan", "two_hop", "rank", "facet",
          "analytic", "bulk_export", "admin"]


def tiny_spec(**overrides):
    kwargs = dict(default_slo={50: 0.020, 90: 0.050},
                  queue_fill={"a": 3, "b": 2}, parallelism=4)
    kwargs.update(overrides)
    return PolicySpec(**kwargs)


class TestShardRouter:
    def test_deterministic_across_instances(self):
        first = ShardRouter(4)
        second = ShardRouter(4)
        assert [first.shard_for(q) for q in QTYPES] == \
               [second.shard_for(q) for q in QTYPES]

    def test_every_shard_owns_points(self):
        router = ShardRouter(4)
        owners = {router.shard_for(f"type-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_assignment_preserves_arrival_order_within_shard(self):
        router = ShardRouter(4)
        stream = [QTYPES[i % len(QTYPES)] for i in range(50)]
        grouped = router.assignment(stream)
        for shard, owned in grouped.items():
            expected = [q for q in stream
                        if router.shard_for(q) == shard]
            assert owned == expected

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1)
        assert {router.shard_for(q) for q in QTYPES} == {0}

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)
        with pytest.raises(ConfigurationError):
            ShardRouter(4, replicas=0)


def snapshot_with(values, epoch):
    hist = LatencyHistogram()
    for value in values:
        hist.record(value)
    return hist.snapshot(epoch=epoch)


class TestSnapshotBoard:
    def test_roundtrip_preserves_snapshots_and_epochs(self):
        with SnapshotBoard.create(slots=8) as board:
            assert board.read() is None
            types = {"a": snapshot_with([0.01, 0.02], epoch=3),
                     "b": snapshot_with([0.05], epoch=3)}
            general = snapshot_with([0.01, 0.02, 0.05], epoch=3)
            generation = board.publish(types, general)
            assert generation == 2
            view = board.read()
            assert view.generation == 2
            assert set(view.types) == {"a", "b"}
            for name in types:
                assert view.types[name].epoch == 3
                assert view.types[name].count == types[name].count
                assert view.types[name].mean() == types[name].mean()
            assert view.general.count == general.count

    def test_attach_sees_publications(self):
        with SnapshotBoard.create(slots=4) as board:
            board.publish({"a": snapshot_with([0.01], epoch=1)})
            reader = SnapshotBoard.attach(board.name)
            try:
                view = reader.read()
                assert view.generation == 2
                assert view.types["a"].count == 1
            finally:
                reader.close()

    def test_generation_increments_by_two_per_publish(self):
        with SnapshotBoard.create(slots=4) as board:
            for expected in (2, 4, 6):
                assert board.publish(
                    {"a": snapshot_with([0.01], epoch=expected)}
                ) == expected
            assert board.generation == 6

    def test_rejects_overflow_and_long_names(self):
        with SnapshotBoard.create(slots=1) as board:
            snap = snapshot_with([0.01], epoch=1)
            with pytest.raises(ConfigurationError):
                board.publish({"a": snap, "b": snap})
            with pytest.raises(ConfigurationError):
                board.publish({"x" * (MAX_NAME_BYTES + 1): snap})

    def test_reader_side_cannot_publish(self):
        with SnapshotBoard.create(slots=4) as board:
            reader = SnapshotBoard.attach(board.name)
            try:
                with pytest.raises(ConfigurationError):
                    reader.publish({"a": snapshot_with([0.01], epoch=1)})
            finally:
                reader.close()

    def test_general_slot_name_reserved(self):
        assert GENERAL_SLOT.startswith("\x00")
        assert BOARD_DEFAULT_SLOTS >= 16

    def test_create_failure_does_not_leak_the_segment(self, monkeypatch):
        import repro.gateway.snapshot as snapshot_mod
        from multiprocessing import shared_memory

        class ExplodingStruct:
            def pack_into(self, *args):
                raise RuntimeError("seeded init failure")

        monkeypatch.setattr(snapshot_mod, "_USED", ExplodingStruct())
        name = f"repro-test-leak-{os.getpid()}"
        with pytest.raises(RuntimeError, match="seeded init failure"):
            SnapshotBoard.create(slots=2, name=name)
        monkeypatch.undo()
        # The half-initialised mapping must be gone, not orphaned in
        # /dev/shm with no surviving handle to unlink it.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_failed_publish_leaves_the_board_readable(self):
        # Validation must happen before the generation goes odd: a
        # mid-copy error would otherwise wedge the board forever-odd and
        # spin every reader to exhaustion.
        with SnapshotBoard.create(slots=2) as board:
            board.publish({"a": snapshot_with([0.01], epoch=1)})
            with pytest.raises(ConfigurationError):
                board.publish({"x" * (MAX_NAME_BYTES + 1):
                               snapshot_with([0.02], epoch=2)})
            view = board.read()
            assert view is not None
            assert view.generation == 2
            assert view.types["a"].epoch == 1


def epoch_publication(epoch):
    """Three type slots plus the general slot, all stamped ``epoch``."""
    types = {name: snapshot_with([0.001 * epoch, 0.002], epoch=epoch)
             for name in ("a", "b", "c")}
    return types, snapshot_with([0.001 * epoch], epoch=epoch)


def assert_coherent(view):
    """Publication ``k`` carries epoch ``k`` and lands at generation
    ``2k``, so a view whose epochs disagree with its generation (or with
    each other) is torn."""
    epochs = {snapshot.epoch for snapshot in view.types.values()}
    epochs.add(view.general.epoch)
    assert epochs == {view.generation // 2}, (view.generation, epochs)


class TestSeqlockTornReads:
    """The seqlock's two halves, each driven into its race window
    deterministically: no thread has to lose the GIL at the right
    instruction for a broken reader or writer to show."""

    def test_publish_between_generation_load_and_copy_is_retried(
            self, monkeypatch):
        import repro.gateway.snapshot as snapshot_mod

        with SnapshotBoard.create(slots=4) as board:
            board.publish(*epoch_publication(1))
            used = snapshot_mod._USED
            pending = [epoch_publication(2)]

            class PublishBeforeCopy:
                # read() loads the used-slot count after its first
                # generation load and right before the payload copy.
                size = used.size
                pack_into = used.pack_into

                def unpack_from(self, *args):
                    if pending:
                        board.publish(*pending.pop())
                    return used.unpack_from(*args)

            monkeypatch.setattr(snapshot_mod, "_USED", PublishBeforeCopy())
            view = board.read()
            assert not pending, "the interleaved publish never ran"
            assert_coherent(view)
            assert view.generation == 4

    def test_read_inside_publish_never_returns_the_half_written_view(
            self, monkeypatch):
        import repro.gateway.snapshot as snapshot_mod

        with SnapshotBoard.create(slots=4) as board:
            board.publish(*epoch_publication(1))
            name_len = snapshot_mod._NAME_LEN
            writes = []
            seen = []

            class ReadBeforeLastSlot:
                # publish() writes one name length per slot; the fourth
                # opens the last slot, after the first three were
                # rewritten with the new epoch.
                size = name_len.size
                unpack_from = name_len.unpack_from

                def pack_into(self, *args):
                    writes.append(args)
                    if len(writes) == 4:
                        try:
                            seen.append(board.read())
                        except RuntimeError:
                            seen.append("raised")
                    return name_len.pack_into(*args)

            monkeypatch.setattr(snapshot_mod, "_NAME_LEN",
                                ReadBeforeLastSlot())
            monkeypatch.setattr(snapshot_mod, "_READ_RETRIES", 8)
            board.publish(*epoch_publication(2))
            monkeypatch.undo()
            assert len(seen) == 1
            # Mid-publish the generation is odd: the reader must retry
            # and, with the writer parked under it, give up rather than
            # hand out a view mixing two publications.
            if seen[0] != "raised":
                assert_coherent(seen[0])
            assert_coherent(board.read())


class TestReaderBackoff:
    def test_spins_before_sleeping(self, monkeypatch):
        import repro.gateway.snapshot as snapshot_mod

        sleeps = []
        monkeypatch.setattr(snapshot_mod.time, "sleep", sleeps.append)
        for attempt in range(snapshot_mod._SPIN_RETRIES):
            snapshot_mod._reader_backoff(attempt)
        assert sleeps == [0] * snapshot_mod._SPIN_RETRIES

    def test_backoff_escalates_and_stays_bounded(self, monkeypatch):
        import repro.gateway.snapshot as snapshot_mod

        sleeps = []
        monkeypatch.setattr(snapshot_mod.time, "sleep", sleeps.append)
        first = snapshot_mod._SPIN_RETRIES
        for attempt in range(first, first + 64):
            snapshot_mod._reader_backoff(attempt)
        assert sleeps[0] == pytest.approx(1e-6)
        assert sleeps == sorted(sleeps)  # monotone escalation
        assert max(sleeps) == snapshot_mod._MAX_BACKOFF


class TestSnapshotWire:
    def test_to_bytes_from_bytes_roundtrip(self):
        snap = snapshot_with([0.001, 0.01, 0.1, 2.0], epoch=7)
        decoded, end = HistogramSnapshot.from_bytes(snap.to_bytes())
        assert end == len(snap.to_bytes())
        assert decoded.epoch == 7
        assert decoded.count == snap.count
        assert decoded.mean() == snap.mean()
        for pct in (50.0, 90.0, 99.0):
            assert decoded.percentile(pct) == snap.percentile(pct)


class TestPolicySpec:
    def test_build_is_deterministic(self):
        spec = tiny_spec()
        first = ShardEngine(spec)
        second = ShardEngine(spec)
        qtypes = ["a", "b", "a", "c", "b"] * 20
        assert first.decide_batch(qtypes) == second.decide_batch(qtypes)

    def test_queue_fill_applied(self):
        spec = tiny_spec(queue_fill={"a": 5, "b": 2})
        _, queue, _ = spec.build()
        assert queue.count_for("a") == 5
        assert queue.count_for("b") == 2
        assert queue.length() == 7

    def test_clock_is_frozen(self):
        _, _, clock = tiny_spec().build()
        # repro: allow=no-simtime-float-eq (ManualClock(0.0) stores the exact float)
        assert clock.now() == 0.0


class TestShardEngine:
    def test_decisions_match_scalar_replay(self, tmp_path):
        spec = build_policy_spec()
        publications = {}
        with SnapshotBoard.create(slots=16) as board:
            engine = ShardEngine(spec, board, shard=0)
            for index in range(3):
                types, general = build_publication(index, seed=99)
                generation = board.publish(types, general)
                publications[generation] = (types, general)
                for burst in range(5):
                    engine.decide_batch(
                        [QTYPES[(index + burst + i) % len(QTYPES)]
                         for i in range(32)])
            log_path = str(tmp_path / "decisions.log")
            count = engine.flush_log(log_path)
        assert count == engine.decisions == 3 * 5 * 32
        decisions, mismatches = replay_decision_log(log_path, spec,
                                                    publications)
        assert decisions == count
        assert mismatches == 0

    def test_generation_logged_before_decisions(self, tmp_path):
        spec = tiny_spec()
        with SnapshotBoard.create(slots=4) as board:
            engine = ShardEngine(spec, board, shard=0)
            board.publish({"a": snapshot_with([0.01], epoch=1)})
            engine.decide_batch(["a", "b"])
            log_path = str(tmp_path / "log")
            engine.flush_log(log_path)
        with open(log_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "g 2"
        assert all(line.startswith("d ") for line in lines[1:])
        assert len(lines) == 3
        assert engine.snapshot_syncs == 1
        assert engine.generation == 2

    def test_packed_log_flushes_byte_identical_text(self, tmp_path):
        # The decision log is packed into one bytearray as it grows; the
        # flushed file must stay byte-for-byte the text the historical
        # List[str] log produced, so the replay reader never changes.
        spec = tiny_spec()
        with SnapshotBoard.create(slots=4) as board:
            engine = ShardEngine(spec, board, shard=0)
            board.publish({"a": snapshot_with([0.01], epoch=1)})
            bits = engine.decide_batch(["a", "b", "a"])
            log_path = str(tmp_path / "log")
            engine.flush_log(log_path)
        with open(log_path, "rb") as handle:
            raw = handle.read()
        expected = "".join(
            ["g 2\n"] + [f"d {qtype} {bit}\n"
                         for qtype, bit in zip(["a", "b", "a"], bits)])
        assert raw == expected.encode("utf-8")
        assert raw.endswith(b"\n")

    def test_empty_log_flushes_empty_file(self, tmp_path):
        engine = ShardEngine(tiny_spec())
        log_path = str(tmp_path / "log")
        assert engine.flush_log(log_path) == 0
        with open(log_path, "rb") as handle:
            assert handle.read() == b""

    def test_policy_error_fails_open(self):
        # A policy that raises at one position of the frame (first,
        # middle, last) or on every query, decided through Bouncer's
        # decide_types pass and through the base default: bits, log,
        # policy_errors, stats() and the policy's own tallies must be
        # what decide_many_fail_open gives over Query objects, the helper
        # AdmissionServer.submit_many runs.
        frame = ["point_read", "rank", "point_read", "analytic", "rank",
                 "admin", "point_read", "facet"]
        cases = [(frame[:k] + ["boom"] + frame[k:], {k})
                 for k in (0, len(frame) // 2, len(frame))]
        cases.append((frame, set(range(len(frame)))))
        with SnapshotBoard.create(slots=16) as board:
            board.publish(*build_publication(2, seed=5))
            for qtypes, raising in cases:
                for default_pass in (False, True):
                    engine, oracle = (
                        poisoned_engine(board, qtypes, raising, default_pass)
                        for _ in range(2))
                    bits = engine.decide_batch(qtypes)
                    assert bits == fail_open_reference(oracle, qtypes)
                    assert {k for k in raising if bits[k] == "1"} == raising
                    assert engine.policy_errors == oracle.policy_errors \
                        == len(raising)
                    assert engine.stats() == oracle.stats()
                    assert engine.policy.stats.types() == \
                        oracle.policy.stats.types()
                    assert engine._log == oracle._log
                    # point_read is rejected under this publication.
                    assert ("0" in bits) == (len(raising) == 1)

    def test_stats_shape(self):
        engine = ShardEngine(tiny_spec(), shard=3)
        engine.decide_batch(["a", "a", "b"])
        stats = engine.stats()
        assert stats["shard"] == 3
        assert stats["decisions"] == 3
        assert stats["accepted"] + stats["rejected"] == 3
        assert stats["per_type"]["a"]["decided"] == 2
        totals = aggregate_shard_stats({3: stats})
        assert totals["decisions"] == 3


def poisoned_engine(board, qtypes, raising, default_pass):
    """An engine whose Bouncer raises while deciding the types at
    positions ``raising`` of ``qtypes``, on every path into it;
    ``default_pass`` routes frames through ``AdmissionPolicy.decide_types``
    instead of Bouncer's override."""
    bad = {qtypes[k] for k in raising}
    engine = ShardEngine(build_policy_spec(), board)
    policy = engine.policy
    entry, decide = policy._entry, policy._decide

    def raising_entry(qtype):
        if qtype in bad:
            raise RuntimeError("policy bug")
        return entry(qtype)

    def raising_decide(query):
        if query.qtype in bad:
            raise RuntimeError("policy bug")
        return decide(query)

    policy._entry = raising_entry
    policy._decide = raising_decide
    if default_pass:
        policy.decide_types = functools.partial(
            AdmissionPolicy.decide_types, policy)
    return engine


def fail_open_reference(engine, qtypes):
    """The worker's frame path before ``decide_types``: a ``Query`` and a
    callback per decision through ``decide_many_fail_open``."""
    engine.sync_board()
    bits = []

    def apply(query, result):
        bit = "1" if result.accepted else "0"
        bits.append(bit)
        engine._log += f"d {query.qtype} {bit}\n".encode("utf-8")
        tally = engine.per_type.setdefault(query.qtype, [0, 0])
        tally[0] += 1
        tally[1] += result.accepted

    def on_error():
        engine.policy_errors += 1

    decide_many_fail_open(engine.policy,
                          [Query(qtype=qtype) for qtype in qtypes], apply,
                          on_error)
    engine.decisions += len(bits)
    engine.accepted += bits.count("1")
    return "".join(bits)


class CountingBoard(SnapshotBoard):
    """A board that counts full reads (copy + decode of every slot)."""

    reads = 0

    def read(self):
        self.reads += 1
        return super().read()


class TestBoardDoorbell:
    def test_board_is_read_once_per_adopted_generation(self):
        with CountingBoard.create(slots=4) as board:
            engine = ShardEngine(tiny_spec(), board)
            for frame in range(200):
                if frame % 50 == 0:
                    board.publish(
                        {"a": snapshot_with([0.01], epoch=frame + 1)})
                engine.decide_batch(["a", "b"])
            assert board.reads == 4
            assert engine.snapshot_syncs == 4
            assert engine.generation == 8

    def test_writer_mid_publish_leaves_the_current_view(self, tmp_path,
                                                        monkeypatch):
        import repro.gateway.snapshot as snapshot_mod

        spec = tiny_spec()
        types = {"a": snapshot_with([0.01] * 10, epoch=1),
                 "b": snapshot_with([0.08] * 10, epoch=1)}
        with SnapshotBoard.create(slots=4) as board, \
                SnapshotBoard.create(slots=4) as steady:
            board.publish(types)
            steady.publish(types)
            engine = ShardEngine(spec, board)
            oracle = ShardEngine(spec, steady)
            assert engine.decide_batch(["a", "b"]) == \
                oracle.decide_batch(["a", "b"])
            # The writer has opened generation 3 and not closed it.
            snapshot_mod._GEN.pack_into(board._shm.buf, snapshot_mod._GEN_OFF,
                                        3)

            def no_backoff(attempt):
                raise AssertionError("the worker waited for the writer")

            monkeypatch.setattr(snapshot_mod, "_reader_backoff", no_backoff)
            frame = ["b", "a", "b", "a", "a"]
            assert engine.decide_batch(frame) == oracle.decide_batch(frame)
            assert engine.generation == 2
            assert engine.snapshot_syncs == 1
            log_path = str(tmp_path / "log")
            engine.flush_log(log_path)
        with open(log_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert [line for line in lines if line.startswith("g ")] == ["g 2"]


@pytest.fixture
def worker_spec():
    # A short directory: a unix socket path must fit in ~100 bytes.
    runtime = tempfile.mkdtemp(prefix="repro-gw-")
    yield WorkerSpec(shard=0, socket_path=os.path.join(runtime, "w.sock"),
                     log_path=os.path.join(runtime, "w.log"),
                     board_name=None, policy=tiny_spec())
    shutil.rmtree(runtime, ignore_errors=True)


@pytest.fixture
def spawn(worker_spec):
    """Starts one real worker process (no board); the test's leftovers
    are terminated."""
    procs = []

    def start():
        proc = multiprocessing.get_context("spawn").Process(
            target=worker_main, args=(worker_spec,), daemon=True)
        proc.start()
        procs.append(proc)
        return worker_spec, proc

    yield start
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)


def connect(spec, proc, timeout=30.0):
    """A client connection to the worker, once its socket is up."""
    clock = MonotonicClock()
    deadline = clock.now() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(spec.socket_path)
            sock.settimeout(10.0)
            return sock, sock.makefile("rb")
        except OSError:
            sock.close()
            assert proc.is_alive() and clock.now() < deadline
            clock.sleep(0.02)


def oracle_bits(*frames):
    """What the worker must answer: the same frames on one in-process
    engine built from the same spec."""
    engine = ShardEngine(tiny_spec())
    return [engine.decide_batch(frame).encode("ascii") for frame in frames]


class TestWorkerLoop:
    def test_frame_split_byte_by_byte(self, spawn):
        sock, replies = connect(*spawn())
        clock = MonotonicClock()
        for byte in b"d 7 a,b,a\n":
            sock.sendall(bytes([byte]))
            clock.sleep(0.002)
        assert replies.readline() == b"r 7 %s\n" % oracle_bits(
            ["a", "b", "a"])[0]
        sock.close()

    def test_three_frames_in_one_send_are_answered_in_order(self, spawn):
        sock, replies = connect(*spawn())
        sock.sendall(b"d 1 a\nd 2 b,a\nd 3 a,a,b\n")
        expected = oracle_bits(["a"], ["b", "a"], ["a", "a", "b"])
        assert [replies.readline() for _ in range(3)] == [
            b"r %d %s\n" % (seq, bits)
            for seq, bits in enumerate(expected, start=1)]
        sock.close()

    def test_two_connections_interleave(self, spawn):
        spec, proc = spawn()
        first, first_replies = connect(spec, proc)
        second, second_replies = connect(spec, proc)
        first.sendall(b"d 1 a,")
        second.sendall(b"d 9 b\n")
        early, late = oracle_bits(["b"], ["a", "b"])
        assert second_replies.readline() == b"r 9 %s\n" % early
        first.sendall(b"b\n")
        assert first_replies.readline() == b"r 1 %s\n" % late
        first.close()
        second.close()

    def test_unknown_verb_is_ignored(self, spawn):
        sock, replies = connect(*spawn())
        sock.sendall(b"q 1 a\n\nd 2 a\n")
        assert replies.readline() == b"r 2 %s\n" % oracle_bits(["a"])[0]
        sock.close()

    def test_x_with_another_client_connected(self, spawn):
        spec, proc = spawn()
        bystander, bystander_replies = connect(spec, proc)
        bystander.sendall(b"d 1 a\n")
        assert bystander_replies.readline().startswith(b"r 1 ")
        closer, closer_replies = connect(spec, proc)
        closer.sendall(b"x\n")
        assert closer_replies.readline() == b"X 1\n"
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        assert bystander_replies.readline() == b""      # EOF
        with open(spec.log_path, "rb") as handle:
            assert handle.read() == b"d a %s\n" % oracle_bits(["a"])[0]
        bystander.close()
        closer.close()

    def test_stale_socket_file_is_replaced(self, spawn):
        spec, proc = spawn()
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(spec.socket_path)
        stale.close()                 # leaves the socket file behind
        assert os.path.exists(spec.socket_path)
        sock, replies = connect(spec, proc)
        sock.sendall(b"d 1 a\n")
        assert replies.readline() == b"r 1 %s\n" % oracle_bits(["a"])[0]
        sock.close()


#: ``d`` frames the decision log could not record faithfully.
MALFORMED_FRAMES = [
    b"d 2 \n",                   # empty type list: was answered ``r 2 1``
    b"d 3 rank,,facet\n",        # an empty type: was answered ``r 3 111``
    b"d a\n",                    # no <seq>
    b"d  a\n",                   # empty <seq>
    b"d\n",
    b"d 4 caf\xc3\xa9\n",        # not ASCII
    b"d 5 a b\n",                # a space inside a type
    b"d 6 a,\x01\n",             # a control character
]


class TestMalformedFrames:
    def test_bad_frame_closes_only_its_connection(self, spawn):
        spec, proc = spawn()
        steady, steady_replies = connect(spec, proc)
        answered = 0
        for bad in MALFORMED_FRAMES:
            sock, replies = connect(spec, proc)
            # The good frame before the bad one is still answered.
            sock.sendall(b"d 1 a\n" + bad + b"d 2 b\n")
            assert replies.readline().startswith(b"r 1 ")
            assert replies.readline() == b""            # closed, not answered
            sock.close()
            steady.sendall(b"d %d b,a\n" % answered)
            assert steady_replies.readline().startswith(b"r %d " % answered)
            answered += 1
        steady.sendall(b"x\n")
        assert steady_replies.readline() == b"X %d\n" % (3 * answered)
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        decisions, mismatches = replay_decision_log(spec.log_path,
                                                    spec.policy, {})
        assert (decisions, mismatches) == (3 * answered, 0)
        steady.close()


class TestGatewayServer:
    def test_fleet_decides_and_stops_clean(self, tmp_path):
        registry = MetricsRegistry()
        server = GatewayServer(tiny_spec(), shards=2,
                               runtime_dir=str(tmp_path),
                               registry=registry)
        with server:
            board_name = server._board.name
            server.publish({"a": snapshot_with([0.01] * 10, epoch=1)})
            assert server.generation == 2
            stream = ["a", "b", "a", "c", "b", "a"]
            bits = server.decide_many(stream)
            assert len(bits) == len(stream)
            stats = server.collect_stats()
            assert sum(s.decisions for s in stats.values()) == len(stream)
            rendered = registry.render()
            assert "gateway_shard_decisions" in rendered
            procs = list(server._procs)
        assert all(not proc.is_alive() for proc in procs)
        with pytest.raises(FileNotFoundError):
            SnapshotBoard.attach(board_name)
        for path in server.decision_log_paths.values():
            assert os.path.exists(path)
        with pytest.raises(ShuttingDownError):
            server.decide_many(["a"])
        server.stop()               # idempotent

    def test_decisions_replay_bit_identical_through_sockets(self, tmp_path):
        spec = build_policy_spec()
        publications = {}
        server = GatewayServer(spec, shards=2, runtime_dir=str(tmp_path))
        with server:
            for index in range(2):
                types, general = build_publication(index, seed=11)
                generation = server.publish(types, general)
                publications[generation] = (types, general)
                for burst in range(4):
                    server.decide_many(
                        [QTYPES[(burst + i) % len(QTYPES)]
                         for i in range(64)])
        total = 0
        for path in server.decision_log_paths.values():
            decisions, mismatches = replay_decision_log(path, spec,
                                                        publications)
            total += decisions
            assert mismatches == 0
        assert total == 2 * 4 * 64

    def test_open_loop_answers_everything(self, tmp_path):
        server = GatewayServer(tiny_spec(), shards=2,
                               runtime_dir=str(tmp_path))
        with server:
            server.publish({"a": snapshot_with([0.01] * 10, epoch=1)})
            report = run_open_loop(server.socket_paths(), shards=2,
                                   qtypes=["a", "b", "c"],
                                   rate=2000.0, duration=0.5,
                                   processes=1, tick_queries=100,
                                   seed=3)
        assert report.sent == 1000
        assert report.answered == report.sent
        assert report.achieved_qps > 0
        assert sum(report.per_shard_sent.values()) == report.sent

    def test_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            GatewayServer(tiny_spec(), shards=0)
