"""The gateway parent's scatter-then-gather fan-out, against its oracle.

``GatewayServer.decide_many`` writes a frame to every owning shard before
it reads any reply.  The order it replaced -- shard after shard, each
decided before the next is asked -- lives on here as :class:`SerialOracle`
(one in-process ``ShardEngine`` per shard, the shape of the referee's
``drive_engines_in_process``): real worker processes must return the
oracle's bits and write the oracle's decision logs, whatever the frames.
The rest pins what a pipelined protocol has to get right: what may travel
in a frame, the echoed sequence number, and a shard that dies or loses
step while the others are mid-burst.
"""

import os
import random
import signal
import socket
import threading
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.gateway_perf import (GATEWAY_TYPES, build_policy_spec,
                                      build_publication,
                                      replay_decision_log)
from repro.exceptions import ConfigurationError, ShuttingDownError
from repro.gateway import GatewayServer, ShardRouter, SnapshotBoard
from repro.gateway import hashring
from repro.gateway.worker import ShardEngine

TYPES = list(GATEWAY_TYPES)
SHARDS = 2
#: shard -> the table's types it owns (both shards own some).
OWNED = ShardRouter(SHARDS).assignment(TYPES)


class SerialOracle:
    """The serial arm: shard by shard, in-process, off the fleet's board."""

    def __init__(self, spec, server):
        self.router = ShardRouter(server.shards)
        self.engines = [ShardEngine(spec, server._board, shard)
                        for shard in range(server.shards)]

    def decide_many(self, frame):
        bits = {shard: iter(self.engines[shard].decide_batch(owned))
                for shard, owned in self.router.assignment(frame).items()}
        return [next(bits[self.router.shard_for(qtype)]) == "1"
                for qtype in frame]

    def log_bytes(self, shard, tmp_path):
        path = str(tmp_path / f"oracle-{shard}.log")
        self.engines[shard].flush_log(path)
        with open(path, "rb") as handle:
            return handle.read()


def reference_shard_for(router, qtype):
    """``shard_for`` as it was before the memo: hash, bisect, wrap."""
    idx = bisect_right(router._points, hashring._point(qtype))
    return router._owners[idx % len(router._points)]


class TestShardRouterMemo:
    @settings(max_examples=200, deadline=None)
    @given(qtypes=st.lists(st.text(), max_size=40))
    def test_memoized_route_is_the_reference_route(self, qtypes):
        router = ShardRouter(5)
        other = ShardRouter(5)
        # Asked twice: once computed, once remembered.
        for _ in range(2):
            for qtype in qtypes:
                assert router.shard_for(qtype) == \
                    reference_shard_for(router, qtype)
        assert [other.shard_for(q) for q in reversed(qtypes)] == \
               [router.shard_for(q) for q in reversed(qtypes)]

    @settings(max_examples=100, deadline=None)
    @given(qtypes=st.lists(st.sampled_from(TYPES + ["x", "y", "z"]),
                           max_size=64))
    def test_assignment_keeps_arrival_order_per_shard(self, qtypes):
        router = ShardRouter(3)
        grouped = router.assignment(qtypes)
        assert sum(len(owned) for owned in grouped.values()) == len(qtypes)
        for shard, owned in grouped.items():
            assert owned == [q for q in qtypes
                             if reference_shard_for(router, q) == shard]

    def test_unique_strings_do_not_grow_the_router_past_the_cap(self):
        router = ShardRouter(4)
        cap = hashring.ROUTE_MEMO_CAP
        for index in range(10 * cap):
            qtype = f"unique-{index}"
            assert router.shard_for(qtype) == \
                reference_shard_for(router, qtype)
        assert len(router._memo) == cap
        # Remembered and not remembered alike still route correctly.
        for qtype in ("unique-0", f"unique-{10 * cap - 1}", "point_read"):
            assert router.shard_for(qtype) == \
                reference_shard_for(router, qtype)
        assert len(router._memo) == cap


def _frames():
    table = st.sampled_from(TYPES)
    return st.one_of(
        st.lists(table, min_size=1, max_size=256),               # mixed
        st.builds(lambda qtype, count: [qtype] * count,          # one type
                  table, st.integers(1, 64)),
        st.lists(st.sampled_from(OWNED[0]), min_size=1, max_size=32),
        st.lists(st.sampled_from(OWNED[1]), min_size=1, max_size=32),
        st.lists(table, min_size=1, max_size=1))                 # length 1


class TestScatterGatherAgainstSerialOracle:
    def test_real_processes_decide_and_log_what_the_oracle_does(
            self, tmp_path):
        spec = build_policy_spec()
        publications = {}
        server = GatewayServer(spec, shards=SHARDS,
                               runtime_dir=str(tmp_path))
        with server:
            oracle = SerialOracle(spec, server)

            def publish():
                publication = build_publication(len(publications), seed=5)
                publications[server.publish(*publication)] = publication

            @settings(max_examples=30, deadline=None)
            @given(ops=st.lists(st.one_of(st.just("publish"), _frames()),
                                min_size=1, max_size=8))
            def run(ops):
                for op in ops:
                    if op == "publish":
                        publish()
                    else:
                        assert server.decide_many(op) == \
                            oracle.decide_many(op)

            publish()
            run()
            sent = sum(engine.decisions for engine in oracle.engines)
            stats = server.collect_stats()
            assert sum(s.decisions for s in stats.values()) == sent
        for shard, path in server.decision_log_paths.items():
            decisions, mismatches = replay_decision_log(path, spec,
                                                        publications)
            assert mismatches == 0
            assert decisions == oracle.engines[shard].decisions
            with open(path, "rb") as handle:
                assert handle.read() == oracle.log_bytes(shard, tmp_path)

    def test_every_thread_gets_its_own_frames_bits(self, tmp_path):
        spec = build_policy_spec()
        server = GatewayServer(spec, shards=SHARDS,
                               runtime_dir=str(tmp_path))
        with server:
            server.publish(*build_publication(2, seed=5))
            oracle = SerialOracle(spec, server)
            # Frozen clock, static queue fill, one publication: a type's
            # bit does not depend on what was decided before it.
            bit = {qtype: oracle.decide_many([qtype])[0] for qtype in TYPES}
            assert bit == {qtype: oracle.decide_many([qtype])[0]
                           for qtype in TYPES}
            assert set(bit.values()) == {True, False}
            wrong = []

            def caller(index):
                rng = random.Random(index)
                for _ in range(50):
                    frame = rng.choices(TYPES, k=rng.randint(1, 48))
                    if server.decide_many(frame) != [bit[q] for q in frame]:
                        wrong.append((index, frame))

            threads = [threading.Thread(target=caller, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []


BAD_FRAMES = [
    ["a", "b\nd 0 c", "d"],     # would inject a second frame
    ["a,b"],                    # would be decided as two, answered as one
    ["a", ""],
    [" "],
    ["a b"],
    ["a\tb"],
    ["a\r"],
    ["café"],
    ["a\x7f"],
    ["a\x00b"],
]


class TestQueryTypesAreValidatedBeforeTheWire:
    def test_bad_frames_never_reach_the_worker(self, tmp_path):
        spec = build_policy_spec()
        server = GatewayServer(spec, shards=1, runtime_dir=str(tmp_path))
        with server:
            server.publish(*build_publication(2, seed=5))
            oracle = SerialOracle(spec, server)
            first = TYPES * 2
            assert server.decide_many(first) == oracle.decide_many(first)
            before = server.collect_stats()[0].decisions
            assert before == len(first)
            for frame in BAD_FRAMES:
                with pytest.raises(ConfigurationError):
                    server.decide_many(frame)
            assert server.collect_stats()[0].decisions == before
            # Every later frame gets its own bits, not its predecessor's.
            for frame in (TYPES[:3], list(reversed(TYPES)), TYPES[4:] * 3):
                assert server.decide_many(frame) == \
                    oracle.decide_many(frame)

    @pytest.mark.parametrize("qtype", ["a", "point_read", "A-z_0.9:/+~!"])
    def test_ordinary_names_pass(self, qtype):
        fake = FakeFleet(["honest"])
        try:
            assert fake.server.decide_many([qtype, qtype]) == [True, True]
        finally:
            fake.close()


class TestDeadShard:
    def test_sigkilled_worker_is_named_and_the_survivor_stays_in_step(
            self, tmp_path):
        spec = build_policy_spec()
        server = GatewayServer(spec, shards=SHARDS,
                               runtime_dir=str(tmp_path))
        server.start()
        try:
            board_name = server._board.name
            server.publish(*build_publication(2, seed=5))
            oracle = SerialOracle(spec, server)
            mixed = TYPES * 2
            assert server.decide_many(mixed) == oracle.decide_many(mixed)
            victim = server._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            with pytest.raises(ShuttingDownError, match=r"worker\(s\) \[1\]"):
                server.decide_many(mixed)
            # The survivor decided (and logged) its half of that frame...
            oracle.engines[0].decide_batch(
                [q for q in mixed if q in OWNED[0]])
            # ...and its reply was read: the next one is the next frame's.
            mine = OWNED[0] * 3
            assert server.decide_many(mine) == oracle.decide_many(mine)
            answered = server.collect_stats()
            assert set(answered) == {0}
            assert answered[0].decisions == oracle.engines[0].decisions
            # A broken shard is refused before anyone is written to.
            with pytest.raises(ShuttingDownError, match="nothing was sent"):
                server.decide_many(mixed)
            with pytest.raises(ShuttingDownError, match="nothing was sent"):
                server.decide_many(OWNED[1][:1])
            assert server.collect_stats()[0].decisions == \
                oracle.engines[0].decisions
            assert server.decide_many(mine) == oracle.decide_many(mine)
        finally:
            server.stop(timeout=10.0)
        with pytest.raises(FileNotFoundError):
            SnapshotBoard.attach(board_name)
        with open(server.decision_log_paths[0], "rb") as handle:
            assert handle.read() == oracle.log_bytes(0, tmp_path)


class FakeFleet:
    """A ``GatewayServer`` whose shards are threads on socketpairs.

    ``modes[shard]`` says how that shard answers its ``d`` frames:
    ``honest``, or one of the faults from its second frame on --
    ``wrong_seq``, ``short`` (a bit missing), ``garbage`` (not an ``r``
    line), ``eof`` (hangs up).  Every fake accepts everything.
    """

    def __init__(self, modes):
        self.server = GatewayServer(build_policy_spec(), shards=len(modes))
        self.frames = {shard: [] for shard in range(len(modes))}
        self._threads = []
        for shard, mode in enumerate(modes):
            ours, theirs = socket.socketpair()
            self.server._conns[shard] = ours
            self.server._files[shard] = ours.makefile("rwb")
            thread = threading.Thread(target=self._serve,
                                      args=(shard, mode, theirs),
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        self.server._started = True

    def _serve(self, shard, mode, conn):
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                if line.startswith(b"x"):
                    stream.write(b"X 0\n")
                    stream.flush()
                    return
                _, seq, types = line.split()
                self.frames[shard].append((int(seq), types.decode()))
                bits = b"1" * (types.count(b",") + 1)
                faulty = mode != "honest" and len(self.frames[shard]) > 1
                if faulty and mode == "eof":
                    return
                if faulty and mode == "wrong_seq":
                    seq = b"%d" % (int(seq) - 1)
                if faulty and mode == "short":
                    bits = bits[1:]
                head = b"q" if faulty and mode == "garbage" else b"r"
                stream.write(b"%s %s %s\n" % (head, seq, bits))
                stream.flush()

    def close(self):
        self.server.stop(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()


class TestSequenceNumbersAndBadReplies:
    def test_each_connection_counts_its_own_frames(self):
        fake = FakeFleet(["honest", "honest"])
        try:
            fake.server.decide_many(TYPES)
            fake.server.decide_many(OWNED[1])
            fake.server.decide_many(TYPES)
        finally:
            fake.close()
        assert [seq for seq, _ in fake.frames[0]] == [1, 2]
        assert [seq for seq, _ in fake.frames[1]] == [1, 2, 3]
        assert fake.frames[1][1][1] == ",".join(OWNED[1])

    @pytest.mark.parametrize("fault",
                             ["wrong_seq", "short", "garbage", "eof"])
    @pytest.mark.parametrize("faulty_shard", [0, 1])
    def test_a_shard_out_of_step_is_broken_and_the_other_drained(
            self, fault, faulty_shard):
        healthy = 1 - faulty_shard
        modes = ["honest", "honest"]
        modes[faulty_shard] = fault
        fake = FakeFleet(modes)
        try:
            assert fake.server.decide_many(TYPES) == [True] * len(TYPES)
            with pytest.raises(
                    ShuttingDownError,
                    match=rf"worker\(s\) \[{faulty_shard}\] failed"):
                fake.server.decide_many(TYPES)
            # The healthy shard's reply to that burst was consumed: its
            # next frame is answered by the reply carrying its own <seq>.
            mine = OWNED[healthy] * 2
            assert fake.server.decide_many(mine) == [True] * len(mine)
            seen = len(fake.frames[healthy])
            with pytest.raises(ShuttingDownError, match="nothing was sent"):
                fake.server.decide_many(TYPES)
            assert len(fake.frames[healthy]) == seen
            assert len(fake.frames[faulty_shard]) == 2
            assert fake.server.decide_many(mine) == [True] * len(mine)
        finally:
            fake.close()
