"""Tests for the dynamic lock-order checker (`repro.analysis.lockcheck`).

The centerpiece is the ABBA test: two locks acquired in opposite orders
must produce a cycle report carrying the stacks of *both* conflicting
acquisitions.  The remaining tests cover reentrancy, scoped installation,
multi-thread edges, and the `--dynamic` CLI workload's plumbing.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analysis.lockcheck import (CheckedAsyncCondition,
                                      CheckedAsyncLock, CheckedLock,
                                      CheckedRLock, LockCheckRegistry,
                                      current_registry, install, uninstall)


@pytest.fixture
def registry() -> LockCheckRegistry:
    return LockCheckRegistry()


def make_pair(registry):
    lock_a = CheckedLock(registry, name="lock-A")
    lock_b = CheckedLock(registry, name="lock-B")
    return lock_a, lock_b


class TestLockGraph:
    def test_single_lock_records_no_edges(self, registry):
        lock_a, _ = make_pair(registry)
        with lock_a:
            pass
        assert registry.edge_count() == 0
        registry.check()  # does not raise

    def test_consistent_nesting_is_clean(self, registry):
        lock_a, lock_b = make_pair(registry)
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert registry.edge_count() == 1
        assert registry.violations == []

    def test_abba_ordering_reports_cycle_with_both_stacks(self, registry):
        lock_a, lock_b = make_pair(registry)

        def first_order_a_then_b():
            with lock_a:
                with lock_b:
                    pass

        def second_order_b_then_a():
            with lock_b:
                with lock_a:
                    pass

        first_order_a_then_b()
        second_order_b_then_a()

        assert len(registry.violations) == 1
        violation = registry.violations[0]
        assert violation.cycle[0] == violation.cycle[-1]
        assert {"lock-A", "lock-B"} <= set(violation.cycle)
        report = violation.format()
        # Both conflicting acquisition stacks are in the report.
        assert "first_order_a_then_b" in report
        assert "second_order_b_then_a" in report
        assert "potential deadlock" in report
        with pytest.raises(AssertionError, match="lock-order"):
            registry.check()

    def test_abba_across_threads(self, registry):
        lock_a, lock_b = make_pair(registry)
        ready = threading.Barrier(2)

        def hold_a_then_b():
            with lock_a:
                ready.wait(timeout=5.0)
                with lock_b:
                    pass

        def hold_b_then_a():
            ready.wait(timeout=5.0)
            with lock_a:  # serialized behind thread 1's release of A
                pass
            with lock_b:
                with lock_a:
                    pass

        threads = [threading.Thread(target=hold_a_then_b),
                   threading.Thread(target=hold_b_then_a)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(registry.violations) == 1
        names = {edge.thread for edge in
                 (registry.violations[0].closing_edge,
                  *registry.violations[0].path_edges)}
        assert len(names) == 2  # the two orders came from different threads

    def test_three_lock_cycle(self, registry):
        lock_a, lock_b = make_pair(registry)
        lock_c = CheckedLock(registry, name="lock-C")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_c:
                pass
        with lock_c:
            with lock_a:
                pass
        assert len(registry.violations) == 1
        assert {"lock-A", "lock-B", "lock-C"} <= set(
            registry.violations[0].cycle)

    def test_raise_on_violation_raises_in_acquiring_thread(self):
        registry = LockCheckRegistry(raise_on_violation=True)
        lock_a, lock_b = make_pair(registry)
        with lock_a:
            with lock_b:
                pass
        with pytest.raises(AssertionError, match="potential deadlock"):
            with lock_b:
                with lock_a:
                    pass

    def test_reset_clears_graph_and_violations(self, registry):
        lock_a, lock_b = make_pair(registry)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        registry.reset()
        assert registry.edge_count() == 0
        registry.check()


class TestReentrancy:
    def test_rlock_reentry_adds_no_edges(self, registry):
        rlock = CheckedRLock(registry, name="rlock")
        with rlock:
            with rlock:
                pass
        assert registry.edge_count() == 0
        assert registry.violations == []

    def test_rlock_nested_with_other_lock_still_tracked(self, registry):
        rlock = CheckedRLock(registry, name="rlock")
        lock_a = CheckedLock(registry, name="lock-A")
        with rlock:
            with rlock:
                with lock_a:
                    pass
        assert registry.edge_count() == 1


class TestCheckedLockSemantics:
    def test_nonblocking_acquire(self, registry):
        lock_a = CheckedLock(registry)
        # repro: allow=lock-discipline (testing the acquire() API itself)
        assert lock_a.acquire(blocking=False)
        assert lock_a.locked()
        lock_a.release()
        assert not lock_a.locked()

    def test_contended_nonblocking_acquire_fails(self, registry):
        lock_a = CheckedLock(registry)
        holder = threading.Event()
        done = threading.Event()

        def hold():
            with lock_a:
                holder.set()
                done.wait(timeout=5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        assert holder.wait(timeout=5.0)
        # repro: allow=lock-discipline (testing the acquire() API itself)
        assert not lock_a.acquire(blocking=False)
        done.set()
        thread.join(timeout=5.0)


class TestInstall:
    def test_repro_locks_are_instrumented_others_are_not(self):
        registry = install()
        try:
            from repro.telemetry import MetricsRegistry

            # repro.core takes no locks; the telemetry registry does.
            assert isinstance(MetricsRegistry()._lock, CheckedLock)
            # A lock created from this (non-repro) module stays real.
            local = threading.Lock()
            assert not isinstance(local, CheckedLock)
            assert current_registry() is registry
        finally:
            uninstall()
        assert current_registry() is None
        assert isinstance(threading.Lock(), type(threading.Lock()))

    def test_install_is_idempotent(self):
        first = install()
        try:
            assert install() is first
        finally:
            uninstall()

    def test_instrumented_components_run_clean(self):
        """A representative slice of the real system under instrumentation."""
        registry = install()
        try:
            from repro.core import (AlwaysAcceptPolicy, ManualClock,
                                    QueueView)
            from repro.core.policy import PolicyStats
            from repro.telemetry import Telemetry
            from repro.core.types import AdmissionResult, Query

            telemetry = Telemetry()
            stats = PolicyStats()
            view = QueueView()
            query = Query(qtype="x")
            result = AdmissionResult.accept()
            stats.record("x", result)
            view.on_enqueue("x")
            telemetry.on_decision(query, result, now=0.0, queue_length=1)
            view.on_dequeue("x")
        finally:
            uninstall()
        registry.check()


class TestAsyncLocks:
    # All async primitives are created *inside* the running loop: on 3.9
    # asyncio.Lock() binds events.get_event_loop() at construction, and a
    # lock built outside asyncio.run()'s loop would fault when awaited.

    def test_consistent_async_nesting_is_clean(self, registry):
        async def nest():
            lock_a = CheckedAsyncLock(registry, name="async-A")
            lock_b = CheckedAsyncLock(registry, name="async-B")
            async with lock_a:
                async with lock_b:
                    pass

        asyncio.run(nest())
        assert registry.edge_count() == 1
        registry.check()

    def test_async_abba_reports_cycle(self, registry):
        async def scenario():
            lock_a = CheckedAsyncLock(registry, name="async-A")
            lock_b = CheckedAsyncLock(registry, name="async-B")
            async with lock_a:
                async with lock_b:
                    pass
            async with lock_b:
                async with lock_a:
                    pass

        asyncio.run(scenario())
        assert len(registry.violations) == 1
        assert {"async-A", "async-B"} <= set(registry.violations[0].cycle)
        with pytest.raises(AssertionError, match="lock-order"):
            registry.check()

    def test_independent_tasks_share_no_held_stack(self, registry):
        # Two tasks interleaved on one loop thread each hold one lock.
        # A thread-local stack would see task 1's lock "held" while task 2
        # acquires — a phantom edge.  The per-task bookkeeping must not.
        async def scenario():
            lock_a = CheckedAsyncLock(registry, name="async-A")
            lock_b = CheckedAsyncLock(registry, name="async-B")
            started = asyncio.Event()
            release = asyncio.Event()

            async def holder():
                async with lock_a:
                    started.set()
                    await release.wait()

            async def bystander():
                await started.wait()
                async with lock_b:
                    pass
                release.set()

            await asyncio.gather(holder(), bystander())

        asyncio.run(scenario())
        assert registry.edge_count() == 0
        registry.check()

    def test_mixed_async_and_thread_locks_share_one_graph(self, registry):
        # The gateway's mixed-substrate deadlock: a coroutine holding an
        # asyncio lock takes a threading.Lock, elsewhere the same pair is
        # taken in the opposite order.  One graph must see the cycle.
        async def scenario():
            async_lock = CheckedAsyncLock(registry, name="async-A")
            thread_lock = CheckedLock(registry, name="thread-B")
            async with async_lock:
                with thread_lock:
                    pass
            with thread_lock:
                async with async_lock:
                    pass

        asyncio.run(scenario())
        assert len(registry.violations) == 1
        assert {"async-A", "thread-B"} <= set(registry.violations[0].cycle)

    def test_condition_wait_releases_the_held_stack(self, registry):
        # A waiter suspended in cond.wait() does NOT hold the lock; locks
        # taken elsewhere meanwhile must not pick up edges under it.
        async def scenario():
            cond = CheckedAsyncCondition(registry=registry,
                                         name="async-cond")
            lock_b = CheckedAsyncLock(registry, name="async-B")
            ready = asyncio.Event()

            async def waiter():
                async with cond:
                    ready.set()
                    await cond.wait()

            async def toucher():
                await ready.wait()
                async with lock_b:
                    pass
                async with cond:
                    cond.notify_all()

            await asyncio.gather(waiter(), toucher())

        asyncio.run(scenario())
        assert registry.edge_count() == 0
        registry.check()

    def test_condition_wait_for(self, registry):
        state = {"ready": False}

        async def scenario():
            cond = CheckedAsyncCondition(registry=registry,
                                         name="async-cond")

            async def producer():
                await asyncio.sleep(0)
                async with cond:
                    state["ready"] = True
                    cond.notify_all()

            async def consumer():
                async with cond:
                    await cond.wait_for(lambda: state["ready"])

            await asyncio.gather(consumer(), producer())

        asyncio.run(scenario())
        registry.check()


class TestAsyncInstall:
    def test_in_scope_async_primitives_are_instrumented(self):
        registry = install(scope_prefixes=(__name__,))
        try:
            assert isinstance(asyncio.Lock(), CheckedAsyncLock)
            assert isinstance(asyncio.Condition(), CheckedAsyncCondition)
            assert current_registry() is registry
        finally:
            uninstall()
        # Uninstall restores the real constructors.
        assert not isinstance(asyncio.Lock(), CheckedAsyncLock)
        assert not isinstance(asyncio.Condition(), CheckedAsyncCondition)

    def test_out_of_scope_async_locks_stay_real(self):
        install()  # default scope: repro.* — this test module is outside
        try:
            assert not isinstance(asyncio.Lock(), CheckedAsyncLock)
            assert not isinstance(asyncio.Condition(),
                                  CheckedAsyncCondition)
        finally:
            uninstall()

    def test_legacy_arguments_bypass_instrumentation(self):
        install(scope_prefixes=(__name__,))
        try:
            # Any constructor arguments mean a contract the wrapper can't
            # honour; the factory hands back the real primitive.
            lock = asyncio.Lock()
            assert isinstance(lock, CheckedAsyncLock)
            cond = asyncio.Condition(lock=None)
            assert not isinstance(cond, CheckedAsyncCondition)
        finally:
            uninstall()


class TestDynamicWorkload:
    def test_render_report_lists_violations(self, registry):
        from repro.analysis.dynamic import render_dynamic_report

        lock_a, lock_b = make_pair(registry)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        report = render_dynamic_report(registry)
        assert "1 violation(s)" in report
        assert "potential deadlock" in report


class TestSeqlockRace:
    def test_clean_writer_yields_zero_torn_reads(self):
        from repro.analysis.dynamic import run_seqlock_race

        report = run_seqlock_race(seed=7, reads=120, publishes=60)
        assert report.torn == 0
        assert report.reads > 0
        assert report.generations >= 1

    def test_seeded_unprotected_write_is_detected(self):
        # The falsifiability check: a write that skips the generation
        # bumps MUST show up as torn reads, or the clean result above
        # proves nothing.
        from repro.analysis.dynamic import run_seqlock_race

        report = run_seqlock_race(seed=7, reads=30, publishes=4,
                                  buggy_writer=True)
        assert report.reads > 0
        assert report.torn == report.reads


class TestRunDynamicCheck:
    def test_in_process_legs_run_clean(self):
        # gateway=False skips the spawned fleet (covered by the gateway
        # tests and the CI --dynamic leg) to keep this test fast.
        from repro.analysis.dynamic import (render_check_report,
                                            run_dynamic_check)

        result = run_dynamic_check(seed=3, gateway=False)
        assert result.ok(), result.problems()
        assert result.gateway_decisions is None
        assert result.loop_decisions and result.loop_decisions > 0
        assert result.stalls == []
        assert result.race is not None and result.race.torn == 0
        report = render_check_report(result)
        assert "dynamic lockcheck" in report
        assert "dynamic loopwatch" in report
        assert "seqlock race" in report
