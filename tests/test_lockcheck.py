"""Tests for the dynamic lock-order checker (`repro.analysis.lockcheck`).

The centerpiece is the ABBA test: two locks acquired in opposite orders
must produce a cycle report carrying the stacks of *both* conflicting
acquisitions.  The remaining tests cover reentrancy, scoped installation
and multi-thread edges.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lockcheck import (CheckedLock, CheckedRLock,
                                      LockCheckRegistry, current_registry,
                                      install, uninstall)


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

    def test_a_new_lock_does_not_inherit_a_dead_locks_edges(self, registry):
        # A dead lock's edges stay in the graph, and CPython hands its
        # address to a later lock: keyed by ``id()``, the reborn lock
        # would close the cycle outer -> inner -> outer.
        outer = CheckedLock(registry, name="outer")
        inner = CheckedLock(registry, name="inner")
        with outer:
            with inner:
                pass
        dead = id(inner)
        del inner
        reborn = [CheckedLock(registry, name="reborn") for _ in range(50)]
        if dead not in {id(lock) for lock in reborn}:
            pytest.skip("this interpreter did not reuse the dead address")
        for lock in reborn:
            with lock:
                with outer:
                    pass
        assert registry.violations == []

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
