"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        # repro: allow=no-simtime-float-eq (event loop pins now to the scheduled instant)
        assert sim.now == 4.5

    def test_schedule_after_is_relative(self):
        sim = Simulator(start=10.0)
        seen = []
        sim.schedule_after(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator(start=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_nan_timestamp_is_refused_at_scheduling_time(self):
        # NaN compares false both ways, so ``when < now`` let it through
        # and the schedule then never drained.  These assert the refusal
        # and never call run().
        sim = Simulator(start=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_infinite_timestamp_stays_schedulable(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(float("inf"), lambda: fired.append("never"))
        sim.schedule_after(float("inf"), lambda: fired.append("never"))
        sim.schedule_at(1.0, lambda: fired.append("soon"))
        assert sim.step()
        assert fired == ["soon"]
        assert sim.pending == 2

    def test_run_until_returns_with_only_infinite_events_left(self):
        # The calendar queue spun here too: with nothing but +inf pending
        # its window advance anchored on inf and never moved an event.
        sim = Simulator()
        sim.schedule_at(float("inf"), lambda: None)
        sim.run(until=10.0)
        # repro: allow=no-simtime-float-eq (until= pins the exact bound)
        assert sim.now == 10.0
        assert sim.pending == 1

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule_after(1.0, lambda: chain(n - 1))

        sim.schedule_at(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent_after_firing(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not raise


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        # repro: allow=no-simtime-float-eq (event loop pins now to the scheduled instant)
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_when_heap_drains(self):
        sim = Simulator()
        sim.run(until=7.0)
        # repro: allow=no-simtime-float-eq (event loop pins now to the scheduled instant)
        assert sim.now == 7.0

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3
