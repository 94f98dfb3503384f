"""Unit tests for measurement collection and report shaping."""

import pytest

from repro.core.types import AdmissionResult, Query, RejectReason
from repro.exceptions import ConfigurationError
from repro.core.context import HostContext
from repro.core.clock import ManualClock
from repro.core.policy import QueueView
from repro.sim.report import (REPORT_PERCENTILES, ServerMetrics,
                              SimulationReport, TypeStats)


def completed_query(qtype="x", arrival=0.0, wait=0.01, proc=0.02):
    query = Query(qtype=qtype, arrival_time=arrival)
    query.enqueued_at = arrival
    query.dequeued_at = arrival + wait
    query.completed_at = arrival + wait + proc
    return query


class TestServerMetrics:
    def test_completion_samples(self):
        metrics = ServerMetrics()
        metrics.record_completion(completed_query())
        stats = metrics.build_type_stats()["x"]
        assert stats.completed == 1
        assert stats.wait_mean == pytest.approx(0.01)
        assert stats.processing_mean == pytest.approx(0.02)
        assert stats.response_mean == pytest.approx(0.03)

    def test_rejection_counts(self):
        metrics = ServerMetrics()
        metrics.record_rejection(Query(qtype="x"), AdmissionResult.reject(
            RejectReason.CAPACITY))
        stats = metrics.build_type_stats()["x"]
        assert stats.rejected == 1
        assert stats.rejection_pct == 100.0

    def test_warmup_stray_excluded_from_samples_not_busy(self):
        metrics = ServerMetrics(start_time=0.0)
        stray = completed_query(arrival=9.0)   # arrived pre-window
        metrics.note_arrival(stray, 9.0)
        metrics.reset(10.0)
        fresh = completed_query(arrival=11.0)
        metrics.note_arrival(fresh, 11.0)
        metrics.record_completion(stray)
        metrics.record_completion(fresh)
        assert metrics.completed == 1
        assert metrics.busy_time == pytest.approx(0.04)  # both counted

    def test_stray_arriving_at_the_reset_instant_is_still_a_stray(self):
        # The warm-up part of a burst that straddles the boundary arrives
        # at the instant the window opens; only the stamp tells it apart.
        metrics = ServerMetrics(start_time=0.0)
        stray = completed_query(arrival=10.0)
        metrics.note_arrival(stray, 10.0)
        metrics.reset(10.0)
        fresh = completed_query(arrival=10.0)
        metrics.note_arrival(fresh, 10.0)
        metrics.record_completion(stray)
        metrics.record_expiration(stray, wasted_work=0.0)
        metrics.record_error(stray)
        assert (metrics.completed, metrics.expired, metrics.errors) == (0, 0, 0)
        metrics.record_completion(fresh)
        assert metrics.completed == 1

    def test_utilization_is_admitted_work_over_capacity(self):
        metrics = ServerMetrics(start_time=0.0)
        metrics.record_admission(0.5)
        metrics.record_admission(0.5)
        # 1 second of work over (2s x 2 procs) = 25%.
        assert metrics.utilization(2.0, 2) == pytest.approx(0.25)
        assert metrics.utilization(2.0, 0) == 0.0
        assert metrics.utilization(0.0, 2) == 0.0

    def test_utilization_caps_at_one(self):
        metrics = ServerMetrics(start_time=0.0)
        metrics.record_admission(100.0)
        assert metrics.utilization(1.0, 1) == 1.0

    def test_busy_utilization_uses_completed_work(self):
        metrics = ServerMetrics(start_time=0.0)
        metrics.record_completion(completed_query(proc=1.0))
        assert metrics.busy_utilization(2.0, 1) == pytest.approx(0.5)

    def test_overall_pools_types(self):
        metrics = ServerMetrics()
        metrics.record_completion(completed_query(qtype="a", proc=0.01))
        metrics.record_completion(completed_query(qtype="b", proc=0.03))
        overall = metrics.build_overall_stats()
        assert overall.completed == 2
        assert overall.processing_mean == pytest.approx(0.02)

    def test_report_percentiles_cover_paper_set(self):
        assert 50.0 in REPORT_PERCENTILES
        assert 90.0 in REPORT_PERCENTILES


class TestTypeStats:
    def test_received_includes_expired(self):
        stats = TypeStats(qtype="x", completed=5, rejected=3, expired=2)
        assert stats.received == 10
        assert stats.rejection_pct == pytest.approx(30.0)

    def test_empty_rejection_pct(self):
        assert TypeStats(qtype="x").rejection_pct == 0.0


class TestSimulationReport:
    def make_report(self):
        per_type = {"a": TypeStats(qtype="a", completed=10, rejected=0,
                                   response={50.0: 0.01, 90.0: 0.02})}
        overall = TypeStats(qtype="ALL", completed=10, rejected=0,
                            response={50.0: 0.01, 90.0: 0.02})
        return SimulationReport(policy_name="p", rate_qps=100.0,
                                parallelism=4, duration=1.0,
                                utilization=0.5, per_type=per_type,
                                overall=overall)

    def test_stats_for_unknown_type_is_empty(self):
        report = self.make_report()
        assert report.stats_for("zzz").completed == 0
        assert report.response_percentile("zzz", 50.0) == 0.0

    def test_stats_for_none_is_overall(self):
        report = self.make_report()
        assert report.stats_for(None).qtype == "ALL"

    def test_str_renders(self):
        text = str(self.make_report())
        assert "policy=p" in text
        assert "a" in text


class TestHostContext:
    def test_rejects_bad_parallelism(self):
        with pytest.raises(ConfigurationError):
            HostContext(clock=ManualClock(), queue=QueueView(),
                        parallelism=0)
