"""Tests for the open-loop load generator."""

import math
import time

import pytest

from repro.core import AlwaysAcceptPolicy, AlwaysRejectPolicy
from repro.core.types import Query
from repro.exceptions import ConfigurationError
from repro.runtime import AdmissionServer, LoadGenerator


def fast_handler(query: Query):
    return "ok"


def make_query(rng):
    return Query(qtype="edge" if rng.random() < 0.7 else "distance")


class TestLoadGenerator:
    def test_rejects_bad_rate(self):
        server = AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                                 fast_handler)
        for rate in (0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                LoadGenerator(server, make_query, rate_qps=rate)

    def test_rejects_bad_count(self):
        server = AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                                 fast_handler)
        gen = LoadGenerator(server, make_query, rate_qps=100)
        with pytest.raises(ConfigurationError):
            gen.run(0)

    def test_offered_rate_close_to_target(self):
        with AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                             fast_handler, workers=4) as server:
            gen = LoadGenerator(server, make_query, rate_qps=2000, seed=1)
            result = gen.run(600)
            assert result.offered == 600
            assert result.offered_qps == pytest.approx(2000, rel=0.4)

    def test_all_accepted_when_policy_accepts(self):
        with AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                             fast_handler, workers=4) as server:
            gen = LoadGenerator(server, make_query, rate_qps=3000, seed=2)
            result = gen.run(300)
            assert result.accepted == 300
            assert result.rejected == 0
            assert result.rejection_pct == 0.0
            assert result.errors == 0

    def test_rejections_counted_per_type(self):
        with AdmissionServer(lambda ctx: AlwaysRejectPolicy(),
                             fast_handler, workers=2) as server:
            gen = LoadGenerator(server, make_query, rate_qps=5000, seed=3)
            result = gen.run(200)
            assert result.rejected == 200
            assert result.rejection_pct == 100.0
            assert sum(result.rejected_by_type.values()) == 200
            assert set(result.rejected_by_type) <= {"edge", "distance"}

    def test_response_times_recorded_per_type(self):
        def sleepy(query):
            time.sleep(0.001)  # repro: allow=no-wall-clock (real handler latency for a real-thread server)
            return "ok"

        with AdmissionServer(lambda ctx: AlwaysAcceptPolicy(), sleepy,
                             workers=4) as server:
            gen = LoadGenerator(server, make_query, rate_qps=2000, seed=4)
            result = gen.run(200)
            ps = result.response_percentiles()
            assert ps[50.0] >= 0.001
            assert result.mean_response() >= 0.001
            assert result.response_percentiles("edge")[50.0] > 0

    def test_errors_counted(self):
        def flaky(query):
            raise ValueError("nope")

        with AdmissionServer(lambda ctx: AlwaysAcceptPolicy(), flaky,
                             workers=2) as server:
            gen = LoadGenerator(server, make_query, rate_qps=5000, seed=5)
            result = gen.run(50)
            assert result.errors == 50
            assert result.accepted == 0

    def test_unknown_type_percentiles_empty(self):
        with AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                             fast_handler, workers=2) as server:
            gen = LoadGenerator(server, make_query, rate_qps=5000, seed=6)
            result = gen.run(30)
            assert result.response_percentiles("missing")[50.0] == 0.0
