"""Unit tests for workload modelling (query types, mixes, arrivals)."""

import math
import random

import pytest

from repro.core.types import Query
from repro.exceptions import ConfigurationError
from repro.sim.workload import (ArrivalSchedule, QueryTypeSpec, WorkloadMix,
                                service_time_of)


def table1_mix():
    return WorkloadMix([
        QueryTypeSpec.from_mean_median("fast", 0.40, 1.16e-3, 0.38e-3),
        QueryTypeSpec.from_mean_median("medium_fast", 0.20, 2.53e-3,
                                       2.22e-3),
        QueryTypeSpec.from_mean_median("medium_slow", 0.30, 12.13e-3,
                                       7.40e-3),
        QueryTypeSpec.from_mean_median("slow", 0.10, 20.05e-3, 12.51e-3),
    ])


class TestQueryTypeSpec:
    def test_from_mean_median_reproduces_both_moments(self):
        spec = QueryTypeSpec.from_mean_median("t", 1.0, mean=0.020,
                                              median=0.012)
        assert spec.mean == pytest.approx(0.020)
        assert spec.median == pytest.approx(0.012)

    def test_table1_p90s_match_paper_within_5pct(self):
        # Table 1 publishes p90s; our lognormal fit must land close,
        # confirming the paper's distributions are this lognormal family.
        published = {"fast": 2.70e-3, "medium_fast": 4.27e-3,
                     "medium_slow": 26.44e-3, "slow": 44.26e-3}
        for spec in table1_mix():
            assert spec.p90 == pytest.approx(published[spec.name], rel=0.05)

    def test_percentile_consistency(self):
        spec = QueryTypeSpec.from_mean_median("t", 1.0, 0.020, 0.012)
        assert spec.percentile(50) == pytest.approx(spec.median)
        assert spec.percentile(90) == pytest.approx(spec.p90)

    def test_sampling_statistics(self):
        spec = QueryTypeSpec.from_mean_median("t", 1.0, 0.020, 0.012)
        rng = random.Random(42)
        samples = sorted(spec.sample(rng) for _ in range(20000))
        sample_mean = sum(samples) / len(samples)
        sample_median = samples[len(samples) // 2]
        assert sample_mean == pytest.approx(0.020, rel=0.05)
        assert sample_median == pytest.approx(0.012, rel=0.05)

    def test_zero_sigma_is_deterministic(self):
        spec = QueryTypeSpec("t", 1.0, mu=math.log(0.01), sigma=0.0)
        rng = random.Random(0)
        assert spec.sample(rng) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QueryTypeSpec("", 0.5, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            QueryTypeSpec("t", 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            QueryTypeSpec("t", 0.5, 0.0, -1.0)
        with pytest.raises(ConfigurationError):
            QueryTypeSpec.from_mean_median("t", 0.5, mean=0.01, median=0.02)
        with pytest.raises(ConfigurationError):
            QueryTypeSpec.from_mean_median("t", 0.5, mean=-1, median=0.02)


class TestWorkloadMix:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix([QueryTypeSpec.from_mean_median("a", 0.5, 0.01,
                                                        0.005)])

    def test_duplicate_names_rejected(self):
        spec = QueryTypeSpec.from_mean_median("a", 0.5, 0.01, 0.005)
        with pytest.raises(ConfigurationError):
            WorkloadMix([spec, spec])

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix([])

    def test_weighted_mean_matches_paper_footnote(self):
        # Paper footnote 7: pt_wmean = 6.614 ms for Table 1.
        assert table1_mix().weighted_mean_pt == pytest.approx(6.614e-3,
                                                              rel=1e-3)

    def test_full_load_qps_matches_paper(self):
        # Paper: QPS_full_load ~= 15.1 kQPS with P = 100.
        assert table1_mix().full_load_qps(100) == pytest.approx(15100,
                                                                rel=0.01)

    def test_full_load_requires_positive_parallelism(self):
        with pytest.raises(ConfigurationError):
            table1_mix().full_load_qps(0)

    def test_sample_type_respects_proportions(self):
        mix = table1_mix()
        rng = random.Random(7)
        counts = {}
        n = 40000
        for _ in range(n):
            spec = mix.sample_type(rng)
            counts[spec.name] = counts.get(spec.name, 0) + 1
        assert counts["fast"] / n == pytest.approx(0.40, abs=0.02)
        assert counts["slow"] / n == pytest.approx(0.10, abs=0.02)

    def test_spec_lookup(self):
        mix = table1_mix()
        assert mix.spec("slow").name == "slow"
        with pytest.raises(KeyError):
            mix.spec("nope")

    def test_type_names_ordered(self):
        assert table1_mix().type_names == (
            "fast", "medium_fast", "medium_slow", "slow")


class TestArrivalSchedule:
    def test_rejects_nonpositive_rate(self):
        # NaN fails no ``rate <= 0`` test: it must be refused as well, or
        # every arrival time comes out NaN.
        for rate in (0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                ArrivalSchedule(table1_mix(), rate_qps=rate)

    @pytest.mark.parametrize("burst", [2.5, 2.0, 0, -1])
    def test_rejects_a_burst_that_is_not_a_positive_integer(self, burst):
        # int() would truncate 2.5 to 2 without a word.
        with pytest.raises(ConfigurationError):
            ArrivalSchedule(table1_mix(), 1000.0, burst=burst)

    def test_arrival_times_strictly_increase(self):
        schedule = iter(ArrivalSchedule(table1_mix(), 1000.0, seed=1))
        times = [next(schedule).arrival_time for _ in range(100)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_rate_matches(self):
        schedule = iter(ArrivalSchedule(table1_mix(), 5000.0, seed=2))
        queries = [next(schedule) for _ in range(20000)]
        elapsed = queries[-1].arrival_time
        assert len(queries) / elapsed == pytest.approx(5000.0, rel=0.05)

    def test_same_seed_same_sequence(self):
        a = iter(ArrivalSchedule(table1_mix(), 1000.0, seed=3))
        b = iter(ArrivalSchedule(table1_mix(), 1000.0, seed=3))
        for _ in range(50):
            qa, qb = next(a), next(b)
            assert qa.arrival_time == qb.arrival_time
            assert qa.qtype == qb.qtype
            assert qa.payload == qb.payload

    def test_different_seed_differs(self):
        a = next(iter(ArrivalSchedule(table1_mix(), 1000.0, seed=3)))
        b = next(iter(ArrivalSchedule(table1_mix(), 1000.0, seed=4)))
        assert (a.arrival_time, a.payload) != (b.arrival_time, b.payload)

    def test_queries_carry_sampled_service_time(self):
        query = next(iter(ArrivalSchedule(table1_mix(), 1000.0, seed=5)))
        assert service_time_of(query) > 0.0


class TestServiceTimeOf:
    def test_rejects_query_without_demand(self):
        with pytest.raises(ConfigurationError):
            service_time_of(Query(qtype="x"))

    def test_reads_payload(self):
        assert service_time_of(Query(qtype="x", payload=0.042)) == 0.042
