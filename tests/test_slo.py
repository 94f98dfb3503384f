"""Unit tests for repro.core.slo."""

import pytest

from repro.core.slo import LatencySLO, SLORegistry
from repro.core.types import DEFAULT_QUERY_TYPE
from repro.exceptions import ConfigurationError


class TestLatencySLO:
    def test_basic_targets(self):
        slo = LatencySLO({50: 0.018, 90: 0.050})
        assert slo.percentiles == (50, 90)
        assert slo.target(50) == pytest.approx(0.018)
        assert slo.target(90) == pytest.approx(0.050)

    def test_from_ms(self):
        slo = LatencySLO.from_ms(p50=18, p90=50)
        assert slo == LatencySLO({50: 0.018, 90: 0.050})

    def test_from_ms_rejects_bad_keyword(self):
        with pytest.raises(ConfigurationError):
            LatencySLO.from_ms(q50=18)
        with pytest.raises(ConfigurationError):
            LatencySLO.from_ms(pfast=18)

    def test_supports_p99_and_fractional_percentiles(self):
        slo = LatencySLO({50: 0.01, 99: 0.1, 99.9: 0.5})
        assert 99.9 in slo.percentiles

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            LatencySLO({})

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ConfigurationError):
            LatencySLO({0: 0.01})
        with pytest.raises(ConfigurationError):
            LatencySLO({100: 0.01})

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ConfigurationError):
            LatencySLO({50: 0.0})

    def test_rejects_nan_target(self):
        # A NaN target is never exceeded: it would leave its percentile
        # silently unconstrained.
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            LatencySLO({50: nan, 90: 0.05})
        with pytest.raises(ConfigurationError):
            LatencySLO.from_ms(p50=nan)

    def test_rejects_decreasing_targets(self):
        with pytest.raises(ConfigurationError):
            LatencySLO({50: 0.050, 90: 0.018})

    def test_is_met_by(self):
        slo = LatencySLO.from_ms(p50=18, p90=50)
        assert slo.is_met_by({50: 0.017, 90: 0.049})
        assert not slo.is_met_by({50: 0.019, 90: 0.049})
        assert not slo.is_met_by({50: 0.017})  # missing percentile

    def test_equality_and_hash(self):
        a = LatencySLO.from_ms(p50=18, p90=50)
        b = LatencySLO.from_ms(p50=18, p90=50)
        assert a == b
        assert hash(a) == hash(b)
        assert a != LatencySLO.from_ms(p50=10, p90=50)

    def test_repr_is_readable(self):
        assert "p50=18ms" in repr(LatencySLO.from_ms(p50=18, p90=50))


class TestSLORegistry:
    def test_default_fallback(self):
        default = LatencySLO.from_ms(p50=30, p90=400)
        fast = LatencySLO.from_ms(p50=10, p90=90)
        registry = SLORegistry(default, {"Fast": fast})
        assert registry.for_type("Fast") == fast
        assert registry.for_type("Unknown") == default
        assert registry.default == default

    def test_uniform(self):
        slo = LatencySLO.from_ms(p50=18, p90=50)
        registry = SLORegistry.uniform(slo, ["a", "b"])
        assert registry.for_type("a") == slo
        assert registry.for_type("c") == slo

    def test_register_replaces(self):
        slo1 = LatencySLO.from_ms(p50=18, p90=50)
        slo2 = LatencySLO.from_ms(p50=5, p90=20)
        registry = SLORegistry(slo1)
        registry.register("t", slo1)
        registry.register("t", slo2)
        assert registry.for_type("t") == slo2

    def test_register_bumps_version(self):
        slo = LatencySLO.from_ms(p50=18, p90=50)
        registry = SLORegistry(slo, {"a": slo})
        before = registry.version
        registry.register("t", slo)
        registry.register(DEFAULT_QUERY_TYPE, slo)
        assert registry.version == before + 2

    def test_register_default_type_updates_default(self):
        slo1 = LatencySLO.from_ms(p50=18, p90=50)
        slo2 = LatencySLO.from_ms(p50=99, p90=200)
        registry = SLORegistry(slo1)
        registry.register(DEFAULT_QUERY_TYPE, slo2)
        assert registry.default == slo2

    def test_register_rejects_empty_name(self):
        registry = SLORegistry(LatencySLO.from_ms(p50=18, p90=50))
        with pytest.raises(ConfigurationError):
            registry.register("", LatencySLO.from_ms(p50=1, p90=2))

    def test_is_registered(self):
        registry = SLORegistry(LatencySLO.from_ms(p50=18, p90=50),
                               {"t": LatencySLO.from_ms(p50=1, p90=2)})
        assert registry.is_registered("t")
        assert not registry.is_registered("other")

    def test_known_types_includes_default(self):
        registry = SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                                       ["a", "b"])
        assert set(registry.known_types()) == {"a", "b", DEFAULT_QUERY_TYPE}

    def test_all_percentiles_union(self):
        registry = SLORegistry(
            LatencySLO.from_ms(p50=18, p90=50),
            {"x": LatencySLO.from_ms(p99=100)})
        assert registry.all_percentiles() == (50, 90, 99)
