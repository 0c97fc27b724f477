"""Unit tests for statistics primitives."""

import math
import warnings

import pytest

from repro.sim.stats import Counter, Histogram, StatsRegistry


class TestCounter:
    def test_increment(self):
        counter = Counter("events")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_reset(self):
        counter = Counter("events")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_mean_exact(self):
        hist = Histogram("lat")
        hist.extend([1, 2, 3, 4])
        assert hist.mean == 2.5

    def test_min_max(self):
        hist = Histogram("lat")
        hist.extend([5, 1, 9])
        assert hist.min_value == 1
        assert hist.max_value == 9

    def test_stddev(self):
        hist = Histogram("lat")
        hist.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert hist.stddev == pytest.approx(2.0)

    def test_overflow_bucket(self):
        hist = Histogram("lat", bucket_width=1.0, num_buckets=4)
        hist.add(100)
        assert hist.overflow == 1
        assert hist.mean == 100  # mean stays exact despite bucketing

    def test_percentile(self):
        hist = Histogram("lat", bucket_width=1.0, num_buckets=100)
        hist.extend(range(100))
        assert hist.percentile(0.5) == pytest.approx(50, abs=2)
        assert hist.percentile(0.99) == pytest.approx(99, abs=2)

    def test_percentile_validation(self):
        hist = Histogram("lat")
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_reset(self):
        hist = Histogram("lat")
        hist.extend([1, 2, 3])
        hist.reset()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min_value == math.inf

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram("x", bucket_width=0)
        with pytest.raises(ValueError):
            Histogram("x", num_buckets=0)

    def test_negative_fraction_lands_in_underflow(self):
        # Regression: int() truncation filed samples in (-width, 0) under
        # bucket 0; floor-based indexing sends them to the underflow bucket.
        hist = Histogram("lat", bucket_width=1.0, num_buckets=4)
        hist.add(-0.5)
        assert hist.underflow == 1
        assert hist.buckets[0] == 0
        assert hist.mean == -0.5

    def test_underflow_bucket(self):
        hist = Histogram("lat", bucket_width=1.0, num_buckets=4)
        hist.extend([-3.0, -0.1, 0.5])
        assert hist.underflow == 2
        assert hist.buckets[0] == 1

    def test_percentile_counts_overflow_samples(self):
        # Regression: overflow samples were invisible to percentile(), so
        # p50 of {0.5, 100, 101, 102} reported the first bucket edge.
        hist = Histogram("lat", bucket_width=1.0, num_buckets=4)
        hist.extend([0.5, 100.0, 101.0, 102.0])
        assert hist.percentile(0.25) == 1.0  # first in-range bucket edge
        assert hist.percentile(0.5) == 102.0  # among overflow -> max_value
        assert hist.percentile(1.0) == 102.0

    def test_percentile_counts_underflow_samples(self):
        hist = Histogram("lat", bucket_width=1.0, num_buckets=4)
        hist.extend([-5.0, -2.0, 1.5, 2.5])
        assert hist.percentile(0.5) == -5.0  # among underflow -> min_value
        assert hist.percentile(0.75) == 2.0
        assert hist.percentile(1.0) == 3.0


class TestStatsRegistry:
    def test_same_name_same_object(self):
        scope = StatsRegistry().scope("s")
        assert scope.counter("a") is scope.counter("a")
        assert scope.histogram("h") is scope.histogram("h")

    def test_snapshot(self):
        registry = StatsRegistry()
        registry.scope("s").counter("c").increment(7)
        registry.scope("s").histogram("h").add(2.0)
        snap = registry.snapshot()
        assert snap["s.c"] == 7
        assert snap["s.h.mean"] == 2.0
        assert snap["s.h.count"] == 1

    def test_reset_all(self):
        registry = StatsRegistry()
        scope = registry.scope("s")
        scope.counter("c").increment()
        scope.histogram("h").add(1.0)
        registry.reset()
        assert scope.counter("c").value == 0
        assert scope.histogram("h").count == 0

    def test_histogram_bucketing_mismatch_rejected(self):
        registry = StatsRegistry()
        registry.scope("s").histogram("h", bucket_width=2.0, num_buckets=16)
        # A second scope onto the same prefix is the same namespace.
        scope = registry.scope("s")
        with pytest.raises(ValueError, match="already exists"):
            scope.histogram("h", bucket_width=1.0, num_buckets=16)
        with pytest.raises(ValueError, match="already exists"):
            scope.histogram("h", bucket_width=2.0, num_buckets=32)
        # Re-requesting with matching bucketing still shares the object.
        assert scope.histogram("h", bucket_width=2.0, num_buckets=16) \
            is scope.histogram("h", bucket_width=2.0, num_buckets=16)

    def test_snapshot_includes_underflow_and_overflow(self):
        # Regression: snapshot() silently omitted out-of-range samples,
        # so a saturated histogram looked healthy in exported stats.
        registry = StatsRegistry()
        hist = registry.scope("lat").histogram(
            "h", bucket_width=1.0, num_buckets=4
        )
        hist.extend([-2.0, 0.5, 100.0, 101.0])
        snap = registry.snapshot()
        assert snap["lat.h.count"] == 4
        assert snap["lat.h.underflow"] == 1
        assert snap["lat.h.overflow"] == 2


class TestStatsScope:
    def test_scope_prefixes_names(self):
        registry = StatsRegistry()
        scope = registry.scope("router.0")
        scope.counter("flits").increment(3)
        assert registry.snapshot()["router.0.flits"] == 3

    def test_scope_shares_objects_with_full_name(self):
        registry = StatsRegistry()
        scope = registry.scope("noc.nic")
        nested = registry.scope("noc").scope("nic")
        assert nested.counter("injected") is scope.counter("injected")
        assert scope.counter("injected").name == "noc.nic.injected"

    def test_nested_scopes(self):
        registry = StatsRegistry()
        inner = registry.scope("noc").scope("router.1")
        inner.histogram("lat").add(5.0)
        snap = registry.snapshot()
        assert snap["noc.router.1.lat.mean"] == 5.0

    def test_empty_prefix_rejected(self):
        registry = StatsRegistry()
        with pytest.raises(ValueError):
            registry.scope("")
        with pytest.raises(ValueError):
            registry.scope("ok").scope("")

    def test_snapshot_prefix_filter(self):
        registry = StatsRegistry()
        registry.scope("a").counter("x").increment()
        registry.scope("ab").counter("y").increment(2)
        snap = registry.snapshot(prefix="a")
        # Prefix matches whole dotted components, not raw string prefixes.
        assert snap == {"a.x": 1}
        assert registry.snapshot(prefix="ab") == {"ab.y": 2}
        assert registry.snapshot(prefix="missing") == {}

    def test_scope_snapshot_restricted_to_scope(self):
        registry = StatsRegistry()
        registry.scope("bus").counter("flits").increment(4)
        registry.scope("nic").counter("flits").increment(9)
        assert registry.scope("bus").snapshot() == {"bus.flits": 4}

    def test_flat_accessors_are_gone(self):
        # Every statistic lives under a scope; the flat registry-level
        # counter()/histogram() accessors were retired.
        registry = StatsRegistry()
        assert not hasattr(registry, "counter")
        assert not hasattr(registry, "histogram")

    def test_scope_calls_do_not_warn(self):
        registry = StatsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            registry.scope("s").counter("c")
            registry.scope("s").histogram("h")
            registry.snapshot()
