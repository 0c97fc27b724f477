"""Statistics primitives shared by every subsystem.

All simulator statistics flow through these classes so that experiment
harnesses can dump a uniform report: counters for event counts and
histograms for latency distributions.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional


class Counter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram with exact mean/min/max and bucketed counts.

    Buckets are fixed-width; samples beyond the last bucket edge land in an
    overflow bucket, samples below zero in an underflow bucket.  Mean and
    extrema are exact regardless of bucketing.
    """

    def __init__(self, name: str, bucket_width: float = 1.0, num_buckets: int = 256):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.name = name
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        # floor, not int(): truncation toward zero would file samples in
        # (-bucket_width, 0) under bucket 0 instead of the underflow bucket.
        index = math.floor(value / self.bucket_width)
        if index < 0:
            self.underflow += 1
        elif index < len(self.buckets):
            self.buckets[index] += 1
        else:
            self.overflow += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        return max(0.0, self.total_sq / self.count - mean * mean)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from bucket boundaries (0 < fraction <= 1).

        Out-of-range samples participate: underflow samples sit below every
        bucket (a percentile landing among them reports ``min_value``) and
        overflow samples above every bucket (reporting ``max_value``), so a
        mid-range percentile is never dragged to an extreme merely because
        some samples fell outside the bucketed range.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        running = self.underflow
        if running >= target:
            return self.min_value
        for index, bucket_count in enumerate(self.buckets):
            running += bucket_count
            if running >= target:
                return (index + 1) * self.bucket_width
        # The percentile lies among the overflow samples.
        return self.max_value

    def reset(self) -> None:
        self.buckets = [0] * len(self.buckets)
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.2f})"


class StatsScope:
    """A prefixed view onto a :class:`StatsRegistry`.

    ``registry.scope("noc.router")`` returns a child view whose
    :meth:`counter` / :meth:`histogram` auto-prefix names with
    ``"noc.router."``, so components never hand-concatenate metric-name
    strings.  Scopes nest (``scope.scope("0.0.0")``) and are cheap enough
    to create per component at construction time; the statistics
    themselves still live in the shared registry, so two scopes with the
    same prefix resolve to the same objects.
    """

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "StatsRegistry", prefix: str):
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self._registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry._counter(f"{self.prefix}.{name}")

    def histogram(
        self, name: str, bucket_width: float = 1.0, num_buckets: int = 256
    ) -> Histogram:
        return self._registry._histogram(
            f"{self.prefix}.{name}", bucket_width, num_buckets
        )

    def scope(self, prefix: str) -> "StatsScope":
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        return StatsScope(self._registry, f"{self.prefix}.{prefix}")

    def snapshot(self) -> dict[str, float]:
        return self._registry.snapshot(prefix=self.prefix)

    def __repr__(self) -> str:
        return f"StatsScope({self.prefix!r})"


class StatsRegistry:
    """A hierarchical namespace of counters and histograms.

    Components ask a :class:`StatsScope` (from :meth:`scope`) for named
    statistics; asking twice for the same name returns the same object, so
    producers and reporters do not need to share references explicitly.
    """

    def __init__(self, name: str = "stats"):
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def scope(self, prefix: str) -> StatsScope:
        """Return a child view that prefixes every metric name with ``prefix.``."""
        return StatsScope(self, prefix)

    def _counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def _histogram(
        self, name: str, bucket_width: float = 1.0, num_buckets: int = 256
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name, bucket_width, num_buckets)
            self._histograms[name] = hist
        elif hist.bucket_width != bucket_width or len(hist.buckets) != num_buckets:
            # Silently returning the existing histogram would let two
            # subsystems share one histogram with the wrong bucketing.
            raise ValueError(
                f"histogram {name!r} already exists with "
                f"bucket_width={hist.bucket_width}, "
                f"num_buckets={len(hist.buckets)}; requested "
                f"bucket_width={bucket_width}, num_buckets={num_buckets}"
            )
        return hist

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    @staticmethod
    def _matches(name: str, prefix: Optional[str]) -> bool:
        if prefix is None:
            return True
        return name == prefix or name.startswith(prefix + ".")

    def snapshot(self, prefix: Optional[str] = None) -> dict[str, float]:
        """Flat dict of every statistic, for report generation.

        ``prefix`` restricts the result to statistics whose name equals
        ``prefix`` or lives under ``prefix.`` (dotted-hierarchy match, not
        raw startswith: ``prefix="l2"`` matches ``l2.hits`` but never
        ``l2x.hits``).  Histograms contribute their out-of-range sample
        counts (``<name>.underflow`` / ``<name>.overflow``) alongside mean
        and count, so tail-heavy distributions are visible in reports.
        """
        result: dict[str, float] = {}
        for counter in self._counters.values():
            if self._matches(counter.name, prefix):
                result[counter.name] = counter.value
        for histogram in self._histograms.values():
            if self._matches(histogram.name, prefix):
                result[f"{histogram.name}.mean"] = histogram.mean
                result[f"{histogram.name}.count"] = histogram.count
                result[f"{histogram.name}.underflow"] = histogram.underflow
                result[f"{histogram.name}.overflow"] = histogram.overflow
        return result
