"""Typed metrics: counters, gauges, and histograms with flat-name labels.

A metric is addressed by a name plus optional labels, rendered into a
single flat string key (``retry_total{stage=routing}``) so serialized
manifests stay plain JSON objects and cross-process merging is a dict
merge.  Counters and histograms cross process boundaries: parallel
workers return counter values and histogram ``(count, sum, min, max)``
summaries with each :class:`~repro.core.dataset.AttemptOutcome`, and the
parent merges them in submission order, so totals are identical for any
worker count.  Gauges stay process-local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def flat_name(name: str, labels: dict[str, Any] | None = None) -> str:
    """Render ``name`` plus labels into the canonical flat key.

    Labels are sorted so the key is independent of call-site order.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing integer metric."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value metric (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """A streaming summary of observed values (count/sum/min/max)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge_summary(self, count: int, total: float,
                      min_value: float, max_value: float) -> None:
        """Fold a pre-aggregated (count, sum, min, max) summary in.

        Lets producers that already aggregate locally (e.g. the router's
        per-net frontier-batch window, or a worker process) report without
        replaying every observation.
        """
        if count <= 0:
            return
        self.count += int(count)
        self.total += float(total)
        if min_value < self.min:
            self.min = float(min_value)
        if max_value > self.max:
            self.max = float(max_value)

    def to_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "mean": self.total / self.count}


class _NullMetric:
    """Shared no-op metric handed out by a disabled registry/context."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def merge_summary(self, count: int, total: float,
                      min_value: float, max_value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


@dataclass
class MetricsRegistry:
    """Holds every metric of one run, keyed by flat name."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str, **labels: Any) -> Counter:
        key = flat_name(name, labels)
        metric = self.counters.get(key)
        if metric is None:
            metric = self.counters[key] = Counter(key)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = flat_name(name, labels)
        metric = self.gauges.get(key)
        if metric is None:
            metric = self.gauges[key] = Gauge(key)
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = flat_name(name, labels)
        metric = self.histograms.get(key)
        if metric is None:
            metric = self.histograms[key] = Histogram(key)
        return metric

    def counter_values(self) -> dict[str, int]:
        """Counter totals as a plain mergeable dict (sorted keys)."""
        return {key: self.counters[key].value
                for key in sorted(self.counters)}

    def absorb_counters(self, values: dict[str, int]) -> None:
        """Merge counter totals from another registry (e.g. a worker)."""
        for key, value in values.items():
            metric = self.counters.get(key)
            if metric is None:
                metric = self.counters[key] = Counter(key)
            metric.value += int(value)

    def histogram_summaries(self) -> dict[str, tuple]:
        """Histogram ``(count, sum, min, max)`` summaries (sorted keys)."""
        return {key: (h.count, h.total, h.min, h.max)
                for key, h in sorted(self.histograms.items())}

    def absorb_histograms(self, summaries: dict[str, tuple]) -> None:
        """Fold histogram summaries from another registry in."""
        for key, summary in summaries.items():
            metric = self.histograms.get(key)
            if metric is None:
                metric = self.histograms[key] = Histogram(key)
            metric.merge_summary(*summary)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every metric, keys sorted."""
        return {
            "counters": self.counter_values(),
            "gauges": {key: self.gauges[key].value
                       for key in sorted(self.gauges)},
            "histograms": {key: self.histograms[key].to_dict()
                           for key in sorted(self.histograms)},
        }
