"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is deliberately tiny — three metric kinds, label support, and
an immutable :class:`MetricsSnapshot` view that serialises straight to JSON
(``to_dict``) or Prometheus text format (:func:`repro.obs.export.to_prometheus`).
Everything is process-local and thread-safe under a single registry lock;
there is no push gateway, no background thread, no third-party dependency.

Metric names follow Prometheus conventions (``[a-zA-Z_:][a-zA-Z0-9_:]*``,
counters end in ``_total`` or a unit suffix). Span durations land in the
shared ``span_seconds`` histogram with a ``span`` label carrying the dotted
span name (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, in seconds. Chosen for the spans
#: this codebase actually has: sub-millisecond event-log appends up to
#: multi-second full resolves. ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable form of a label mapping (sorted, stringified)."""
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class _Metric:
    """Common behaviour: a name, a help string, per-label-set samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._lock = lock
        self._samples: Dict[LabelKey, float] = {}

    def _snapshot_samples(self) -> List[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._samples.items())
        ]

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "samples": self._snapshot_samples(),
        }


class Counter(_Metric):
    """Monotonically increasing value, e.g. ``hits_issued_total``."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value


class Gauge(_Metric):
    """Point-in-time value that may go up or down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value


class Histogram(_Metric):
    """Distribution over fixed bucket boundaries (cumulative at export)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be sorted and unique")
        self.buckets = bounds
        # per label set: [per-bucket counts incl. +Inf overflow, sum, count]
        self._series: Dict[LabelKey, List] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def _snapshot(self) -> dict:
        samples = [
            {
                "labels": dict(key),
                "counts": list(series[0]),
                "sum": series[1],
                "count": series[2],
            }
            for key, series in sorted(self._series.items())
        ]
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "samples": samples,
        }


class MetricsRegistry:
    """Create-or-get factory for metrics plus atomic snapshotting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, name: str, factory) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get(name, lambda: Counter(name, help, self._lock))
        if not isinstance(metric, Counter):
            raise ValueError(f"{name} already registered as {metric.kind}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get(name, lambda: Gauge(name, help, self._lock))
        if not isinstance(metric, Gauge):
            raise ValueError(f"{name} already registered as {metric.kind}")
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get(name, lambda: Histogram(name, help, self._lock, buckets))
        if not isinstance(metric, Histogram):
            raise ValueError(f"{name} already registered as {metric.kind}")
        return metric

    def snapshot(self) -> "MetricsSnapshot":
        with self._lock:
            metrics = list(self._metrics.values())
        return MetricsSnapshot([metric._snapshot() for metric in metrics])


def _labels_match(sample_labels: Mapping[str, str], wanted: Mapping[str, object]) -> bool:
    return all(sample_labels.get(key) == str(value) for key, value in wanted.items())


class MetricsSnapshot:
    """Immutable, JSON-ready view of a registry at one instant."""

    def __init__(self, metrics: List[dict]) -> None:
        self.metrics = metrics

    def to_dict(self) -> dict:
        return {"metrics": self.metrics}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        return cls(list(payload.get("metrics", [])))

    def get(self, name: str) -> Optional[dict]:
        for metric in self.metrics:
            if metric["name"] == name:
                return metric
        return None

    def counter_total(self, name: str, **labels: object) -> float:
        """Sum of a counter's samples whose labels match ``labels``."""
        metric = self.get(name)
        if metric is None or metric["kind"] != "counter":
            return 0.0
        return sum(
            sample["value"]
            for sample in metric["samples"]
            if _labels_match(sample["labels"], labels)
        )

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        metric = self.get(name)
        if metric is None or metric["kind"] != "gauge":
            return None
        for sample in metric["samples"]:
            if _labels_match(sample["labels"], labels):
                return sample["value"]
        return None

    def histogram_sum(self, name: str, **labels: object) -> float:
        metric = self.get(name)
        if metric is None or metric["kind"] != "histogram":
            return 0.0
        return sum(
            sample["sum"]
            for sample in metric["samples"]
            if _labels_match(sample["labels"], labels)
        )

    def histogram_count(self, name: str, **labels: object) -> int:
        metric = self.get(name)
        if metric is None or metric["kind"] != "histogram":
            return 0
        return sum(
            sample["count"]
            for sample in metric["samples"]
            if _labels_match(sample["labels"], labels)
        )
