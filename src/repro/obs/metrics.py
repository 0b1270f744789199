"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

Every stat surface in the stack (``EndpointStats``, ``exec_stats``,
cache/admission counters, monitor probes) registers here
instead of inventing its own dict, so one ``registry.dump()`` shows
serving latency next to endpoint weather next to cache behaviour — and
one vocabulary table in ARCHITECTURE.md names them all (enforced by
``tests/test_repo_hygiene.py``).

Two registration styles:

- **push**: ``registry.counter("serving.served_total").inc()`` /
  ``histogram.observe(ms)`` at the event site.
- **pull**: ``registry.bind("cache.hits", lambda: cache.info()["hits"])``
  for surfaces that already keep their own counters; the source is read
  at dump time, so binding changes no behavior.

Metrics flagged ``canonical=True`` form the parallelism-invariant tier:
only values derived from the workload (never from execution order) may
carry the flag — ``digest(canonical_only=True)``
is pinned equal across scheduler parallelism and cache configs in
tier-1.  Histograms use fixed bucket bounds with nearest-rank
percentiles over bucket upper edges, the same convention as
``ServingReport.latency_percentiles``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_MS",
]

#: Default histogram bucket upper bounds, in simulated milliseconds.
#: Roughly log-spaced from "cache hit" (1–2ms) to "multi-day outage
#: retry ladder" (2 minutes); observations above the last bound land in
#: an overflow bucket reported as ``inf``.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0, 60000.0, 120000.0,
)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "help", "canonical", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", canonical: bool = False) -> None:
        self.name = name
        self.help = help
        self.canonical = canonical
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """Last-write-wins scalar.  Constructed with ``source=`` it becomes
    a pull gauge: the callable is read at snapshot time."""

    __slots__ = ("name", "help", "canonical", "_value", "_source")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", canonical: bool = False,
                 source: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self.help = help
        self.canonical = canonical
        self._value: Any = 0
        self._source = source

    def set(self, value: Any) -> None:
        if self._source is not None:
            raise ValueError(f"gauge {self.name} is bound to a source; cannot set()")
        self._value = value

    def rebind(self, source: Callable[[], Any]) -> None:
        self._source = source

    def snapshot(self) -> Any:
        if self._source is not None:
            return self._source()
        return self._value


class Histogram:
    """Fixed-bound bucket histogram with nearest-rank percentiles.

    ``percentile(p)`` returns the upper edge of the bucket holding the
    nearest-rank observation (``inf`` for the overflow bucket) — the
    resolution trade that keeps ``observe`` O(log buckets) and the
    export O(buckets), independent of observation count.
    """

    __slots__ = ("name", "help", "canonical", "bounds", "counts", "count", "total")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", canonical: bool = False,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_MS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError(f"histogram {name}: bounds must be sorted and non-empty")
        self.name = name
        self.help = help
        self.canonical = canonical
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile resolved to a bucket upper edge."""
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * n), ≥1
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return self.bounds[index] if index < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - rank ≤ count by construction

    def snapshot(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "count": self.count,
            "total": round(self.total, 6),
        }
        for label, p in (("p50", 50), ("p95", 95), ("p99", 99)):
            value = self.percentile(p)
            summary[label] = "inf" if value == float("inf") else value
        return summary


class MetricsRegistry:
    """Get-or-create home for every metric in the process."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # -- constructors (get-or-create, type-checked) -------------------

    def counter(self, name: str, help: str = "", canonical: bool = False) -> Counter:
        return self._get_or_create(Counter, name, help=help, canonical=canonical)

    def gauge(self, name: str, help: str = "", canonical: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, canonical=canonical)

    def histogram(self, name: str, help: str = "", canonical: bool = False,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_MS) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, canonical=canonical,
                                   bounds=bounds)

    def bind(self, name: str, source: Callable[[], Any], help: str = "",
             canonical: bool = False) -> Gauge:
        """Register (or re-point) a pull gauge reading ``source()`` at
        dump time.  Re-binding an existing name repoints it — a server
        rebuilt over the same registry takes over its gauges."""
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Gauge):
                raise TypeError(f"metric {name} already registered as {existing.kind}")
            existing.rebind(source)
            return existing
        gauge = Gauge(name, help=help, canonical=canonical, source=source)
        self._metrics[name] = gauge
        return gauge

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(f"metric {name} already registered as {metric.kind}")
            return metric
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    # -- introspection ------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Any:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export -------------------------------------------------------

    def dump(self, canonical_only: bool = False) -> Dict[str, Any]:
        """Name → value (scalar for counters/gauges, summary dict for
        histograms), sorted by name."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
            if metric.canonical or not canonical_only
        }

    def export_jsonl(self, canonical_only: bool = False) -> str:
        lines = []
        for name, metric in sorted(self._metrics.items()):
            if canonical_only and not metric.canonical:
                continue
            lines.append(json.dumps(
                {"kind": metric.kind, "name": name, "canonical": metric.canonical,
                 "value": metric.snapshot()},
                sort_keys=True, separators=(",", ":")))
        return "\n".join(lines)

    def digest(self, canonical_only: bool = True) -> str:
        blob = json.dumps(self.dump(canonical_only=canonical_only),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
