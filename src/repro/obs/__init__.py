"""Deterministic observability substrate: tracing + metrics.

The package is an import leaf (stdlib only) so every layer — rdf
durability included — can depend on it without cycles.  Two halves:

- :mod:`repro.obs.trace` — sim-clock-anchored spans whose trace/span IDs
  are stateless SHA-256 hashes of ``(seed, request key, span path)``,
  so no ID depends on execution order.  ``NULL_TRACER`` is
  the shared disabled recorder; call sites guard on ``obs.enabled`` so
  instrumentation costs one attribute check when off.
- :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms (nearest-rank percentiles) that the existing
  stat surfaces register into instead of each inventing its own dict.

Exports split into two tiers (see ARCHITECTURE.md "Observability"):
the *profile* tier (every span/metric, reproducible at a fixed config)
and the *canonical* tier (request identity + canonical result digests +
workload-derived counters), whose digests are invariant across scheduler
parallelism, and across cache configuration while the endpoint answers
every query the same way.
"""

from .metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer, result_digest

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_MS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Observatory",
    "result_digest",
]


class Observatory:
    """A tracer and a metrics registry bundled behind one handle.

    Pass one to ``QueryServer(obs=...)`` (or attach the tracer directly
    to an endpoint/engine) to light up the whole stack.  ``seed`` feeds
    the trace/span ID hashes; ``clock`` anchors span timestamps — both
    default to the degenerate values so an Observatory works standalone
    (EXPLAIN ANALYZE uses one with no clock).  ``detail=True`` also
    records per-operator engine events (scans, joins, probe builds) in
    every trace — EXPLAIN ANALYZE always runs at that tier, but serving
    keeps it off by default because counting every scanned row costs
    real time on scan-heavy workloads.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(self, clock=None, seed: int = 0, detail: bool = False) -> None:
        self.tracer = Tracer(seed=seed, clock=clock, detail=detail)
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def export_jsonl(self) -> str:
        """All spans then all metrics, one JSON object per line."""
        parts = [self.tracer.export_jsonl(), self.metrics.export_jsonl()]
        return "\n".join(part for part in parts if part)

    def canonical_digest(self) -> str:
        """Digest of the parallelism-invariant tier (traces + metrics)."""
        import hashlib

        blob = self.tracer.canonical_digest() + ":" + self.metrics.digest(canonical_only=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
