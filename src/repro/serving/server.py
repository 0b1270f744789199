"""The query server: thin front door -> orchestrator -> status/results.

Follows the route-handler + orchestrator + status pattern of the API
layers in SNIPPETS.md: :class:`QueryServer` owns the moving parts (the
wrapped endpoint, the admission queue configuration, the result cache),
``serve`` is the one orchestration entry point, and ``status()`` /
:class:`ServingReport` are the status- and results-shaped read surfaces.
Route handlers stay thin -- the executor (``QueryServer._execute``) is
the only code that touches the endpoint, and the scheduler owns all
timing.

The result cache sits *in front of* the endpoint: a hit serves the
stored result for a flat ``CACHE_HIT_MS`` charge without consuming an
endpoint worker's full execution cost, and -- because the endpoint never
runs -- without reading any engine state (the exec-stats leakage class
of bug the endpoint layer guards against since PR 6 cannot reach here).
Entries are keyed on ``(query text, Graph.generation)``, so any actual
mutation of the served graph invalidates the whole cache for free while
no-op writes keep it warm.  Results cheaper than the cache-hit charge
itself are not admitted (``skipped_cheap``): a hit on them saves nothing
and the slot displaces something expensive.

A miss makes one ``endpoint.query`` call; an endpoint failure (the
availability model's outage day, the profile's timeout or a rejected
feature) is folded into the request's status, never retried.  The
endpoint's own availability model is the tier's only weather.
"""

from __future__ import annotations

import hashlib
import json
import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Union

from ..endpoint.endpoint import SparqlEndpoint
from ..endpoint.errors import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    QueryRejected,
    check_count,
)
from ..obs import Observatory
from ..obs.trace import NULL_TRACER, result_digest
from .cache import ResultCache
from .scheduler import RequestRecord, Scheduler
from .workload import Request, Workload

__all__ = ["QueryServer", "ServingReport"]

_ARRIVAL = attrgetter("request.arrival_ms")
_COMPLETION = attrgetter("completion_ms")

#: flat charge for serving a cached result: the connect handshake is still
#: paid, execution is not (a small constant, deliberately far below any
#: profile's execution floor).  It is also the cache's admission floor.
CACHE_HIT_MS = 2.0


class ServingReport:
    """The results surface of one ``serve`` run.

    Latency percentiles are nearest-rank over served requests (what the
    clients saw: arrival to completion, queue wait included); throughput
    is served requests over the simulated busy period.  ``digest()``
    canonicalizes every served result, so two runs serving identical rows
    -- whatever the parallelism -- produce byte-identical digests.
    """

    __slots__ = ("records", "parallelism", "start_ms", "end_ms", "cache_info", "obs")

    def __init__(
        self,
        records: List[RequestRecord],
        parallelism: int,
        start_ms: float,
        end_ms: float,
        cache_info: Optional[Dict[str, int]],
        obs: Optional[Observatory] = None,
    ):
        self.records = records
        self.parallelism = parallelism
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.cache_info = cache_info
        #: the server's Observatory, when serve() ran instrumented --
        #: the report's trace/export surfaces read it
        self.obs = obs

    # -- outcomes ----------------------------------------------------------

    @property
    def served(self) -> List[RequestRecord]:
        return [record for record in self.records if record.served]

    def served_ratio(self) -> float:
        """Fraction of requests that got rows."""
        if not self.records:
            return float("nan")
        return len(self.served) / len(self.records)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    # -- latency / throughput ---------------------------------------------

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, float]:
        """Nearest-rank percentiles of served-request latency, in ms."""
        latencies = sorted(record.latency_ms for record in self.served)
        out: Dict[str, float] = {}
        for percentile in percentiles:
            label = f"p{percentile:g}"
            if not latencies:
                out[label] = float("nan")
                continue
            rank = math.ceil(len(latencies) * percentile / 100.0)
            rank = min(max(rank, 1), len(latencies))
            out[label] = latencies[rank - 1]
        return out

    def mean_latency_ms(self) -> float:
        served = self.served
        if not served:
            return float("nan")
        return sum(record.latency_ms for record in served) / len(served)

    def makespan_ms(self) -> float:
        """The simulated busy period: first arrival to last completion."""
        return self.end_ms - self.start_ms

    def throughput_qps(self) -> float:
        """Served queries per simulated second."""
        span = self.makespan_ms()
        if span <= 0.0:
            return float("nan")
        return len(self.served) / (span / 1000.0)

    # -- determinism -------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over every served request's identity and
        :func:`~repro.obs.trace.result_digest` (the one canonical form of
        a served result, itself a full SHA-256 of the rows).

        Covers request identity + rows, not timing or provenance: a cache
        hit serving the same rows as a cold execution digests identically,
        and scheduling changes *when* things run, never *what* they return
        -- so the digest is the byte-identical contract across parallelism
        settings and cache on/off.  Unserved requests contribute identity
        + failure status (a rejection is an outcome too).
        """
        payload = []
        for record in self.records:
            if not record.served:
                payload.append([list(record.request.key), record.status])
                continue
            payload.append([list(record.request.key), result_digest(record.result)])
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- observability ------------------------------------------------------

    def trace(self, request_id) -> str:
        """Rendered span tree for one request (``(session_id, seq)``).

        Answers "where did request X spend its time": queue wait, cache
        lookup, endpoint execution, engine operators -- each with
        sim-clock timestamps.
        """
        if self.obs is None:
            raise ValueError(
                "serve() ran without an Observatory; pass QueryServer(obs=...)"
            )
        tracer = self.obs.tracer
        trace_id = tracer.find_trace(tuple(request_id))
        if trace_id is None:
            return f"(no trace recorded for request {tuple(request_id)!r})"
        return tracer.render(trace_id)

    def export_jsonl(self) -> str:
        """JSON-lines span + metric export (profile tier)."""
        if self.obs is None:
            raise ValueError(
                "serve() ran without an Observatory; pass QueryServer(obs=...)"
            )
        return self.obs.export_jsonl()

    def summary(self) -> Dict[str, object]:
        """The /results-shaped payload benchmarks and tests read."""
        summary: Dict[str, object] = {
            "requests": len(self.records),
            "served": len(self.served),
            "served_ratio": self.served_ratio(),
            "parallelism": self.parallelism,
            "statuses": self.status_counts(),
            "latency_ms": self.latency_percentiles(),
            "mean_latency_ms": self.mean_latency_ms(),
            "makespan_ms": self.makespan_ms(),
            "throughput_qps": self.throughput_qps(),
            "digest": self.digest(),
        }
        if self.cache_info is not None:
            summary["cache"] = dict(self.cache_info)
        return summary

    def __repr__(self) -> str:
        return (
            f"<ServingReport {len(self.served)}/{len(self.records)} served "
            f"p={self.parallelism} makespan={self.makespan_ms():.0f}ms>"
        )


class QueryServer:
    """Concurrent serving tier over one :class:`SparqlEndpoint`.

    ``parallelism`` models the endpoint's server threads; the bounded
    admission queue models its load shedding; the generation-keyed
    result cache is shared across ``serve`` calls (a long-running server
    keeps its cache warm between workloads).
    """

    def __init__(
        self,
        endpoint: SparqlEndpoint,
        parallelism: int = 1,
        queue_capacity: int = 64,
        cache_capacity: Optional[int] = 256,
        obs: Optional[Observatory] = None,
    ):
        check_count("parallelism", parallelism)
        check_count("queue_capacity", queue_capacity)
        # None or 0: no cache
        if cache_capacity is not None:
            check_count("cache_capacity", cache_capacity, least=0)
        self.endpoint = endpoint
        self.parallelism = parallelism
        self.queue_capacity = queue_capacity
        self.cache = (
            ResultCache(cache_capacity, min_service_ms=CACHE_HIT_MS)
            if cache_capacity
            else None
        )
        self._runs = 0
        #: observability: with an Observatory attached, the endpoint and
        #: its engine trace into it and every stat surface of this server
        #: registers in the unified metrics registry.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        if obs is not None:
            endpoint.attach_obs(obs.tracer)
            self._register_metrics(obs.metrics)

    def _register_metrics(self, registry) -> None:
        """Bind every stat surface into the unified metrics registry.

        Pull gauges read the live counters at dump time — registration
        changes no behavior.  Names follow the ARCHITECTURE.md metric
        vocabulary (enforced by ``tests/test_repo_hygiene.py``).  Every
        surface bound here depends on execution order, so all of them
        are profile-tier.
        """
        stats = self.endpoint.stats
        for name in ("queries", "failures", "timeouts", "rejected", "truncated",
                     "total_latency_ms", "join_rows"):
            registry.bind(
                f"endpoint.{name}",
                lambda n=name: getattr(stats, n),
                help=f"EndpointStats.{name} of the served endpoint",
            )
        if self.cache is not None:
            cache = self.cache
            for key in ("size", "hits", "misses", "evictions", "invalidations",
                        "skipped_cheap"):
                registry.bind(
                    f"cache.{key}",
                    lambda k=key: cache.info()[k],
                    help=f"ResultCache.info()[{key!r}]",
                )

    # -- the one orchestration entry point ---------------------------------

    def serve(self, workload: Union[Workload, Sequence[Request]]) -> ServingReport:
        """Schedule and execute *workload*; return the full report."""
        requests = list(workload)
        scheduler = Scheduler(
            self.endpoint.clock,
            self._execute,
            parallelism=self.parallelism,
            queue_capacity=self.queue_capacity,
            obs=self._tracer,
        )
        records = scheduler.run(requests)
        self._runs += 1
        if self.obs is not None:
            self._push_run_metrics(requests, records, scheduler)
        start_ms = min(map(_ARRIVAL, records), default=0.0)
        end_ms = max(map(_COMPLETION, records), default=start_ms)
        return ServingReport(
            records,
            parallelism=self.parallelism,
            start_ms=start_ms,
            end_ms=end_ms,
            cache_info=self.cache.info() if self.cache is not None else None,
            obs=self.obs,
        )

    def _execute(self, request: Request):
        """The executor: the one code path that touches the endpoint.

        A cache hit returns before anything else is read (the hot path of
        a warm server); a miss makes one ``endpoint.query`` call and caches
        what it returns.  An :class:`EndpointError` is an outcome, folded
        into the returned ``(status, result, error)`` triple; anything
        else is a bug and propagates.
        """
        endpoint = self.endpoint
        cache = self.cache
        tracer = self._tracer
        if cache is not None:
            cached = cache.get(request.query, endpoint.graph.generation)
            if cached is not None:
                if tracer.enabled:
                    tracer.event("cache.lookup", outcome="hit")
                endpoint.clock.advance(CACHE_HIT_MS)
                return ("cache-hit", cached, None)
            if tracer.enabled:
                tracer.event("cache.lookup", outcome="miss")
        start_ms = endpoint.clock.now_ms
        try:
            result = endpoint.query(request.query)
        except EndpointError as error:
            return (_failure_status(error), None, error)
        if cache is not None:
            cache.put(
                request.query,
                endpoint.graph.generation,
                result,
                service_ms=endpoint.clock.now_ms - start_ms,
            )
        return ("ok", result, None)

    def _push_run_metrics(
        self,
        requests: Sequence[Request],
        records: List[RequestRecord],
        scheduler: Scheduler,
    ) -> None:
        """Per-run serving metrics.  ``serving.requests_total`` is
        canonical (workload-derived); everything else depends on realized
        scheduling (cache hits, rejections, latency) and is profile-tier."""
        metrics = self.obs.metrics
        metrics.counter(
            "serving.requests_total",
            help="requests offered to serve()",
            canonical=True,
        ).inc(len(requests))
        served = 0
        latency = metrics.histogram(
            "serving.latency_ms", help="served-request latency (arrival→completion)"
        )
        wait = metrics.histogram(
            "serving.queue_wait_ms", help="served-request admission-queue wait"
        )
        for record in records:
            if record.served:
                served += 1
                latency.observe(record.latency_ms)
                wait.observe(record.wait_ms)
        metrics.counter("serving.served_total", help="requests that got rows").inc(served)
        queue_info = scheduler.last_queue_info
        metrics.counter(
            "admission.offered", help="requests offered to the fair admission queue"
        ).inc(queue_info.get("offered", 0))
        metrics.counter(
            "admission.rejected", help="requests bounced by a full admission queue"
        ).inc(queue_info.get("rejected", 0))

    # -- status surface ----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Counter snapshot: what a /status route would publish."""
        stats = self.endpoint.stats
        return {
            "endpoint": self.endpoint.url,
            "parallelism": self.parallelism,
            "queue_capacity": self.queue_capacity,
            "runs": self._runs,
            "endpoint_stats": {
                "queries": stats.queries,
                "failures": stats.failures,
                "timeouts": stats.timeouts,
                "rejected": stats.rejected,
                "truncated": stats.truncated,
                "total_latency_ms": stats.total_latency_ms,
            },
            "cache": self.cache.info() if self.cache is not None else None,
        }

    def __repr__(self) -> str:
        return (
            f"<QueryServer {self.endpoint.url!r} parallelism={self.parallelism} "
            f"queue={self.queue_capacity}>"
        )


def _failure_status(error: EndpointError) -> str:
    """The record status of a request the endpoint failed with *error*."""
    if isinstance(error, EndpointUnavailable):
        return "unavailable"
    if isinstance(error, QueryRejected):
        return "feature-rejected"
    if isinstance(error, EndpointTimeout):
        return "endpoint-timeout"
    return "failed"
