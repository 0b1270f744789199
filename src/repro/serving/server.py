"""The query server: thin front door -> orchestrator -> status/results.

Follows the route-handler + orchestrator + status pattern of the API
layers in SNIPPETS.md: :class:`QueryServer` owns the moving parts (the
wrapped endpoint, the admission queue configuration, the result cache,
the resilience policy), ``serve`` is the one orchestration entry point,
and ``status()`` / :class:`ServingReport` are the status- and
results-shaped read surfaces.  Route handlers stay thin -- the executor
is the only code that touches the endpoint, and the scheduler owns all
timing.

The result cache sits *in front of* the endpoint: a hit serves the
stored result for a flat ``cache_hit_ms`` charge without consuming an
endpoint worker's full execution cost, and -- because the endpoint never
runs -- without reading any engine state (the exec-stats leakage class
of bug the endpoint layer guards against since PR 6 cannot reach here).
Entries are keyed on ``(query text, Graph.generation)``, so any actual
mutation of the served graph invalidates the whole cache for free while
no-op writes keep it warm.  Results cheaper than the cache-hit charge
itself are not admitted (``skipped_cheap``): a hit on them saves nothing
and the slot displaces something expensive.

There is one executor, :class:`~repro.serving.resilience.ResilientExecutor`,
and what it does about a failing endpoint is a value of its
:class:`~repro.serving.resilience.ResiliencePolicy`: retry/backoff,
circuit breaking, optional hedging and graceful degradation when one is
given, ``ResiliencePolicy.naive()`` (one attempt, fail like the endpoint
failed) when none is.  Handing the server a
:class:`~repro.serving.faults.FaultInjector` subjects every run to its
seeded weather; faults *without* a policy meet the naive policy -- the
baseline arm of the chaos benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Union

from ..endpoint.endpoint import SparqlEndpoint
from ..obs import Observatory
from ..obs.trace import NULL_TRACER, result_digest
from ..sparql.parser import parse_query
from ..sparql.results import AskResult, SelectResult
from .cache import ResultCache
from .faults import FaultInjector, FaultPlan
from .resilience import ResiliencePolicy, ResilientExecutor
from .scheduler import RequestRecord, Scheduler, check_serving_parameters
from .workload import Request, Workload

__all__ = ["QueryServer", "ServingReport"]

#: default flat charge for serving a cached result: the connect handshake
#: is still paid, execution is not (a small constant, deliberately far
#: below any profile's execution floor)
CACHE_HIT_MS = 2.0


class ServingReport:
    """The results surface of one ``serve`` run.

    Latency percentiles are nearest-rank over served requests (what the
    clients saw: arrival to completion, queue wait included); throughput
    is served requests over the simulated busy period.  ``digest()``
    canonicalizes every served result, so two runs serving identical rows
    -- whatever the parallelism -- produce byte-identical digests.
    """

    __slots__ = ("records", "parallelism", "start_ms", "end_ms", "cache_info",
                 "resilience_info", "fault_info", "obs")

    def __init__(
        self,
        records: List[RequestRecord],
        parallelism: int,
        start_ms: float,
        end_ms: float,
        cache_info: Optional[Dict[str, int]],
        resilience_info: Optional[Dict[str, object]] = None,
        fault_info: Optional[Dict[str, object]] = None,
        obs: Optional[Observatory] = None,
    ):
        self.records = records
        self.parallelism = parallelism
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.cache_info = cache_info
        #: the executor's per-run counters + breaker transition trace
        #: (all-zero apart from ``attempts`` under the naive policy)
        self.resilience_info = resilience_info
        #: the fault plan's describe() payload, when weather was injected
        self.fault_info = fault_info
        #: the server's Observatory, when serve() ran instrumented --
        #: the report's trace/export surfaces read it
        self.obs = obs

    # -- outcomes ----------------------------------------------------------

    @property
    def served(self) -> List[RequestRecord]:
        return [record for record in self.records if record.served]

    @property
    def degraded(self) -> List[RequestRecord]:
        """Served, but off the degradation ladder (status ``"stale"``)."""
        return [record for record in self.records if record.status == "stale"]

    def served_ratio(self) -> float:
        """Fraction of requests that got rows -- the resilience headline."""
        if not self.records:
            return float("nan")
        return len(self.served) / len(self.records)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def degraded_counts(self) -> Dict[str, int]:
        """Which rung of the ladder served the degraded requests."""
        counts: Dict[str, int] = {}
        for record in self.degraded:
            rung = record.degraded or "unknown"
            counts[rung] = counts.get(rung, 0) + 1
        return counts

    def tenant_cache_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant cache hit/evict counters ({} when untracked)."""
        if not self.cache_info:
            return {}
        return dict(self.cache_info.get("tenants", {}))

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
        hit, a hedged execution or a degraded replica read serving the
        same rows as a cold execution digests identically, and scheduling
        changes *when* things run, never *what* they return -- so the
        digest is the byte-identical contract across parallelism settings,
        cache on/off, and hedging on/off.  Unserved requests contribute
        identity + failure status (a rejection is an outcome too).
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

        Answers "where did request X spend its time": queue wait,
        resilience attempts/backoffs, endpoint execution, engine
        operators -- each with sim-clock timestamps.
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
        if self.degraded:
            summary["degraded"] = self.degraded_counts()
        if self.cache_info is not None:
            summary["cache"] = dict(self.cache_info)
        if self.resilience_info is not None:
            summary["resilience"] = dict(self.resilience_info)
        if self.fault_info is not None:
            summary["faults"] = dict(self.fault_info)
        return summary

    def __repr__(self) -> str:
        return (
            f"<ServingReport {len(self.served)}/{len(self.records)} served "
            f"p={self.parallelism} makespan={self.makespan_ms():.0f}ms>"
        )


class QueryServer:
    """Concurrent serving tier over one :class:`SparqlEndpoint`.

    ``parallelism`` models the endpoint's server threads; the bounded
    admission queue, optional queue deadline and optional backpressure
    deadline model its load shedding; the generation-keyed result cache
    is shared across ``serve`` calls (a long-running server keeps its
    cache warm between workloads).

    *faults* subjects every run to a seeded chaos timeline (a
    :class:`FaultPlan` or its injector); *resilience* is the client-side
    policy answering it, ``ResiliencePolicy.naive()`` when not given.
    Faults against the naive policy are the chaos benchmark's baseline
    arm.  The executor (breaker state, hedge p95 tracker) persists
    across ``serve`` calls like the cache does.
    """

    def __init__(
        self,
        endpoint: SparqlEndpoint,
        parallelism: int = 1,
        queue_capacity: int = 64,
        queue_timeout_ms: Optional[float] = None,
        cache_capacity: Optional[int] = 256,
        cache_hit_ms: float = CACHE_HIT_MS,
        cache_tenant_share: float = 1.0,
        resilience: Optional[ResiliencePolicy] = None,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        backpressure_deadline_ms: Optional[float] = None,
        obs: Optional[Observatory] = None,
    ):
        check_serving_parameters(
            parallelism, queue_capacity, queue_timeout_ms,
            backpressure_deadline_ms, cache_hit_ms,
        )
        self.endpoint = endpoint
        self.parallelism = parallelism
        self.queue_capacity = queue_capacity
        self.queue_timeout_ms = queue_timeout_ms
        self.cache_hit_ms = cache_hit_ms
        self.backpressure_deadline_ms = backpressure_deadline_ms
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults = faults
        if resilience is None:
            resilience = ResiliencePolicy.naive()
        self.resilience = resilience
        self.cache = (
            ResultCache(
                cache_capacity,
                min_service_ms=cache_hit_ms,
                keep_stale=resilience.degrade_stale,
                tenant_share=cache_tenant_share,
            )
            if cache_capacity
            else None
        )
        self._executor = ResilientExecutor(self, resilience, faults)
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
        vocabulary (enforced by ``tests/test_repo_hygiene.py``).  Only
        ``faults.*`` values are flagged canonical: they derive from the
        seeded plan alone, so they are parallelism-invariant; every
        execution-order-dependent surface stays profile-tier.
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
                        "skipped_cheap", "quota_evictions"):
                registry.bind(
                    f"cache.{key}",
                    lambda k=key: cache.info().get(k, 0),
                    help=f"ResultCache.info()[{key!r}]",
                )
        executor = self._executor
        for key in ("attempts", "retries", "recovered_by_retry",
                    "injected_outage_failures", "injected_transient_failures",
                    "breaker_fast_fails", "deadline_exhausted",
                    "degraded_stale_cache", "degraded_replica",
                    "hedges_fired", "hedges_won"):
            registry.bind(
                f"resilience.{key}",
                lambda k=key: executor.counters.get(k, 0),
                help=f"ResilientExecutor per-run counter {key!r}",
            )
        registry.bind(
            "resilience.breaker_transitions",
            lambda: len(executor.breaker_transitions()),
            help="circuit-breaker state transitions across all breakers",
        )
        if self.faults is not None:
            # FaultPlan windows/transitions: derived from the seeded plan
            # alone, never from execution order — the canonical tier.
            describe = self.faults.plan.describe()
            for key in ("outage_windows", "burst_windows", "slowdown_windows",
                        "timeout_spike_windows", "outage_ratio"):
                gauge = registry.gauge(
                    f"faults.{key}",
                    help=f"FaultPlan.describe()[{key!r}]",
                    canonical=True,
                )
                gauge.set(describe[key])

    # -- the one orchestration entry point ---------------------------------

    def serve(self, workload: Union[Workload, Sequence[Request]]) -> ServingReport:
        """Schedule and execute *workload*; return the full report."""
        requests = list(workload)
        self._executor.begin_run()
        scheduler = Scheduler(
            self.endpoint.clock,
            self._executor,
            parallelism=self.parallelism,
            queue_capacity=self.queue_capacity,
            queue_timeout_ms=self.queue_timeout_ms,
            faults=self.faults,
            backpressure_deadline_ms=self.backpressure_deadline_ms,
            obs=self._tracer,
        )
        records = scheduler.run(requests)
        self._runs += 1
        if self.obs is not None:
            self._push_run_metrics(requests, records, scheduler)
        start_ms = min((r.request.arrival_ms for r in records), default=0.0)
        end_ms = max((r.completion_ms for r in records), default=start_ms)
        resilience_info: Dict[str, object] = dict(self._executor.counters)
        resilience_info["breaker_transitions"] = [
            list(transition) for transition in self._executor.breaker_transitions()
        ]
        resilience_info["shed"] = scheduler.shed
        return ServingReport(
            records,
            parallelism=self.parallelism,
            start_ms=start_ms,
            end_ms=end_ms,
            cache_info=self.cache.info() if self.cache is not None else None,
            resilience_info=resilience_info,
            fault_info=self.faults.plan.describe() if self.faults else None,
            obs=self.obs,
        )

    def _push_run_metrics(
        self,
        requests: Sequence[Request],
        records: List[RequestRecord],
        scheduler: Scheduler,
    ) -> None:
        """Per-run serving metrics.  ``serving.requests_total`` is
        canonical (workload-derived); everything else depends on realized
        scheduling (cache hits, shed, latency) and is profile-tier."""
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
        metrics.counter(
            "serving.shed_total", help="requests shed by backpressure"
        ).inc(scheduler.shed)
        queue_info = scheduler.last_queue_info
        metrics.counter(
            "admission.offered", help="requests offered to the fair admission queue"
        ).inc(queue_info.get("offered", 0))
        metrics.counter(
            "admission.rejected", help="requests bounced by a full admission queue"
        ).inc(queue_info.get("rejected", 0))

    # -- degraded reads ----------------------------------------------------

    def replica_read(self, text: str) -> Union[SelectResult, AskResult]:
        """Degraded read off the local materialized replica.

        The last rung of the degradation ladder before giving up: run the
        query against the server's own copy of the graph, bypassing the
        (unreachable) endpoint entirely.  Applies the endpoint profile's
        row cap so replica rows are byte-identical to what a fresh serve
        would have returned -- the digest-invariance contract.  Charges
        nothing itself; the caller accounts the degraded-serve cost.
        """
        endpoint = self.endpoint
        execution = endpoint._engine.execute(parse_query(text), endpoint.obs)
        return endpoint._capped(execution.result)

    # -- status surface ----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Counter snapshot: what a /status route would publish."""
        stats = self.endpoint.stats
        return {
            "endpoint": self.endpoint.url,
            "parallelism": self.parallelism,
            "queue_capacity": self.queue_capacity,
            "queue_timeout_ms": self.queue_timeout_ms,
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
            "breakers": {
                url: breaker.state
                for url, breaker in sorted(self._executor.breakers.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<QueryServer {self.endpoint.url!r} parallelism={self.parallelism} "
            f"queue={self.queue_capacity}>"
        )
