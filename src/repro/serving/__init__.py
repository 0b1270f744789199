"""The concurrent query serving tier -- the "millions of users" front door.

Everything below this package accelerates one query at a time; this layer
serves *load*: seeded session workloads (:mod:`.workload`), bounded
admission with per-tenant fairness (:mod:`.admission`), a discrete-event
scheduler interleaving concurrent in-flight queries over the shared
simulation clock (:mod:`.scheduler`), and a generation-keyed result
cache (:mod:`.cache`), orchestrated by :class:`.server.QueryServer`.
p50/p95/p99 latency and throughput under load are first-class outputs
(:class:`.server.ServingReport`; the ``serve_uncached`` / ``serve_cached``
workloads of ``bench/``).

PR 7 gives the tier weather and an immune system: seeded fault-injection
timelines (:mod:`.faults` -- outages from the §3.1 Markov availability
chain, transient error bursts, backend slowdowns, timeout spikes) and
the client-side resilience policies answering them (:mod:`.resilience`
-- retry with jittered exponential backoff, per-endpoint circuit
breakers, hedged requests, graceful degradation to stale/replica data).
Chaos runs stay byte-deterministic across parallelism
(``tests/serving/test_determinism_chaos.py``).
"""

from .admission import FairAdmissionQueue
from .cache import ResultCache
from .faults import FaultInjector, FaultPlan, FaultState, chaos_profile
from .resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientExecutor,
    full_jitter_backoff_ms,
)
from .scheduler import RequestRecord, Scheduler
from .server import QueryServer, ServingReport
from .workload import (
    QueryTemplate,
    Request,
    Workload,
    cache_friendly_mix,
    default_query_mix,
    generate_workload,
)

__all__ = [
    "CircuitBreaker",
    "FairAdmissionQueue",
    "FaultInjector",
    "FaultPlan",
    "FaultState",
    "QueryServer",
    "QueryTemplate",
    "Request",
    "RequestRecord",
    "ResiliencePolicy",
    "ResilientExecutor",
    "ResultCache",
    "Scheduler",
    "ServingReport",
    "Workload",
    "cache_friendly_mix",
    "chaos_profile",
    "default_query_mix",
    "full_jitter_backoff_ms",
    "generate_workload",
]
