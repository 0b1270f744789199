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

The tier's only weather is the served endpoint's own availability model
(the §3.1 Markov chain): a request that meets an outage day, a profile
timeout or a rejected feature fails with that status, unretried.
"""

from .admission import FairAdmissionQueue
from .cache import ResultCache
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
    "FairAdmissionQueue",
    "QueryServer",
    "QueryTemplate",
    "Request",
    "RequestRecord",
    "ResultCache",
    "Scheduler",
    "ServingReport",
    "Workload",
    "cache_friendly_mix",
    "default_query_mix",
    "generate_workload",
]
