"""The enabled-mode cost bound: tracing work scales with requests, not rows.

What an attached ``Observatory`` costs a served request is the spans it
records for it.  At the default (non-detail) tier that is a fixed handful
per request -- the request root, its queue wait, the cache lookup, the
executor's one attempt, the endpoint call and the engine run -- whatever
the query scans, joins or folds; the per-operator spans, whose number
follows the plan and whose counters follow the data, exist only under
``detail=True``.  A count cannot flap the way a wall-clock overhead ratio
does when the engine underneath gets faster.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datagen import government_graph
from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
from repro.obs import Observatory
from repro.serving import QueryServer, generate_workload

#: everything the serving path records for one request with tracing on
REQUEST_TIER_SPANS = {
    "request", "queue.wait", "cache.lookup", "attempt", "endpoint.query",
    "sparql.run",
}
MAX_SPANS_PER_REQUEST = len(REQUEST_TIER_SPANS)


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _serve_observed(graph, cache_capacity, detail=False):
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://bench.example.org/sparql", graph, clock,
        availability=AlwaysAvailable(), seed=4,
    )
    obs = Observatory(clock=clock, seed=0, detail=detail)
    server = QueryServer(
        endpoint, parallelism=4, queue_capacity=4096,
        cache_capacity=cache_capacity, obs=obs,
    )
    # the default-mix latency workload: every template the tier serves
    report = server.serve(generate_workload(sessions=40, seed=2020))
    assert len(report.served) == len(report.records) > 100
    return report, obs.tracer.spans


@pytest.mark.parametrize("cache_capacity", (None, 256), ids=("uncached", "cached"))
def test_spans_per_served_request_are_bounded(graph, cache_capacity):
    report, spans = _serve_observed(graph, cache_capacity)
    assert {span.name for span in spans} <= REQUEST_TIER_SPANS
    per_trace = Counter(span.trace_id for span in spans)
    assert len(per_trace) == len(report.served)
    assert max(per_trace.values()) <= MAX_SPANS_PER_REQUEST
    # a hit returns before the executor dispatches anything: it records no
    # ``attempt`` (nor anything below one), a miss records exactly one
    hits = {r.request.key for r in report.records if r.status == "cache-hit"}
    assert bool(hits) == (cache_capacity is not None)
    attempts = Counter(span.ref.key for span in spans if span.name == "attempt")
    assert not hits & set(attempts)
    assert all(attempts[r.request.key] == 1
               for r in report.records if r.status == "ok")


def test_operator_spans_are_detail_tier_only(graph):
    _, plain = _serve_observed(graph, None)
    _, detailed = _serve_observed(graph, None, detail=True)
    operators = Counter(
        span.name for span in detailed if span.name not in REQUEST_TIER_SPANS
    )
    assert operators and all(name.startswith("sparql.") for name in operators)
    # the request tier is the same spans either way; detail only adds
    assert len(detailed) == len(plain) + sum(operators.values())
