"""The generation-keyed result cache: correctness and invalidation.

The satellite contract pinned here: a hit returns rows identical to a
cold run under every engine strategy, any actual Graph mutation
invalidates via the generation counter, and no-op mutations (the PR 5
generation contract) do NOT evict.
"""

from __future__ import annotations

import pytest

from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
from repro.rdf import IRI, Triple, parse_turtle
from repro.serving import QueryServer, Request, ResultCache

TTL = """
@prefix ex: <http://example.org/> .
ex:a a ex:T ; ex:p ex:b .
ex:b a ex:T ; ex:p ex:c .
ex:c a ex:U .
"""

QUERY = "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }"


def _request(text, seq=0, arrival=0.0, tenant="t0"):
    return Request(0, tenant, seq, arrival, "q", text)


def _server(graph, strategy="hash", **options):
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://cache.example.org/sparql",
        graph,
        clock,
        availability=AlwaysAvailable(),
        strategy=strategy,
        seed=1,
    )
    options.setdefault("queue_capacity", 64)
    return QueryServer(endpoint, **options)


def _rows(record):
    return [
        {name: term.n3() if term else None for name, term in row.items()}
        for row in record.result.rows
    ]


@pytest.mark.parametrize("strategy", ["scan", "hash"])
def test_hit_returns_identical_rows_to_cold_run(strategy):
    server = _server(parse_turtle(TTL), strategy=strategy)
    cold = server.serve([_request(QUERY, seq=0)]).records[0]
    warm = server.serve([_request(QUERY, seq=1)]).records[0]
    assert cold.status == "ok"
    assert warm.status == "cache-hit"
    assert _rows(warm) == _rows(cold)
    assert server.cache.hits == 1 and server.cache.misses == 1


@pytest.mark.parametrize("strategy", ["scan", "hash"])
def test_mutation_invalidates_and_recomputes(strategy):
    graph = parse_turtle(TTL)
    server = _server(graph, strategy=strategy)
    cold = server.serve([_request(QUERY, seq=0)]).records[0]
    graph.add(
        Triple(IRI("http://example.org/z"), IRI("http://example.org/p"),
               IRI("http://example.org/a"))
    )
    fresh = server.serve([_request(QUERY, seq=1)]).records[0]
    assert fresh.status == "ok"  # generation bumped: miss, re-executed
    assert len(_rows(fresh)) == len(_rows(cold)) + 1
    assert server.cache.invalidations == 1
    # and the recomputed entry serves hits again
    warm = server.serve([_request(QUERY, seq=2)]).records[0]
    assert warm.status == "cache-hit"
    assert _rows(warm) == _rows(fresh)


def test_noop_mutations_do_not_evict():
    """The PR 5 contract: duplicate adds / absent removes leave the
    generation untouched, so the cache stays warm."""
    graph = parse_turtle(TTL)
    server = _server(graph)
    server.serve([_request(QUERY, seq=0)])
    generation = graph.generation

    existing = next(iter(graph.triples()))
    graph.add(existing)  # duplicate add: no-op
    graph.remove(
        Triple(IRI("http://example.org/ghost"), IRI("http://example.org/p"),
               IRI("http://example.org/ghost"))
    )  # absent remove: no-op
    assert graph.generation == generation

    warm = server.serve([_request(QUERY, seq=1)]).records[0]
    assert warm.status == "cache-hit"
    assert server.cache.invalidations == 0


def test_ask_results_cache_too():
    server = _server(parse_turtle(TTL))
    ask = "ASK { ?s a <http://example.org/U> }"
    cold = server.serve([_request(ask, seq=0)]).records[0]
    warm = server.serve([_request(ask, seq=1)]).records[0]
    assert cold.status == "ok" and warm.status == "cache-hit"
    assert bool(warm.result) == bool(cold.result) is True


def test_failed_queries_are_not_cached():
    server = _server(parse_turtle(TTL))
    server.endpoint.profile = type(server.endpoint.profile)(
        "strict", supports_aggregates=False
    )
    aggregate = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
    first = server.serve([_request(aggregate, seq=0)]).records[0]
    second = server.serve([_request(aggregate, seq=1)]).records[0]
    assert first.status == second.status == "feature-rejected"
    assert len(server.cache) == 0


# -- the data structure itself ---------------------------------------------


def test_lru_eviction_counts():
    cache = ResultCache(capacity=2)
    cache.put("a", 0, "ra")
    cache.put("b", 0, "rb")
    assert cache.get("a", 0) == "ra"  # a is now most-recent
    cache.put("c", 0, "rc")  # evicts b
    assert cache.evictions == 1
    assert cache.get("b", 0) is None
    assert cache.get("a", 0) == "ra"
    assert cache.get("c", 0) == "rc"


def test_stale_generation_dropped_on_sight():
    cache = ResultCache(capacity=4)
    cache.put("q", 3, "old")
    assert cache.get("q", 4) is None
    assert cache.invalidations == 1
    assert len(cache) == 0  # the stale entry no longer occupies a slot


def test_capacity_validation():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, True, 0, -1])
def test_a_capacity_that_is_not_a_count_is_refused(capacity):
    """A NaN or infinite capacity never evicted, 2.5 kept 3 entries and
    ``True`` kept 1: each is refused, naming the parameter."""
    with pytest.raises(ValueError, match="capacity"):
        ResultCache(capacity=capacity)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
def test_an_admission_floor_that_is_not_finite_and_non_negative_is_refused(floor):
    with pytest.raises(ValueError, match="min_service_ms"):
        ResultCache(capacity=4, min_service_ms=floor)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, True])
def test_a_server_refuses_a_cache_capacity_that_is_not_a_count(capacity):
    graph = parse_turtle(TTL)
    with pytest.raises(ValueError, match="capacity"):
        _server(graph, cache_capacity=capacity)


@pytest.mark.parametrize("capacity", [None, 0])
def test_no_cache_capacity_means_no_cache(capacity):
    assert _server(parse_turtle(TTL), cache_capacity=capacity).cache is None


def test_cheap_results_are_not_admitted():
    cache = ResultCache(capacity=4, min_service_ms=5.0)
    cache.put("cheap", 0, "r", service_ms=1.0)
    assert cache.skipped_cheap == 1
    assert len(cache) == 0
    assert cache.get("cheap", 0) is None
    # at or above the floor the result is admitted
    cache.put("worth-it", 0, "r", service_ms=5.0)
    assert cache.get("worth-it", 0) == "r"
    # puts without a measured service time bypass the floor entirely
    cache.put("unmeasured", 0, "r")
    assert cache.get("unmeasured", 0) == "r"
    assert cache.skipped_cheap == 1
    assert cache.info()["skipped_cheap"] == 1


def test_keep_stale_retains_entries_for_degraded_reads():
    cache = ResultCache(capacity=4, keep_stale=True)
    cache.put("q", 3, "old")
    # a newer-generation lookup misses but does NOT drop the entry
    assert cache.get("q", 4) is None
    assert cache.invalidations == 0
    assert len(cache) == 1
    assert cache.get_stale("q") == "old"
    # get_stale leaves the hit/miss counters alone (it is a degraded
    # serve, not a cache hit)
    assert cache.hits == 0
    assert cache.get_stale("never-seen") is None


def test_get_stale_without_keep_stale_sees_what_survives():
    cache = ResultCache(capacity=4)
    cache.put("q", 3, "old")
    assert cache.get_stale("q") == "old"  # entry still present
    assert cache.get("q", 4) is None  # drop-on-sight fires
    assert cache.get_stale("q") is None


# -- per-tenant quotas -------------------------------------------------------


def test_tenant_quota_evicts_within_tenant_lru_first():
    cache = ResultCache(capacity=4, tenant_share=0.5)  # 2 slots per tenant
    cache.put("a1", 0, "r", tenant="alpha")
    cache.put("a2", 0, "r", tenant="alpha")
    cache.put("b1", 0, "r", tenant="beta")
    assert cache.get("a1", 0, tenant="alpha") == "r"  # a1 now alpha's MRU
    # alpha is at quota: its own LRU (a2) goes, beta is untouched
    cache.put("a3", 0, "r", tenant="alpha")
    assert cache.get("a2", 0, tenant="alpha") is None
    assert cache.get("a1", 0, tenant="alpha") == "r"
    assert cache.get("b1", 0, tenant="beta") == "r"
    assert cache.quota_evictions == 1
    assert cache.evictions == 0  # never reached global capacity


def test_tenant_burst_cannot_evict_other_tenants():
    cache = ResultCache(capacity=4, tenant_share=0.5)
    cache.put("b1", 0, "r", tenant="beta")
    cache.put("b2", 0, "r", tenant="beta")
    for i in range(10):  # a 10-entry burst against a 2-slot quota
        cache.put(f"a{i}", 0, "r", tenant="alpha")
    assert cache.get("b1", 0, tenant="beta") == "r"
    assert cache.get("b2", 0, tenant="beta") == "r"
    assert len(cache) == 4


def test_tenant_counters_track_hits_and_evictions():
    cache = ResultCache(capacity=4, tenant_share=0.25)  # 1 slot per tenant
    cache.put("a1", 0, "r", tenant="alpha")
    cache.get("a1", 0, tenant="alpha")
    cache.get("a1", 0, tenant="beta")  # beta hits alpha's entry
    cache.put("a2", 0, "r", tenant="alpha")  # alpha over quota: a1 evicted
    info = cache.info()
    assert info["quota_evictions"] == 1
    assert info["tenants"]["alpha"] == {"hits": 1, "evictions": 1, "size": 1}
    assert info["tenants"]["beta"] == {"hits": 1, "evictions": 0, "size": 0}


def test_tenant_share_validation():
    with pytest.raises(ValueError):
        ResultCache(capacity=4, tenant_share=0.0)
    with pytest.raises(ValueError):
        ResultCache(capacity=4, tenant_share=1.5)


def test_untenanted_info_shape_is_unchanged():
    cache = ResultCache(capacity=4)
    cache.put("q", 0, "r")
    cache.get("q", 0)
    assert "tenants" not in cache.info()


def test_served_workload_reports_tenant_counters():
    server = _server(parse_turtle(TTL), cache_tenant_share=0.5)
    report = server.serve(
        [
            _request(QUERY, seq=0, tenant="alpha"),
            _request(QUERY, seq=1, arrival=10.0, tenant="beta"),
            _request(QUERY, seq=2, arrival=20.0, tenant="alpha"),
        ]
    )
    tenants = report.tenant_cache_counts()
    # alpha executed cold and owns the entry; both later requests hit it
    assert tenants["alpha"]["hits"] == 1 and tenants["alpha"]["size"] == 1
    assert tenants["beta"]["hits"] == 1 and tenants["beta"]["size"] == 0
    assert report.summary()["cache"]["tenants"] == tenants
