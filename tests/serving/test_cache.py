"""The generation-keyed result cache: correctness and invalidation.

The satellite contract pinned here: a hit returns rows identical to a
cold run under every engine strategy, any actual Graph mutation
invalidates via the generation counter, and no-op mutations (the PR 5
generation contract) do NOT evict.
"""

from __future__ import annotations

import math

import pytest

from repro.endpoint import AlwaysAvailable, EndpointProfile, SimulationClock, SparqlEndpoint
from repro.rdf import IRI, Triple, parse_turtle
from repro.serving import QueryServer, Request, ResultCache
from repro.serving.server import CACHE_HIT_MS

TTL = """
@prefix ex: <http://example.org/> .
ex:a a ex:T ; ex:p ex:b .
ex:b a ex:T ; ex:p ex:c .
ex:c a ex:U .
"""

QUERY = "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }"


def _request(text, seq=0, arrival=0.0, tenant="t0"):
    return Request(0, tenant, seq, arrival, "q", text)


def _server(graph, strategy="hash", profile="virtuoso", **options):
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://cache.example.org/sparql",
        graph,
        clock,
        availability=AlwaysAvailable(),
        strategy=strategy,
        seed=1,
        profile=profile,
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


def test_rewriting_a_key_replaces_it_without_an_eviction():
    cache = ResultCache(capacity=2)
    cache.put("a", 0, "ra")
    cache.put("b", 0, "rb")
    cache.put("a", 1, "ra1")  # a is now most-recent, at generation 1
    assert cache.evictions == 0 and len(cache) == 2
    assert cache.get("a", 1) == "ra1"
    cache.put("c", 0, "rc")  # evicts b, the least recent
    assert cache.get("b", 0) is None and cache.get("a", 1) == "ra1"


def test_the_admission_floor_admits_its_own_edge_and_unmeasured_results():
    cache = ResultCache(capacity=4, min_service_ms=2.0)
    cache.put("cheap", 0, "r", service_ms=1.999)
    cache.put("edge", 0, "r", service_ms=2.0)
    cache.put("unmeasured", 0, "r")
    assert cache.skipped_cheap == 1
    assert cache.get("cheap", 0) is None
    assert cache.get("edge", 0) == cache.get("unmeasured", 0) == "r"


def test_clear_empties_the_cache_and_keeps_its_counters():
    cache = ResultCache(capacity=1)
    cache.put("a", 0, "ra")
    cache.put("b", 0, "rb")
    cache.get("b", 0)
    before = cache.info()
    cache.clear()
    assert len(cache) == 0 and cache.get("b", 0) is None
    assert cache.info() == dict(before, size=0, misses=before["misses"] + 1)


def test_capacity_validation():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, True, 0, -1])
def test_a_capacity_that_is_not_a_count_is_refused(capacity):
    """A NaN or infinite capacity never evicted, 2.5 kept 3 entries and
    ``True`` kept 1: each is refused, naming the parameter."""
    with pytest.raises(ValueError, match="capacity"):
        ResultCache(capacity=capacity)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0, None])
def test_an_admission_floor_that_is_not_finite_and_non_negative_is_refused(floor):
    with pytest.raises(ValueError, match="min_service_ms"):
        ResultCache(capacity=4, min_service_ms=floor)


@pytest.mark.parametrize("floor", [True, False, -math.inf, -1, "4"], ids=repr)
def test_an_admission_floor_that_is_no_duration_is_refused(floor):
    """A bool is no duration: ``min_service_ms=True`` was taken as 1 ms."""
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


#: every falsy value but None and 0 was taken as "no cache" through
#: ``if cache_capacity``; the others are not counts either
NOT_A_CACHE_CAPACITY = [False, 0.0, "", [], -1, 4.0, "4", True, math.nan, math.inf]


@pytest.mark.parametrize("capacity", NOT_A_CACHE_CAPACITY, ids=repr)
def test_a_cache_capacity_is_none_or_a_count(capacity):
    with pytest.raises(ValueError, match="cache_capacity"):
        _server(parse_turtle(TTL), cache_capacity=capacity)


def test_a_positive_cache_capacity_sizes_the_cache():
    assert _server(parse_turtle(TTL), cache_capacity=1).cache.capacity == 1


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


# -- the admission floor on a server ------------------------------------------


def test_cache_skips_results_cheaper_than_a_hit():
    # the server's cache floor is the flat hit charge; on an endpoint
    # whose ASK costs less than that, caching the result could never pay
    # for itself, so it is not admitted
    cheap = EndpointProfile(
        "cheap", connect_ms=0.1, parse_ms=0.1, per_pattern_ms=0.1,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
    )
    server = _server(parse_turtle(TTL), profile=cheap)
    assert server.cache.min_service_ms == CACHE_HIT_MS
    report = server.serve([
        _request("ASK { ?s ?p ?o }", seq=0, arrival=0.0),
        _request("ASK { ?s ?p ?o }", seq=1, arrival=10_000.0),
    ])
    assert [r.status for r in report.records] == ["ok", "ok"]  # no hit
    assert server.cache.skipped_cheap == 2
    assert report.cache_info["skipped_cheap"] == 2
    assert len(server.cache) == 0


def test_cache_admits_results_worth_caching():
    server = _server(parse_turtle(TTL))  # a default-profile ASK costs > CACHE_HIT_MS
    report = server.serve([
        _request("ASK { ?s ?p ?o }", seq=0, arrival=0.0),
        _request("ASK { ?s ?p ?o }", seq=1, arrival=10_000.0),
    ])
    assert [r.status for r in report.records] == ["ok", "cache-hit"]
    assert server.cache.skipped_cheap == 0
