"""The serving tier under the endpoint's own weather.

The endpoint's :class:`MarkovAvailability` chain is the tier's only
source of failures: a miss dispatched on a down day records
``"unavailable"``, a miss on an up day is served, and a cache hit answers
whatever the day.  Availability is read by the clock's day at dispatch,
and with sessions hours apart no queue wait carries a request across
midnight -- so the whole report, failures included, is a pure function
of (workload, availability chain, cache setting), whatever the
parallelism.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    MS_PER_DAY,
    EndpointProfile,
    EndpointUnavailable,
    MarkovAvailability,
    SimulationClock,
    SparqlEndpoint,
)
from repro.serving import QueryServer, Request, generate_workload

URL = "http://outage.example.org/sparql"
WORKLOAD_SEED = 11


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _flat_profile():
    # jitter-free, so service times do not depend on dispatch order
    return EndpointProfile(
        "flat", connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )


def _availability(seed):
    """Down on about two days in five."""
    return MarkovAvailability(URL, p_fail=0.35, p_recover=0.5, seed=seed)


def _serve(graph, parallelism, cache_capacity=None, availability_seed=7,
           sessions=40):
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        URL, graph, clock, profile=_flat_profile(), seed=1,
        availability=_availability(availability_seed),
    )
    server = QueryServer(
        endpoint, parallelism=parallelism, queue_capacity=4096,
        cache_capacity=cache_capacity,
    )
    workload = generate_workload(
        sessions=sessions, seed=WORKLOAD_SEED,
        mean_session_gap_ms=21_600_000.0, mean_think_ms=600_000.0,
    )
    return server.serve(workload), endpoint


def _day(ms):
    return int(ms // MS_PER_DAY)


@pytest.mark.parametrize("parallelism", (2, 3, 4, 7))
def test_an_outage_run_digests_alike_at_any_parallelism(graph, parallelism):
    sequential, endpoint = _serve(graph, 1)
    concurrent, _ = _serve(graph, parallelism)
    assert concurrent.digest() == sequential.digest()
    assert concurrent.status_counts() == sequential.status_counts()
    # the weather actually happened, and did not take every day
    assert endpoint.stats.failures > 0
    assert 0.0 < sequential.served_ratio() < 1.0


@pytest.mark.parametrize("parallelism", (1, 4))
def test_a_cached_outage_run_digests_alike_at_any_parallelism(graph, parallelism):
    reference, _ = _serve(graph, 2, cache_capacity=256)
    report, _ = _serve(graph, parallelism, cache_capacity=256)
    assert report.digest() == reference.digest()
    assert report.status_counts() == reference.status_counts()


def test_an_outage_run_is_replayable(graph):
    first, _ = _serve(graph, 2)
    second, _ = _serve(graph, 2)
    assert first.digest() == second.digest()
    assert [(r.status, r.start_ms, r.completion_ms) for r in first.records] == [
        (r.status, r.start_ms, r.completion_ms) for r in second.records
    ]


@pytest.mark.parametrize("availability_seed", (3, 7, 21))
def test_a_miss_fails_exactly_on_the_down_days(graph, availability_seed):
    """Without a cache every request is a miss: its status is the
    chain's verdict on the day it was dispatched."""
    report, endpoint = _serve(graph, 3, availability_seed=availability_seed)
    chain = _availability(availability_seed)
    for record in report.records:
        up = chain.is_available(_day(record.start_ms))
        assert record.status == ("ok" if up else "unavailable"), record
        assert isinstance(record.error, EndpointUnavailable) is (not up)
    assert report.status_counts().get("unavailable", 0) == endpoint.stats.failures
    assert endpoint.stats.queries == len(report.records)


def test_a_different_chain_fails_different_requests(graph):
    reports = [_serve(graph, 2, availability_seed=seed)[0] for seed in (3, 21)]
    assert reports[0].digest() != reports[1].digest()


def test_a_cache_hit_answers_on_a_down_day(graph):
    report, endpoint = _serve(graph, 2, cache_capacity=256)
    chain = _availability(7)
    down_hits = [
        record for record in report.records
        if record.status == "cache-hit" and not chain.is_available(_day(record.start_ms))
    ]
    assert down_hits, "the workload must reach a hit on a down day"
    assert all(record.served and record.result is not None for record in down_hits)
    # a hit never reaches the endpoint, so it is charged no failure
    assert endpoint.stats.queries == len(report.records) - report.cache_info["hits"]


def test_a_failed_miss_is_not_cached_and_the_next_up_day_serves_it(graph):
    """One query asked on a down day and again on the next up day: the
    failure leaves the cache empty, the retry by the client is served."""
    chain = _availability(7)
    down = next(day for day in range(60) if not chain.is_available(day))
    up = next(day for day in range(down + 1, 120) if chain.is_available(day))
    text = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
    requests = [
        Request(0, "t0", 0, down * MS_PER_DAY + 1000.0, "page", text),
        Request(0, "t0", 1, up * MS_PER_DAY + 1000.0, "page", text),
    ]
    endpoint = SparqlEndpoint(
        URL, graph, SimulationClock(), profile=_flat_profile(), seed=1,
        availability=_availability(7),
    )
    server = QueryServer(endpoint, cache_capacity=16)
    report = server.serve(requests)
    assert [record.status for record in report.records] == ["unavailable", "ok"]
    assert server.cache.info()["size"] == 1
    assert endpoint.stats.queries == 2 and endpoint.stats.failures == 1
