"""Regression tests for the endpoint's latency/stats accounting.

Three bugs fixed in PR 6, each pinned here because the serving tier
publishes numbers derived from them:

* failure paths (unavailable, rejected, timed out) advanced the clock but
  never charged ``EndpointStats.total_latency_ms`` -- the mean latency
  derived from stats under-reported under load;
* the timeout path advanced the clock by the raw ``timeout_ms``, skipping
  the jitter every other charge applies;
* ``_estimate_latency`` read shard timing off the shared engine's
  ``exec_stats`` instead of a per-query snapshot, an invitation for one
  query's shard ratio to leak into the next caller's estimate.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointTimeout,
    EndpointUnavailable,
    QueryRejected,
    SimulationClock,
    SparqlEndpoint,
)
from repro.endpoint.profiles import EndpointProfile
from repro.rdf import parse_turtle

TTL = """
@prefix ex: <http://example.org/> .
ex:a a ex:T ; ex:p ex:b .
ex:b a ex:T .
ex:c a ex:U .
"""


class DownOnDay(AlwaysAvailable):
    """Unavailable on exactly the given simulated days."""

    def __init__(self, *days):
        self.days = set(days)

    def is_available(self, day):
        return day not in self.days


def test_stats_total_equals_clock_delta_across_mixed_run():
    """The invariant: every ms the endpoint consumes is in the stats.

    A mixed run -- successes, one unavailability, feature rejections and a
    timeout -- must leave ``total_latency_ms`` exactly equal to the time
    the endpoint advanced the shared clock by.
    """
    clock = SimulationClock()
    # default per-query floor is connect 120 + parse 5 + 15/pattern; at
    # jitter 0.1 a 1-pattern query stays under 170 ms and a 5-pattern one
    # always exceeds it, whatever the RNG draws
    profile = EndpointProfile(
        "strict",
        supports_aggregates=False,
        supports_order_by=False,
        timeout_ms=170.0,
        jitter=0.1,
    )
    endpoint = SparqlEndpoint(
        "http://mixed.example.org/sparql",
        parse_turtle(TTL),
        clock,
        profile=profile,
        availability=DownOnDay(0),
        seed=7,
    )

    charged = 0.0

    def run(text):
        nonlocal charged
        before = clock.now_ms
        try:
            endpoint.query(text)
        except (EndpointUnavailable, QueryRejected, EndpointTimeout):
            pass
        charged += clock.now_ms - before

    run("ASK { ?s ?p ?o }")  # unavailable on day 0
    clock.sleep_until_day(1)  # endpoint is back up; the jump is not endpoint time
    run("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")  # rejected: aggregates
    run("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")  # rejected: ORDER BY
    # 5 patterns -> always over the 170 ms deadline
    run("SELECT ?s WHERE { ?s ?p ?o . ?s a ?t . ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }")
    run("ASK { ?s a <http://example.org/U> }")  # succeeds

    # sub-microsecond agreement: the two sides accumulate the same charges,
    # differing only in float rounding against the day-jump clock base
    assert endpoint.stats.total_latency_ms == pytest.approx(charged, abs=1e-6)
    assert endpoint.stats.failures == 1
    assert endpoint.stats.rejected == 2
    assert endpoint.stats.timeouts == 1
    # every failure path contributed time, not just the success
    assert endpoint.stats.total_latency_ms > 0.0


def test_failure_paths_charge_latency():
    """Unavailable and rejected queries consume (and account) time."""
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://down.example.org/sparql",
        parse_turtle(TTL),
        clock,
        availability=DownOnDay(0),
        seed=3,
    )
    with pytest.raises(EndpointUnavailable):
        endpoint.query("ASK { ?s ?p ?o }")
    assert endpoint.stats.total_latency_ms == pytest.approx(clock.now_ms)
    assert endpoint.stats.total_latency_ms > 0.0


def test_timeout_charge_is_jittered_and_accounted():
    """The timeout deadline is jittered like every other charge."""
    profile = EndpointProfile("slow", timeout_ms=1.0, jitter=0.5)
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://slow.example.org/sparql",
        parse_turtle(TTL),
        clock,
        profile=profile,
        seed=11,
    )
    with pytest.raises(EndpointTimeout):
        endpoint.query("SELECT ?s WHERE { ?s ?p ?o }")
    charged = clock.now_ms
    assert endpoint.stats.total_latency_ms == pytest.approx(charged)
    # a jittered deadline is not the raw timeout_ms, but stays within the
    # profile's spread
    assert charged != profile.timeout_ms
    assert (
        profile.timeout_ms * (1 - profile.jitter)
        <= charged
        <= profile.timeout_ms * (1 + profile.jitter)
    )


def test_timeout_respects_zero_jitter():
    profile = EndpointProfile("flat", timeout_ms=1.0, jitter=0.0)
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://flat.example.org/sparql", parse_turtle(TTL), clock, profile=profile
    )
    with pytest.raises(EndpointTimeout):
        endpoint.query("SELECT ?s WHERE { ?s ?p ?o }")
    assert clock.now_ms == profile.timeout_ms
    assert endpoint.stats.total_latency_ms == profile.timeout_ms


# -- exec_stats isolation -----------------------------------------------------

SPANNING_QUERY = (
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c"
)


@pytest.fixture(scope="module")
def sharded_dataset():
    return government_graph(scale=0.2, seed=5)


def _flat_endpoint(graph, **options):
    # jitter=0 so latency comparisons are exact and independent of how many
    # RNG draws earlier queries consumed
    profile = EndpointProfile("flat", jitter=0.0, max_result_rows=None)
    return SparqlEndpoint(
        "http://shard.example.org/sparql",
        graph,
        SimulationClock(),
        profile=profile,
        seed=9,
        **options,
    )


def test_back_to_back_queries_do_not_share_shard_ratio(sharded_dataset):
    """A subject-bound query after a spanning scan pays the static shard
    bound, not the previous query's measured makespan ratio."""
    subject = None
    for triple in sharded_dataset.triples():
        subject = triple.subject
        break
    bound_query = f"SELECT ?p ?o WHERE {{ <{subject.value}> ?p ?o }}"

    warmed = _flat_endpoint(sharded_dataset, shards=4)
    warmed.query(SPANNING_QUERY)
    after_scan_ms = warmed.clock.now_ms
    warmed.query(bound_query)
    warmed_charge = warmed.clock.now_ms - after_scan_ms

    fresh = _flat_endpoint(sharded_dataset, shards=4)
    fresh.query(bound_query)
    fresh_charge = fresh.clock.now_ms

    # identical charge whether or not a spanning scan ran just before
    assert warmed_charge == pytest.approx(fresh_charge, abs=1e-9)


def test_estimate_latency_reads_only_the_stats_it_is_handed(sharded_dataset):
    """_estimate_latency reads the stats of the execution it is handed and
    nothing else: empty stats fall back to the static parallel bound even
    right after a query on the same engine measured a ratio."""
    endpoint = _flat_endpoint(sharded_dataset, shards=4)
    result = endpoint.query(SPANNING_QUERY)
    parsed_stats = endpoint._engine.execute(SPANNING_QUERY).stats
    assert parsed_stats.get("shard_sequential_ms", 0.0) > 0.0

    from repro.sparql.parser import parse_query

    parsed = parse_query(SPANNING_QUERY)
    with_ratio = endpoint._estimate_latency(parsed, result, parsed_stats)
    without_ratio = endpoint._estimate_latency(parsed, result, {})
    measured = parsed_stats["shard_parallel_ms"] / parsed_stats["shard_sequential_ms"]
    if measured != endpoint.graph.parallel_factor():
        assert with_ratio != without_ratio
