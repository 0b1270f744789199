"""Regression tests for the endpoint's latency/stats accounting.

Two bugs, each pinned here because the serving tier publishes numbers
derived from them:

* failure paths (unavailable, rejected, timed out) advanced the clock but
  never charged ``EndpointStats.total_latency_ms`` -- the mean latency
  derived from stats under-reported under load;
* the timeout path advanced the clock by the raw ``timeout_ms``, skipping
  the jitter every other charge applies.
"""

from __future__ import annotations

import pytest

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


def test_join_rows_sums_the_engine_count_of_every_executed_query():
    """``EndpointStats.join_rows`` adds each executed query's
    ``join_rows`` -- a single pattern builds none -- and a refused query
    adds nothing."""
    from repro.sparql import QueryEngine

    graph = parse_turtle(TTL)
    join = "SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o }"
    expected = QueryEngine(graph).execute(join).stats["join_rows"]
    assert expected > 0
    endpoint = SparqlEndpoint(
        "http://joins.example.org/sparql",
        graph,
        SimulationClock(),
        profile=EndpointProfile("plain", supports_aggregates=False),
    )
    endpoint.query(join)
    endpoint.query("SELECT ?s WHERE { ?s ?p ?o }")
    with pytest.raises(QueryRejected):
        endpoint.query("SELECT (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o }")
    endpoint.query(join)
    assert endpoint.stats.join_rows == 2 * expected


def test_a_limit_past_maxsize_is_answered():
    endpoint = SparqlEndpoint("http://huge.example.org/sparql", parse_turtle(TTL),
                              SimulationClock())
    result = endpoint.query("SELECT * WHERE { ?s ?p ?o } LIMIT 9223372036854775808")
    assert len(result.rows) == 4
