"""Unit tests for the simulated endpoint network: clock, availability,
profiles, endpoint behaviour and the retrying client."""

import pytest

from repro.endpoint import (
    MS_PER_DAY,
    AlwaysAvailable,
    EndpointNetwork,
    EndpointTimeout,
    EndpointUnavailable,
    MarkovAvailability,
    PROFILES,
    QueryRejected,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
    UnknownEndpoint,
    availability_ratio,
    profile_by_name,
)
from repro.endpoint.profiles import EndpointProfile
from repro.rdf import parse_turtle
from repro.sparql import SparqlSyntaxError

TTL = """
@prefix ex: <http://example.org/> .
ex:a a ex:T ; ex:p ex:b .
ex:b a ex:T .
ex:c a ex:U .
"""


def build(profile="virtuoso", availability=None, graph_ttl=TTL):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    endpoint = SparqlEndpoint(
        "http://e.example.org/sparql",
        parse_turtle(graph_ttl),
        clock,
        profile=profile,
        availability=availability or AlwaysAvailable(),
    )
    network.register(endpoint)
    return network, endpoint


class TestClock:
    def test_advance(self):
        clock = SimulationClock()
        clock.advance(1500)
        assert clock.now_ms == 1500

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock().advance(-1)

    def test_day_arithmetic(self):
        clock = SimulationClock()
        clock.advance_days(2.5)
        assert clock.today == 2
        clock.sleep_until_day(5)
        assert clock.today == 5
        assert clock.now_ms == 5 * MS_PER_DAY

    def test_sleep_until_past_day_is_noop(self):
        clock = SimulationClock()
        clock.advance_days(3)
        clock.sleep_until_day(1)
        assert clock.today == 3


class TestAvailability:
    def test_always_available(self):
        model = AlwaysAvailable()
        assert all(model.is_available(day) for day in range(100))

    def test_markov_deterministic_per_seed_and_url(self):
        a = MarkovAvailability("http://x/", seed=1)
        b = MarkovAvailability("http://x/", seed=1)
        assert [a.is_available(d) for d in range(50)] == [
            b.is_available(d) for d in range(50)
        ]

    def test_markov_different_urls_differ(self):
        a = [MarkovAvailability(f"http://{c}/", seed=1, p_fail=0.4).is_available(d)
             for c in "ab" for d in range(40)]
        assert len(set(map(tuple, [a[:40], a[40:]]))) == 2

    def test_flaky_endpoint_recovers(self):
        model = MarkovAvailability("http://x/", p_fail=0.5, p_recover=0.9, seed=0)
        days = [model.is_available(d) for d in range(200)]
        assert any(days) and not all(days)
        # after an outage the endpoint eventually comes back
        first_down = days.index(False)
        assert any(days[first_down:])

    def test_availability_ratio(self):
        assert availability_ratio(AlwaysAvailable(), 10) == 1.0
        flaky = MarkovAvailability("http://x/", p_fail=0.3, p_recover=0.5, seed=2)
        ratio = availability_ratio(flaky, 300)
        assert 0.2 < ratio < 0.95

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            MarkovAvailability("http://x/", p_fail=1.5)
        with pytest.raises(ValueError):
            MarkovAvailability("http://x/", p_recover=0.0)

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            MarkovAvailability("http://x/").is_available(-1)


class TestProfiles:
    def test_known_profiles(self):
        for name in ("virtuoso", "fuseki", "legacy-sesame", "4store", "slow-shared-host"):
            assert profile_by_name(name).name == name

    def test_unknown_profile(self):
        with pytest.raises(KeyError, match="virtuoso"):
            profile_by_name("oracle")

    def test_census_quirks(self):
        assert PROFILES["virtuoso"].max_result_rows == 10_000
        assert not PROFILES["legacy-sesame"].supports_aggregates
        assert not PROFILES["4store"].supports_order_by


class TestEndpointQueries:
    def test_select_advances_clock(self):
        network, endpoint = build()
        before = network.clock.now_ms
        result = endpoint.query("SELECT ?s WHERE { ?s a <http://example.org/T> }")
        assert len(result) == 2
        assert network.clock.now_ms > before

    def test_ask(self):
        _, endpoint = build()
        assert endpoint.query("ASK { ?s a <http://example.org/U> }")

    def test_unavailable_raises_and_counts(self):
        class Down(AlwaysAvailable):
            def is_available(self, day):
                return False

        network, endpoint = build(availability=Down())
        with pytest.raises(EndpointUnavailable):
            endpoint.query("ASK { ?s ?p ?o }")
        assert endpoint.stats.failures == 1

    def test_aggregate_rejected_by_legacy(self):
        _, endpoint = build(profile="legacy-sesame")
        with pytest.raises(QueryRejected):
            endpoint.query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        assert endpoint.stats.rejected == 1

    def test_order_by_rejected_by_4store(self):
        _, endpoint = build(profile="4store")
        with pytest.raises(QueryRejected):
            endpoint.query("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")

    def test_result_truncation(self):
        profile = EndpointProfile("tiny", max_result_rows=2, jitter=0.0)
        _, endpoint = build(profile=profile)
        result = endpoint.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        assert len(result) == 2
        assert result.truncated
        assert endpoint.stats.truncated == 1

    def test_timeout(self):
        profile = EndpointProfile("slow", timeout_ms=1.0, jitter=0.0)
        _, endpoint = build(profile=profile)
        with pytest.raises(EndpointTimeout):
            endpoint.query("SELECT ?s WHERE { ?s ?p ?o }")
        assert endpoint.stats.timeouts == 1

    def test_malformed_text_is_refused_like_a_capability(self):
        """A text that does not parse costs a jittered connect, counts as
        a rejection and leaves as ``QueryRejected`` chained from the
        syntax error -- never as a raw ``SparqlSyntaxError``."""
        network, endpoint = build()
        with pytest.raises(QueryRejected, match="malformed") as caught:
            endpoint.query("SELEC ?s WHERE { ?s ?p ?o }")
        assert isinstance(caught.value.__cause__, SparqlSyntaxError)
        stats = endpoint.stats
        assert (stats.queries, stats.rejected, stats.failures) == (1, 1, 0)
        connect, jitter = endpoint.profile.connect_ms, endpoint.profile.jitter
        assert network.clock.now_ms == stats.total_latency_ms
        assert connect * (1 - jitter) <= stats.total_latency_ms <= connect * (1 + jitter)

    def test_path_inside_filter_exists_rejected(self):
        # legacy-sesame rejects property paths; hiding the path inside a
        # FILTER EXISTS group must not smuggle it past the profile check
        _, endpoint = build(profile="legacy-sesame")
        with pytest.raises(QueryRejected):
            endpoint.query(
                "SELECT ?s WHERE { ?s a <http://example.org/T> "
                "FILTER EXISTS { ?s <http://example.org/p>+ ?o } }"
            )
        assert endpoint.stats.rejected == 1

    def test_path_inside_not_exists_rejected(self):
        _, endpoint = build(profile="legacy-sesame")
        with pytest.raises(QueryRejected):
            endpoint.query(
                "ASK { ?s a <http://example.org/T> "
                "FILTER NOT EXISTS { ?s (<http://example.org/p>|a) ?o } }"
            )

    def test_exists_patterns_count_toward_latency(self):
        # the EXISTS group's patterns execute per candidate solution, so
        # the latency model must charge them like inline patterns
        profile = EndpointProfile("flat", jitter=0.0)
        _, plain = build(profile=profile)
        plain.query("ASK { ?s a <http://example.org/T> }")
        _, with_exists = build(profile=profile)
        with_exists.query(
            "ASK { ?s a <http://example.org/T> "
            "FILTER EXISTS { ?s <http://example.org/p> ?o . ?o a ?t } }"
        )
        extra = with_exists.stats.total_latency_ms - plain.stats.total_latency_ms
        assert extra == pytest.approx(2 * profile.per_pattern_ms)

    @pytest.mark.parametrize("where", [
        "?s a ex:T OPTIONAL { ?s ex:p+ ?o }",
        "{ ?s a ex:T } UNION { ?s ex:p/ex:p ?o }",
        "?s a ex:T { ?s ^ex:p ?o }",
        "?s a ex:T FILTER (?s = ex:c || EXISTS { ?s ex:p* ?o })",
        "?s a ex:T FILTER EXISTS { ?s ex:p ?o FILTER NOT EXISTS { ?o ex:p+ ?x } }",
    ], ids=["optional", "union", "nested-group", "exists-in-argument",
            "exists-in-exists"])
    def test_a_path_at_any_nesting_is_rejected(self, where):
        """The path check walks every shape that holds triple patterns,
        not just the top level and a FILTER's own EXISTS."""
        _, endpoint = build(profile="legacy-sesame")
        with pytest.raises(QueryRejected, match="property paths"):
            endpoint.query(f"PREFIX ex: <http://example.org/> ASK {{ {where} }}")
        assert endpoint.stats.rejected == 1

    @pytest.mark.parametrize("where, patterns", [
        ("?s a ex:T . ?s ex:p ?o", 2),
        ("?s a ex:T OPTIONAL { ?s ex:p ?o }", 2),
        ("{ ?s a ex:T } UNION { ?s a ex:U . ?s ex:p ?o }", 3),
        ("?s a ex:T { ?s ex:p ?o }", 2),
        ("?s a ex:T FILTER (?s = ex:c || EXISTS { ?s ex:p ?o })", 2),
        ("VALUES ?s { ex:a ex:b } ?s a ex:T", 1),
    ], ids=["plain", "optional", "union", "nested-group", "exists-in-argument",
            "values"])
    def test_every_nested_pattern_is_charged_once(self, where, patterns):
        """An ASK's latency over a one-pattern ASK is one ``per_pattern_ms``
        per extra triple pattern at any nesting; VALUES holds none."""
        profile = EndpointProfile("flat", jitter=0.0)
        _, plain = build(profile=profile)
        plain.query("ASK { ?s ?p ?o }")
        _, nested = build(profile=profile)
        nested.query(f"PREFIX ex: <http://example.org/> ASK {{ {where} }}")
        extra = nested.stats.total_latency_ms - plain.stats.total_latency_ms
        assert extra == pytest.approx((patterns - 1) * profile.per_pattern_ms)

    def test_latency_grows_with_result_size(self):
        profile = EndpointProfile("flat", jitter=0.0)
        clock = SimulationClock()
        network = EndpointNetwork(clock=clock)
        big_ttl = "@prefix ex: <http://example.org/> .\n" + "\n".join(
            f"ex:n{i} a ex:T ." for i in range(500)
        )
        endpoint = SparqlEndpoint("http://big/sparql", parse_turtle(big_ttl), clock,
                                  profile=profile)
        network.register(endpoint)
        t0 = clock.now_ms
        endpoint.query("SELECT ?s WHERE { ?s a <http://example.org/T> } LIMIT 1")
        small_cost = clock.now_ms - t0
        t1 = clock.now_ms
        endpoint.query("SELECT ?s WHERE { ?s a <http://example.org/T> }")
        big_cost = clock.now_ms - t1
        assert big_cost > small_cost


class TestNetworkAndClient:
    def test_unknown_url(self):
        network, _ = build()
        client = SparqlClient(network)
        with pytest.raises(UnknownEndpoint):
            client.query("http://ghost.example.org/", "ASK { ?s ?p ?o }")

    def test_duplicate_registration_rejected(self):
        network, endpoint = build()
        with pytest.raises(ValueError):
            network.register(endpoint)

    def test_foreign_clock_rejected(self):
        network, _ = build()
        stray = SparqlEndpoint(
            "http://other/sparql", parse_turtle(TTL), SimulationClock()
        )
        with pytest.raises(ValueError):
            network.register(stray)

    def test_client_select_and_ask(self):
        network, _ = build()
        client = SparqlClient(network)
        result = client.select(
            "http://e.example.org/sparql", "SELECT ?s WHERE { ?s ?p ?o }"
        )
        assert len(result) > 0
        assert client.is_alive("http://e.example.org/sparql")

    def test_client_retries_transient_unavailability(self):
        class FlakyFirstAttempt(AlwaysAvailable):
            def __init__(self):
                self.calls = 0

            def is_available(self, day):
                self.calls += 1
                return self.calls > 1  # down once, then up

        availability = FlakyFirstAttempt()
        network, _ = build(availability=availability)
        client = SparqlClient(network, max_retries=2)
        assert client.ask("http://e.example.org/sparql", "ASK { ?s ?p ?o }")

    def test_client_gives_up_after_retries(self):
        class AlwaysDown(AlwaysAvailable):
            def is_available(self, day):
                return False

        network, _ = build(availability=AlwaysDown())
        client = SparqlClient(network, max_retries=1)
        with pytest.raises(EndpointUnavailable):
            client.query("http://e.example.org/sparql", "ASK { ?s ?p ?o }")

    def test_is_alive_false_for_dead(self):
        class AlwaysDown(AlwaysAvailable):
            def is_available(self, day):
                return False

        network, _ = build(availability=AlwaysDown())
        client = SparqlClient(network, max_retries=0)
        assert not client.is_alive("http://e.example.org/sparql")

    def test_network_iteration_sorted(self):
        clock = SimulationClock()
        network = EndpointNetwork(clock=clock)
        for name in ("zzz", "aaa"):
            network.register(
                SparqlEndpoint(f"http://{name}/sparql", parse_turtle(TTL), clock)
            )
        assert network.urls() == ["http://aaa/sparql", "http://zzz/sparql"]
        assert len(network) == 2
