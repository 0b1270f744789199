"""``SparqlClient``'s retry ledger: seeded exponential backoff with full
jitter, desynchronized across client seeds and capped in total."""

from __future__ import annotations

import math

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    EndpointNetwork,
    EndpointProfile,
    EndpointUnavailable,
    MarkovAvailability,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.endpoint.network import full_jitter_backoff_ms


def _flat_profile():
    return EndpointProfile(
        "flat", connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )


# -- backoff helper -----------------------------------------------------------


def test_backoff_is_deterministic_and_bounded():
    delays = [
        full_jitter_backoff_ms(7, (1, 2), attempt, 100.0, 2_000.0)
        for attempt in range(8)
    ]
    assert delays == [
        full_jitter_backoff_ms(7, (1, 2), attempt, 100.0, 2_000.0)
        for attempt in range(8)
    ]
    for attempt, delay in enumerate(delays):
        assert 0.0 <= delay <= min(2_000.0, 100.0 * 2**attempt)


def test_backoff_decorrelates_seeds_and_attempts():
    a = [full_jitter_backoff_ms(1, "k", n, 100.0, 1e9) for n in range(6)]
    b = [full_jitter_backoff_ms(2, "k", n, 100.0, 1e9) for n in range(6)]
    assert a != b
    assert len(set(a)) == len(a)
    with pytest.raises(ValueError):
        full_jitter_backoff_ms(0, "k", -1, 100.0, 1000.0)


# -- the client ---------------------------------------------------------------


def _flaky_network(seed):
    clock = SimulationClock()
    network = EndpointNetwork(clock)
    graph = government_graph(scale=0.05, seed=2)
    network.register(SparqlEndpoint(
        "http://flaky.example.org/sparql", graph, clock,
        profile=_flat_profile(),
        availability=MarkovAvailability(
            "http://flaky.example.org/sparql", p_fail=1.0, p_recover=1.0,
            seed=seed, start_up=False,
        ),
    ))
    return network


def test_client_backoff_is_exponential_jittered_not_linear():
    network = _flaky_network(seed=0)
    client = SparqlClient(network, max_retries=3, retry_backoff_ms=500.0)
    before = network.clock.now_ms
    with pytest.raises(EndpointUnavailable):
        client.query("http://flaky.example.org/sparql", "ASK { ?s ?p ?o }")
    waited = network.clock.now_ms - before
    # three backoffs drawn from U(0, 500), U(0, 1000), U(0, 2000) -- the
    # old linear ramp always waited exactly 500 + 1000 + 1500 = 3000
    assert 0.0 < waited < 500.0 + 1000.0 + 2000.0
    assert waited != pytest.approx(3000.0)


def test_clients_with_different_seeds_desynchronize_retry_storms():
    # two clients hammering identical flaky endpoints with the same
    # query: their backoff schedules must not coincide, or a fleet-wide
    # retry storm re-synchronizes on the recovering endpoint
    def retry_instants(seed):
        network = _flaky_network(seed=0)
        client = SparqlClient(network, max_retries=4, seed=seed)
        instants = []
        original = network.clock.advance

        def tracking_advance(delta_ms):
            original(delta_ms)
            instants.append(network.clock.now_ms)

        network.clock.advance = tracking_advance
        with pytest.raises(EndpointUnavailable):
            client.query("http://flaky.example.org/sparql", "ASK { ?s ?p ?o }")
        return instants

    assert retry_instants(seed=1) != retry_instants(seed=2)
    # same seed replays the identical schedule
    assert retry_instants(seed=1) == retry_instants(seed=1)


def test_client_total_backoff_time_is_capped():
    network = _flaky_network(seed=0)
    client = SparqlClient(
        network, max_retries=50, retry_backoff_ms=1_000.0,
        backoff_cap_ms=10_000.0, max_backoff_total_ms=5_000.0,
    )
    before = network.clock.now_ms
    with pytest.raises(EndpointUnavailable):
        client.query("http://flaky.example.org/sparql", "ASK { ?s ?p ?o }")
    # the endpoint charges its own connect cost per attempt; only the
    # *backoff* waits are capped
    backoff_budget = 5_000.0
    attempts_cost = network.get(
        "http://flaky.example.org/sparql"
    ).stats.total_latency_ms
    assert network.clock.now_ms - before <= backoff_budget + attempts_cost


# -- the client's doors ---------------------------------------------------------


@pytest.mark.parametrize("name, value", [
    ("max_retries", -1),  # queried nothing, then a bare AssertionError
    ("max_retries", 2.5),  # TypeError from range() at the first query
    ("max_retries", math.nan),
    ("max_retries", math.inf),
    ("retry_backoff_ms", -500.0),  # moved the clock backwards mid-query
    ("backoff_cap_ms", -1.0),
    ("retry_backoff_ms", math.nan),  # drew every delay against the cap
    ("max_backoff_total_ms", math.nan),  # switched the budget off
], ids=lambda v: repr(v) if isinstance(v, float) else str(v))
def test_a_retry_setting_that_would_fail_mid_query_is_refused(name, value):
    network = _flaky_network(seed=0)
    with pytest.raises(ValueError, match=name):
        SparqlClient(network, **{name: value})
    assert network.clock.now_ms == 0.0


#: values no millisecond setting takes: a bool is no duration
#: (``max_backoff_total_ms=False`` built a client that never backed off,
#: ``retry_backoff_ms=True`` a 1 ms ramp), and neither is a non-finite,
#: negative or non-numeric value
HOSTILE_MS = [True, False, math.nan, math.inf, -math.inf, -1, "4", None]


@pytest.mark.parametrize("value", HOSTILE_MS, ids=repr)
@pytest.mark.parametrize("name", ["retry_backoff_ms", "backoff_cap_ms", "max_backoff_total_ms"])
def test_a_millisecond_setting_that_is_no_duration_is_refused(name, value):
    network = _flaky_network(seed=0)
    with pytest.raises(ValueError, match=name):
        SparqlClient(network, **{name: value})
    assert network.clock.now_ms == 0.0

