"""Tier-1 guard: chaos runs are byte-deterministic across parallelism.

The hardest invariant of PR 7, replayed on every test run: one seeded
chaos profile (Markov outages + bursts + slowdowns + timeout spikes),
one seeded workload, the full resilience stack -- and the report digest
at ``parallelism=1`` must equal the digest at ``parallelism=4``.  This
holds by construction (fault fate is anchored to arrival instants,
probabilistic draws are stateless hashes, degradation pins every served
row to the canonical result of ``(query text, generation)``), and this
test is the tripwire for any future change that breaks one of those
legs.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointProfile,
    SimulationClock,
    SparqlEndpoint,
)
from repro.serving import (
    QueryServer,
    ResiliencePolicy,
    chaos_profile,
    generate_workload,
)

#: ~30% outage + heavy bursts: the benchmark's chaos arm in miniature
PLAN_SEED = 7
WORKLOAD_SEED = 11


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _flat_profile():
    # jitter-free so even the *naive* arm's timeout fate is order-free
    return EndpointProfile(
        "flat", connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )


def _serve(graph, parallelism, resilient):
    plan = chaos_profile(
        seed=PLAN_SEED, horizon_days=30,
        p_fail=0.35, p_recover=0.5, burst_coverage=0.5, burst_p=0.95,
    )
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://chaos.example.org/sparql", graph, clock,
        profile=_flat_profile(), availability=AlwaysAvailable(), seed=1,
    )
    server = QueryServer(
        endpoint,
        parallelism=parallelism,
        queue_capacity=4096,
        cache_capacity=None,
        faults=plan,
        resilience=ResiliencePolicy(seed=5) if resilient else None,
    )
    workload = generate_workload(
        sessions=60, seed=WORKLOAD_SEED,
        mean_session_gap_ms=21_600_000.0, mean_think_ms=600_000.0,
    )
    return server.serve(workload)


def test_chaos_digest_invariant_across_parallelism(graph):
    sequential = _serve(graph, 1, resilient=True)
    concurrent = _serve(graph, 4, resilient=True)
    assert sequential.digest() == concurrent.digest()
    # the weather actually happened and the stack actually answered it
    info = sequential.resilience_info
    assert info["injected_outage_failures"] + info["injected_transient_failures"] > 0
    assert sequential.served_ratio() == 1.0
    assert sequential.degraded


def test_chaos_digest_invariant_for_the_naive_arm(graph):
    # the baseline arm (no policies) must be replayable too, or the
    # benchmark's A/B is noise: with a jitter-free profile every fault
    # fate is a pure function of the arrival-anchored timeline
    sequential = _serve(graph, 1, resilient=False)
    concurrent = _serve(graph, 4, resilient=False)
    assert sequential.digest() == concurrent.digest()
    assert sequential.served_ratio() < 1.0  # chaos actually bites


def test_resilience_recovers_twice_the_naive_served_ratio(graph):
    """The A/B the policies exist for: under identical weather the full
    stack serves every request and at least 2x the naive arm's share."""
    naive = _serve(graph, 4, resilient=False)
    resilient = _serve(graph, 4, resilient=True)
    assert resilient.served_ratio() == 1.0
    assert 0.0 < naive.served_ratio() <= 0.5 * resilient.served_ratio()


def test_chaos_run_is_replayable(graph):
    assert _serve(graph, 2, resilient=True).digest() == _serve(
        graph, 2, resilient=True
    ).digest()
