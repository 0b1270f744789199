"""Tier-1 guard: the observability exports are themselves deterministic.

Two invariants, mirroring the ``ServingReport.digest()`` contract:

* **Canonical tier is parallelism-invariant.**  The canonical trace
  digest (request identity + outcome or result digest) and the canonical
  metric digest (workload-derived values) are byte-identical across
  scheduler parallelism while the endpoint's Markov availability takes it
  down for days -- and differ across cache configuration exactly when
  the served outcomes do (a hit answers through an outage, a miss fails).
* **Profile tier is replayable.**  At a *fixed* config the full JSONL
  export (every span, every metric, timestamps included) is
  byte-identical run over run.

Plus the zero-cost contract: a server without an Observatory must not
allocate a single Span.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointProfile,
    MarkovAvailability,
    SimulationClock,
    SparqlEndpoint,
)
from repro.obs import Observatory
from repro.obs.trace import NULL_TRACER, Span
from repro.serving import QueryServer, generate_workload

URL = "http://chaos.example.org/sparql"
AVAILABILITY_SEED = 9
WORKLOAD_SEED = 13


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _flat_profile():
    return EndpointProfile(
        "flat", connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )


def _serve(graph, parallelism, cache, observed=True, outages=True):
    """Serve a ten-day workload on an endpoint that is down on about two
    days in five (with *outages*); returns the report, the Observatory
    and the endpoint."""
    clock = SimulationClock()
    availability = (
        MarkovAvailability(URL, p_fail=0.35, p_recover=0.5, seed=AVAILABILITY_SEED)
        if outages else AlwaysAvailable()
    )
    endpoint = SparqlEndpoint(
        URL, graph, clock, profile=_flat_profile(), seed=1, availability=availability,
    )
    obs = Observatory(clock=clock, seed=AVAILABILITY_SEED) if observed else None
    server = QueryServer(
        endpoint,
        parallelism=parallelism,
        queue_capacity=4096,
        cache_capacity=256 if cache else None,
        obs=obs,
    )
    workload = generate_workload(
        sessions=40, seed=WORKLOAD_SEED,
        mean_session_gap_ms=21_600_000.0, mean_think_ms=600_000.0,
    )
    return server.serve(workload), obs, endpoint


@pytest.mark.parametrize("cache", (True, False), ids=("cache-on", "cache-off"))
def test_canonical_tier_invariant_across_parallelism(graph, cache):
    """The headline guarantee: same canonical observability digest at
    parallelism 1 vs 4 through the endpoint's outages, exactly as the
    report digests agree."""
    results = [_serve(graph, parallelism, cache) for parallelism in (1, 4)]
    assert len({report.digest() for report, _, _ in results}) == 1
    assert len({obs.tracer.canonical_digest() for _, obs, _ in results}) == 1
    assert len({obs.metrics.digest(canonical_only=True) for _, obs, _ in results}) == 1
    assert len({obs.canonical_digest() for _, obs, _ in results}) == 1
    assert all(obs.tracer.spans for _, obs, _ in results)


def test_canonical_tier_follows_what_the_cache_served(graph):
    """Cache on and off serve different outcomes once the endpoint goes
    down -- the cache-off arm fails every request of an outage day, the
    cache-on arm still answers the ones it holds -- and the canonical
    trace digests differ with them; the workload-derived metrics do not.
    With the endpoint always up, both arms serve the same rows and every
    canonical digest agrees."""
    (on, on_obs, _), (off, off_obs, off_endpoint) = (
        _serve(graph, 2, cache) for cache in (True, False)
    )
    assert off_endpoint.stats.failures > 0
    assert off.status_counts()["unavailable"] == off_endpoint.stats.failures
    assert len(on.served) > len(off.served)
    assert on.digest() != off.digest()
    assert on_obs.tracer.canonical_digest() != off_obs.tracer.canonical_digest()
    assert (on_obs.metrics.digest(canonical_only=True)
            == off_obs.metrics.digest(canonical_only=True))
    calm = [_serve(graph, 2, cache, outages=False) for cache in (True, False)]
    assert len({report.digest() for report, _, _ in calm}) == 1
    assert len({obs.canonical_digest() for _, obs, _ in calm}) == 1


def test_profile_tier_replays_byte_identically(graph):
    first_report, first_obs, _ = _serve(graph, 2, cache=True)
    second_report, second_obs, _ = _serve(graph, 2, cache=True)
    assert first_obs.export_jsonl() == second_obs.export_jsonl()
    assert first_report.export_jsonl() == second_report.export_jsonl()
    assert first_obs.export_jsonl()  # non-empty: spans + metrics present


def test_report_trace_renders_request_tree(graph):
    report, obs, _ = _serve(graph, 2, cache=True)
    record = next(r for r in report.records if r.served)
    text = report.trace(record.request.key)
    assert text.splitlines()[0].startswith("request")
    assert "endpoint.query" in text or "cache.lookup" in text
    missing = report.trace(("no-such-session", 999))
    assert "no trace" in missing


def test_report_trace_without_observatory_raises(graph):
    report, _, _ = _serve(graph, 1, cache=True, observed=False)
    with pytest.raises(ValueError):
        report.trace(("s1", 0))


def test_registered_metric_surfaces_are_complete(graph):
    report, obs, endpoint = _serve(graph, 2, cache=True)
    names = set(obs.metrics.names())
    for expected in (
        "serving.requests_total", "serving.served_total", "serving.latency_ms",
        "serving.queue_wait_ms",
        "admission.offered", "admission.rejected",
        "endpoint.queries", "endpoint.failures", "endpoint.total_latency_ms",
        "cache.hits", "cache.misses",
    ):
        assert expected in names, expected
    # the bridged values line up with the legacy stat surfaces
    dump = obs.metrics.dump()
    assert dump["serving.requests_total"] == len(report.records)
    assert dump["serving.served_total"] == len(report.served)
    assert dump["cache.hits"] == report.cache_info["hits"]
    assert dump["endpoint.failures"] == endpoint.stats.failures
    assert dump["serving.latency_ms"]["count"] == len(report.served)


def test_disabled_mode_allocates_no_spans(graph, monkeypatch):
    allocations = []
    original = Span.__init__

    def counting(self, *args, **kwargs):
        allocations.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    report, obs, _ = _serve(graph, 2, cache=True, observed=False)
    assert obs is None
    assert report.served_ratio() > 0
    assert allocations == []
    assert NULL_TRACER.spans == ()


def test_observed_run_matches_unobserved_digest(graph):
    """Attaching an Observatory must not change what is served."""
    observed, _, _ = _serve(graph, 2, cache=True, observed=True)
    plain, _, _ = _serve(graph, 2, cache=True, observed=False)
    assert observed.digest() == plain.digest()
