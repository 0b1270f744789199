"""The scheduler + server end to end: determinism, concurrency, rejection.

The contract under test is the one the serving benchmark relies on:
given (workload seed, parallelism) the full report is deterministic, and
the *results digest* is invariant across parallelism and across cache
on/off -- scheduling moves when things run, never what they return.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    AvailabilityModel,
    EndpointError,
    EndpointProfile,
    SimulationClock,
    SparqlEndpoint,
)
from repro.serving import (
    QueryServer,
    Request,
    Scheduler,
    cache_friendly_mix,
    generate_workload,
)
from repro.serving.server import CACHE_HIT_MS


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _endpoint(graph, clock=None, **options):
    options.setdefault("availability", AlwaysAvailable())
    options.setdefault("seed", 4)
    return SparqlEndpoint(
        "http://serve.example.org/sparql", graph, clock or SimulationClock(),
        **options
    )


def _flat_profile(**overrides):
    """Jitter-free profile so service times are exactly predictable."""
    defaults = dict(
        connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )
    defaults.update(overrides)
    return EndpointProfile("flat", **defaults)


def _burst(n, spacing_ms=0.0, tenant="t0", text="ASK { ?s ?p ?o }"):
    return [
        Request(0, tenant, seq, seq * spacing_ms, "burst", text)
        for seq in range(n)
    ]


class DownOnDay(AvailabilityModel):
    def __init__(self, *days):
        self.days = set(days)

    def is_available(self, day: int) -> bool:
        return day not in self.days


# -- determinism --------------------------------------------------------------


def test_repeat_run_is_deterministic(graph):
    summaries = []
    for _ in range(2):
        server = QueryServer(_endpoint(graph), parallelism=3)
        workload = generate_workload(sessions=25, seed=9)
        summaries.append(server.serve(workload).summary())
    assert summaries[0] == summaries[1]


def test_digest_invariant_across_parallelism_and_cache(graph):
    workload = generate_workload(sessions=25, seed=9)
    digests = set()
    for parallelism in (1, 2, 4):
        for cache_capacity in (None, 256):
            server = QueryServer(
                _endpoint(graph),
                parallelism=parallelism,
                queue_capacity=4096,
                cache_capacity=cache_capacity,
            )
            digests.add(server.serve(workload).digest())
    assert len(digests) == 1


def test_parallelism_shrinks_makespan_and_tail_latency(graph):
    workload = generate_workload(
        sessions=30, seed=9, mix=cache_friendly_mix(),
        mean_session_gap_ms=40.0, mean_think_ms=60.0,
    )
    reports = {}
    for parallelism in (1, 4):
        server = QueryServer(
            _endpoint(graph), parallelism=parallelism,
            queue_capacity=4096, cache_capacity=None,
        )
        reports[parallelism] = server.serve(workload)
    assert reports[4].makespan_ms() < reports[1].makespan_ms()
    p95_serial = reports[1].latency_percentiles()["p95"]
    p95_parallel = reports[4].latency_percentiles()["p95"]
    assert p95_parallel < p95_serial
    assert reports[4].digest() == reports[1].digest()


def test_result_cache_doubles_simulated_throughput_on_dashboard_mix(graph):
    """The cache A/B in simulated time: a saturating dashboard mix (short
    gaps and think times, so the makespan is service-bound, not
    arrival-bound) served cache on vs off -- every request served on both
    arms, identical digests, >= 2x the simulated throughput."""
    workload = generate_workload(
        sessions=60, seed=7, mix=cache_friendly_mix(),
        mean_session_gap_ms=50.0, mean_think_ms=80.0,
    )
    reports = {}
    for cache_capacity in (None, 256):
        server = QueryServer(
            _endpoint(graph), parallelism=4,
            queue_capacity=4096, cache_capacity=cache_capacity,
        )
        reports[cache_capacity] = server.serve(workload)
        assert len(reports[cache_capacity].served) == len(workload)
    uncached, cached = reports[None], reports[256]
    assert cached.digest() == uncached.digest()
    assert cached.cache_info["hits"] > cached.cache_info["misses"]
    assert cached.throughput_qps() >= 2.0 * uncached.throughput_qps()


# -- scheduling mechanics -----------------------------------------------------


def test_concurrent_requests_overlap_on_workers(graph):
    """Two simultaneous arrivals on two workers finish together; on one
    worker the second waits for the first."""
    results = {}
    for parallelism in (1, 2):
        endpoint = _endpoint(graph, profile=_flat_profile())
        server = QueryServer(
            endpoint, parallelism=parallelism, cache_capacity=None
        )
        report = server.serve(_burst(2))
        results[parallelism] = report
    serial, concurrent = results[1].records, results[2].records
    # identical service times in both runs
    assert [r.service_ms for r in serial] == [r.service_ms for r in concurrent]
    # serial: the second request waits for the first
    assert serial[1].start_ms == pytest.approx(serial[0].completion_ms)
    # concurrent: both start at arrival
    assert concurrent[1].start_ms == pytest.approx(0.0)
    assert results[2].makespan_ms() < results[1].makespan_ms()


def test_clock_ends_at_last_completion(graph):
    endpoint = _endpoint(graph, profile=_flat_profile())
    server = QueryServer(endpoint, parallelism=2, cache_capacity=None)
    report = server.serve(_burst(5, spacing_ms=3.0))
    assert endpoint.clock.now_ms == pytest.approx(
        max(r.completion_ms for r in report.records)
    )


def test_queue_overflow_rejects_with_endpoint_error_type(graph):
    from repro.endpoint.errors import QueryRejected

    endpoint = _endpoint(graph, profile=_flat_profile())
    server = QueryServer(
        endpoint, parallelism=1, queue_capacity=2, cache_capacity=None
    )
    report = server.serve(_burst(6))
    counts = report.status_counts()
    assert counts == {"ok": 3, "rejected": 3}
    rejected = [r for r in report.records if r.status == "rejected"]
    assert all(isinstance(r.error, QueryRejected) for r in rejected)
    # rejection is instantaneous: no latency charged
    assert all(r.latency_ms == 0.0 for r in rejected)


def test_fairness_interleaves_tenants_under_load(graph):
    endpoint = _endpoint(graph, profile=_flat_profile())
    server = QueryServer(
        endpoint, parallelism=1, queue_capacity=64, cache_capacity=None
    )
    # one chatty tenant floods at t=0, a quiet tenant sends two
    requests = _burst(6, tenant="chatty")
    requests += [
        Request(1, "quiet", seq, 0.0, "burst", "ASK { ?s ?p ?o }")
        for seq in range(2)
    ]
    report = server.serve(requests)
    started = sorted(
        (r for r in report.records if r.served), key=lambda r: r.start_ms
    )
    order = [r.request.tenant for r in started]
    # the first request starts immediately (chatty); queued work then
    # alternates between tenants until quiet's two are done
    assert order[:5] == ["chatty", "chatty", "quiet", "chatty", "quiet"]


# -- endpoint failures surface as statuses ------------------------------------


def test_endpoint_failures_surface_in_report(graph):
    from repro.endpoint.errors import EndpointUnavailable

    endpoint = _endpoint(graph, availability=DownOnDay(0))
    server = QueryServer(endpoint, parallelism=2, cache_capacity=None)
    report = server.serve(_burst(3))
    assert report.status_counts() == {"unavailable": 3}
    assert all(
        isinstance(r.error, EndpointUnavailable) for r in report.records
    )
    assert report.served == []
    # failure connect-charges are real service time on the workers
    assert all(r.service_ms > 0.0 for r in report.records)


def test_feature_rejection_surfaces_in_report(graph):
    endpoint = _endpoint(
        graph, profile=_flat_profile(), strategy="hash"
    )
    endpoint.profile.supports_aggregates = False
    server = QueryServer(endpoint, parallelism=1, cache_capacity=None)
    report = server.serve(
        _burst(1, text="SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
    )
    assert report.status_counts() == {"feature-rejected": 1}


def _failing_endpoint(graph, kind):
    """An endpoint whose every answer is the failure *kind*, and a query
    that draws it."""
    text = "ASK { ?s ?p ?o }"
    if kind == "unavailable":
        return _endpoint(graph, profile=_flat_profile(), availability=DownOnDay(0)), text
    if kind == "endpoint-timeout":
        return _endpoint(graph, profile=_flat_profile(timeout_ms=1.0)), text
    endpoint = _endpoint(graph, profile=_flat_profile())
    endpoint.profile.supports_aggregates = False
    return endpoint, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"


@pytest.mark.parametrize(
    "kind", ("unavailable", "endpoint-timeout", "feature-rejected")
)
def test_the_server_fails_like_the_endpoint_failed(graph, kind):
    """One dispatch, the endpoint's own charge as the service time, its
    failure as the status and its error on the record -- nothing retried
    or served in its place."""
    endpoint, text = _failing_endpoint(graph, kind)
    server = QueryServer(endpoint, cache_capacity=None)
    report = server.serve(_burst(1, text=text))
    (record,) = report.records
    assert record.status == kind and not record.served and record.result is None
    assert isinstance(record.error, EndpointError)
    assert record.service_ms == endpoint.stats.total_latency_ms > 0.0
    assert endpoint.stats.queries == 1
    assert report.summary()["statuses"] == {kind: 1}


def test_cache_hit_dispatches_nothing(graph):
    endpoint = _endpoint(graph, profile=_flat_profile())
    server = QueryServer(endpoint, parallelism=1)
    report = server.serve(_burst(2, spacing_ms=1000.0, text="SELECT ?s WHERE { ?s ?p ?o }"))
    assert [r.status for r in report.records] == ["ok", "cache-hit"]
    assert report.records[1].service_ms == CACHE_HIT_MS
    assert endpoint.stats.queries == 1


def test_executor_bugs_propagate_out_of_serve(graph):
    """Endpoint failures are outcomes; anything else the executor lets
    out is a bug and must not be recorded as one."""
    endpoint = _endpoint(graph)

    def query(text):
        raise RuntimeError("engine bug")

    endpoint.query = query
    with pytest.raises(RuntimeError, match="engine bug"):
        QueryServer(endpoint).serve(_burst(1))


def test_non_endpoint_errors_propagate():
    clock = SimulationClock()

    def explode(request):
        raise RuntimeError("boom")

    scheduler = Scheduler(clock, explode, parallelism=1)
    with pytest.raises(RuntimeError):
        scheduler.run(_burst(1))


# -- status surface -----------------------------------------------------------


def test_server_status_shape(graph):
    server = QueryServer(_endpoint(graph), parallelism=2, queue_capacity=32)
    server.serve(generate_workload(sessions=5, seed=1))
    status = server.status()
    assert status["parallelism"] == 2
    assert status["queue_capacity"] == 32
    assert status["runs"] == 1
    assert status["endpoint_stats"]["queries"] >= 1
    cache = status["cache"]
    assert set(cache) == {
        "size", "capacity", "hits", "misses", "evictions", "invalidations",
        "skipped_cheap",
    }
    assert cache["hits"] + cache["misses"] >= 1
    assert set(status) == {
        "endpoint", "parallelism", "queue_capacity", "runs", "endpoint_stats",
        "cache",
    }


def test_cacheless_server_status(graph):
    server = QueryServer(_endpoint(graph), cache_capacity=None)
    assert server.status()["cache"] is None
