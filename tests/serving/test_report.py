"""`ServingReport`'s read surfaces and the executor's status folding.

The report is built here from hand-made records, so each surface is
checked against numbers worked out by hand: nearest-rank percentiles,
the served ratio, throughput over the busy period, and a digest that
covers what was served but not when.
"""

from __future__ import annotations

import math

import pytest

from repro.endpoint import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    QueryRejected,
    SimulationClock,
    UnknownEndpoint,
)
from repro.serving import QueryServer, Request
from repro.serving.scheduler import RequestRecord
from repro.serving.server import ServingReport
from repro.sparql import AskResult


def _record(seq, status="ok", latency_ms=10.0, answer=True):
    request = Request(0, "t0", seq, 100.0 * seq, "ask", "ASK { ?s ?p ?o }")
    served = status in ("ok", "cache-hit")
    return RequestRecord(
        request, status,
        start_ms=request.arrival_ms,
        completion_ms=request.arrival_ms + latency_ms,
        service_ms=latency_ms,
        result=AskResult(answer) if served else None,
    )


def _report(records, cache_info=None):
    start = min((r.request.arrival_ms for r in records), default=0.0)
    end = max((r.completion_ms for r in records), default=start)
    return ServingReport(records, parallelism=1, start_ms=start, end_ms=end,
                         cache_info=cache_info)


@pytest.mark.parametrize(
    "percentile, expected",
    [(1.0, 1.0), (50.0, 5.0), (55.0, 6.0), (95.0, 10.0), (100.0, 10.0)],
)
def test_latency_percentiles_are_nearest_rank(percentile, expected):
    records = [_record(seq, latency_ms=float(seq + 1)) for seq in range(10)]
    label = f"p{percentile:g}"
    assert _report(records).latency_percentiles((percentile,)) == {label: expected}


def test_unserved_requests_are_outside_the_latency_percentiles():
    records = [_record(0, latency_ms=1.0), _record(1, status="unavailable", latency_ms=500.0)]
    report = _report(records)
    assert report.latency_percentiles((99.0,)) == {"p99": 1.0}
    assert report.mean_latency_ms() == 1.0
    assert report.served_ratio() == 0.5


def test_an_empty_report_reads_nan_not_zero():
    report = _report([])
    assert math.isnan(report.served_ratio())
    assert math.isnan(report.mean_latency_ms())
    assert math.isnan(report.throughput_qps())
    assert all(math.isnan(v) for v in report.latency_percentiles().values())


def test_throughput_is_served_requests_over_the_busy_period():
    # arrivals at 0, 100, 200 ms; the last completes at 210 ms
    report = _report([_record(seq) for seq in range(3)])
    assert report.makespan_ms() == 210.0
    assert report.throughput_qps() == pytest.approx(3 / 0.21)


def test_the_summary_carries_cache_counters_only_with_a_cache():
    records = [_record(0)]
    assert "cache" not in _report(records).summary()
    info = {"size": 1, "hits": 0}
    assert _report(records, cache_info=info).summary()["cache"] == info


def test_the_digest_ignores_timing_but_not_rows_or_failures():
    base = _report([_record(0), _record(1)]).digest()
    slower = _report([_record(0, latency_ms=99.0), _record(1, status="cache-hit")])
    assert slower.digest() == base
    assert _report([_record(0), _record(1, answer=False)]).digest() != base
    assert _report([_record(0), _record(1, status="unavailable")]).digest() != base


class _FailingEndpoint:
    """Just enough of an endpoint for ``QueryServer._execute``: every
    query raises *error*."""

    def __init__(self, error):
        self.error = error
        self.clock = SimulationClock()
        self.graph = None
        self.url = "http://failing.example.org/sparql"

    def query(self, text):
        raise self.error


@pytest.mark.parametrize(
    "error, status",
    [
        (EndpointUnavailable("down"), "unavailable"),
        (QueryRejected("no aggregates"), "feature-rejected"),
        (EndpointTimeout("slow"), "endpoint-timeout"),
        (UnknownEndpoint("no such host"), "failed"),
        (EndpointError("other"), "failed"),
    ],
    ids=("unavailable", "rejected", "timeout", "unknown-endpoint", "other"),
)
def test_the_executor_folds_each_endpoint_error_into_its_status(error, status):
    server = QueryServer(_FailingEndpoint(error), cache_capacity=None)
    request = Request(0, "t0", 0, 0.0, "ask", "ASK { ?s ?p ?o }")
    assert server._execute(request) == (status, None, error)
