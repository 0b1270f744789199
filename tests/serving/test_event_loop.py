"""The serving scheduler's doors, its exception path and what it allocates.

* A worker or queue count that could only fail mid-serve (zero,
  fractional, a bool) is refused when the server or the scheduler is
  built.  A request with a non-finite arrival is refused before anything
  is served.  The simulated clock refuses a non-finite step.
* An executor's own exception leaves ``serve`` as itself, with the clock
  rewound to the failing request's start instant and no span left open,
  so the next ``serve`` on the same server is traced as usual.
* A malformed query text is the client's error: its requests are
  ``feature-rejected`` and the wave completes.
* Serving a cached wave measures every request inline: no ``TaskOutcome``
  is built.
"""

from __future__ import annotations

import math

import pytest

import repro.core.parallel as parallel
import repro.endpoint.endpoint as endpoint_module
from repro.datagen import government_graph
from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
from repro.obs import Observatory
from repro.obs.trace import Tracer
from repro.serving import (
    QueryServer,
    QueryTemplate,
    Request,
    Scheduler,
    cache_friendly_mix,
    generate_workload,
)


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _endpoint(graph):
    return SparqlEndpoint(
        "http://doors.example.org/sparql", graph, SimulationClock(),
        availability=AlwaysAvailable(), seed=4,
    )


def _burst(n, spacing_ms=0.0):
    return [Request(0, "t0", seq, seq * spacing_ms, "burst", "ASK { ?s ?p ?o }")
            for seq in range(n)]


# -- doors --------------------------------------------------------------------

#: (keyword, refused value); every row fails at construction, naming the keyword
REFUSED = [
    ("parallelism", 0),
    ("parallelism", -2),
    ("parallelism", 2.5),
    ("parallelism", True),
    ("parallelism", None),
    ("queue_capacity", 0),
    ("queue_capacity", -1),
    ("queue_capacity", 8.0),
    ("queue_capacity", False),
]


@pytest.mark.parametrize("keyword, value", REFUSED,
                         ids=[f"{k}={v!r}" for k, v in REFUSED])
def test_the_server_refuses_a_parameter_that_fails_mid_serve(graph, keyword, value):
    with pytest.raises(ValueError, match=keyword):
        QueryServer(_endpoint(graph), **{keyword: value})


@pytest.mark.parametrize("keyword, value", REFUSED,
                         ids=[f"{k}={v!r}" for k, v in REFUSED])
def test_the_scheduler_refuses_the_same_parameters(keyword, value):
    with pytest.raises(ValueError, match=keyword):
        Scheduler(SimulationClock(), lambda request: None, **{keyword: value})


def test_the_edges_of_each_door_are_accepted(graph):
    """One worker and a one-slot queue are legal; the server then serves."""
    server = QueryServer(_endpoint(graph), parallelism=1, queue_capacity=1)
    report = server.serve(_burst(1))
    assert [record.status for record in report.records] == ["ok"]


@pytest.mark.parametrize("arrival_ms", (math.nan, math.inf, -math.inf))
def test_a_non_finite_arrival_is_refused_before_anything_is_served(graph, arrival_ms):
    """One NaN arrival ahead of a wave used to queue with every later
    arrival behind it: nothing was ever in flight, and ``serve`` returned
    a report with no records.  Now the whole wave is refused, the
    endpoint untouched and the clock where it was."""
    endpoint = _endpoint(graph)
    server = QueryServer(endpoint, parallelism=2, queue_capacity=4096)
    wave = generate_workload(sessions=3, seed=2)
    assert len(wave) == 12
    odd = Request(99, "alpha", 0, arrival_ms, "ask", "ASK { ?s ?p ?o }")
    with pytest.raises(ValueError, match="arrival_ms must be finite"):
        server.serve([odd, *wave])
    assert endpoint.stats.queries == 0 and endpoint.clock.now_ms == 0.0
    assert len(server.serve(wave).records) == 12


@pytest.mark.parametrize("delta", (math.nan, math.inf, -math.inf))
def test_the_clock_refuses_a_non_finite_step(delta):
    clock = SimulationClock(5.0)
    with pytest.raises(ValueError):
        clock.advance(delta)
    assert clock.now_ms == 5.0
    assert clock.advance(5.0) == 10.0


def test_the_clock_still_names_a_step_backwards():
    with pytest.raises(ValueError, match="cannot move time backwards"):
        SimulationClock().advance(-1.0)


# -- the clock's steps ----------------------------------------------------------


def test_the_clock_only_steps_forward_from_its_own_reading():
    """The loop moves the clock to an instant *b* by ``advance(b - reading)``
    and measures a request from the reading it left: ``a + (b - a)`` is not
    always ``b``, and a loop that took the one for the other would start
    the executor, or leave the clock, one unit in the last place away."""
    a, b = 123.456, 255.00610199168167
    reading = a + (b - a)
    assert reading != b
    clock, seen = SimulationClock(a), []

    def execute(request):
        seen.append(clock.now_ms)
        clock.advance(5.0)
        return ("ok", None, None)

    (record,) = Scheduler(clock, execute).run([Request(0, "t", 0, b, "q", "q")])
    service = (reading + 5.0) - reading
    assert seen == [reading]
    assert (record.start_ms, record.service_ms, record.completion_ms) == (b, service, b + service)
    assert clock.now_ms == reading + (b + service - reading)


def test_an_arrival_at_the_clock_s_instant_starts_at_its_own_value():
    """An arrival is admitted at ``max(arrival, reading)``, which keeps the
    arrival on a tie: ``-0.0`` on a clock reading ``0.0`` starts at ``-0.0``."""
    (record,) = Scheduler(SimulationClock(0.0), lambda request: ("ok", None, None)).run(
        [Request(0, "t", 0, -0.0, "q", "q")])
    assert record.start_ms.hex() == (-0.0).hex()


# -- the order of the records -------------------------------------------------


def _tied_run(requests, queue_capacity):
    clock = SimulationClock()

    def execute(request):
        clock.advance(5.0)
        return ("ok", None, None)

    records = Scheduler(clock, execute, parallelism=1,
                        queue_capacity=queue_capacity).run(requests)
    return [(record.request.tenant, record.request.template, record.status)
            for record in records]


def test_records_with_equal_keys_keep_the_order_they_were_made_in():
    """Records come back in arrival order; two requests with one key
    (arrival, session, place in session) keep the order their records
    were made in, not the order they arrived in.  Here the second is
    bounced by the full queue while the first waits."""
    requests = [Request(0, "ta", 0, 0.0, "first", "q"),
                Request(1, "ta", 0, 1.0, "queued", "q"),
                Request(1, "tb", 0, 1.0, "bounced", "q")]
    assert _tied_run(requests, queue_capacity=1) == [
        ("ta", "first", "ok"), ("tb", "bounced", "rejected"), ("ta", "queued", "ok"),
    ]


def test_records_with_equal_keys_keep_the_order_the_rotation_started_them_in():
    """``tb`` is first in the rotation, so of the two tied requests its
    one starts first and its record comes first."""
    requests = [Request(0, "ta", 0, 0.0, "first", "q"),
                Request(5, "tb", 0, 0.5, "b-early", "q"),
                Request(6, "ta", 0, 0.6, "a-early", "q"),
                Request(1, "ta", 0, 1.0, "a-tied", "q"),
                Request(1, "tb", 0, 1.0, "b-tied", "q")]
    assert _tied_run(requests, queue_capacity=8) == [
        ("ta", "first", "ok"), ("tb", "b-early", "ok"), ("ta", "a-early", "ok"),
        ("tb", "b-tied", "ok"), ("ta", "a-tied", "ok"),
    ]


def test_records_come_back_in_arrival_order_whatever_the_order_given():
    """Sessions 3 and 0 arrive at one instant: the session breaks the tie."""
    requests = [Request(session, "t", 0, arrival, "q", "q")
                for session, arrival in ((2, 3.0), (3, 1.0), (0, 1.0), (1, 2.0))]
    clock = SimulationClock()
    records = Scheduler(clock, lambda request: ("ok", None, None), parallelism=2,
                        queue_capacity=4).run(requests)
    assert [record.request.key for record in records] == [(0, 0), (3, 0), (1, 0), (2, 0)]


# -- the exception path -------------------------------------------------------


def test_the_executors_own_exception_leaves_with_the_clock_at_its_start():
    """``test_serving_layer.test_non_endpoint_errors_propagate``, pinned
    down: the object raised is the executor's, the clock reads the
    failing request's start instant, not where the executor left it, and
    the failing request's trace is closed there."""
    clock = SimulationClock(5.0)
    tracer = Tracer(clock=clock)
    error = RuntimeError("boom")

    def execute(request):
        clock.advance(7.0)
        if request.seq == 2:
            raise error
        return ("ok", None, None)

    with pytest.raises(RuntimeError) as caught:
        Scheduler(clock, execute, parallelism=1, obs=tracer).run(_burst(3, spacing_ms=1.0))
    assert caught.value is error
    # arrivals 0, 1 and 2 ms are admitted at 5 ms and run back to back:
    # the third starts at 5 + 7 + 7
    assert clock.now_ms == 19.0
    roots = [span for span in tracer.spans if span.name == "request"]
    assert [(root.end_ms, root.attrs.get("error")) for root in roots] == [
        (12.0, None), (19.0, None), (19.0, "RuntimeError"),
    ]
    assert all(span.end_ms is not None for span in tracer.spans)
    # the next run on the same tracer opens its traces as usual
    records = Scheduler(clock, lambda request: ("ok", None, None),
                        obs=tracer).run(_burst(1))
    assert [record.status for record in records] == ["ok"]


def test_an_escaping_bug_closes_every_span_it_leaves(graph, monkeypatch):
    """A bug inside the endpoint passes through its ``endpoint.query``
    and the scheduler's ``request`` span: each closes the span it opened,
    and the same server serves its next wave."""
    endpoint = _endpoint(graph)
    obs = Observatory(clock=endpoint.clock, seed=1)
    server = QueryServer(endpoint, parallelism=2, queue_capacity=64,
                         cache_capacity=None, obs=obs)

    def broken(parsed):
        raise RuntimeError("latency model bug")

    with monkeypatch.context() as patch:
        patch.setattr(endpoint_module, "_count_patterns", broken)
        with pytest.raises(RuntimeError, match="latency model bug"):
            server.serve(_burst(3))
    spans = [span for span in obs.tracer.spans if span.name != "sparql.run"]
    assert [span.name for span in spans] == ["request", "endpoint.query"]
    assert all(span.end_ms is not None for span in obs.tracer.spans)
    assert {span.attrs["error"] for span in spans} == {"RuntimeError"}
    report = server.serve(_burst(3))
    assert report.status_counts() == {"ok": 3}


MALFORMED_MIX = [QueryTemplate("ask", "ASK { ?s ?p ?o }"),
                 QueryTemplate("broken", "SELEC ?s WHERE { ?s ?p ?o }")]


def test_a_malformed_template_is_rejected_and_the_wave_completes(graph):
    """The endpoint refuses a text that does not parse like a capability
    it lacks, so a mix with a broken template serves every request, traced,
    wave after wave."""
    endpoint = _endpoint(graph)
    obs = Observatory(clock=endpoint.clock, seed=1)
    server = QueryServer(endpoint, parallelism=2, queue_capacity=4096,
                         cache_capacity=None, obs=obs)
    wave = generate_workload(sessions=6, seed=2, mix=MALFORMED_MIX)
    for _ in range(2):
        report = server.serve(wave)
        by_template = {(r.request.template, r.status) for r in report.records}
        assert by_template == {("ask", "ok"), ("broken", "feature-rejected")}
    assert all(span.end_ms is not None for span in obs.tracer.spans)
    broken = sum(r.request.template == "broken" for r in report.records)
    assert endpoint.stats.rejected == 2 * broken


# -- what a cached wave allocates ---------------------------------------------


def test_a_cached_wave_builds_no_task_outcome(graph, monkeypatch):
    """The scheduler measures inline.  Measuring through ``measure_task``
    built one ``TaskOutcome`` per started request: 163 for this wave
    of 163 cache hits."""
    built = []

    class Counting(parallel.TaskOutcome):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    server = QueryServer(_endpoint(graph), parallelism=4, queue_capacity=4096)
    wave = generate_workload(sessions=40, seed=3, mix=cache_friendly_mix(),
                             mean_session_gap_ms=50, mean_think_ms=80)
    server.serve(wave)  # warm the cache
    monkeypatch.setattr(parallel, "TaskOutcome", Counting)
    report = server.serve(wave)
    assert report.status_counts() == {"cache-hit": len(wave)}
    assert len(wave) == 163
    assert len(built) == 0, f"{len(built)} TaskOutcomes for {len(wave)} requests"
