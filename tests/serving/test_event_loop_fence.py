"""Differential fence for the serving scheduler's event loop.

``Scheduler.run`` keeps its workers as a min-heap of the instants at
which each one frees up and measures a request's service time inline.
The formulation it replaced -- a worker pool that scanned every worker to
answer "is one idle", with each request measured through
``measure_task`` -- is copied below as :class:`ReferenceScheduler`, and
is the oracle: on every workload both must produce the same records field
for field (errors by type and message), the same queue counters, the
same clock, and the same trace export.  The oracle keeps its own copy of
the fair admission queue as it was then (:class:`_ReferenceQueue`), so a
rewrite of ``FairAdmissionQueue`` is checked against it, not against
itself.

Two sources of work: a fake executor charging seeded, arbitrary service times
(0 ms included, and completions that tie with arrivals) under
hypothesis-generated workloads, and real ``QueryServer``s on the
government graph with the cache on and off, an endpoint whose Markov
availability model takes it down for days, and an ``Observatory``
attached.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving.server as server_module
from repro.core.parallel import measure_task
from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointProfile,
    MS_PER_DAY,
    MarkovAvailability,
    SimulationClock,
    SparqlEndpoint,
)
from repro.endpoint.errors import EndpointTimeout, EndpointUnavailable, QueryRejected
from repro.obs import Observatory
from repro.obs.trace import Tracer, defer, result_digest
from repro.rdf import IRI, Literal, Triple
from repro.serving import (
    QueryServer,
    Request,
    RequestRecord,
    Scheduler,
    cache_friendly_mix,
    generate_workload,
)

# -- the oracle: the pool-and-measure_task formulation ------------------------


class _ReferenceQueue:
    """The fair admission queue the oracle was written against: a bounded
    FIFO per tenant, dequeued round-robin over tenants in first-seen
    order, the rotation a list of tenant names and a cursor into it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._by_tenant: "OrderedDict[str, Deque[Request]]" = OrderedDict()
        self._rotation: List[str] = []
        self._cursor = 0
        self._size = 0
        self.offered = 0
        self.rejected = 0

    def __len__(self) -> int:
        return self._size

    def offer(self, request: Request) -> bool:
        self.offered += 1
        if self._size >= self.capacity:
            self.rejected += 1
            return False
        queue = self._by_tenant.get(request.tenant)
        if queue is None:
            queue = self._by_tenant[request.tenant] = deque()
            self._rotation.append(request.tenant)
        queue.append(request)
        self._size += 1
        return True

    def take(self) -> Optional[Request]:
        if self._size == 0:
            return None
        for _ in range(len(self._rotation)):
            tenant = self._rotation[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._rotation)
            queue = self._by_tenant.get(tenant)
            if queue:
                self._size -= 1
                return queue.popleft()
        return None

    def info(self) -> Dict[str, int]:
        return {
            "depth": self._size,
            "capacity": self.capacity,
            "offered": self.offered,
            "rejected": self.rejected,
        }


class _ReferencePool:
    """The retired worker ledger: one busy-until instant per worker."""

    def __init__(self, clock: SimulationClock, parallelism: int):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self._busy_until = [clock.now_ms] * parallelism

    def idle_workers(self, now_ms: float) -> int:
        return sum(1 for until in self._busy_until if until <= now_ms)

    def start(self, start_ms: float, duration_ms: float) -> float:
        slot = min(range(self.parallelism), key=self._busy_until.__getitem__)
        if self._busy_until[slot] > start_ms:
            raise ValueError(
                f"no idle worker at {start_ms:.3f} ms "
                f"(earliest free {self._busy_until[slot]:.3f} ms)"
            )
        completion = start_ms + duration_ms
        self._busy_until[slot] = completion
        return completion


class ReferenceScheduler(Scheduler):
    """``Scheduler`` with the event loop it had before the worker heap."""

    def run(self, requests: Sequence[Request]) -> List[RequestRecord]:
        clock = self.clock
        pool = _ReferencePool(clock, self.parallelism)
        queue = _ReferenceQueue(self.queue_capacity)
        ordered = sorted(
            requests, key=lambda r: (r.arrival_ms, r.session_id, r.seq)
        )
        records: List[RequestRecord] = []
        in_flight: List = []
        start_counter = 0

        def advance_to(instant_ms: float) -> None:
            if instant_ms > clock.now_ms:
                clock.advance(instant_ms - clock.now_ms)

        tracer = self.obs
        tracing = tracer.enabled

        def identity_canon(request: Request) -> dict:
            return {
                "key": list(request.key),
                "tenant": request.tenant,
                "template": request.template,
                "arrival_ms": request.arrival_ms,
            }

        def closed_root(request: Request, status: str, now_ms: float) -> None:
            canon = identity_canon(request)
            canon["outcome"] = status
            tracer.open_trace(request.key, "request", canon=canon, status=status)
            tracer.end(end_ms=now_ms)

        def start(request: Request, now_ms: float) -> None:
            nonlocal start_counter
            advance_to(now_ms)
            if tracing:
                tracer.open_trace(request.key, "request", canon=identity_canon(request))
                if now_ms > request.arrival_ms:
                    tracer.event(
                        "queue.wait",
                        start_ms=request.arrival_ms,
                        end_ms=now_ms,
                        wait_ms=round(now_ms - request.arrival_ms, 6),
                    )
            outcome = measure_task(clock, request.key, lambda: self.execute(request))
            if outcome.error is not None:
                if tracing:  # the heap loop closes the request's trace too
                    tracer.end(end_ms=now_ms, error=type(outcome.error).__name__)
                raise outcome.error
            status, result, error = outcome.value
            completion = pool.start(now_ms, outcome.elapsed_ms)
            record = RequestRecord(
                request,
                status,
                error=error,
                start_ms=now_ms,
                completion_ms=completion,
                service_ms=outcome.elapsed_ms,
                result=result,
            )
            if tracing:
                if record.served:
                    result = record.result
                    canon = {"result": defer(lambda result=result: result_digest(result))}
                else:
                    canon = {"outcome": status}
                tracer.end(
                    end_ms=completion,
                    canon=canon,
                    status=status,
                    service_ms=round(outcome.elapsed_ms, 6),
                )
            records.append(record)
            heapq.heappush(in_flight, (completion, start_counter, record))
            start_counter += 1

        def drain(now_ms: float) -> None:
            while pool.idle_workers(now_ms) > 0:
                request = queue.take()
                if request is None:
                    return
                start(request, now_ms)

        index = 0
        while index < len(ordered) or in_flight:
            next_arrival = (
                ordered[index].arrival_ms if index < len(ordered) else float("inf")
            )
            next_completion = in_flight[0][0] if in_flight else float("inf")
            if next_completion <= next_arrival:
                now, _, _ = heapq.heappop(in_flight)
                advance_to(now)
                drain(now)
            else:
                request = ordered[index]
                index += 1
                now = max(request.arrival_ms, clock.now_ms)
                advance_to(now)
                if pool.idle_workers(now) > 0 and len(queue) == 0:
                    start(request, now)
                    continue
                if not queue.offer(request):
                    if tracing:
                        closed_root(request, "rejected", now)
                    records.append(
                        RequestRecord(
                            request,
                            "rejected",
                            error=QueryRejected(
                                f"admission queue full "
                                f"({queue.capacity} waiting)"
                            ),
                            start_ms=now,
                            completion_ms=now,
                        )
                    )
        self.last_queue_info = queue.info()
        records.sort(
            key=lambda r: (r.request.arrival_ms, r.request.session_id, r.request.seq)
        )
        return records


def _fields(record: RequestRecord, result=lambda result: result):
    """Everything a record says, the error as (type, message)."""
    error = record.error
    return (
        record.request.key,
        record.status,
        None if error is None else (type(error).__name__, str(error)),
        record.start_ms,
        record.completion_ms,
        record.service_ms,
        result(record.result),
    )


# -- a fake executor over generated workloads ---------------------------------


class _ChargingExecutor:
    """Charges each request its drawn cost; folds some into failures and
    cache hits the way the real executor reports them, and raises on the
    request named *boom*."""

    def __init__(self, clock: SimulationClock, costs, boom=None):
        self.clock = clock
        self.costs = costs
        self.boom = boom

    def __call__(self, request: Request):
        self.clock.advance(self.costs[request.key])
        if request.key == self.boom:
            raise RuntimeError(f"executor bug at {request.key}")
        kind = request.session_id % 4
        if kind == 3:
            return ("unavailable", None, EndpointUnavailable(f"down for {request.key}"))
        if kind == 2:
            return ("endpoint-timeout", None, EndpointTimeout(f"slow at {request.key}"))
        if kind == 1:
            return ("ok", f"rows{request.key}", None)
        return ("cache-hit", f"rows{request.key}", None)


#: service times: 0 ms, and integers that land completions on integer arrivals
COSTS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0])
WORKLOAD = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["t0", "t1", "t2"]), COSTS),
    min_size=1, max_size=36,
)


def _requests(drawn, first_session=0) -> Tuple[List[Request], dict]:
    requests, costs = [], {}
    for offset, (arrival, tenant, cost) in enumerate(drawn):
        request = Request(first_session + offset, tenant, 0, float(arrival), "t", "q")
        requests.append(request)
        costs[request.key] = cost
    return requests, costs


def _serve_waves(cls, parallelism, capacity, options, waves, boom):
    """Serve each wave on a fresh scheduler of *cls* over one clock and
    tracer; a wave whose executor raised leaves no span open, so the next
    wave is served."""
    clock = SimulationClock(options["clock_start_ms"])
    tracer = Tracer(clock=clock)
    costs = {key: cost for _, wave_costs in waves for key, cost in wave_costs.items()}
    execute = _ChargingExecutor(clock, costs, boom)
    runs = []
    for requests, _ in waves:
        scheduler = cls(
            clock, execute, parallelism=parallelism, queue_capacity=capacity,
            obs=tracer,
        )
        try:
            records = scheduler.run(requests)
        except RuntimeError as error:
            runs.append(("raised", type(error).__name__, str(error), clock.now_ms))
            assert all(span.end_ms is not None for span in tracer.spans)
            continue
        runs.append((
            [_fields(record) for record in records],
            scheduler.last_queue_info,
            clock.now_ms,
        ))
    return runs, tracer.export_jsonl()


OPTIONS = st.fixed_dictionaries({
    "clock_start_ms": st.sampled_from([0.0, 4.0]),
})


@pytest.mark.parametrize("capacity", (1, 3, 4096))
@pytest.mark.parametrize("parallelism", (1, 2, 4, 7))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(first=WORKLOAD, second=st.one_of(st.none(), WORKLOAD), options=OPTIONS,
       boom=st.one_of(st.none(), st.integers(0, 40)))
def test_the_heap_loop_replays_the_pool_loop(parallelism, capacity, first, second,
                                             options, boom):
    """A second wave runs on the same clock, so its arrivals are earlier
    than the clock; *boom* names a request whose executor call raises."""
    waves = [_requests(first)]
    if second is not None:
        waves.append(_requests(second, first_session=100))
    boom_key = None if boom is None else (boom, 0)
    expected = _serve_waves(ReferenceScheduler, parallelism, capacity, options, waves, boom_key)
    assert _serve_waves(Scheduler, parallelism, capacity, options, waves, boom_key) == expected


def test_the_generated_workloads_reach_every_branch():
    """One fixed workload per outcome the fence compares, so a generator
    change that stopped reaching one would show here first."""
    crowd = [(0, "t0", 5.0)] * 6 + [(1, "t1", 0.0), (5, "t2", 3.0), (5, "t0", 2.0)]
    seen = set()
    for parallelism, capacity in (
        (1, 3),      # rejected
        (2, 4096),   # every executor status
    ):
        options = {"clock_start_ms": 0.0}
        runs, _ = _serve_waves(Scheduler, parallelism, capacity, options, [_requests(crowd)], None)
        seen |= {fields[1] for fields in runs[0][0]}
    assert seen == {"ok", "cache-hit", "endpoint-timeout", "unavailable", "rejected"}


# -- real servers on the government graph -------------------------------------


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _flat_profile():
    return EndpointProfile(
        "flat", connect_ms=10.0, parse_ms=5.0, per_pattern_ms=10.0,
        per_solution_ms=0.0, aggregate_overhead_ms=0.0, jitter=0.0,
        timeout_ms=60_000.0,
    )


def _waves():
    dashboard = dict(mix=cache_friendly_mix(), mean_session_gap_ms=40.0, mean_think_ms=60.0)
    # about a week of sessions each, so the waves cross the chain's day
    # boundaries; the second starts on day 9, after the first has ended
    days = dict(mean_session_gap_ms=21_600_000.0, mean_think_ms=1_800_000.0)
    return {
        "cache-off": [generate_workload(sessions=14, seed=9)] * 2,
        "cache-on": [generate_workload(sessions=30, seed=7, **dashboard)] * 2,
        "availability": [generate_workload(sessions=30, seed=11, **days),
                         generate_workload(sessions=30, seed=12, start_ms=9 * MS_PER_DAY,
                                           **days)],
    }


SCENARIOS = {
    "cache-off": dict(parallelism=3, queue_capacity=4096, cache_capacity=None),
    "cache-on": dict(parallelism=2, queue_capacity=6),
    "availability": dict(parallelism=2, queue_capacity=4096, cache_capacity=4),
}


def _availability(name):
    """The scenario endpoint's weather: the "availability" one is down on
    about two days in five (a fresh chain each call, so both loops see it)."""
    if name == "availability":
        return MarkovAvailability("http://fence.example.org/sparql",
                                  p_fail=0.35, p_recover=0.5, seed=3)
    return AlwaysAvailable()


def _serve_scenario(graph, name, scheduler_cls):
    """Serve the scenario's waves on one observed server whose scheduler
    is *scheduler_cls*; between waves one write moves the generation."""
    made = []

    class Recording(scheduler_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    served = graph.copy()
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://fence.example.org/sparql", served, clock,
        profile=_flat_profile(), availability=_availability(name), seed=1,
    )
    obs = Observatory(clock=clock, seed=2)
    options = SCENARIOS[name]
    original = server_module.Scheduler
    server_module.Scheduler = Recording
    try:
        server = QueryServer(endpoint, obs=obs, **options)
        reports = []
        for number, wave in enumerate(_waves()[name]):
            if number:
                served.add(Triple(IRI("http://fence.example.org/w"),
                                  IRI("http://fence.example.org/p"), Literal(number)))
            reports.append(server.serve(wave))
    finally:
        server_module.Scheduler = original
    return [
        (
            [_fields(record, result_digest) for record in report.records],
            report.digest(),
            report.summary(),
            scheduler.last_queue_info,
        )
        for report, scheduler in zip(reports, made)
    ], obs.export_jsonl(), clock.now_ms, reports


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_real_servers_serve_what_the_pool_loop_served(graph, name):
    expected = _serve_scenario(graph, name, ReferenceScheduler)
    actual = _serve_scenario(graph, name, Scheduler)
    assert actual[:3] == expected[:3]
    statuses = {record.status for report in actual[3] for record in report.records}
    assert "ok" in statuses
    if name == "cache-on":
        assert {"cache-hit", "rejected"} <= statuses
    if name == "availability":
        assert {"cache-hit", "unavailable"} <= statuses
