"""The concurrent-query scheduler: a discrete-event loop over sim time.

DESP-C++-style discrete event simulation (Darmont, PAPERS.md): the state
is ``parallelism`` server worker threads (a
:class:`~repro.core.parallel.SimWorkerPool`), a bounded fair admission
queue, and two event sources -- request **arrivals** (known up front from
the workload) and request **completions** (computed as each request
starts).  The loop walks the merged event stream in time order:

* an arrival starts immediately when a worker is idle and nobody waits,
  queues when the server is busy, and is rejected when the queue is full
  or -- with backpressure enabled -- **shed** when the queue's expected
  wait already exceeds the request's deadline budget;
* a completion frees a worker, which immediately picks up the next
  queued request under the per-tenant fairness rotation (dropping
  requests whose queue wait exceeded the admission deadline).

Service costs are *measured*, not assumed: starting a request advances
the shared :class:`~repro.endpoint.clock.SimulationClock` to the start
instant and runs the executor under
:func:`~repro.core.parallel.measure_task`, so whatever the endpoint
charges (profile latency, backoff waits, failure-path connect costs)
becomes that request's service time, and the clock itself only ever
advances along the event timeline.  Requests execute one at a time under
the hood in event order -- the same determinism construction as the
batch pool -- so per-request results are independent of how many workers
the schedule overlaps them on.

When a :class:`~repro.serving.faults.FaultInjector` is attached, the
scheduler stamps each record with the fault kinds active at its dispatch
instant -- pure observability (the injector is stateless), so operators
can correlate latency spikes and degraded serves with the injected
weather.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.parallel import SimWorkerPool, measure_task
from ..endpoint.clock import SimulationClock
from ..endpoint.errors import EndpointTimeout, QueryRejected
from ..obs.trace import NULL_TRACER, defer, result_digest
from .admission import FairAdmissionQueue
from .faults import FaultInjector
from .workload import Request

__all__ = ["RequestRecord", "Scheduler"]


class RequestRecord:
    """What happened to one request: timing, outcome, resilience trail.

    ``status`` is one of ``"ok"`` (executed), ``"cache-hit"`` (served
    from the result cache), ``"stale"`` (served degraded data after the
    fresh path failed), ``"rejected"`` (admission queue full), ``"shed"``
    (backpressure: the queue's expected wait already blew the deadline),
    ``"queue-timeout"`` (waited past the admission deadline), or the
    endpoint failure statuses ``"unavailable"`` / ``"feature-rejected"``
    / ``"endpoint-timeout"`` / ``"circuit-open"``.  ``error`` holds the
    error instance for every non-served outcome -- admission control
    reuses the endpoint's own error types.
    """

    __slots__ = (
        "request",
        "status",
        "error",
        "start_ms",
        "completion_ms",
        "service_ms",
        "result",
        "attempts",
        "hedged",
        "degraded",
        "faults_at_dispatch",
    )

    def __init__(self, request: Request, status: str, error=None,
                 start_ms: float = 0.0, completion_ms: float = 0.0,
                 service_ms: float = 0.0, result=None, attempts: int = 0,
                 hedged: bool = False, degraded: Optional[str] = None,
                 faults_at_dispatch: Tuple[str, ...] = ()):
        self.request = request
        self.status = status
        self.error = error
        self.start_ms = start_ms
        self.completion_ms = completion_ms
        self.service_ms = service_ms
        self.result = result
        #: endpoint dispatches this request consumed (0 for cache hits
        #: and requests that never reached the executor)
        self.attempts = attempts
        self.hedged = hedged
        #: which rung of the degradation ladder served it, when status is
        #: "stale": "stale-cache" or "replica"
        self.degraded = degraded
        #: fault kinds active at the dispatch instant (observability)
        self.faults_at_dispatch = faults_at_dispatch

    @property
    def served(self) -> bool:
        """Did the client get rows?  Degraded serves count: stale data
        with a staleness tag is a response, not an error."""
        return self.status in ("ok", "cache-hit", "stale")

    @property
    def wait_ms(self) -> float:
        """Queue wait: arrival to service start."""
        return self.start_ms - self.request.arrival_ms

    @property
    def latency_ms(self) -> float:
        """What the client saw: arrival to completion."""
        return self.completion_ms - self.request.arrival_ms

    def __repr__(self) -> str:
        return (
            f"<RequestRecord {self.request.key} {self.status} "
            f"latency={self.latency_ms:.1f}ms>"
        )


class Scheduler:
    """Interleaves concurrent in-flight queries over the shared sim clock.

    *execute* is the server's executor: called with a request while the
    clock sits at the request's start instant; whatever simulated time it
    consumes is the request's service time.  It returns a ``(status,
    result, meta)`` triple whose meta mapping carries the attempt count
    and, when they apply, the hedging flag, degradation rung and folded
    endpoint error.  An exception out of it is a bug and propagates.

    With *backpressure_deadline_ms* set, an arrival that would queue
    behind ``depth x mean-service`` milliseconds of expected wait larger
    than that deadline is shed at admission instead of queued.  The mean
    is the running mean of completed service times, so shedding -- like
    queue-full rejection -- is a property of realized load: it varies
    with ``parallelism`` by design (more workers, less queue).
    """

    def __init__(
        self,
        clock: SimulationClock,
        execute: Callable[[Request], object],
        parallelism: int = 1,
        queue_capacity: int = 64,
        queue_timeout_ms: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
        backpressure_deadline_ms: Optional[float] = None,
        obs=None,
    ):
        self.clock = clock
        self.execute = execute
        self.parallelism = parallelism
        self.queue_capacity = queue_capacity
        self.queue_timeout_ms = queue_timeout_ms
        self.faults = faults
        self.backpressure_deadline_ms = backpressure_deadline_ms
        self.shed = 0
        #: span recorder (a ``repro.obs`` tracer).  Every request gets a
        #: root ``request`` span keyed on ``request.key``, so executor/
        #: endpoint/engine spans nest under it.
        self.obs = obs if obs is not None else NULL_TRACER
        #: admission-queue counters of the last run() (metrics bridge)
        self.last_queue_info: dict = {}

    def run(self, requests: Sequence[Request]) -> List[RequestRecord]:
        """Serve *requests* (sorted by arrival); return one record each,
        in arrival order.  The clock ends at the last completion."""
        clock = self.clock
        pool = SimWorkerPool(clock, self.parallelism)
        queue = FairAdmissionQueue(self.queue_capacity)
        ordered = sorted(
            requests, key=lambda r: (r.arrival_ms, r.session_id, r.seq)
        )
        records: List[RequestRecord] = []
        #: (completion_ms, start order) heap; the payload is the record
        in_flight: List = []
        start_counter = 0
        completed_service_ms = 0.0
        completed_count = 0

        def advance_to(instant_ms: float) -> None:
            if instant_ms > clock.now_ms:
                clock.advance(instant_ms - clock.now_ms)

        def weather(now_ms: float) -> Tuple[str, ...]:
            return self.faults.active_kinds(now_ms) if self.faults else ()

        tracer = self.obs
        tracing = tracer.enabled

        def identity_canon(request: Request) -> dict:
            # The canonical tier only carries arrival-anchored facts --
            # request identity and arrival-time weather are invariant
            # across parallelism/cache config, dispatch-time facts are
            # not (same contract as ServingReport.digest()).
            return {
                "key": list(request.key),
                "tenant": request.tenant,
                "template": request.template,
                "arrival_ms": request.arrival_ms,
                "arrival_faults": list(weather(request.arrival_ms)),
            }

        def closed_root(request: Request, status: str, now_ms: float) -> None:
            """Root span for a request that never reached a worker."""
            canon = identity_canon(request)
            canon["outcome"] = status
            tracer.open_trace(request.key, "request", canon=canon, status=status)
            tracer.end(end_ms=now_ms)

        def start(request: Request, now_ms: float) -> None:
            nonlocal start_counter, completed_service_ms, completed_count
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
                # the executor folds every endpoint failure into its
                # status; anything it lets out is a bug, not an outcome
                raise outcome.error
            status, result, meta = outcome.value
            completion = pool.start(now_ms, outcome.elapsed_ms)
            record = RequestRecord(
                request,
                status,
                error=meta.get("error"),
                start_ms=now_ms,
                completion_ms=completion,
                service_ms=outcome.elapsed_ms,
                result=result,
                attempts=meta["attempts"],
                hedged=meta.get("hedged", False),
                degraded=meta.get("degraded"),
                faults_at_dispatch=weather(now_ms),
            )
            if tracing:
                # Served requests pin the canonical result rows, unserved
                # ones pin the outcome -- mirroring ServingReport.digest().
                if record.served:
                    # Deferred: serialized at export/digest time, not here.
                    result = record.result
                    canon = {"result": defer(lambda result=result: result_digest(result))}
                else:
                    canon = {"outcome": status}
                tracer.end(
                    end_ms=completion,
                    canon=canon,
                    status=status,
                    service_ms=round(outcome.elapsed_ms, 6),
                    attempts=record.attempts,
                    hedged=record.hedged,
                    degraded=record.degraded,
                    faults_at_dispatch=list(record.faults_at_dispatch),
                )
            records.append(record)
            heapq.heappush(in_flight, (completion, start_counter, record))
            start_counter += 1
            completed_service_ms += outcome.elapsed_ms
            completed_count += 1

        def drain(now_ms: float) -> None:
            """Hand queued requests to idle workers, skipping the stale."""
            while pool.idle_workers(now_ms) > 0:
                request = queue.take()
                if request is None:
                    return
                waited = now_ms - request.arrival_ms
                if (
                    self.queue_timeout_ms is not None
                    and waited > self.queue_timeout_ms
                ):
                    if tracing:
                        closed_root(request, "queue-timeout", now_ms)
                    records.append(
                        RequestRecord(
                            request,
                            "queue-timeout",
                            error=EndpointTimeout(
                                f"queued {waited:.0f} ms, admission deadline "
                                f"{self.queue_timeout_ms:.0f} ms"
                            ),
                            start_ms=now_ms,
                            completion_ms=now_ms,
                            faults_at_dispatch=weather(now_ms),
                        )
                    )
                    continue
                start(request, now_ms)

        index = 0
        while index < len(ordered) or in_flight:
            next_arrival = (
                ordered[index].arrival_ms if index < len(ordered) else float("inf")
            )
            next_completion = in_flight[0][0] if in_flight else float("inf")
            if next_completion <= next_arrival:
                # completion first: the freed worker is visible to an
                # arrival at the same instant
                now, _, _ = heapq.heappop(in_flight)
                advance_to(now)
                drain(now)
            else:
                request = ordered[index]
                index += 1
                # an arrival earlier than the clock (e.g. a second serve()
                # on the same server) is admitted at the current instant
                now = max(request.arrival_ms, clock.now_ms)
                advance_to(now)
                if pool.idle_workers(now) > 0 and len(queue) == 0:
                    start(request, now)
                    continue
                if (
                    self.backpressure_deadline_ms is not None
                    and completed_count > 0
                    and queue.pressure_ms(completed_service_ms / completed_count)
                    > self.backpressure_deadline_ms
                ):
                    self.shed += 1
                    if tracing:
                        closed_root(request, "shed", now)
                    records.append(
                        RequestRecord(
                            request,
                            "shed",
                            error=QueryRejected(
                                f"backpressure: expected queue wait exceeds "
                                f"{self.backpressure_deadline_ms:.0f} ms deadline"
                            ),
                            start_ms=now,
                            completion_ms=now,
                            faults_at_dispatch=weather(now),
                        )
                    )
                elif not queue.offer(request):
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
                            faults_at_dispatch=weather(now),
                        )
                    )
        self.last_queue_info = queue.info()
        # arrival order is the report's canonical order
        records.sort(
            key=lambda r: (r.request.arrival_ms, r.request.session_id, r.request.seq)
        )
        return records
