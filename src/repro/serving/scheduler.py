"""The concurrent-query scheduler: a discrete-event loop over sim time.

DESP-C++-style discrete event simulation (Darmont, PAPERS.md): the state
is ``parallelism`` server worker threads (a min-heap of the instants at
which each one frees up), a bounded fair admission queue, and two event
sources -- request **arrivals** (known up front from the workload) and
request **completions** (computed as each request starts).  The loop
walks the merged event stream in time order:

* an arrival starts immediately when a worker is idle and nobody waits,
  queues when the server is busy, and is rejected when the queue is full;
* a completion frees a worker, which immediately picks up the next
  queued request under the per-tenant fairness rotation.

"Is a worker idle at t" is one look at the heap's top, and a start books
the earliest-free worker with one ``heapreplace``: the greedy rule of
:func:`~repro.core.parallel.makespan_ms`, applied as requests arrive.

Service costs are *measured*, not assumed: starting a request advances
the shared :class:`~repro.endpoint.clock.SimulationClock` to the start
instant, runs the executor, and rewinds the clock, whose ``restore``
returns the elapsed simulated time (the checkpoint/restore idiom of
:func:`~repro.core.parallel.measure_task`, inline, because an exception
here propagates instead of being captured).  Whatever the endpoint
charges (profile latency, failure-path connect costs) becomes that
request's service time, and the clock itself only ever advances along
the event timeline.  Requests execute one at a time under the hood in
event order -- the same determinism construction as the batch pool -- so
per-request results are independent of how many workers the schedule
overlaps them on.

The loop is the per-request cost of a warm server, whose waves are
cache hits that nearly all queue, so it is written for few Python-level
calls per request: one ``while`` loop with one start site and tracing as
branches inside it, the clock's reading kept in a local (taken from what
``advance`` returns, never assumed to be the instant advanced to), the
queued requests counted in a local, and arrival order sorted by the
arrival instant alone unless two requests arrive at one instant.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from itertools import islice
from operator import attrgetter, eq
from typing import Callable, List, Sequence

from ..endpoint.clock import SimulationClock
from ..endpoint.errors import QueryRejected, check_count
from ..obs.trace import NULL_TRACER, defer, result_digest
from .admission import FairAdmissionQueue
from .workload import Request

__all__ = ["RequestRecord", "Scheduler"]

#: the statuses whose client got rows
_SERVED = ("ok", "cache-hit")
#: arrival order, ties broken by session and position in it: the order
#: requests arrive in and the order of a run's records.  Where no two
#: requests of a run arrive at one instant the arrival instant alone is
#: the key, and a cheaper one to sort by.
_ARRIVAL = attrgetter("arrival_ms")
_ARRIVAL_ORDER = attrgetter("arrival_ms", "session_id", "seq")
_RECORD_ARRIVAL = attrgetter("request.arrival_ms")
_RECORD_ORDER = attrgetter("request.arrival_ms", "request.session_id", "request.seq")


class RequestRecord:
    """What happened to one request: timing and outcome.

    ``status`` is one of ``"ok"`` (executed), ``"cache-hit"`` (served
    from the result cache), ``"rejected"`` (admission queue full), or
    the endpoint failure statuses ``"unavailable"`` /
    ``"feature-rejected"`` / ``"endpoint-timeout"``.  ``error`` holds the
    error instance for every non-served outcome -- a rejection reuses
    the endpoint's own ``QueryRejected``.
    """

    __slots__ = (
        "request",
        "status",
        "error",
        "start_ms",
        "completion_ms",
        "service_ms",
        "result",
    )

    def __init__(self, request: Request, status: str, error=None,
                 start_ms: float = 0.0, completion_ms: float = 0.0,
                 service_ms: float = 0.0, result=None):
        self.request = request
        self.status = status
        self.error = error
        self.start_ms = start_ms
        self.completion_ms = completion_ms
        self.service_ms = service_ms
        self.result = result

    @property
    def served(self) -> bool:
        """Did the client get rows?"""
        return self.status in _SERVED

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
    result, error)`` triple, *error* being the folded endpoint error of a
    failed request and None otherwise.  An exception out of it is a bug
    and propagates, with the clock rewound to the failing request's start
    instant.

    Queue-full rejection is a property of realized load: it varies with
    ``parallelism`` by design (more workers, less queue).
    """

    def __init__(
        self,
        clock: SimulationClock,
        execute: Callable[[Request], object],
        parallelism: int = 1,
        queue_capacity: int = 64,
        obs=None,
    ):
        check_count("parallelism", parallelism)
        check_count("queue_capacity", queue_capacity)
        self.clock = clock
        self.execute = execute
        self.parallelism = parallelism
        self.queue_capacity = queue_capacity
        #: span recorder (a ``repro.obs`` tracer).  Every request gets a
        #: root ``request`` span keyed on ``request.key``, so executor/
        #: endpoint/engine spans nest under it.
        self.obs = obs if obs is not None else NULL_TRACER
        #: admission-queue counters of the last run() (metrics bridge)
        self.last_queue_info: dict = {}

    def run(self, requests: Sequence[Request]) -> List[RequestRecord]:
        """Serve *requests* (sorted by arrival); return one record each,
        in arrival order.  The clock ends at the last completion.

        A request whose ``arrival_ms`` is not finite is refused with
        ``ValueError`` before anything is served: a NaN arrival would sit
        in the queue with every later arrival behind it, and nothing would
        ever start.
        """
        ordered = sorted(requests, key=_ARRIVAL)
        #: arrival instants in order
        arrivals = list(map(_ARRIVAL, ordered))
        if not all(map(math.isfinite, arrivals)):
            for request in requests:
                if not math.isfinite(request.arrival_ms):
                    raise ValueError(
                        f"request {request.key} arrives at {request.arrival_ms!r}; "
                        "arrival_ms must be finite"
                    )
        #: two requests arrive at one instant: only then does arrival order
        #: need the rest of the key, the session and the place in it
        tied = any(map(eq, arrivals, islice(arrivals, 1, None)))
        if tied:
            ordered.sort(key=_ARRIVAL_ORDER)
        arrivals.append(math.inf)  # no arrival after the last one
        count = len(ordered)
        clock = self.clock
        advance = clock.advance
        execute = self.execute
        queue = FairAdmissionQueue(self.queue_capacity)
        offer, take = queue.offer, queue.take
        tracer = self.obs
        tracing = tracer.enabled
        records: List[RequestRecord] = []
        keep = records.append
        #: the clock's reading.  Only this loop moves the clock between
        #: requests, always by ``advance(instant - current)``, whose return
        #: value is the new reading; ``a + (b - a)`` is not always ``b``,
        #: so an event's instant and the clock's reading are kept apart.
        current = clock.now_ms
        #: the instant each worker frees up, a min-heap: a worker is idle
        #: at t exactly when ``free[0] <= t``
        free = [current] * self.parallelism
        #: completion instants of the started requests, a min-heap
        in_flight: List[float] = []
        #: requests in the admission queue
        waiting = 0
        #: after a completion: a worker is idle at *now* and requests
        #: wait, so the next one under the rotation starts
        draining = False
        index = 0
        now = current
        while True:
            if draining:
                request = take()
                waiting -= 1
            elif in_flight and in_flight[0] <= arrivals[index]:
                # completion first: the freed worker is visible to an
                # arrival at the same instant
                now = heappop(in_flight)
                if now > current:
                    current = advance(now - current)
                draining = waiting and free[0] <= now
                continue
            elif index < count:
                request = ordered[index]
                now = arrivals[index]
                index += 1
                # an arrival earlier than the clock (e.g. a second serve()
                # on the same server) is admitted at the current instant
                if now > current:
                    current = advance(now - current)
                elif now < current:
                    now = current
                if waiting or free[0] > now:
                    if offer(request):
                        waiting += 1
                        continue
                    if tracing:
                        canon = _identity_canon(request)
                        canon["outcome"] = "rejected"
                        tracer.open_trace(request.key, "request", canon=canon,
                                          status="rejected")
                        tracer.end(end_ms=now)
                    error = QueryRejected(f"admission queue full ({queue.capacity} waiting)")
                    keep(RequestRecord(request, "rejected", error, now, now))
                    continue
            else:
                break
            # *request* starts at *now* on the earliest-free worker
            if now > current:
                current = advance(now - current)
            if tracing:
                tracer.open_trace(request.key, "request", canon=_identity_canon(request))
                if now > request.arrival_ms:
                    tracer.event(
                        "queue.wait",
                        start_ms=request.arrival_ms,
                        end_ms=now,
                        wait_ms=round(now - request.arrival_ms, 6),
                    )
            # the executor folds every endpoint failure into its status;
            # anything it lets out is a bug, not an outcome, and leaves
            # with the clock rewound and the request's trace closed
            try:
                status, result, error = execute(request)
            except BaseException as bug:
                if tracing:
                    tracer.end(end_ms=now, error=type(bug).__name__)
                raise
            finally:
                elapsed = clock.restore(current)
            completion = now + elapsed
            heapreplace(free, completion)
            # positional: this is the hot call of a cached wave
            keep(RequestRecord(request, status, error, now, completion, elapsed, result))
            if tracing:
                # Served requests pin the canonical result rows, unserved
                # ones pin the outcome -- mirroring ServingReport.digest().
                if status in _SERVED:
                    # Deferred: serialized at export/digest time, not here.
                    canon = {"result": defer(lambda result=result: result_digest(result))}
                else:
                    canon = {"outcome": status}
                tracer.end(
                    end_ms=completion,
                    canon=canon,
                    status=status,
                    service_ms=round(elapsed, 6),
                )
            heappush(in_flight, completion)
            draining = waiting and free[0] <= now
        self.last_queue_info = queue.info()
        # arrival order is the report's canonical order; the sort is
        # stable, so records with equal keys keep the order they were made
        records.sort(key=_RECORD_ORDER if tied else _RECORD_ARRIVAL)
        return records


def _identity_canon(request: Request) -> dict:
    """A request span's canonical identity.  The canonical tier only
    carries request identity -- it is invariant across parallelism/cache
    config, dispatch-time facts are not (same contract as
    ServingReport.digest())."""
    return {
        "key": list(request.key),
        "tenant": request.tenant,
        "template": request.template,
        "arrival_ms": request.arrival_ms,
    }
