"""A deterministic worker pool over simulated time.

The fleet-level loops (``HBold.update_all``, the §3.1 daily scheduler,
portal crawling) talk to *independent* endpoints, so a real deployment
fans them out across a thread or process pool.  This reproduction charges
all latency to one :class:`~repro.endpoint.clock.SimulationClock` instead
of wall time, so its worker pool is simulated the same way the endpoint
latency model is: each task of a batch runs against the batch-start
clock, the pool measures every task's elapsed simulated time, and the
shared clock then advances once by the makespan of a greedy
``parallelism``-worker schedule.

That construction buys three properties a real pool cannot give a
simulation:

* **Determinism** -- tasks execute (under the hood) one at a time in
  input order, so storage writes, per-endpoint RNG streams and result
  merge order are identical for every ``parallelism`` value; only the
  simulated batch latency changes.  ``update_all(parallelism=4)`` stores
  byte-identical artifacts to ``parallelism=1``.
* **Failure isolation** -- a task that raises is captured as its own
  :class:`TaskOutcome`; the batch keeps going, and the failed endpoint's
  retry/backoff cost overlaps other workers instead of stalling them.
* **An honest latency model** -- the makespan is a classic greedy list
  schedule (each task goes to the earliest-free worker), the same bound
  real pools converge to for independent tasks.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..endpoint.clock import SimulationClock

__all__ = [
    "TaskOutcome",
    "measure_task",
    "race_hedged",
    "run_parallel",
    "makespan_ms",
    "SimWorkerPool",
]


class TaskOutcome:
    """What one pooled task did: its result or the exception it raised."""

    __slots__ = ("key", "value", "error", "elapsed_ms")

    def __init__(self, key: Hashable, value, error: Optional[BaseException], elapsed_ms: float):
        self.key = key
        self.value = value
        self.error = error
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.error is None else type(self.error).__name__
        return f"<TaskOutcome {self.key!r} {status} {self.elapsed_ms:.1f}ms>"


def measure_task(
    clock: SimulationClock, key: Hashable, thunk: Callable[[], object]
) -> TaskOutcome:
    """Run *thunk* against the current clock and measure its simulated cost.

    The checkpoint/run/restore idiom both pools share: the thunk executes
    with the clock at its logical start instant, its elapsed simulated
    time is read off the clock, and the clock is rewound so the caller
    decides how measured durations combine into real clock advances (a
    batch makespan for :func:`run_parallel`, a per-request completion time
    for the serving tier's scheduler).  Exceptions are captured in the
    returned :class:`TaskOutcome`, never raised.
    """
    start_ms = clock.checkpoint()
    value = None
    error: Optional[BaseException] = None
    try:
        value = thunk()
    except Exception as exc:
        error = exc
    elapsed = clock.now_ms - start_ms
    clock.restore(start_ms)
    return TaskOutcome(key, value, error, elapsed)


def race_hedged(
    clock: SimulationClock,
    key: Hashable,
    primary: Callable[[], object],
    hedge: Callable[[], object],
    hedge_delay_ms: float,
) -> Tuple[TaskOutcome, bool, bool]:
    """Race *primary* against a *hedge* attempt fired ``hedge_delay_ms`` in.

    The simulated form of a hedged request: both thunks are measured with
    :func:`measure_task` (clock rewound after each), then the clock
    advances **once** by the winner's completion offset -- the first
    completion wins and the loser is cancelled, i.e. its remaining
    simulated time is simply never charged to the clock.  Side effects of
    both attempts still happen (exactly like a real hedged call that is
    cancelled after the backend already did the work), so hedging is only
    sound for idempotent reads whose two attempts return interchangeable
    results.

    The hedge fires only if the primary is still in flight at
    ``hedge_delay_ms``.  A failed primary loses to a successful hedge even
    when it failed earlier -- an error is not a completion a client
    accepts while a better attempt is still running.

    Returns ``(winning outcome, hedge_fired, hedge_won)``.
    """
    if hedge_delay_ms < 0:
        raise ValueError(f"hedge delay must be >= 0, got {hedge_delay_ms}")
    first = measure_task(clock, key, primary)
    if first.elapsed_ms <= hedge_delay_ms:
        clock.advance(first.elapsed_ms)
        return first, False, False
    second = measure_task(clock, key, hedge)
    hedge_completion = hedge_delay_ms + second.elapsed_ms
    if second.ok and (hedge_completion < first.elapsed_ms or not first.ok):
        clock.advance(hedge_completion)
        return second, True, True
    clock.advance(first.elapsed_ms)
    return first, True, False


def makespan_ms(durations: Sequence[float], parallelism: int) -> float:
    """Greedy list-schedule makespan of *durations* over *parallelism* workers.

    Tasks are assigned in input order to the earliest-free worker --
    exactly what a work-stealing pool does for independent tasks.  With
    one worker this degenerates to the plain sum, i.e. today's sequential
    behaviour.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if not durations:
        return 0.0
    workers = [0.0] * min(parallelism, len(durations))
    for duration in durations:
        slot = min(range(len(workers)), key=workers.__getitem__)
        workers[slot] += duration
    return max(workers)


def run_parallel(
    clock: SimulationClock,
    tasks: Sequence[Tuple[Hashable, Callable[[], object]]],
    parallelism: int = 1,
) -> Tuple[List[TaskOutcome], float]:
    """Run ``(key, thunk)`` *tasks* as one batch of pooled work.

    Every thunk observes the clock at the batch start (so outcomes do not
    depend on batch position or on ``parallelism``), exceptions are
    captured per task, and the clock finally advances by the parallel
    makespan.  Returns the outcomes in input order plus that makespan.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    outcomes: List[TaskOutcome] = [
        measure_task(clock, key, thunk) for key, thunk in tasks
    ]
    total = makespan_ms([outcome.elapsed_ms for outcome in outcomes], parallelism)
    clock.advance(total)
    return outcomes, total


class SimWorkerPool:
    """Worker-occupancy bookkeeping for *open-ended* simulated scheduling.

    :func:`run_parallel` models one closed batch: all tasks known up
    front, one collective makespan advance.  The serving tier's scheduler
    instead sees an arrival process -- requests start whenever a worker
    is free and finish at individually computed times -- so it needs the
    worker ledger itself: how many of ``parallelism`` server threads are
    busy at a given instant, and until when.  Tasks are dispatched to the
    earliest-free worker (the same greedy rule as :func:`makespan_ms`),
    and the *caller* advances the shared clock as its event loop walks
    forward; the pool never advances the clock.

    Durations come from :func:`measure_task` against the same clock, so
    a request's simulated cost is measured at its start instant exactly
    like batch tasks are measured at the batch start.
    """

    __slots__ = ("clock", "parallelism", "_busy_until")

    def __init__(self, clock: SimulationClock, parallelism: int):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.clock = clock
        self.parallelism = parallelism
        self._busy_until = [clock.now_ms] * parallelism

    def idle_workers(self, now_ms: float) -> int:
        """How many workers are free at *now_ms*."""
        return sum(1 for until in self._busy_until if until <= now_ms)

    def start(self, start_ms: float, duration_ms: float) -> float:
        """Occupy the earliest-free worker from *start_ms*; return the
        completion instant ``start_ms + duration_ms``."""
        slot = min(range(self.parallelism), key=self._busy_until.__getitem__)
        if self._busy_until[slot] > start_ms:
            raise ValueError(
                f"no idle worker at {start_ms:.3f} ms "
                f"(earliest free {self._busy_until[slot]:.3f} ms)"
            )
        completion = start_ms + duration_ms
        self._busy_until[slot] = completion
        return completion
