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
from ..endpoint.errors import check_count

__all__ = [
    "TaskOutcome",
    "measure_task",
    "run_parallel",
    "makespan_ms",
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

    The checkpoint/run/restore idiom: the thunk executes with the clock at
    its logical start instant, its elapsed simulated time is read off the
    clock, and the clock is rewound so the caller decides how measured
    durations combine into real clock advances (a batch makespan for
    :func:`run_parallel`).
    Exceptions are captured in the returned :class:`TaskOutcome`, never
    raised.  The serving tier's scheduler writes the same idiom inline,
    because there an exception propagates.
    """
    start_ms = clock.checkpoint()
    value = None
    error: Optional[BaseException] = None
    try:
        value = thunk()
    except Exception as exc:
        error = exc
    elapsed = clock.restore(start_ms)
    return TaskOutcome(key, value, error, elapsed)


def makespan_ms(durations: Sequence[float], parallelism: int) -> float:
    """Greedy list-schedule makespan of *durations* over *parallelism* workers.

    Tasks are assigned in input order to the earliest-free worker --
    exactly what a work-stealing pool does for independent tasks.  With
    one worker this degenerates to the plain sum, i.e. today's sequential
    behaviour.
    """
    check_count("parallelism", parallelism)
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
    A *parallelism* that is not an int >= 1 is refused before any task
    runs.
    """
    check_count("parallelism", parallelism)
    outcomes: List[TaskOutcome] = [
        measure_task(clock, key, thunk) for key, thunk in tasks
    ]
    total = makespan_ms([outcome.elapsed_ms for outcome in outcomes], parallelism)
    clock.advance(total)
    return outcomes, total

