"""Simulated time for the endpoint network.

Everything latency- or schedule-related in the reproduction runs against
this clock instead of wall time, which makes the E1/E3 benchmarks
deterministic and lets 60 simulated days run in milliseconds.

Time is kept in fractional milliseconds since the simulation epoch; days
(for the §3.1 update scheduler) are derived at 86_400_000 ms each.
"""

from __future__ import annotations

import math

__all__ = ["SimulationClock", "MS_PER_DAY"]

MS_PER_DAY = 86_400_000.0


class SimulationClock:
    """A monotonically advancing simulated clock."""

    def __init__(self, start_ms: float = 0.0):
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        return self._now_ms

    @property
    def today(self) -> int:
        """The current simulated day number (0-based)."""
        return int(self._now_ms // MS_PER_DAY)

    def advance(self, delta_ms: float) -> float:
        """Advance by *delta_ms* (finite and non-negative); return new time."""
        if not 0 <= delta_ms < math.inf:
            if delta_ms < 0:
                raise ValueError(f"cannot move time backwards ({delta_ms} ms)")
            raise ValueError(f"cannot advance by a non-finite delta ({delta_ms} ms)")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_days(self, days: float) -> float:
        return self.advance(days * MS_PER_DAY)

    def sleep_until_day(self, day: int) -> None:
        """Jump to the start of *day* (no-op if already past it)."""
        target = day * MS_PER_DAY
        if target > self._now_ms:
            self._now_ms = target

    # -- measuring simulated cost (worker pools) --------------------------

    def checkpoint(self) -> float:
        """The current time, to hand back to :meth:`restore` later."""
        return self._now_ms

    def restore(self, checkpoint_ms: float) -> float:
        """Rewind to a previously taken :meth:`checkpoint`; return how far
        the clock rewound (``now_ms - checkpoint_ms`` before the rewind),
        which is the measured task's simulated cost.

        This is the one sanctioned way time moves backwards, and it has
        two callers, both measuring what a task costs: the batch pool
        (:mod:`repro.core.parallel`), which runs each task against the
        batch-start clock, rewinds, and finally advances once by the
        parallel schedule's makespan; and the serving scheduler
        (:mod:`repro.serving.scheduler`), which rewinds after each request
        and advances along its event timeline.  Observers outside them
        still only ever see time move forward.
        """
        if checkpoint_ms > self._now_ms:
            raise ValueError(
                f"checkpoint {checkpoint_ms} is in the future of {self._now_ms}"
            )
        elapsed = self._now_ms - checkpoint_ms
        self._now_ms = checkpoint_ms
        return elapsed

    def __repr__(self) -> str:
        return f"<SimulationClock day={self.today} t={self._now_ms:.1f}ms>"

