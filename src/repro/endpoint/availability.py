"""Endpoint availability models.

§3.1 of the paper is built on two field observations: endpoints are often
temporarily unavailable ("it might work again after 1 or 2 days"), and the
SPARQLES monitor is cited for availability data.  We model each endpoint's
availability as a two-state Markov chain sampled per simulated day:

* state UP: goes down next day with probability ``p_fail``
* state DOWN: recovers next day with probability ``p_recover``

which produces exactly the short-outage behaviour the paper describes
(mean outage length = 1/p_recover days).  Traces are deterministic per
(seed, endpoint-url) so experiments are reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

__all__ = ["AvailabilityModel", "AlwaysAvailable", "MarkovAvailability", "availability_ratio"]


class AvailabilityModel:
    """Interface: is the endpoint reachable on a given simulated day?"""

    def is_available(self, day: int) -> bool:
        raise NotImplementedError


class AlwaysAvailable(AvailabilityModel):
    """The trivial model for tests and for rock-solid endpoints."""

    def is_available(self, day: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "AlwaysAvailable()"


class MarkovAvailability(AvailabilityModel):
    """Two-state Markov availability, lazily sampled and memoized per day."""

    def __init__(
        self,
        url: str,
        p_fail: float = 0.08,
        p_recover: float = 0.55,
        seed: int = 0,
        start_up: bool = True,
    ):
        if not 0.0 <= p_fail <= 1.0 or not 0.0 < p_recover <= 1.0:
            raise ValueError(f"bad Markov parameters p_fail={p_fail} p_recover={p_recover}")
        self.url = url
        self.p_fail = p_fail
        self.p_recover = p_recover
        digest = hashlib.sha256(f"{seed}:{url}".encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        self._states: List[bool] = [start_up]

    def is_available(self, day: int) -> bool:
        if day < 0:
            raise ValueError(f"negative day {day}")
        while len(self._states) <= day:
            previous = self._states[-1]
            if previous:
                self._states.append(self._rng.random() >= self.p_fail)
            else:
                self._states.append(self._rng.random() < self.p_recover)
        return self._states[day]

    def outage_days(self, horizon: int) -> List[int]:
        """Days in [0, horizon) on which the endpoint is down."""
        return [day for day in range(horizon) if not self.is_available(day)]

    def __repr__(self) -> str:
        return (
            f"MarkovAvailability({self.url!r}, p_fail={self.p_fail}, "
            f"p_recover={self.p_recover})"
        )


def availability_ratio(model: AvailabilityModel, horizon: int) -> float:
    """Fraction of days in [0, horizon) the endpoint is up."""
    if horizon <= 0:
        return 1.0
    up = sum(1 for day in range(horizon) if model.is_available(day))
    return up / horizon
