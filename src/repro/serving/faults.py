"""Deterministic fault injection: a seeded timeline of chaos events.

The paper's field observation is that real LOD endpoints fail
*constantly* -- unreachable hosts, server-side timeouts, silent
truncation -- and §3.1's daily-retry schedule exists precisely because of
it.  PR 6's serving tier only ever saw a healthy endpoint; this module
gives it weather.  Following the discrete-event simulators in PAPERS.md
(DESP-C++, the in-database algorithm simulator), injected faults are
first-class *scheduled events* on the shared simulation clock, not ad-hoc
random errors: a :class:`FaultPlan` is a pure value (like
:class:`~repro.serving.workload.Workload`) holding four kinds of windows
on the timeline --

* **outage windows** -- the endpoint is unreachable, typically produced
  from a :class:`~repro.endpoint.availability.MarkovAvailability` day
  trace via :meth:`FaultPlan.from_markov` (so long-horizon serving runs
  finally cross day boundaries);
* **transient error bursts** -- ``(start, end, p_fail)``: each dispatch
  in the window fails with probability ``p_fail`` (flaky LB, packet
  loss), drawn by request so retries can win;
* **slowdowns** -- ``(start, end, factor)``: the execution-cost term of
  the endpoint latency model is multiplied by ``factor`` (an overloaded
  shard / noisy neighbour), fed into ``_estimate_latency`` through
  ``SparqlEndpoint.query(latency_scale=...)``;
* **timeout spikes** -- ``(start, end, timeout_scale)``: the endpoint's
  server-side deadline shrinks by ``timeout_scale`` (< 1), so queries
  that normally fit start timing out.

**The determinism construction.**  Every chaos decision is a pure
function of ``(plan seed, request identity, attempt number, probe
instant)``, and the probe instant for attempt *k* is **anchored at the
request's arrival time** plus the resilience layer's deterministic
backoff ledger -- never at the wall of the shared clock.  Arrival times
are workload values, so a request meets exactly the same weather no
matter how many server threads the scheduler overlaps it on: same seed +
same plan => byte-identical report digests at any ``parallelism``.
(Physically: the fault a request experiences is the state of the world
when it hit the front door.)  Probabilistic decisions inside a window use
:meth:`FaultInjector.draw` -- a stateless SHA-256 hash over (seed, kind,
request key, attempt) -- so no draw ever depends on execution order.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..endpoint.availability import MarkovAvailability
from ..endpoint.clock import MS_PER_DAY
from ..endpoint.endpoint import check_scale

__all__ = ["FaultState", "FaultPlan", "FaultInjector", "chaos_profile"]


class FaultState:
    """The injected weather at one instant of the timeline."""

    __slots__ = ("outage", "burst_p", "slowdown", "timeout_scale")

    def __init__(
        self,
        outage: bool = False,
        burst_p: float = 0.0,
        slowdown: float = 1.0,
        timeout_scale: float = 1.0,
    ):
        self.outage = outage
        self.burst_p = burst_p
        self.slowdown = slowdown
        self.timeout_scale = timeout_scale

    @property
    def calm(self) -> bool:
        return (
            not self.outage
            and self.burst_p == 0.0
            and self.slowdown == 1.0
            and self.timeout_scale == 1.0
        )

    def kinds(self) -> Tuple[str, ...]:
        """The active fault kinds, for observability surfaces."""
        active = []
        if self.outage:
            active.append("outage")
        if self.burst_p > 0.0:
            active.append("burst")
        if self.slowdown != 1.0:
            active.append("slowdown")
        if self.timeout_scale != 1.0:
            active.append("timeout-spike")
        return tuple(active)

    def __repr__(self) -> str:
        return (
            f"<FaultState outage={self.outage} burst_p={self.burst_p} "
            f"slowdown={self.slowdown} timeout_scale={self.timeout_scale}>"
        )


def _normalize(windows, arity: int, label: str, scale: str = "", positive: bool = False):
    """Validate and sort one window category into a tuple of tuples; a
    window's third field, when the category passes it to the endpoint as
    its *scale* parameter, is checked as that parameter is there
    (:func:`~repro.endpoint.endpoint.check_scale`)."""
    out = []
    for window in windows:
        window = tuple(window)
        if scale and len(window) == arity:
            check_scale(f"{label} {scale}", window[2], positive)
        window = tuple(float(part) for part in window)
        if len(window) != arity:
            raise ValueError(
                f"{label} window must have {arity} fields, got {window}"
            )
        if window[1] <= window[0]:
            raise ValueError(f"{label} window {window} is empty or inverted")
        out.append(window)
    out.sort()
    return tuple(out)


def _value_at(windows, t_ms: float, default):
    """The third field of the window covering *t_ms* (or *default*).

    Windows are sorted by start; overlapping windows resolve to the
    latest-starting one covering *t_ms* (deterministic and documented,
    though plans are normally built disjoint per category).
    """
    index = bisect.bisect_right(windows, (t_ms, float("inf"), float("inf"))) - 1
    while index >= 0:
        window = windows[index]
        if window[0] <= t_ms < window[1]:
            return window[2] if len(window) > 2 else True
        # an earlier-starting (longer) window can still cover t_ms when
        # windows overlap, so keep walking back; categories are small.
        index -= 1
    return default


class FaultPlan:
    """A pure, seeded value: every injectable event of one chaos run.

    Two plans built with the same arguments are interchangeable; handing
    the same plan (and workload seed) to two serving runs makes the runs
    byte-comparable.  ``seed`` feeds only the *per-request* hashed draws
    (burst failures, breaker probes) -- the windows themselves are fixed
    by construction.
    """

    __slots__ = ("seed", "horizon_ms", "outages", "bursts", "slowdowns", "timeout_spikes")

    def __init__(
        self,
        seed: int = 0,
        horizon_ms: float = 30 * MS_PER_DAY,
        outages: Sequence[Tuple[float, float]] = (),
        bursts: Sequence[Tuple[float, float, float]] = (),
        slowdowns: Sequence[Tuple[float, float, float]] = (),
        timeout_spikes: Sequence[Tuple[float, float, float]] = (),
    ):
        if horizon_ms <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_ms}")
        self.seed = seed
        self.horizon_ms = float(horizon_ms)
        self.outages = _normalize(outages, 2, "outage")
        self.bursts = _normalize(bursts, 3, "burst")
        self.slowdowns = _normalize(slowdowns, 3, "slowdown", "latency_scale")
        self.timeout_spikes = _normalize(
            timeout_spikes, 3, "timeout-spike", "timeout_scale", positive=True
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_markov(
        cls,
        url: str = "chaos",
        seed: int = 0,
        horizon_days: int = 30,
        p_fail: float = 0.25,
        p_recover: float = 0.55,
        **extra,
    ) -> "FaultPlan":
        """Outage windows sampled from a Markov availability day trace.

        This is §3.1's endpoint weather projected onto the serving
        timeline: the two-state chain is sampled per day exactly as the
        crawl scheduler sees it, and consecutive down days merge into
        multi-day outage windows (mean length ``1/p_recover`` days).
        """
        model = MarkovAvailability(
            url, p_fail=p_fail, p_recover=p_recover, seed=seed
        )
        return cls(
            seed=seed,
            horizon_ms=horizon_days * MS_PER_DAY,
            outages=model.outage_windows_ms(horizon_days),
            **extra,
        )

    # -- introspection -----------------------------------------------------

    def outage_ratio(self) -> float:
        """Fraction of the horizon covered by outage windows."""
        covered = sum(
            min(end, self.horizon_ms) - min(start, self.horizon_ms)
            for start, end in self.outages
        )
        return covered / self.horizon_ms

    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "horizon_days": self.horizon_ms / MS_PER_DAY,
            "outage_windows": len(self.outages),
            "outage_ratio": round(self.outage_ratio(), 4),
            "burst_windows": len(self.bursts),
            "slowdown_windows": len(self.slowdowns),
            "timeout_spike_windows": len(self.timeout_spikes),
        }

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} outage={self.outage_ratio():.0%} "
            f"bursts={len(self.bursts)} slowdowns={len(self.slowdowns)} "
            f"spikes={len(self.timeout_spikes)}>"
        )


class FaultInjector:
    """The compiled, queryable form of a :class:`FaultPlan`.

    Pure reads only -- the injector holds no mutable state, which is what
    lets one instance be consulted by the scheduler (at dispatch, for
    observability) and by every execution attempt (for fault fate)
    without any ordering sensitivity.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    # -- timeline lookups --------------------------------------------------

    def state_at(self, t_ms: float) -> FaultState:
        plan = self.plan
        return FaultState(
            outage=bool(_value_at(plan.outages, t_ms, False)),
            burst_p=float(_value_at(plan.bursts, t_ms, 0.0)),
            slowdown=float(_value_at(plan.slowdowns, t_ms, 1.0)),
            timeout_scale=float(_value_at(plan.timeout_spikes, t_ms, 1.0)),
        )

    def active_kinds(self, t_ms: float) -> Tuple[str, ...]:
        return self.state_at(t_ms).kinds()

    # -- seeded stateless draws --------------------------------------------

    def draw(self, kind: str, key: Hashable, attempt: int) -> float:
        """A uniform [0, 1) draw that is a pure function of its arguments.

        No shared RNG stream: two runs that evaluate draws in different
        orders (different parallelism, hedging on/off) still agree on
        every individual value.
        """
        token = f"{self.plan.seed}:{kind}:{key!r}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def burst_fails(self, t_ms: float, key: Hashable, attempt: int) -> bool:
        """Does attempt *attempt* of request *key* die in an error burst?"""
        p = self.state_at(t_ms).burst_p
        return p > 0.0 and self.draw("burst", key, attempt) < p

    def __repr__(self) -> str:
        return f"<FaultInjector {self.plan!r}>"


def chaos_profile(
    seed: int = 0,
    horizon_days: int = 30,
    p_fail: float = 0.25,
    p_recover: float = 0.55,
    burst_windows: int = 14,
    burst_coverage: float = 0.35,
    burst_p: float = 0.9,
    slowdown_windows: int = 6,
    slowdown_range: Tuple[float, float] = (3.0, 8.0),
    spike_windows: int = 5,
    spike_timeout_scale: float = 0.004,
) -> FaultPlan:
    """The canonical "~30%-outage" chaos profile the benchmark replays.

    Outages come from the Markov day chain (stationary down fraction
    ``p_fail / (p_fail + p_recover)`` ~ 31%); transient bursts, slowdowns
    and timeout spikes are placed by one ``random.Random(seed)`` drawn up
    front, so the whole profile -- like a workload -- is a pure value of
    its arguments.
    """
    plan_rng = random.Random(seed ^ 0x5EED)
    horizon_ms = horizon_days * MS_PER_DAY

    def place(count: int, length_ms: float) -> List[Tuple[float, float]]:
        windows = []
        for _ in range(count):
            start = plan_rng.uniform(0.0, horizon_ms - length_ms)
            windows.append((start, start + length_ms))
        return windows

    burst_len = burst_coverage * horizon_ms / burst_windows
    bursts = [(s, e, burst_p) for s, e in place(burst_windows, burst_len)]
    slowdowns = [
        (s, e, plan_rng.uniform(*slowdown_range))
        for s, e in place(slowdown_windows, 0.5 * MS_PER_DAY)
    ]
    spikes = [
        (s, e, spike_timeout_scale)
        for s, e in place(spike_windows, 0.4 * MS_PER_DAY)
    ]
    return FaultPlan.from_markov(
        url=f"chaos-{seed}",
        seed=seed,
        horizon_days=horizon_days,
        p_fail=p_fail,
        p_recover=p_recover,
        bursts=bursts,
        slowdowns=slowdowns,
        timeout_spikes=spikes,
    )
