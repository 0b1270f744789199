"""Client-side resilience policies for the serving tier.

The paper's crawler answers endpoint flakiness with a daily-retry
schedule; a *serving* tier answering interactive users needs the
millisecond-scale equivalent.  This module is ``QueryServer``'s executor
and the policy that configures it:

* **retry with exponential backoff + full jitter** over the simulation
  clock, budgeted against a per-request deadline so retries never push a
  request past ``deadline_ms``;
* a per-endpoint **circuit breaker** (closed -> open -> half-open, seeded
  probe admission) so a dead endpoint fails fast instead of eating a
  connect charge per request;
* optional **hedged requests**: when an execution outlives the tracked
  p95, a second attempt fires and the first completion wins
  (:func:`~repro.core.parallel.race_hedged`; the loser's remaining
  simulated time is cancelled).  Both attempts return the same rows, so
  hedging moves timing only -- digests stay byte-identical;
* **graceful degradation** on exhausted retries or an open breaker:
  serve a stale :class:`~repro.serving.cache.ResultCache` entry tagged
  ``status="stale"``, falling back to the local materialized replica
  (a direct engine read, charged like a cache hit) -- the serving-tier
  mirror of the paper's truncate-don't-error observation.  The
  degradation ladder is fresh -> cached -> stale -> replica -> failed.

Like the fault timeline, every *outcome-relevant* decision here is
deterministic per request: backoff delays and breaker probes come from
stateless seeded hashes, and fault fate is probed on the arrival-anchored
ledger (:mod:`.faults`).  Stateful pieces -- the breaker's open windows,
the p95 tracker -- only ever shape *timing* and *which cheap path* served
a request, never the rows it got, so report digests stay invariant
across parallelism and hedging.
"""

from __future__ import annotations

import hashlib
from collections import deque
from math import ceil
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.parallel import race_hedged
from ..endpoint.errors import (
    CircuitOpen,
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    QueryRejected,
)
from ..sparql.errors import SparqlSyntaxError
from .faults import FaultInjector, FaultState
from .workload import Request

__all__ = [
    "full_jitter_backoff_ms",
    "CircuitBreaker",
    "ResiliencePolicy",
    "ResilientExecutor",
]

_CALM = FaultState()
#: what every cache hit reports; shared, so read-only
_HIT_META = MappingProxyType({"attempts": 0})


def full_jitter_backoff_ms(
    seed: int,
    key: Hashable,
    attempt: int,
    base_ms: float,
    cap_ms: float,
) -> float:
    """Exponential backoff with *full jitter*, as a pure seeded function.

    The AWS-style construction: ``delay = U(0, min(cap, base * 2^attempt))``
    with the uniform draw taken from a SHA-256 hash of ``(seed, key,
    attempt)`` instead of a shared RNG stream.  Determinism per request
    (replays are byte-identical) *and* desynchronization across callers
    (two clients with different seeds spread their retry storms) fall out
    of the same construction.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    ceiling = min(cap_ms, base_ms * (2.0 ** attempt))
    token = f"{seed}:backoff:{key!r}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return (int.from_bytes(digest[:8], "big") / 2**64) * ceiling


class CircuitBreaker:
    """Closed -> open -> half-open breaker over the simulation clock.

    ``threshold`` consecutive failures open the breaker for
    ``cooldown_ms``; after the cooldown it goes half-open and admits
    *probe* calls by a seeded per-request draw (``probe_p``), so under
    concurrency a deterministic subset of requests tests the water while
    the rest keep failing fast.  A successful probe closes the breaker; a
    failed one re-opens it for another cooldown.  Every transition is
    recorded with its clock instant for the serving report.
    """

    __slots__ = (
        "threshold", "cooldown_ms", "probe_p", "seed",
        "state", "failures", "opened_at_ms", "transitions", "fast_fails",
    )

    def __init__(
        self,
        threshold: int = 5,
        cooldown_ms: float = 60_000.0,
        probe_p: float = 0.5,
        seed: int = 0,
    ):
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown_ms <= 0:
            raise ValueError(f"breaker cooldown must be positive, got {cooldown_ms}")
        if not 0.0 < probe_p <= 1.0:
            raise ValueError(f"probe admission must be in (0, 1], got {probe_p}")
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.probe_p = probe_p
        self.seed = seed
        self.state = "closed"
        self.failures = 0
        self.opened_at_ms = 0.0
        #: [(clock ms, from-state, to-state)], the report's breaker trace
        self.transitions: List[Tuple[float, str, str]] = []
        self.fast_fails = 0

    def _transition(self, now_ms: float, to_state: str) -> None:
        self.transitions.append((now_ms, self.state, to_state))
        self.state = to_state

    def allow(self, now_ms: float, key: Hashable, attempt: int = 0) -> bool:
        """May this call go out at *now_ms*?  (Counts refused calls.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now_ms - self.opened_at_ms >= self.cooldown_ms:
                self._transition(now_ms, "half-open")
            else:
                self.fast_fails += 1
                return False
        # half-open: admit a seeded subset as probes
        token = f"{self.seed}:probe:{key!r}:{attempt}:{len(self.transitions)}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        if int.from_bytes(digest[:8], "big") / 2**64 < self.probe_p:
            return True
        self.fast_fails += 1
        return False

    def record_success(self, now_ms: float) -> None:
        self.failures = 0
        if self.state == "half-open":
            self._transition(now_ms, "closed")

    def record_failure(self, now_ms: float) -> None:
        self.failures += 1
        if self.state == "half-open" or (
            self.state == "closed" and self.failures >= self.threshold
        ):
            self._transition(now_ms, "open")
            self.opened_at_ms = now_ms

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.state} failures={self.failures}/"
            f"{self.threshold}>"
        )


class ResiliencePolicy:
    """Pure configuration of the resilience behaviours.

    ``ResiliencePolicy()`` is the everything-on default; ``naive()`` is
    everything off (one attempt, no breaker, fail like the endpoint
    failed): what a ``QueryServer`` given no policy runs, and the chaos
    benchmark's baseline arm.
    """

    __slots__ = (
        "max_retries", "backoff_base_ms", "backoff_cap_ms", "deadline_ms",
        "breaker_threshold", "breaker_cooldown_ms", "breaker_probe_p",
        "hedging", "hedge_min_samples", "hedge_window",
        "degrade_stale", "degrade_replica", "fail_fast_ms", "seed",
    )

    def __init__(
        self,
        max_retries: int = 3,
        backoff_base_ms: float = 200.0,
        backoff_cap_ms: float = 5_000.0,
        deadline_ms: float = 30_000.0,
        breaker_threshold: Optional[int] = 5,
        breaker_cooldown_ms: float = 60_000.0,
        breaker_probe_p: float = 0.5,
        hedging: bool = False,
        hedge_min_samples: int = 16,
        hedge_window: int = 64,
        degrade_stale: bool = True,
        degrade_replica: bool = True,
        fail_fast_ms: float = 0.5,
        seed: int = 0,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if deadline_ms <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_ms}")
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.deadline_ms = deadline_ms
        #: None disables the breaker entirely
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_ms = breaker_cooldown_ms
        self.breaker_probe_p = breaker_probe_p
        self.hedging = hedging
        self.hedge_min_samples = hedge_min_samples
        self.hedge_window = hedge_window
        self.degrade_stale = degrade_stale
        self.degrade_replica = degrade_replica
        self.fail_fast_ms = fail_fast_ms
        self.seed = seed

    @classmethod
    def naive(cls) -> "ResiliencePolicy":
        """One attempt, no breaker, no hedging, no degradation."""
        return cls(
            max_retries=0,
            breaker_threshold=None,
            hedging=False,
            degrade_stale=False,
            degrade_replica=False,
        )

    def __repr__(self) -> str:
        return (
            f"<ResiliencePolicy retries={self.max_retries} "
            f"breaker={self.breaker_threshold} hedging={self.hedging} "
            f"degrade={self.degrade_stale or self.degrade_replica}>"
        )


class ResilientExecutor:
    """``QueryServer``'s executor with the full policy stack applied.

    One instance lives as long as its server: breaker state and the p95
    tracker carry across ``serve`` calls (a long-running server remembers
    that its backend was just down), while per-run counters reset at
    every ``begin_run``.

    This is the server's only executor -- the one code path that
    touches the endpoint.  A server given no policy runs it with
    :meth:`ResiliencePolicy.naive` (one attempt, no breaker, no
    degradation), so "no resilience" is a value of the policy, not a
    second executor.  Endpoint failures are never raised: they are
    folded into the returned ``(status, result, meta)`` triple so the
    scheduler can record attempt counts and degradation provenance
    alongside the failure.
    """

    def __init__(
        self,
        server,
        policy: ResiliencePolicy,
        faults: Optional[FaultInjector] = None,
    ):
        self.server = server
        self.policy = policy
        self.faults = faults
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._latency_window = deque(maxlen=policy.hedge_window)
        self.counters: Dict[str, int] = {}
        self.begin_run()

    # -- lifecycle ---------------------------------------------------------

    def begin_run(self) -> None:
        """Reset the per-run counters (breakers and p95 carry over)."""
        self.counters = {
            "attempts": 0,
            "retries": 0,
            "recovered_by_retry": 0,
            "injected_outage_failures": 0,
            "injected_transient_failures": 0,
            "breaker_fast_fails": 0,
            "deadline_exhausted": 0,
            "degraded_stale_cache": 0,
            "degraded_replica": 0,
            "hedges_fired": 0,
            "hedges_won": 0,
        }

    def _breaker(self) -> Optional[CircuitBreaker]:
        if self.policy.breaker_threshold is None:
            return None
        url = self.server.endpoint.url
        breaker = self.breakers.get(url)
        if breaker is None:
            breaker = self.breakers[url] = CircuitBreaker(
                threshold=self.policy.breaker_threshold,
                cooldown_ms=self.policy.breaker_cooldown_ms,
                probe_p=self.policy.breaker_probe_p,
                seed=self.policy.seed,
            )
        return breaker

    def breaker_transitions(self) -> List[Tuple[float, str, str]]:
        out: List[Tuple[float, str, str]] = []
        for breaker in self.breakers.values():
            out.extend(breaker.transitions)
        return sorted(out)

    # -- hedging -----------------------------------------------------------

    def _hedge_delay_ms(self) -> Optional[float]:
        """The tracked p95 of recent service times, or None (don't hedge)."""
        if not self.policy.hedging:
            return None
        if len(self._latency_window) < self.policy.hedge_min_samples:
            return None
        ordered = sorted(self._latency_window)
        rank = max(1, ceil(len(ordered) * 0.95))
        return ordered[rank - 1]

    # -- the executor ------------------------------------------------------

    def __call__(self, request: Request):
        server = self.server
        endpoint = server.endpoint
        tracer = server._tracer

        # Fresh path: the result cache sits in front of everything,
        # including the fault gate -- the cache is the serving tier's own
        # memory and survives endpoint weather.  A hit is the hot path of
        # a warm server (microseconds per request), so it returns before
        # any policy state is read or allocated.
        generation = endpoint.graph.generation
        if server.cache is not None:
            cached = server.cache.get(
                request.query, generation, tenant=request.tenant
            )
            if cached is not None:
                if tracer.enabled:
                    tracer.event("cache.lookup", outcome="hit")
                endpoint.clock.advance(server.cache_hit_ms)
                return ("cache-hit", cached, _HIT_META)
            if tracer.enabled:
                tracer.event("cache.lookup", outcome="miss")

        policy = self.policy
        clock = endpoint.clock
        tracing = tracer.enabled
        meta: Dict[str, object] = {"attempts": 0}
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else policy.deadline_ms
        )
        breaker = self._breaker()
        nominal_penalty = server.endpoint.profile.connect_ms * 2.0
        ledger_ms = 0.0  # deterministic elapsed estimate anchoring probes
        last_error: Optional[EndpointError] = None

        for attempt in range(policy.max_retries + 1):
            if breaker is not None and not breaker.allow(
                clock.now_ms, request.key, attempt
            ):
                clock.advance(policy.fail_fast_ms)
                self.counters["breaker_fast_fails"] += 1
                if tracing:
                    tracer.event("breaker.fast_fail", attempt=attempt + 1)
                last_error = CircuitOpen(
                    f"breaker open for {server.endpoint.url}",
                    url=server.endpoint.url,
                )
                break  # an open breaker is not worth backing off against
            meta["attempts"] = attempt + 1
            self.counters["attempts"] += 1
            if attempt > 0:
                self.counters["retries"] += 1
            probe_ms = request.arrival_ms + ledger_ms
            if tracing:
                tracer.begin(
                    "attempt", number=attempt + 1, probe_ms=round(probe_ms, 6)
                )
            try:
                status, result = self._attempt(request, attempt, probe_ms, meta)
            except BaseException as error:
                if tracing:
                    tracer.end(error=type(error).__name__)
                if not isinstance(error, EndpointError):
                    raise  # a bug, not an outcome
                if isinstance(error, QueryRejected):
                    # a capability rejection is permanent: retrying or
                    # serving stale data would mask a client error
                    meta["error"] = error
                    return ("feature-rejected", None, meta)
                if breaker is not None:
                    breaker.record_failure(clock.now_ms)
                last_error = error
                if attempt >= policy.max_retries:
                    break
                delay_ms = full_jitter_backoff_ms(
                    policy.seed, request.key, attempt,
                    policy.backoff_base_ms, policy.backoff_cap_ms,
                )
                if ledger_ms + nominal_penalty + delay_ms + nominal_penalty > deadline_ms:
                    self.counters["deadline_exhausted"] += 1
                    meta["deadline_exhausted"] = True
                    break
                if tracing:
                    tracer.event("backoff", delay_ms=round(delay_ms, 6))
                clock.advance(delay_ms)
                ledger_ms += nominal_penalty + delay_ms
                continue
            if tracing:
                tracer.end(outcome=status)
            if breaker is not None:
                breaker.record_success(clock.now_ms)
            if attempt > 0:
                self.counters["recovered_by_retry"] += 1
            return (status, result, meta)

        return self._degrade(request, generation, last_error, meta)

    # -- one attempt -------------------------------------------------------

    def _attempt(self, request: Request, attempt: int, probe_ms: float, meta):
        """One dispatch: fault gate, then the real endpoint."""
        server = self.server
        clock = server.endpoint.clock
        state = self.faults.state_at(probe_ms) if self.faults else _CALM
        if state.outage:
            # a dead endpoint still costs the doomed connect attempt
            clock.advance(server.endpoint.profile.connect_ms * 2.0)
            self.counters["injected_outage_failures"] += 1
            raise EndpointUnavailable(
                f"injected outage at t={probe_ms:.0f}ms",
                url=server.endpoint.url,
            )
        if state.burst_p > 0.0 and self.faults.burst_fails(
            probe_ms, request.key, attempt
        ):
            clock.advance(server.endpoint.profile.connect_ms)
            self.counters["injected_transient_failures"] += 1
            raise EndpointUnavailable(
                f"injected transient error at t={probe_ms:.0f}ms",
                url=server.endpoint.url,
            )

        def call():
            return server.endpoint.query(
                request.query,
                latency_scale=state.slowdown,
                timeout_scale=state.timeout_scale,
            )

        start_ms = clock.now_ms
        hedge_delay = self._hedge_delay_ms()
        if hedge_delay is not None:
            outcome, fired, won = race_hedged(
                clock, request.key, call, call, hedge_delay
            )
            if fired:
                self.counters["hedges_fired"] += 1
                meta["hedged"] = True
            if won:
                self.counters["hedges_won"] += 1
            if outcome.error is not None:
                raise outcome.error
            result = outcome.value
        else:
            result = call()
        service_ms = clock.now_ms - start_ms
        self._latency_window.append(service_ms)
        if server.cache is not None:
            server.cache.put(
                request.query,
                server.endpoint.graph.generation,
                result,
                service_ms=service_ms,
                tenant=request.tenant,
            )
        return ("ok", result)

    # -- the degradation ladder --------------------------------------------

    def _degrade(self, request: Request, generation: int, last_error, meta):
        """Exhausted retries / open breaker: stale -> replica -> failed."""
        server = self.server
        policy = self.policy
        clock = server.endpoint.clock
        tracer = server._tracer
        meta["error"] = last_error
        if policy.degrade_stale and server.cache is not None:
            stale = server.cache.get_stale(request.query)
            if stale is not None:
                clock.advance(server.cache_hit_ms)
                self.counters["degraded_stale_cache"] += 1
                meta["degraded"] = "stale-cache"
                if tracer.enabled:
                    tracer.event("degrade", rung="stale-cache")
                return ("stale", stale, meta)
        if policy.degrade_replica:
            if tracer.enabled:
                tracer.event("degrade", rung="replica")
            try:
                result = server.replica_read(request.query)
            except SparqlSyntaxError:  # a text nothing can answer
                return (_failure_status(last_error), None, meta)
            clock.advance(server.cache_hit_ms)
            self.counters["degraded_replica"] += 1
            meta["degraded"] = "replica"
            return ("stale", result, meta)
        return (_failure_status(last_error), None, meta)


def _failure_status(error: Optional[BaseException]) -> str:
    if isinstance(error, EndpointUnavailable):
        return "unavailable"
    if isinstance(error, CircuitOpen):
        return "circuit-open"
    if isinstance(error, QueryRejected):
        return "feature-rejected"
    if isinstance(error, EndpointTimeout):
        return "endpoint-timeout"
    return "failed"
