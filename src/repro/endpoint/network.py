"""The endpoint network: a URL-addressed registry of simulated endpoints.

This is the "internet" of the reproduction -- index extraction, the portal
crawler and the presentation layer reach every endpoint through a
:class:`SparqlClient` bound to one :class:`EndpointNetwork`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterator, List, Optional, Union

from ..sparql.results import AskResult, SelectResult
from .clock import SimulationClock
from .endpoint import SparqlEndpoint
from .errors import (
    EndpointError,
    EndpointUnavailable,
    UnknownEndpoint,
    check_count,
    check_duration,
)

__all__ = ["EndpointNetwork", "SparqlClient", "full_jitter_backoff_ms"]


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


class EndpointNetwork:
    """Maps URL -> :class:`SparqlEndpoint`, sharing one simulation clock."""

    def __init__(self, clock: Optional[SimulationClock] = None):
        self.clock = clock or SimulationClock()
        self._endpoints: Dict[str, SparqlEndpoint] = {}

    def register(self, endpoint: SparqlEndpoint) -> SparqlEndpoint:
        if endpoint.url in self._endpoints:
            raise ValueError(f"endpoint already registered at {endpoint.url}")
        if endpoint.clock is not self.clock:
            raise ValueError("endpoint must share the network clock")
        self._endpoints[endpoint.url] = endpoint
        return endpoint

    def deregister(self, url: str) -> bool:
        return self._endpoints.pop(url, None) is not None

    def get(self, url: str) -> SparqlEndpoint:
        endpoint = self._endpoints.get(url)
        if endpoint is None:
            raise UnknownEndpoint(f"no endpoint at {url}", url=url)
        return endpoint

    def __contains__(self, url: str) -> bool:
        return url in self._endpoints

    def __len__(self) -> int:
        return len(self._endpoints)

    def urls(self) -> List[str]:
        return sorted(self._endpoints)

    def __iter__(self) -> Iterator[SparqlEndpoint]:
        for url in self.urls():
            yield self._endpoints[url]


class SparqlClient:
    """A client with retry/timeout policy over an :class:`EndpointNetwork`.

    Retries only *transient* failures (unavailability); feature rejections
    and timeouts surface immediately so the pattern-strategy layer can
    switch approach instead of hammering the endpoint.

    Backoff is seeded exponential with full jitter
    (:func:`full_jitter_backoff_ms`), not the old linear ramp: two
    clients with different seeds draw different delays for the same
    retry, so a fleet of crawlers recovering from the same outage spreads
    its retry storm instead of re-synchronizing on the endpoint -- and the
    total time a single call may spend backing off is capped by
    ``max_backoff_total_ms``.
    """

    def __init__(
        self,
        network: EndpointNetwork,
        max_retries: int = 2,
        retry_backoff_ms: float = 500.0,
        backoff_cap_ms: float = 8_000.0,
        max_backoff_total_ms: float = 20_000.0,
        seed: int = 0,
    ):
        # a bad value would otherwise fail mid-query (a negative delay
        # moves the clock backwards) or quietly change the policy (a NaN
        # base draws every delay against the cap, a NaN budget never runs out)
        check_count("max_retries", max_retries, least=0)
        check_duration("retry_backoff_ms", retry_backoff_ms)
        check_duration("backoff_cap_ms", backoff_cap_ms)
        check_duration("max_backoff_total_ms", max_backoff_total_ms)
        self.network = network
        self.max_retries = max_retries
        #: base of the exponential ramp (attempt k draws from
        #: ``U(0, min(cap, base * 2^k))``)
        self.retry_backoff_ms = retry_backoff_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.max_backoff_total_ms = max_backoff_total_ms
        self.seed = seed

    def query(self, url: str, text: str) -> Union[SelectResult, AskResult]:
        endpoint = self.network.get(url)
        attempts = self.max_retries + 1
        last_error: Optional[EndpointError] = None
        backed_off_ms = 0.0
        for attempt in range(attempts):
            try:
                return endpoint.query(text)
            except EndpointUnavailable as exc:
                last_error = exc
                if attempt + 1 >= attempts:
                    break
                delay_ms = full_jitter_backoff_ms(
                    self.seed, (url, text), attempt,
                    self.retry_backoff_ms, self.backoff_cap_ms,
                )
                if backed_off_ms + delay_ms > self.max_backoff_total_ms:
                    break  # retry budget spent; surface the failure
                self.network.clock.advance(delay_ms)
                backed_off_ms += delay_ms
        assert last_error is not None
        raise last_error

    # -- convenience wrappers ---------------------------------------------------

    def select(self, url: str, text: str) -> SelectResult:
        result = self.query(url, text)
        if not isinstance(result, SelectResult):
            raise TypeError(f"expected SELECT result, got {type(result).__name__}")
        return result

    def ask(self, url: str, text: str) -> bool:
        result = self.query(url, text)
        if not isinstance(result, AskResult):
            raise TypeError(f"expected ASK result, got {type(result).__name__}")
        return bool(result)

    def is_alive(self, url: str) -> bool:
        """The availability probe H-BOLD runs before extraction."""
        try:
            return self.ask(url, "ASK { ?s ?p ?o }")
        except EndpointError:
            return False
