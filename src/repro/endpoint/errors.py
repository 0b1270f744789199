"""Errors raised by the simulated endpoint network.

Mirrors the failure modes a SPARQL client sees against real endpoints:
unreachable hosts, server-side timeouts, feature rejections and truncated
results (the last one is a *flag*, not an error -- Virtuoso truncates
silently, which is precisely why pattern strategies exist).
"""

from __future__ import annotations

import math

__all__ = [
    "check_count",
    "check_duration",
    "EndpointError",
    "EndpointUnavailable",
    "EndpointTimeout",
    "QueryRejected",
    "UnknownEndpoint",
]


class EndpointError(Exception):
    """Base class for endpoint-level failures."""

    def __init__(self, message: str, url: str = ""):
        super().__init__(message)
        self.url = url


class EndpointUnavailable(EndpointError):
    """The endpoint did not answer (down on this simulated day)."""


class EndpointTimeout(EndpointError):
    """Execution exceeded the endpoint's server-side timeout."""


class QueryRejected(EndpointError):
    """The endpoint implementation does not support this query feature."""


class UnknownEndpoint(EndpointError):
    """No endpoint is registered at this URL (DNS failure analog)."""


def check_count(name: str, value, least: int = 1) -> None:
    """Refuse a *value* that is not an int >= *least* (a bool is not a
    count): the one rule for a count argument of the core and serving
    layers, checked before any work starts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def check_duration(name: str, value) -> None:
    """Refuse a *value* that is not a finite number >= 0: the one rule
    for a duration argument in milliseconds (a NaN compares false with
    every bound, an infinite one never elapses, and a bool is no
    duration, as it is no count)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0.0 <= value < math.inf
    ):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
