"""Simulated SPARQL endpoint network.

The paper indexes 130 live endpoints; offline we reproduce the *behaviour*
that matters to H-BOLD -- implementation quirks (result caps, missing
aggregate support), flaky availability, heterogeneous latency -- with
in-process endpoints wrapping our triple store, all sharing one simulated
clock so experiments are deterministic and fast.
"""

from .availability import (
    AlwaysAvailable,
    AvailabilityModel,
    MarkovAvailability,
    availability_ratio,
)
from .clock import MS_PER_DAY, SimulationClock
from .endpoint import SparqlEndpoint
from .errors import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    QueryRejected,
    UnknownEndpoint,
)
from .monitor import AVAILABILITY_BUCKETS, AvailabilityMonitor, ProbeRecord
from .network import EndpointNetwork, SparqlClient
from .profiles import PROFILES, EndpointProfile, profile_by_name

__all__ = [
    "AVAILABILITY_BUCKETS",
    "AlwaysAvailable",
    "AvailabilityMonitor",
    "AvailabilityModel",
    "ProbeRecord",
    "EndpointError",
    "EndpointNetwork",
    "EndpointProfile",
    "EndpointTimeout",
    "EndpointUnavailable",
    "MS_PER_DAY",
    "MarkovAvailability",
    "PROFILES",
    "QueryRejected",
    "SimulationClock",
    "SparqlClient",
    "SparqlEndpoint",
    "UnknownEndpoint",
    "availability_ratio",
    "profile_by_name",
]
