"""Seeded workload generation: sessions, arrival processes, query mix.

The serving benchmark needs "millions of users" in miniature: many
concurrent sessions, each issuing a handful of queries with think time
between them, arriving as a Poisson-like process.  Everything is drawn
from one ``random.Random(seed)`` up front, so a workload is a pure value
-- the same seed always yields byte-identical requests regardless of how
(or at what parallelism) they are later served.  That split is what lets
the scheduler promise deterministic results: the stochastic part happens
here, once.

The default query mix is drawn from the shapes the conformance/bench
corpus exercises -- full scans under LIMIT, typed joins, the class
census aggregate, top-k ORDER BY, DISTINCT and ASK probes -- restricted
to templates that run against any dataset (no dataset-specific IRIs), so
one mix serves every generated world.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from ..endpoint.errors import check_count

__all__ = [
    "QueryTemplate",
    "Request",
    "Workload",
    "default_query_mix",
    "cache_friendly_mix",
    "generate_workload",
]


class QueryTemplate:
    """One weighted entry of a workload's query mix."""

    __slots__ = ("name", "text", "weight")

    def __init__(self, name: str, text: str, weight: float = 1.0):
        # a bool is no weight, and a NaN or infinite one would fail only
        # later, inside the draw
        if (
            isinstance(weight, bool)
            or not isinstance(weight, (int, float))
            or not 0.0 < weight < math.inf
        ):
            raise ValueError(f"template weight must be finite and > 0, got {weight!r}")
        self.name = name
        self.text = text
        self.weight = weight

    def __repr__(self) -> str:
        return f"<QueryTemplate {self.name!r} w={self.weight}>"


_RDFS = "http://www.w3.org/2000/01/rdf-schema#"


def default_query_mix() -> List[QueryTemplate]:
    """The conformance/bench-corpus-flavoured mix: scans, joins, the class
    census, top-k, DISTINCT and ASK probes, weighted towards the cheap
    lookups a public endpoint actually sees."""
    return [
        QueryTemplate(
            "spo-page",
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 50",
            weight=3.0,
        ),
        QueryTemplate(
            "typed-join-page",
            "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 20",
            weight=2.0,
        ),
        QueryTemplate(
            "class-census",
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c",
            weight=2.0,
        ),
        QueryTemplate(
            "top-entities",
            "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 10",
            weight=1.0,
        ),
        QueryTemplate(
            "distinct-classes",
            "SELECT DISTINCT ?c WHERE { ?s a ?c } LIMIT 30",
            weight=1.0,
        ),
        QueryTemplate(
            "labels-page",
            f"SELECT ?s ?l WHERE {{ ?s <{_RDFS}label> ?l }} LIMIT 25",
            weight=1.0,
        ),
        QueryTemplate("ask-typed", "ASK { ?s a ?c }", weight=2.0),
    ]


def cache_friendly_mix() -> List[QueryTemplate]:
    """The dashboard/portal pattern: a handful of identical heavy queries
    issued over and over -- the workload a result cache exists for."""
    return [
        QueryTemplate(
            "census-dashboard",
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c",
            weight=3.0,
        ),
        QueryTemplate(
            "spotlight",
            "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 10",
            weight=2.0,
        ),
        QueryTemplate(
            "front-page",
            "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 20",
            weight=2.0,
        ),
    ]


class Request:
    """One query issued by one session at one simulated instant."""

    __slots__ = ("session_id", "tenant", "seq", "arrival_ms", "template", "query")

    def __init__(
        self,
        session_id: int,
        tenant: str,
        seq: int,
        arrival_ms: float,
        template: str,
        query: str,
    ):
        self.session_id = session_id
        self.tenant = tenant
        self.seq = seq
        self.arrival_ms = arrival_ms
        self.template = template
        self.query = query

    @property
    def key(self) -> Tuple[int, int]:
        """Stable identity: (session, position within session)."""
        return (self.session_id, self.seq)

    def __repr__(self) -> str:
        return (
            f"<Request s{self.session_id}#{self.seq} {self.tenant} "
            f"{self.template} @{self.arrival_ms:.1f}ms>"
        )


class Workload:
    """An immutable batch of requests, sorted by arrival."""

    __slots__ = ("requests", "sessions", "seed")

    def __init__(self, requests: Sequence[Request], sessions: int, seed: int):
        self.requests = sorted(
            requests, key=lambda r: (r.arrival_ms, r.session_id, r.seq)
        )
        self.sessions = sessions
        self.seed = seed

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def tenants(self) -> List[str]:
        return sorted({request.tenant for request in self.requests})

    def __repr__(self) -> str:
        return (
            f"<Workload {len(self.requests)} requests / {self.sessions} sessions "
            f"seed={self.seed}>"
        )


def generate_workload(
    sessions: int = 100,
    seed: int = 0,
    mix: Optional[Sequence[QueryTemplate]] = None,
    tenants: Sequence[str] = ("alpha", "beta", "gamma", "delta"),
    mean_session_gap_ms: float = 300.0,
    mean_think_ms: float = 400.0,
    queries_per_session: Tuple[int, int] = (2, 6),
    start_ms: float = 0.0,
) -> Workload:
    """Draw a complete workload from one seeded RNG.

    Session starts form a Poisson process (exponential gaps of mean
    *mean_session_gap_ms*); each session belongs to one tenant, issues a
    uniform ``queries_per_session`` count of queries drawn from *mix* by
    weight, and pauses an exponential think time between them.  Every
    draw comes from ``random.Random(seed)`` in a fixed order, so the
    returned workload is a deterministic value.  Both means must be finite
    and > 0 and *start_ms* finite: a NaN or infinite one makes arrivals
    non-finite, a zero mean divides by zero, and a negative one runs a
    session's arrivals backwards.  *sessions* and both bounds of
    *queries_per_session* are counts (ints >= 1, no bool), and *tenants*
    names at least one tenant (a string is refused: it would be a pool of
    one-letter tenants); every parameter is checked before any draw.
    """
    for name, mean in (("mean_session_gap_ms", mean_session_gap_ms),
                       ("mean_think_ms", mean_think_ms)):
        if not 0.0 < mean < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {mean!r}")
    if not math.isfinite(start_ms):
        raise ValueError(f"start_ms must be finite, got {start_ms!r}")
    check_count("sessions", sessions)
    low, high = queries_per_session
    check_count("queries_per_session", low)
    check_count("queries_per_session", high)
    if low > high:
        raise ValueError(f"bad queries_per_session range {queries_per_session}")
    if isinstance(tenants, (str, bytes)):
        raise ValueError(f"tenants must be a sequence of names, not one string, got {tenants!r}")
    if not tenants:
        raise ValueError("tenants must name at least one tenant")
    templates = list(mix) if mix is not None else default_query_mix()
    if not templates:
        raise ValueError("query mix must not be empty")
    weights = [template.weight for template in templates]
    rng = random.Random(seed)

    requests: List[Request] = []
    session_start = start_ms
    for session_id in range(sessions):
        session_start += rng.expovariate(1.0 / mean_session_gap_ms)
        tenant = tenants[rng.randrange(len(tenants))]
        arrival = session_start
        for seq in range(rng.randint(low, high)):
            if seq:
                arrival += rng.expovariate(1.0 / mean_think_ms)
            template = rng.choices(templates, weights=weights, k=1)[0]
            requests.append(
                Request(session_id, tenant, seq, arrival, template.name, template.text)
            )
    return Workload(requests, sessions=sessions, seed=seed)
