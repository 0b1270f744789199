"""The simulated SPARQL endpoint.

Wraps one :class:`~repro.rdf.graph.Graph` behind the behaviour of a real
deployment: an implementation profile (capabilities + latency model), an
availability model, and a shared simulation clock that all query latency
is charged to.  The H-BOLD index-extraction code talks to these endpoints
exactly as it would to remote ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Union

from ..obs.trace import NULL_TRACER
from ..rdf.graph import Graph
from ..sparql.errors import SparqlSyntaxError
from ..sparql.evaluator import QueryEngine
from ..sparql.nodes import (
    AskQuery,
    ExistsExpression,
    Expression,
    FilterPattern,
    GroupPattern,
    OptionalPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
)
from ..sparql.parser import parse_query
from ..sparql.paths import is_path
from ..sparql.results import AskResult, SelectResult
from .availability import AlwaysAvailable, AvailabilityModel
from .clock import SimulationClock
from .errors import EndpointTimeout, EndpointUnavailable, QueryRejected
from .profiles import EndpointProfile, PROFILES

__all__ = ["SparqlEndpoint"]


class EndpointStats:
    """Counters the benchmarks read off each endpoint.  ``join_rows`` sums
    the engine's ``join_rows`` (the rows its eager joins built) over the
    queries it executed."""

    __slots__ = ("queries", "failures", "timeouts", "rejected", "truncated", "total_latency_ms",
                 "join_rows")

    def __init__(self):
        self.queries = 0
        self.failures = 0
        self.timeouts = 0
        self.rejected = 0
        self.truncated = 0
        self.total_latency_ms = 0.0
        self.join_rows = 0


class SparqlEndpoint:
    """One endpoint: a graph + a profile + availability + latency."""

    def __init__(
        self,
        url: str,
        graph: Graph,
        clock: SimulationClock,
        profile: Union[str, EndpointProfile] = "virtuoso",
        availability: Optional[AvailabilityModel] = None,
        seed: int = 0,
        title: str = "",
        strategy: str = "hash",
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        self.url = url
        self.graph = graph
        self.clock = clock
        self.profile = profile
        self.availability = availability or AlwaysAvailable()
        self.title = title or url
        #: BGP pipeline of the backing engine: "hash" (dictionary-encoded
        #: hash joins, the default) or "scan" (legacy nested-loop joins).
        self.strategy = strategy
        self._engine = QueryEngine(graph, strategy=strategy)
        digest = hashlib.sha256(f"{seed}:{url}:latency".encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.stats = EndpointStats()
        #: span recorder (``repro.obs``); attach a real tracer with
        #: :meth:`attach_obs` to trace queries end-to-end.
        self.obs = NULL_TRACER

    def attach_obs(self, tracer) -> None:
        """Attach a span recorder to this endpoint; its queries execute
        under it, so ``endpoint.query`` spans nest the engine's spans."""
        self.obs = tracer

    def explain(self, text: str):
        """EXPLAIN ANALYZE *text* against the backing engine.

        Runs under a private tracer, charges no simulated latency and
        records nothing in ``stats`` -- a diagnostic read, not a query.
        Returns a :class:`~repro.obs.explain.ExplainReport`.
        """
        return self._engine.explain(text)

    def __repr__(self) -> str:
        return f"<SparqlEndpoint {self.url!r} profile={self.profile.name} triples={len(self.graph)}>"

    # -- querying -------------------------------------------------------------

    def query(self, text: str) -> Union[SelectResult, AskResult]:
        """Execute *text*, charging simulated latency to the clock.

        Raises :class:`EndpointUnavailable` when the availability model says
        the endpoint is down today, :class:`QueryRejected` for a malformed
        text or unsupported features, :class:`EndpointTimeout` when
        execution cost exceeds the profile's timeout.  SELECT results may
        come back *truncated* (``result.truncated`` set) at the row cap.

        Every path through here -- success or failure -- charges its clock
        advance through :meth:`_charge`, so ``stats.total_latency_ms``
        always equals the simulated time this endpoint consumed.  The
        serving tier's percentiles are derived from exactly that invariant.
        """
        obs = self.obs
        if not obs.enabled:
            return self._query(text)
        with obs.span("endpoint.query", url=self.url, profile=self.profile.name):
            return self._query(text)

    def _query(self, text: str) -> Union[SelectResult, AskResult]:
        self.stats.queries += 1
        if not self.availability.is_available(self.clock.today):
            # A dead endpoint still costs a connect attempt before failing.
            self._charge(self._jitter(self.profile.connect_ms * 2.0))
            self.stats.failures += 1
            raise EndpointUnavailable(f"endpoint {self.url} is unavailable", url=self.url)

        try:
            parsed = parse_query(text)
        except SparqlSyntaxError as error:
            raise self._reject(f"a malformed query: {error}") from error

        if not self.profile.supports_property_paths and _contains_path(parsed):
            raise self._reject("property paths")
        if isinstance(parsed, SelectQuery):
            if parsed.has_aggregates() and not self.profile.supports_aggregates:
                raise self._reject("aggregates")
            if parsed.order_by and not self.profile.supports_order_by:
                raise self._reject("ORDER BY")

        execution = self._engine.execute(parsed, self.obs)
        self.stats.join_rows += execution.stats.get("join_rows", 0)
        result = execution.result
        latency = self._estimate_latency(parsed, result)
        deadline_ms = self.profile.timeout_ms
        if latency > deadline_ms:
            # The server kills the query at its timeout; the wire still
            # sees the same dispersion as any other response, so the
            # deadline is jittered like every other charge.
            self._charge(self._jitter(deadline_ms))
            self.stats.timeouts += 1
            if self.obs.enabled:
                self.obs.note(outcome="timeout", deadline_ms=round(deadline_ms, 6))
            raise EndpointTimeout(
                f"endpoint {self.url} timed out after {deadline_ms:.0f} ms",
                url=self.url,
            )
        self._charge(latency)
        if self.obs.enabled:
            self.obs.note(outcome="ok", latency_ms=round(latency, 6))

        if isinstance(result, SelectResult):
            cap = self.profile.max_result_rows
            if cap is not None and len(result.rows) > cap:
                self.stats.truncated += 1
                return SelectResult(result.variables, result.rows[:cap], truncated=True)
        return result

    def _reject(self, what: str) -> QueryRejected:
        """The error refusing a query this endpoint will not run, charged
        (a jittered connect) and counted like every rejection."""
        self._charge(self._jitter(self.profile.connect_ms))
        self.stats.rejected += 1
        return QueryRejected(
            f"endpoint {self.url} ({self.profile.name}) rejects {what}", url=self.url
        )

    def _charge(self, latency_ms: float) -> None:
        """Advance the clock *and* account the time -- never one without
        the other.  ``stats.total_latency_ms == clock delta`` is the
        invariant the serving tier's latency percentiles rest on; failure
        paths (unavailable, rejected, timed out) consume simulated time
        like any other response and must show up in the mean."""
        self.clock.advance(latency_ms)
        self.stats.total_latency_ms += latency_ms

    def _estimate_latency(self, parsed, result) -> float:
        profile = self.profile
        latency = profile.connect_ms + profile.parse_ms
        pattern_count = _count_patterns(parsed)
        latency += pattern_count * profile.per_pattern_ms
        # Execution cost grows with dataset size (index lookups aren't free)
        # and with the result cardinality.
        latency += len(self.graph) * 0.0004
        if isinstance(result, SelectResult):
            latency += len(result.rows) * profile.per_solution_ms
        if isinstance(parsed, SelectQuery) and parsed.has_aggregates():
            latency += profile.aggregate_overhead_ms
        return self._jitter(latency)

    def _jitter(self, value: float) -> float:
        spread = self.profile.jitter
        return value * (1.0 + self._rng.uniform(-spread, spread))

    # -- test/bench helpers ------------------------------------------------------

    def triple_count(self) -> int:
        return len(self.graph)


def _exists_groups(expression):
    """Yield the group of every ``EXISTS``/``NOT EXISTS`` inside *expression*.

    ``FILTER EXISTS { ... }`` embeds a full graph pattern in expression
    position; anything that walks a query's patterns (feature detection,
    pattern counting) must descend through here or a profile check can be
    smuggled past inside a filter.  Walks every Expression slot, including
    lists (function arguments, IN choices) and nested EXISTS.
    """
    if isinstance(expression, ExistsExpression):
        yield expression.group
        return
    for slot in expression.__slots__:
        value = getattr(expression, slot)
        if isinstance(value, Expression):
            yield from _exists_groups(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Expression):
                    yield from _exists_groups(item)


def _triple_patterns(group: GroupPattern):
    """Yield every triple pattern of *group*, at any nesting: OPTIONAL,
    UNION alternatives, nested groups and the groups of FILTER
    ``EXISTS``/``NOT EXISTS`` (VALUES holds none).  A module function,
    not a closure: a recursive closure is a reference cycle per call."""
    for element in group.elements:
        if isinstance(element, TriplePattern):
            yield element
        elif isinstance(element, OptionalPattern):
            yield from _triple_patterns(element.group)
        elif isinstance(element, UnionPattern):
            for alternative in element.alternatives:
                yield from _triple_patterns(alternative)
        elif isinstance(element, GroupPattern):
            yield from _triple_patterns(element)
        elif isinstance(element, FilterPattern):
            for exists_group in _exists_groups(element.expression):
                yield from _triple_patterns(exists_group)


def _contains_path(parsed) -> bool:
    """Does the query use a SPARQL 1.1 property path in any pattern?

    Descends into FILTER ``EXISTS``/``NOT EXISTS`` groups too: a path
    hidden inside an EXISTS still executes on the endpoint, so a profile
    that rejects paths must reject it.
    """
    if isinstance(parsed, (SelectQuery, AskQuery)):
        return any(is_path(p.predicate) for p in _triple_patterns(parsed.where))
    return False


def _count_patterns(parsed) -> int:
    """Rough BGP size: triple patterns in the WHERE clause (any nesting,
    including the groups of FILTER ``EXISTS``/``NOT EXISTS`` -- those
    patterns execute per candidate solution, so the latency model must
    see them)."""
    if isinstance(parsed, (SelectQuery, AskQuery)):
        return sum(1 for _ in _triple_patterns(parsed.where))
    return 1
