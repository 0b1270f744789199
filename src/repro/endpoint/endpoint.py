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
from ..sparql.evaluator import QueryEngine
from ..sparql.nodes import AskQuery, SelectQuery
from ..sparql.parser import parse_query
from ..sparql.results import AskResult, SelectResult
from .availability import AlwaysAvailable, AvailabilityModel
from .clock import SimulationClock
from .errors import EndpointTimeout, EndpointUnavailable, QueryRejected
from .profiles import EndpointProfile, PROFILES

__all__ = ["SparqlEndpoint"]


class EndpointStats:
    """Counters the benchmarks read off each endpoint."""

    __slots__ = ("queries", "failures", "timeouts", "rejected", "truncated", "total_latency_ms")

    def __init__(self):
        self.queries = 0
        self.failures = 0
        self.timeouts = 0
        self.rejected = 0
        self.truncated = 0
        self.total_latency_ms = 0.0


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
        shards: Optional[int] = None,
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if shards is not None and not getattr(graph, "is_sharded", False):
            # The intra-endpoint parallelism knob: host this endpoint's
            # dataset on a subject-hash-sharded store so spanning scans
            # run partition-parallel (and the latency model below charges
            # the per-shard makespan instead of the sequential scan).
            from ..rdf.sharding import ShardedTripleStore

            graph = ShardedTripleStore.from_graph(graph, shards)
        self.url = url
        self.graph = graph
        self.clock = clock
        self.profile = profile
        self.availability = availability or AlwaysAvailable()
        self.title = title or url
        #: BGP pipeline of the backing engine: "hash" (dictionary-encoded
        #: hash joins, the default), "stream" (lazy volcano pipeline) or
        #: "scan" (legacy nested-loop joins).
        self.strategy = strategy
        self._engine = QueryEngine(graph, strategy=strategy)
        digest = hashlib.sha256(f"{seed}:{url}:latency".encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.stats = EndpointStats()
        #: span recorder (``repro.obs``); attach a real tracer with
        #: :meth:`attach_obs` to trace queries end-to-end.
        self.obs = NULL_TRACER

    def attach_obs(self, tracer) -> None:
        """Attach a span recorder to this endpoint *and* its engine, so
        ``endpoint.query`` spans nest the engine's operator spans."""
        self.obs = tracer
        self._engine.obs = tracer

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

    def query(
        self,
        text: str,
        *,
        latency_scale: float = 1.0,
        timeout_scale: float = 1.0,
    ) -> Union[SelectResult, AskResult]:
        """Execute *text*, charging simulated latency to the clock.

        Raises :class:`EndpointUnavailable` when the availability model says
        the endpoint is down today, :class:`QueryRejected` for unsupported
        features, :class:`EndpointTimeout` when execution cost exceeds the
        profile's timeout.  SELECT results may come back *truncated* (with
        ``result.truncated`` set) when the profile caps result rows.

        *latency_scale* multiplies the execution-cost term of the latency
        model (>= 1 models a degraded backend: an overloaded shard, a cold
        cache, a noisy neighbour) and *timeout_scale* scales the profile's
        server-side deadline (< 1 models a timeout-rate spike).  Both are
        fault-injection hooks -- the serving tier's
        :class:`~repro.serving.faults.FaultInjector` drives them from its
        seeded timeline; direct callers leave them at 1.0.  A slowdown can
        push a query over the (possibly shrunk) deadline, so injected
        latency naturally turns into real timeouts.

        Every path through here -- success or failure -- charges its clock
        advance through :meth:`_charge`, so ``stats.total_latency_ms``
        always equals the simulated time this endpoint consumed.  The
        serving tier's percentiles are derived from exactly that invariant.
        """
        obs = self.obs
        if not obs.enabled:
            return self._query(text, latency_scale, timeout_scale)
        with obs.span("endpoint.query", url=self.url, profile=self.profile.name):
            return self._query(text, latency_scale, timeout_scale)

    def _query(
        self,
        text: str,
        latency_scale: float,
        timeout_scale: float,
    ) -> Union[SelectResult, AskResult]:
        self.stats.queries += 1
        if not self.availability.is_available(self.clock.today):
            # A dead endpoint still costs a connect attempt before failing.
            self._charge(self._jitter(self.profile.connect_ms * 2.0))
            self.stats.failures += 1
            raise EndpointUnavailable(f"endpoint {self.url} is unavailable", url=self.url)

        parsed = parse_query(text)

        if not self.profile.supports_property_paths and _contains_path(parsed):
            self._charge(self._jitter(self.profile.connect_ms))
            self.stats.rejected += 1
            raise QueryRejected(
                f"endpoint {self.url} ({self.profile.name}) rejects property paths",
                url=self.url,
            )

        if isinstance(parsed, SelectQuery):
            if parsed.has_aggregates() and not self.profile.supports_aggregates:
                self._charge(self._jitter(self.profile.connect_ms))
                self.stats.rejected += 1
                raise QueryRejected(
                    f"endpoint {self.url} ({self.profile.name}) rejects aggregates",
                    url=self.url,
                )
            if parsed.order_by and not self.profile.supports_order_by:
                self._charge(self._jitter(self.profile.connect_ms))
                self.stats.rejected += 1
                raise QueryRejected(
                    f"endpoint {self.url} ({self.profile.name}) rejects ORDER BY",
                    url=self.url,
                )

        result = self._engine.run(parsed)
        # Snapshot the engine's per-query stats right here: exec_stats is
        # reset by run(), but _estimate_latency must never read it off the
        # shared engine later (a caller that skips execution -- e.g. the
        # serving tier's result cache -- would see the previous query's
        # shard timing ratio).
        exec_stats = self._engine.exec_stats_snapshot()

        latency = self._estimate_latency(parsed, result, exec_stats, latency_scale)
        deadline_ms = self.profile.timeout_ms * timeout_scale
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

        capped = self._capped(result)
        if capped is not result:
            self.stats.truncated += 1
        return capped

    def _capped(self, result):
        """*result* cut to the profile's row cap (``truncated`` set), or
        *result* itself when it fits.  Every read that answers for this
        endpoint -- :meth:`query` and the serving tier's replica read --
        goes through here, so they return the same rows."""
        if isinstance(result, SelectResult):
            cap = self.profile.max_result_rows
            if cap is not None and len(result.rows) > cap:
                return SelectResult(result.variables, result.rows[:cap], truncated=True)
        return result

    def _charge(self, latency_ms: float) -> None:
        """Advance the clock *and* account the time -- never one without
        the other.  ``stats.total_latency_ms == clock delta`` is the
        invariant the serving tier's latency percentiles rest on; failure
        paths (unavailable, rejected, timed out) consume simulated time
        like any other response and must show up in the mean."""
        self.clock.advance(latency_ms)
        self.stats.total_latency_ms += latency_ms

    def _estimate_latency(self, parsed, result, exec_stats, latency_scale: float = 1.0) -> float:
        profile = self.profile
        latency = profile.connect_ms + profile.parse_ms
        pattern_count = _count_patterns(parsed)
        latency += pattern_count * profile.per_pattern_ms
        # Execution cost grows with dataset size (index lookups aren't free)
        # and with the result cardinality.  latency_scale is the injected
        # backend-slowdown multiplier; it applies to execution only (the
        # connect handshake and response marshalling are unaffected by a
        # struggling shard).
        execution = len(self.graph) * 0.0004 * latency_scale
        if getattr(self.graph, "is_sharded", False):
            # Partition-parallel execution: scale the dataset-size term by
            # what this query actually measured on the shard pool (makespan
            # over sequential sum); a query that ran no spanning scan pays
            # the static max-shard-share bound instead.  *exec_stats* is
            # the snapshot taken immediately after this query's run() --
            # passed explicitly so a stale engine read can never leak one
            # query's shard ratio into another's estimate.
            sequential = exec_stats.get("shard_sequential_ms", 0.0)
            if sequential > 0.0:
                execution *= exec_stats.get("shard_parallel_ms", sequential) / sequential
            else:
                execution *= self.graph.parallel_factor()
        latency += execution
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
    from ..sparql.nodes import Expression, ExistsExpression

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


def _contains_path(parsed) -> bool:
    """Does the query use a SPARQL 1.1 property path in any pattern?

    Descends into FILTER ``EXISTS``/``NOT EXISTS`` groups too: a path
    hidden inside an EXISTS still executes on the endpoint, so a profile
    that rejects paths must reject it.
    """
    from ..sparql.nodes import (
        FilterPattern,
        GroupPattern,
        OptionalPattern,
        TriplePattern,
        UnionPattern,
    )
    from ..sparql.paths import is_path

    def walk(group: GroupPattern) -> bool:
        for element in group.elements:
            if isinstance(element, TriplePattern) and is_path(element.predicate):
                return True
            if isinstance(element, OptionalPattern) and walk(element.group):
                return True
            if isinstance(element, UnionPattern) and any(
                walk(alt) for alt in element.alternatives
            ):
                return True
            if isinstance(element, GroupPattern) and walk(element):
                return True
            if isinstance(element, FilterPattern) and any(
                walk(group) for group in _exists_groups(element.expression)
            ):
                return True
        return False

    if isinstance(parsed, (SelectQuery, AskQuery)):
        return walk(parsed.where)
    return False


def _count_patterns(parsed) -> int:
    """Rough BGP size: triple patterns in the WHERE clause (any nesting,
    including the groups of FILTER ``EXISTS``/``NOT EXISTS`` -- those
    patterns execute per candidate solution, so the latency model must
    see them)."""
    from ..sparql.nodes import (
        FilterPattern,
        GroupPattern,
        OptionalPattern,
        TriplePattern,
        UnionPattern,
        ValuesPattern,
    )

    def count_group(group: GroupPattern) -> int:
        total = 0
        for element in group.elements:
            if isinstance(element, TriplePattern):
                total += 1
            elif isinstance(element, OptionalPattern):
                total += count_group(element.group)
            elif isinstance(element, UnionPattern):
                total += sum(count_group(alt) for alt in element.alternatives)
            elif isinstance(element, GroupPattern):
                total += count_group(element)
            elif isinstance(element, FilterPattern):
                total += sum(
                    count_group(exists_group)
                    for exists_group in _exists_groups(element.expression)
                )
            elif isinstance(element, ValuesPattern):
                total += 0
        return total

    if isinstance(parsed, (SelectQuery, AskQuery)):
        return count_group(parsed.where)
    return 1
