"""Query evaluation over a :class:`~repro.rdf.graph.Graph`.

The evaluator walks the AST directly (no separate algebra IR -- the subset
is small enough that the classic textbook pipeline would only add plumbing):

1. group graph patterns produce streams of solutions (dicts Variable->Term),
2. BGPs run through a dictionary-encoded join pipeline: every pattern is
   compiled to integer IDs, patterns are ordered greedily by estimated
   cardinality (exact index counts over the ID indexes), and each join step
   picks between a hash join on the shared variables (scan once, build a
   table, probe every intermediate row) and an index nested-loop join
   (per-row index lookups) based on which side is smaller.  Intermediate
   solutions are flat ID tuples; terms are decoded only when the BGP hands
   its solutions back to the group pipeline,
3. OPTIONAL is a left join, UNION a concatenation, FILTER a predicate with
   SPARQL error semantics, VALUES an inline join,
4. aggregation groups solutions and folds aggregates,
5. solution modifiers (ORDER/DISTINCT/OFFSET/LIMIT) apply last, in the order
   the SPARQL spec defines.

Two BGP pipelines sit behind ``QueryEngine(graph, strategy=...)``:

* ``"hash"`` (default) -- the eager dictionary-encoded hash-join pipeline
  above for a BGP that opens its group (its input the one empty
  solution) and holds no property path -- any other BGP, bound by earlier
  solutions or holding a path, runs ``scan``'s loop -- plus a lazy chain
  of ID rows over a simple WHERE clause
  (:meth:`Execution._stream_id_rows`: a pattern scan, then an index walk
  from each row per further pattern and the term-test FILTERs, as
  generators, so a consumer pulls exactly as much of the join as it
  needs).  The chain feeds ASK, which stops at its first witness, and
  the select sink's small pages; either over any other WHERE clause
  runs the eager group pipeline.
* ``"scan"`` -- the legacy substitute-and-scan nested-loop join kept as
  the conformance oracle; the suite runs every query through both
  pipelines and asserts identical solutions.  A property path is
  evaluated at the term level (``paths.evaluate_path``) on either.

A hash SELECT takes one of two routes (:meth:`Execution._run_select`):

1. over a *simple* WHERE clause -- plain triple patterns plus
   one-variable term-test FILTERs (:meth:`Execution._simple_where_shape`),
   whose rows are pure ID tuples, every variable bound in every row -- a
   plain page (bare-variable projections or ``SELECT *`` with DISTINCT /
   OFFSET / LIMIT and no ORDER BY) or a pure-COUNT aggregation over
   pattern variables, with no HAVING or DISTINCT and sorted (if at all)
   by bare output columns, runs the columnar executor;
2. anything else -- any other WHERE clause (OPTIONAL, UNION, VALUES, a
   property path, another FILTER), a HAVING, an ORDER BY over solutions,
   any other aggregate, an expression projection or sort key -- runs the
   general term-space path (:meth:`Execution._run_select_general`), which
   ``scan`` runs for every SELECT.

The columnar executor (:meth:`Execution._run_select_columnar`) is a source
of ID rows, pulled lazily, feeding one of two sinks -- projection/DISTINCT/
slice (``select-id``), which reads no row past its page, or COUNT per group
(``aggregate-id``).  Every cell is an ID, and only the emitted page is
decoded; the groups are ordered and sliced as IDs and counts
(:meth:`Execution._id_modifiers`, which keys only the groups a cut to the
page has to compare, an ID's key read from the dictionary's kept table --
``TermDict.sort_keys``).  A ``LIMIT`` <= ``STREAM_DELEGATE_LIMIT`` page
with no DISTINCT and no ``SELECT *`` reads the lazy chain, whatever its
patterns.  Otherwise a single pattern reads its rows off the index
(:meth:`Graph.scan_rows`, cut to the positions an operator above reads --
:meth:`Execution._wanted_variables`; an index level's keys and run lengths
when a COUNT GROUP BY or DISTINCT needs no more -- :meth:`Graph.scan_runs`)
or, under term-test FILTERs, off the lazy chain; several patterns run the
eager join (and, under a DISTINCT or a pure-COUNT GROUP BY, take the keys
its last step folded -- :meth:`Execution._fold_step`).  The count sink's
one columnar input is its groups -- key columns and counts -- which only
runs and a folded join's keys make.  The eager join
(:meth:`Execution._bgp_id_rows`) plans its order once and takes the
FILTERs and the wanted variables down: a candidate is tested where its
variable is bound, gated by the next pattern's probe table, and built
without the columns nothing later reads.

Compiled plans (encoded patterns + cardinality estimates) live in a
:class:`_SharedPlanCache` attached to the *graph* (one per graph, shared
by every engine over it, however short-lived), keyed by AST node identity
and validated against the graph's mutation ``generation``; together with
the parser's AST LRU this means a repeated query string skips tokenizing,
parsing, pattern encoding and estimation entirely -- on any engine.
"""

from __future__ import annotations

import copy
import heapq
import sys
from bisect import bisect_left
from collections import Counter, OrderedDict
from functools import reduce as _reduce
from itertools import accumulate as _accumulate
from itertools import compress
from itertools import count as _count
from itertools import islice as _islice
from operator import add, itemgetter, methodcaller
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..obs.trace import NULL_TRACER
from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal, Term, Variable
from .errors import SparqlEvaluationError
from .functions import (
    ExpressionError,
    Solution,
    effective_boolean_value,
    evaluate_expression,
)
from .nodes import (
    Aggregate,
    AskQuery,
    ExistsExpression,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    TermExpression,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VariableExpression,
    contains_aggregate,
)
from . import join_plan
from .join_plan import JoinStep, Memo, count_up_to, join_order, picker, settled
from .parser import parse_query
from .paths import evaluate_path, is_path
from .results import AskResult, Row, SelectResult

__all__ = ["evaluate", "Execution", "QueryEngine"]


def _substitute(pattern: TriplePattern, solution: Solution) -> Tuple:
    """Resolve pattern positions against *solution*; variables stay None."""

    def resolve(term):
        if isinstance(term, Variable):
            return solution.get(term)
        if isinstance(term, BNode):
            # Blank nodes in query patterns act as non-selectable variables.
            return None
        return term

    return resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object)


def _kind_table(*kinds: int) -> bytes:
    """A ``bytes.translate`` table: 1 at each of *kinds*, 0 elsewhere."""
    table = bytearray(256)
    for kind in kinds:
        table[kind] = 1
    return bytes(table)


#: Term-kind tests the fast SELECT path can run without the expression
#: interpreter.  Keys are upper-cased builtin names; each maps a term's
#: ``KIND`` code (``TermDict.kinds``) to the 0 / 1 the builtin (plus EBV)
#: would produce, so no ID is decoded to test it.
_TERM_TESTS = {
    "ISLITERAL": _kind_table(Literal.KIND),
    "ISIRI": _kind_table(IRI.KIND),
    "ISURI": _kind_table(IRI.KIND),
    "ISBLANK": _kind_table(BNode.KIND),
    "BOUND": _kind_table(IRI.KIND, BNode.KIND, Literal.KIND),
}


def _triples_to_scan_rows(triples, positions):
    """ID triples -> scan rows, one value per pattern variable.

    ``positions`` holds each variable's triple positions; variables that
    occur at several positions must match the same ID or the triple is
    dropped.  Shared by the full-scan and per-row lookup paths so repeated
    -variable semantics cannot diverge between them.  When no variable
    repeats (every extraction pattern) the projection runs at C speed.
    """
    if all(len(var_positions) == 1 for var_positions in positions):
        picks = [var_positions[0] for var_positions in positions]
        if len(picks) > 1:
            return map(itemgetter(*picks), triples)
        if picks:  # itemgetter(i) alone would yield bare values, not 1-tuples
            pick = picks[0]
            return ((triple[pick],) for triple in triples)
        return (() for _triple in triples)
    return _repeated_variable_scan_rows(triples, positions)


def _repeated_variable_scan_rows(triples, positions):
    for triple in triples:
        srow = []
        for var_positions in positions:
            value = triple[var_positions[0]]
            if len(var_positions) > 1 and any(
                triple[extra] != value for extra in var_positions[1:]
            ):
                srow = None
                break
            srow.append(value)
        if srow is not None:
            yield tuple(srow)


#: Extractors for the INLJ fast path: new-variable positions (ascending) ->
#: a function picking those positions out of a matched (s, p, o) ID triple.
_ROW_EXTRACTORS = {
    (): lambda s, p, o: (),
    (0,): lambda s, p, o: (s,),
    (1,): lambda s, p, o: (p,),
    (2,): lambda s, p, o: (o,),
    (0, 1): lambda s, p, o: (s, p),
    (0, 2): lambda s, p, o: (s, o),
    (1, 2): lambda s, p, o: (p, o),
    (0, 1, 2): lambda s, p, o: (s, p, o),
}


def _passing(rows: Iterator[Tuple], column: int, check) -> Iterator[Tuple]:
    """The *rows* whose *column* passes *check* (an ``id -> 0 / 1`` verdict),
    lazily."""
    for row in rows:
        if check(row[column]):
            yield row


def _first_keys(keys: Dict[Tuple, None], cap: Optional[int]) -> Dict[Tuple, None]:
    """The first *cap* of *keys* (all of them when *cap* is None)."""
    if cap is None or len(keys) <= cap:
        return keys
    return dict.fromkeys(_islice(keys, cap))


def _simple_filter(expression: Expression):
    """``(kind table, variable)`` for one-variable term-test filters, else
    None (tables: :data:`_TERM_TESTS`)."""
    if (
        isinstance(expression, FunctionCall)
        and len(expression.args) == 1
        and isinstance(expression.args[0], VariableExpression)
    ):
        test = _TERM_TESTS.get(expression.name)
        if test is not None:
            return test, expression.args[0].variable
    return None


def _fold(aggregate: Aggregate, values: List[Term]) -> Optional[Term]:
    """*aggregate* over one group's *values* (ground terms in solution
    order, deduplicated under DISTINCT), or None when it has no result.
    MIN keeps the first of equal sort keys, MAX the last."""
    function = aggregate.function
    if function == "COUNT":
        return Literal(len(values))
    if function in ("SUM", "AVG"):
        numbers = []
        for value in values:
            if isinstance(value, Literal):
                number = value.numeric_value()
                if number is None:
                    try:
                        number = float(value.lexical)
                    except ValueError:
                        continue
                numbers.append(number)
        # a left fold from the int 0: ``sum`` compensates float error
        # from Python 3.12 on
        total = _reduce(add, numbers, 0)
        if function == "SUM":
            return Literal(_integral(total))
        return Literal(_integral(total / len(numbers))) if numbers else None
    if function in ("MIN", "MAX"):
        if not values:
            return None
        key = methodcaller("sort_key")  # ``Term.sort_key`` is the base method
        if function == "MIN":
            return min(values, key=key)
        return max(reversed(values), key=key)
    if function == "SAMPLE":
        return values[0] if values else None
    if function == "GROUP_CONCAT":
        return Literal(aggregate.separator.join(
            value.lexical if isinstance(value, Literal)
            else value.value if isinstance(value, IRI) else str(value)
            for value in values
        ))
    raise SparqlEvaluationError(f"unhandled aggregate {function}")


def _integral(number):
    """A SUM / AVG total as the fold reports it: an int when it is a whole
    number, else a float -- a non-finite one (INF, NaN) stays a float."""
    if isinstance(number, float) and not number.is_integer():
        return number
    return int(number)


def _sort_key_column(values, memo: Dict, key_of) -> List:
    """One ORDER BY condition's keys for a column of ID-space cells.

    A cell's key orders as its term's ``sort_key()`` -- the order
    :meth:`Execution._order_key` defines.  *key_of* maps one cell to its
    key (an ID's key kept beside the dictionary, ``TermDict.sort_keys``;
    ``int`` for a COUNT, whose key is the count itself).  It runs once per
    distinct cell, on *memo* misses only, in one ``map``.  The memo is the
    execution's own, so its size (``sort_keys``) counts the distinct cells
    that execution compared, however warm the kept keys are.
    """
    missing = set(values).difference(memo)
    if missing:
        memo.update(zip(missing, map(key_of, missing)))
    return list(map(memo.__getitem__, values))


def _first_in_order(columns, indices: List[int], room, conditions, memos, level=0):
    """The *room* first of the rows *indices* in ORDER BY order, unordered.

    *indices* ascend (row sequence) and tie on every condition before
    *level*.  Lazy, left to right: this condition's keys settle every row
    but those tying with the ``room``-th best key; only they get the next
    condition's keys, and after the last condition the earliest rows win.
    The bound is the ``room``-th row's key: a heap takes the ``room`` best
    distinct cells and their multiplicities, summed in order, find it.
    """
    if len(indices) <= room:
        return indices
    if level == len(conditions) or not room:
        return indices[:room]
    column, descending, key_of = conditions[level]
    cells = columns[column]
    if len(indices) < len(cells):  # else *indices* is every row
        cells = list(map(cells.__getitem__, indices))
    tally = Counter(cells)
    keys = _sort_key_column(tally, memos[level], key_of)  # one per distinct cell
    key = memos[level].__getitem__
    best = (heapq.nlargest if descending else heapq.nsmallest)(room, tally, key=key)
    bound = key(best[bisect_left(list(_accumulate(map(tally.__getitem__, best))), room)])
    better = set(compress(tally, map(bound.__lt__ if descending else bound.__gt__, keys)))
    tied = set(compress(tally, map(bound.__eq__, keys)))
    first = list(compress(indices, map(better.__contains__, cells))) if better else []
    ties = list(compress(indices, map(tied.__contains__, cells)))
    return first + _first_in_order(columns, ties, room - len(first), conditions, memos, level + 1)


def _may_pass(pos, ok_p, ok_o, rows: int):
    """``predicate ID -> may a triple of it pass``: *ok_p* holds for the
    predicate and, when *pos* (the graph's POS index; None on a sharded
    graph, where only *ok_p* is read) is given, some object of it anywhere
    passes *ok_o*.  Each predicate is tested once; one with more than
    *rows* objects is taken to pass untested, so no test reads more keys
    than the step has input rows.  A ``?s ?p ?o`` step with ``?s`` bound
    skips a failing predicate's leaf unread."""
    return Memo(
        lambda pred: (ok_p is None or ok_p(pred))
        and (
            ok_o is None or pos is None or len(pos[pred]) > rows or any(map(ok_o, pos[pred]))
        )
    ).__getitem__


class _EncodedPattern:
    """One triple pattern compiled to dictionary-ID space.

    ``spec`` holds one entry per position (subject, predicate, object):

    * ``int``          -- a ground term's dictionary ID,
    * :class:`Variable`-- a query variable,
    * ``None``         -- a wildcard (a blank node in the pattern), or a
      ground term the dictionary lacks, which makes the pattern
      ``impossible``.

    Property paths are never compiled: a BGP holding one runs the
    term-level substitute-and-scan loop.
    """

    __slots__ = ("index", "spec", "variables", "names", "var_positions", "impossible", "est")

    def __init__(self, index: int, pattern: TriplePattern, graph: Graph):
        self.index = index
        self.impossible = False
        self.variables: List[Variable] = []
        self.var_positions: Dict[Variable, List[int]] = {}
        spec: List = []
        positions = (pattern.subject, pattern.predicate, pattern.object)
        for position, term in enumerate(positions):
            if isinstance(term, Variable):
                spec.append(term)
                if term not in self.var_positions:
                    self.var_positions[term] = []
                    self.variables.append(term)
                self.var_positions[term].append(position)
            elif isinstance(term, BNode):
                spec.append(None)
            else:
                term_id = graph.lookup_id(term)
                if term_id is None:
                    self.impossible = True
                spec.append(term_id)
        self.spec = tuple(spec)
        #: the variables' names: what planning tests membership on (a
        #: ``str`` hashes and compares in C, a ``Variable`` in Python)
        self.names = frozenset(variable.name for variable in self.variables)
        self.est = self._estimate(graph)

    def _estimate(self, graph: Graph) -> float:
        """Scan cardinality with only the ground positions bound."""
        if self.impossible:
            return 0.0
        s, p, o = (v if type(v) is int else None for v in self.spec)
        return float(graph.count_ids(s, p, o))


class _GenerationLRU:
    """An LRU of values derived from one graph's content.

    The rules both per-graph engine caches follow: every engine over the
    graph reads and fills the one instance on ``Graph.derived_cache``;
    entries are valid for one ``graph.generation`` -- a content-changing
    write drops them all on the next lookup, a no-op write drops none --
    and the least recently used entry goes first.  Each subclass names its
    bound as a ``*_CACHE_SIZE`` attribute.
    """

    __slots__ = ("_entries", "_capacity", "_generation", "hits", "misses")

    def __init__(self, capacity: int):
        self._entries: OrderedDict = OrderedDict()
        self._capacity = capacity
        self._generation: Optional[int] = None
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, int]:
        """Hit/miss/size counters and the generation the entries belong to."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "generation": self._generation if self._generation is not None else -1,
        }

    def lookup(self, graph: Graph, key: Tuple, make) -> Tuple[object, bool]:
        """``(value, cached)``: the entry under *key*, from ``make()`` when
        this generation of *graph* has not made it yet."""
        generation = graph.generation
        if generation != self._generation:
            self._entries.clear()
            self._generation = generation
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            self.hits += 1
            return value, True
        self.misses += 1
        value = entries[key] = make()
        if len(entries) > self._capacity:
            entries.popitem(last=False)
        return value, False


class _SharedPlanCache(_GenerationLRU):
    """The compiled-plan cache shared by every engine of one graph.

    Lives on the graph (``Graph.derived_cache("sparql/plans", ...)``), so
    transient engines -- :func:`evaluate` one-shots, fresh endpoints
    wrapping an existing graph, exploration helpers -- reuse the plans a
    long-lived engine already paid for.  A repeated query *text* lands on
    the same entry regardless of which engine runs it: the parser AST LRU
    maps the text to one AST object and the cache keys on the identity of
    that AST's pattern nodes.  Only ``hash`` compiles patterns (``scan``
    substitutes and scans terms), so only its engines fill and read it.

    Keys are object identities, safe because the value holds a strong
    reference to the very pattern objects the ids name -- a live id can
    never be reused by a different object.

    An entry is ``(patterns, encoded patterns, join plans)``: the last maps
    each way the eager join was asked for -- its FILTERs' variables and the
    variables read above it -- to
    :func:`~repro.sparql.join_plan.plan_join`'s output, so a repeated join
    is planned once per generation.  A plan holds no table and no verdict
    (those are bound per execution: :func:`~repro.sparql.join_plan.bind`).
    """

    #: entries kept per graph
    PLAN_CACHE_SIZE = 256

    __slots__ = ()

    def __init__(self):
        super().__init__(self.PLAN_CACHE_SIZE)

    def compile(
        self, graph: Graph, patterns: Sequence[TriplePattern]
    ) -> List[_EncodedPattern]:
        """Encode *patterns* to ID space, memoized until the graph mutates.

        Pattern encoding walks the dictionary for every ground term and
        estimates scan cardinality from the indexes; both depend only on
        (pattern, graph content), so the result is reusable until
        ``graph.generation`` changes -- the cheap invalidation rule that
        makes it safe to hold plans across the fleet's repeated templated
        queries.
        """
        return self.entry(graph, patterns)[1]

    def entry(self, graph: Graph, patterns: Sequence[TriplePattern]) -> Tuple:
        """``(patterns, encoded patterns, join plans)`` for *patterns* in
        this generation of *graph* (see :meth:`compile`)."""
        entry, _ = self.lookup(
            graph,
            tuple(map(id, patterns)),
            lambda: (
                tuple(patterns),
                [
                    _EncodedPattern(index, pattern, graph)
                    for index, pattern in enumerate(patterns)
                ],
                {},
            ),
        )
        return entry


class _SharedProbeCache(_GenerationLRU):
    """The hash-join build tables shared by every engine of one graph.

    Lives on the graph (``Graph.derived_cache("sparql/probe-tables", ...)``)
    beside the plan cache.  A table is a pure function of its key -- the
    pattern's ground IDs (variables and wildcards as None), each variable's
    triple positions, and which scan-row positions form the bucket key and
    the payload -- so a fleet that asks one endpoint the same join for
    every class (``?o a ?target`` under index extraction) builds its table
    once, and a re-indexing pass over an unchanged graph builds nothing.
    It helps only such a repeated build side; a first pass pays every
    build.  Tables are shared read-only: callers only ``get`` from them.
    """

    #: tables kept per graph.  Measured on the 110-endpoint census after
    #: one round: one live table on 107 graphs, two on 3; 89,795 buckets
    #: (89,384 of one row) holding 90,937 rows, about 12 MB in all.
    PROBE_CACHE_SIZE = 4

    __slots__ = ()

    def __init__(self):
        super().__init__(self.PROBE_CACHE_SIZE)


#: The documented vocabulary of ``Execution.stats``.  Every engine write
#: site uses exactly these snake_case keys (pinned by
#: ``tests/obs/test_explain.py``); EXPLAIN and the ``sparql.run`` span read
#: them off the query's execution.
EXEC_STAT_KEYS = frozenset(
    {
        # sink counters.  ``operator`` names the route that produced the
        # result: ``select-id`` / ``aggregate-id`` (the columnar sinks),
        # ``general`` (rule 2, and every ``scan`` SELECT) or ``ask``
        "operator",
        "input_rows",       # rows consumed by that operator; a sink fed
                            # runs or a folded join's keys: the keys it read
        "tracked_rows",     # ``aggregate-id``: the groups it held (memory
                            # contract)
        "distinct_keys",    # ``select-id``: DISTINCT seen-set size
        "scan_cells",       # rows x wanted positions a single-pattern
                            # scan handed its sink (``Graph.scan_rows``;
                            # a repeated variable: triples read x 3), or
                            # one cell per run read (``Graph.scan_runs``)
        "sort_keys",        # ORDER BY keys the ID-space tail keyed: one
                            # per distinct cell compared
        "join_rows",        # rows the eager join's steps built, summed
                            # over steps (and over the BGPs of the query)
        "decoded_rows",     # rows decoded at the result boundary;
                            # ``aggregate-id``: the page that survived
                            # ORDER BY / OFFSET / LIMIT, not the groups
    }
)


class QueryEngine:
    """Evaluates parsed queries against one graph.

    Instances are cheap; hold one per graph or just use :func:`evaluate`.
    ``strategy`` selects the BGP pipeline: ``"hash"`` (default) is the
    eager dictionary-encoded hash-join pipeline (a small-LIMIT page and
    ASK over a simple WHERE clause read its lazy ID chain), and
    ``"scan"`` the legacy substitute-and-scan nested-loop join kept for
    conformance A/B runs.

    Planning is amortized across *all* engines of a graph: compiled
    patterns live in a :class:`_SharedPlanCache` attached to the graph,
    keyed on AST identity and invalidated when ``graph.generation``
    moves, so even transient engines start warm.

    Each query runs as its own :class:`Execution`, so a query started
    while another runs on the same engine cannot touch the first one's.
    """

    #: the select sink reads a page off the lazy ID chain only when its
    #: LIMIT is at most this.  Small limits are where pushdown pays by
    #: construction; large limits are usually pagination pages, where the
    #: limit rarely binds and the eager ID-space join is faster.
    STREAM_DELEGATE_LIMIT = 64

    def __init__(self, graph: Graph, strategy: str = "hash"):
        if strategy not in ("hash", "scan"):
            raise ValueError(f"unknown BGP strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self._plans: _SharedPlanCache = graph.derived_cache(
            "sparql/plans", _SharedPlanCache
        )
        self._probes: _SharedProbeCache = graph.derived_cache(
            "sparql/probe-tables", _SharedProbeCache
        )

    # -- compiled-plan cache ---------------------------------------------------

    def plan_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the graph's shared plan cache."""
        return self._plans.info()

    def probe_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the graph's shared probe-table cache."""
        return self._probes.info()

    # -- public API -----------------------------------------------------------

    def run(self, query: Union[str, Query]) -> Union[SelectResult, AskResult]:
        return self.execute(query).result

    def execute(self, query: Union[str, Query], tracer=NULL_TRACER) -> "Execution":
        """Run *query* as one :class:`Execution`: its ``result``, its
        ``stats`` and the ``tracer`` its spans went to."""
        if isinstance(query, str):
            query = parse_query(query)
        execution = Execution(self, tracer)
        if not tracer.enabled:
            execution.result = execution._dispatch(query)
            return execution
        tracer.begin("sparql.run", strategy=self.strategy)
        try:
            execution.result = execution._dispatch(query)
        finally:
            # the run span carries the counters, so a trace is self-contained
            tracer.end(exec_stats=execution.stats)
        return execution

    def explain(self, query: Union[str, Query]) -> "ExplainReport":
        """EXPLAIN ANALYZE: execute *query* under a private tracer and
        return the annotated operator span tree (rows in/out, tracked
        state).  The tracer has no clock (the engine charges no latency
        -- rows matter, not time) and records the operator tier (the
        whole point here)."""
        from ..obs.explain import ExplainReport
        from ..obs.trace import Tracer

        execution = self.execute(query, Tracer(seed=0, detail=True))
        result, tracer = execution.result, execution.tracer
        return ExplainReport(
            query=query if isinstance(query, str) else "<parsed query>",
            strategy=self.strategy,
            rows=len(result.rows) if hasattr(result, "rows") else None,
            exec_stats=execution.stats,
            tracer=tracer,
            trace_id=tracer.trace_ids()[0],
        )


class Execution:
    """One query's run on a :class:`QueryEngine`.

    The engine keeps what lives as long as its graph (the plan and probe
    caches); an execution owns what one query produces: its ``result``,
    its ``stats`` (the ``EXEC_STAT_KEYS`` counters: rows the bounded
    operators consumed and held, cells the scans materialised, rows the
    joins built) and the ``tracer`` its spans go to (hot paths guard on
    ``tracer.enabled`` / ``.detail``: one attribute read when off).
    """

    def __init__(self, engine: QueryEngine, tracer=NULL_TRACER):
        self.engine = engine
        self.graph = engine.graph
        self.strategy = engine.strategy
        self.stats: Dict[str, int] = {}
        self.tracer = tracer
        self.result: Union[SelectResult, AskResult, None] = None

    def _compile_patterns(
        self, patterns: Sequence[TriplePattern]
    ) -> List[_EncodedPattern]:
        return self.engine._plans.compile(self.graph, patterns)

    def _dispatch(self, query: Query) -> Union[SelectResult, AskResult]:
        if isinstance(query, SelectQuery):
            return self._run_select(query)
        if isinstance(query, AskQuery):
            result = AskResult(self._any_solution(query.where))
            self._name_route("ask")
            return result
        raise SparqlEvaluationError(f"cannot evaluate {type(query).__name__}")

    def _name_route(self, operator: str) -> None:
        """Record the route that produced a result with no counters of its
        own (``ask``, ``general``), as the sinks record theirs."""
        self.stats["operator"] = operator
        if self.tracer.detail:
            self._operator_event()

    def _operator_event(self) -> None:
        """Record the bounded operator that just finished as a closed
        span (call sites guard on ``self.tracer.detail`` — operator events
        are the EXPLAIN-tier of the trace vocabulary)."""
        stats = dict(self.stats)
        name = stats.pop("operator", "operator")
        self.tracer.event(f"sparql.{name}", **stats)

    # -- pattern evaluation -----------------------------------------------------

    def _evaluate_group(
        self, group: GroupPattern, bindings: Iterable[Solution]
    ) -> Iterator[Solution]:
        """The materializing group pipeline: evaluate a group pattern given
        its input solutions."""
        solutions = list(bindings)
        filters: List[FilterPattern] = []
        pending_bgp: List[TriplePattern] = []

        def flush_bgp(current: List[Solution]) -> List[Solution]:
            if not pending_bgp:
                return current
            out = self._evaluate_bgp(list(pending_bgp), current)
            pending_bgp.clear()
            return out

        for element in group.elements:
            if isinstance(element, TriplePattern):
                pending_bgp.append(element)
            elif isinstance(element, FilterPattern):
                filters.append(element)
            elif isinstance(element, OptionalPattern):
                solutions = flush_bgp(solutions)
                solutions = self._evaluate_optional(element, solutions)
            elif isinstance(element, UnionPattern):
                solutions = flush_bgp(solutions)
                merged: List[Solution] = []
                for alternative in element.alternatives:
                    merged.extend(self._evaluate_group(alternative, solutions))
                solutions = merged
            elif isinstance(element, GroupPattern):
                solutions = flush_bgp(solutions)
                solutions = list(self._evaluate_group(element, solutions))
            elif isinstance(element, ValuesPattern):
                solutions = flush_bgp(solutions)
                solutions = self._evaluate_values(element, solutions)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvaluationError(f"unknown pattern element {element!r}")

        solutions = flush_bgp(solutions)

        for filter_pattern in filters:
            solutions = [
                s for s in solutions if self._filter_passes(filter_pattern.expression, s)
            ]
        return iter(solutions)

    def _evaluate_bgp(
        self, patterns: List[TriplePattern], solutions: List[Solution]
    ) -> List[Solution]:
        """*patterns* joined into *solutions*.  Under ``hash`` a BGP that
        opens its group -- its input is the one empty solution -- and holds
        no property path runs the eager ID join; any other BGP (bound by
        earlier solutions, or holding a path) runs the substitute-and-scan
        loop, the one ``scan`` runs for every BGP."""
        if (
            self.strategy == "hash"
            and len(solutions) == 1
            and not solutions[0]
            and not any(is_path(pattern.predicate) for pattern in patterns)
        ):
            return self._evaluate_bgp_hash(patterns)
        return self._evaluate_bgp_scan(patterns, solutions)

    # -- the dictionary-encoded hash-join pipeline -----------------------------

    def _evaluate_bgp_hash(self, patterns: List[TriplePattern]) -> List[Solution]:
        """The eager ID join's rows from the empty solution, decoded."""
        joined = self._bgp_id_rows(patterns)
        if joined is None:
            return []
        rows, col_of = joined
        decode = self.graph.decode_id
        layout = list(col_of.items())
        return [{variable: decode(row[column]) for variable, column in layout} for row in rows]

    def _bgp_id_rows(
        self,
        patterns: List[TriplePattern],
        filters: Sequence[Tuple[Variable, object]] = (),
        wanted: Optional[Set[Variable]] = None,
        fold: Optional[str] = None,
        cap: Optional[int] = None,
    ) -> Optional[Tuple[Union[List[Tuple], Dict[Tuple, Optional[int]]], Dict[Variable, int]]]:
        """The BGP join pipeline in ID space -- the one eager join.

        It starts from the empty row and returns ``(rows, column_of)``,
        where each row is a tuple of dictionary IDs binding every variable,
        or ``None`` when a pattern can match nothing.

        *fold* names the sink above the join: ``"distinct"`` (a
        DISTINCT with no ORDER BY, page size *cap*) or ``"count"`` (a
        pure-COUNT GROUP BY on exactly the wanted variables).  With no
        deferred FILTER the last step then folds its rows into the keys
        that sink keeps (:meth:`_fold_step`) and ``rows`` is that dict.

        *filters* are one-variable term tests as ``(variable, check)``, a
        per-ID verdict; the rows returned pass them.  *wanted* names the
        variables something above the join reads (None: all of them); the
        rest leave ``column_of`` once no later pattern needs them.  The
        order, the checks and the layouts are planned before any row is
        built (:func:`~repro.sparql.join_plan.plan_join`), once per graph
        generation, FILTER set and wanted set: the plan rides in the
        plan-cache entry of *patterns*, and each execution binds its FILTER
        verdicts and gate tables to it (:func:`~repro.sparql.join_plan.bind`).
        Every candidate a step drops is one a FILTER or a later inner join
        would have dropped, and no join kind changes (see below), so the
        survivors leave in the order the unfiltered join would give them.
        """
        _patterns, encoded, plans = self.engine._plans.entry(self.graph, patterns)
        for compiled in encoded:
            if compiled.impossible:
                return None

        checked = tuple(variable for variable, _check in filters)
        key = (checked, None if wanted is None else frozenset(wanted))
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = join_plan.plan_join(encoded, checked, wanted)
        steps = join_plan.bind(
            plan[0], [check for _variable, check in filters], self._build_probe_table
        )
        deferred = [filters[j] for j in plan[1]]
        rows: List[Tuple] = [()]
        built = 0
        # A step that picks hash join or INLJ from its input's row count
        # (``decides``) must see the count the unfiltered join would give
        # it, or it could pick the other kind and emit its rows in another
        # order.  plan_join lets only the step right before such a step
        # drop candidates, so that count is the candidates the step before
        # met -- counted by the step, or, when it dropped them before
        # counting, by a callable run only when the threshold needs it and
        # only until it is crossed.
        candidates = len(rows)
        last = None
        if (
            fold is not None and not deferred
            and (fold == "distinct" or set(steps[-1].out) == wanted)
        ):
            last = steps[-1]
        for step in steps:
            if not rows:
                break
            count = candidates
            if callable(count):
                count = len(rows)
                if step.decides and step.ep.est > 4.0 * count:
                    count = candidates(step.ep.est / 4.0)
            if step is last:
                rows, made = self._fold_step(step, rows, count, fold == "count", cap)
                built += made
                break
            rows, candidates = self._join_step(step, rows, count)
            built += len(rows)
        col_of = {variable: i for i, variable in enumerate(steps[-1].out)}
        for variable, check in deferred:
            column = col_of.get(variable)
            rows = (
                []
                if column is None
                else list(compress(rows, map(check, map(itemgetter(column), rows))))
            )
        stats = self.stats
        stats["join_rows"] = stats.get("join_rows", 0) + built
        return rows, col_of

    def _join_step(
        self, step: JoinStep, rows: List[Tuple], count: int
    ) -> Tuple[List[Tuple], Union[int, Callable[[float], int]]]:
        """``(rows out, candidates)``: one planned step over *rows*.

        *count* is the input row count the unfiltered join would see, the
        one the hash-or-INLJ choice reads.  ``candidates`` is the matches
        met, dropped ones included -- or, from a loop that drops before it
        builds, a callable that counts them up to the number it is given.
        """
        ep, col_of, width = step.ep, step.col_of, len(step.col_of)
        if not step.shared:
            # Cartesian extension; scan once.  new_vars == ep.variables here.
            scan = list(self._scan_pattern(ep))
            full = [row + srow for row in rows for srow in scan]
            return settled(full, step.checks, width, step.pick), len(full)

        if step.inlj(count):
            if self._plain_joinable(ep):
                out = self._index_join_plain(
                    self._bind_index_join(ep, col_of, step, len(rows)), rows
                )
                if step.checks:
                    return out, lambda enough: self._match_count(ep, rows, col_of, enough)
                return out, len(out)
            full = self._index_join_general(ep, rows, col_of)
            return settled(full, step.checks, width, step.pick), len(full)

        # Hash join: scan once, key the scan rows on the shared variables,
        # probe with every intermediate row.
        table, key_of, get = self._probe(step)
        keep = step.keep
        out: List[Tuple] = []
        append = out.append
        for key, row in zip(map(key_of, rows), rows):
            bucket = get(key)
            if bucket:
                base = row if keep is None else keep(row)
                for extra in bucket:
                    append(base + extra)
        if step.checks:
            return out, lambda enough: count_up_to(
                (len(table.get(key, ())) for key in map(key_of, rows)), enough
            )
        return out, len(out)

    def _probe(self, step: JoinStep) -> Tuple[Dict, Callable, Callable]:
        """``(table, key_of, get)`` for a hash-join *step*: its probe table,
        ``row -> probe key`` and ``key -> what the key's bucket adds to a
        row`` (checked and picked; falsy for none)."""
        table = step.table
        if table is None:
            table = self._build_probe_table(step.ep, step.shared, step.new_vars)
        col_of = step.col_of
        if len(step.shared) == 1:
            key_of = itemgetter(col_of[step.shared[0]])
        else:
            key_of = picker([col_of[v] for v in step.shared])
        if not step.checks and step.pick_new is None:
            return table, key_of, table.get
        # what a bucket contributes is a function of its key: settle each
        # key's bucket once
        return table, key_of, Memo(
            lambda key: settled(table.get(key, ()), step.checks, 0, step.pick_new)
        ).__getitem__

    def _fold_step(
        self, step: JoinStep, rows: List[Tuple], count: int, counted: bool,
        cap: Optional[int],
    ) -> Tuple[Dict[Tuple, Optional[int]], int]:
        """``(keys, built)``: the last step of a join whose sink keeps only
        keys -- each row the step would build once (a DISTINCT: value None,
        at most *cap* of them) or with the number of times it would build
        it (*counted*: a pure-COUNT GROUP BY) -- and the rows it built.

        A row's extensions depend only on its values, so each distinct
        input row is extended once (weighted by its multiplicity when
        *counted*); the first row to emit a key is the first appearance of
        its input row, so keys leave in the order the sink would first see
        them.  The join kind is :meth:`_join_step`'s, from the same
        *count*.  A hash join folds its buckets.  An INLJ ``?s ?p ?o`` whose
        only live new value is the predicate *witnesses* it
        (:meth:`_fold_witness`).  Any other step builds its rows as
        :meth:`_join_step` does and folds them.
        """
        if step.shared and not step.inlj(count):
            _table, key_of, get = self._probe(step)
            keep = step.keep
            keys: Dict[Tuple, Optional[int]] = {}
            if counted:
                for row, weight in Counter(rows).items():
                    bucket = get(key_of(row))
                    if bucket:
                        base = row if keep is None else keep(row)
                        for extra in bucket:
                            key = base + extra
                            keys[key] = keys.get(key, 0) + weight
                return keys, len(keys)
            for row in dict.fromkeys(rows):
                bucket = get(key_of(row))
                if bucket:
                    base = row if keep is None else keep(row)
                    for extra in bucket:
                        keys[base + extra] = None
                    if cap is not None and len(keys) >= cap:
                        break
            keys = _first_keys(keys, cap)
            return keys, len(keys)
        ep = step.ep
        if (
            not counted and not self.graph.is_sharded
            and step.shared == [ep.spec[0]] and step.new_vars == list(ep.spec[1:])
            and step.live == (0,)
        ):
            keys = self._fold_witness(step, rows, cap)
            return keys, len(keys)
        out = self._join_step(step, rows if counted else list(dict.fromkeys(rows)), count)[0]
        return (Counter(out) if counted else _first_keys(dict.fromkeys(out), cap)), len(out)

    def _fold_witness(
        self, step: JoinStep, rows: List[Tuple], cap: Optional[int]
    ) -> Dict[Tuple, None]:
        """The DISTINCT keys of an INLJ ``?s ?p ?o`` with ``?s`` bound whose
        one live new value is ``?p`` (``?o`` is dead), on an unsharded
        graph: a kept prefix's predicate is a key once one of its objects
        passes the step's checks, where the row-building loop builds a row
        per passing object.

        A predicate is *settled* for a prefix once it is a key there, or
        once it fails there and no object of it anywhere in the graph
        passes (:func:`_may_pass`).  A row whose predicates are all settled reads
        nothing more; any other reads a leaf only up to its first passing
        object.
        """
        spo = self.graph.spo_ids()
        subject = step.col_of[step.shared[0]]
        ok_p, ok_o = step.checks.get(0), step.checks.get(1)
        may_pass = _may_pass(self.graph.pos_ids(), ok_p, ok_o, len(rows))
        keep = step.keep
        settled_of: Dict[Tuple, Set[int]] = {}
        keys: Dict[Tuple, None] = {}
        for row in rows:
            by_predicate = spo.get(row[subject])
            if not by_predicate:
                continue
            prefix = row if keep is None else keep(row)
            done = settled_of.get(prefix)
            if done is None:
                done = settled_of[prefix] = set()
            elif by_predicate.keys() <= done:
                continue
            for pred, objects in by_predicate.items():
                if pred in done:
                    continue
                if (ok_p is None or ok_p(pred)) and (ok_o is None or any(map(ok_o, objects))):
                    done.add(pred)
                    keys[prefix + (pred,)] = None
                    if len(keys) == cap:
                        return keys
                elif not may_pass(pred):
                    done.add(pred)
        return keys

    def _match_count(
        self, ep: _EncodedPattern, rows: List[Tuple], col_of: Dict[Variable, int], enough
    ) -> int:
        """The matches a plain INLJ of *ep* meets over *rows*, counted off
        the index without building one, until there are *enough*."""
        count = self.graph.count_ids
        resolve = [
            (col_of.get(spec), None) if isinstance(spec, Variable)
            else (None, spec if type(spec) is int else None)
            for spec in ep.spec
        ]
        return count_up_to(
            (
                count(*[row[c] if c is not None else constant for c, constant in resolve])
                for row in rows
            ),
            enough,
        )

    def _build_probe_table(
        self,
        ep: _EncodedPattern,
        shared: Sequence[Variable],
        new_vars: Sequence[Variable],
    ) -> Dict:
        """*ep* scanned into ``{shared key: (new-variable tuples)}``.

        The build side of the eager join's hash steps (the lazy chain
        builds none: it walks the index from each row).  A single
        shared variable (the overwhelmingly common join shape) keys on the
        bare value instead of a 1-tuple.

        The table comes from the graph's :class:`_SharedProbeCache` when
        this generation already built it; ``sparql.probe_build`` fires
        either way (``cached`` says which), ``sparql.scan`` only when the
        scan ran.
        """
        var_index = {v: i for i, v in enumerate(ep.variables)}
        key_positions = tuple(var_index[v] for v in shared)
        new_positions = tuple(var_index[v] for v in new_vars)
        ground = tuple(v if type(v) is int else None for v in ep.spec)
        var_positions = [ep.var_positions[v] for v in ep.variables]
        table, cached = self.engine._probes.lookup(
            self.graph,
            (ground, tuple(map(tuple, var_positions)), key_positions, new_positions),
            lambda: self._probe_table(ep, key_positions, new_positions),
        )
        if self.tracer.detail:
            self.tracer.event(
                "sparql.probe_build",
                pattern=ep.index,
                estimate=ep.est,
                buckets=len(table),
                rows_out=sum(len(bucket) for bucket in table.values()),
                cached=cached,
            )
        return table

    def _probe_table(
        self,
        ep: _EncodedPattern,
        key_positions: Sequence[int],
        new_positions: Sequence[int],
    ) -> Dict:
        table: Dict = {}
        setdefault = table.setdefault
        if len(key_positions) == 1:
            key_position = key_positions[0]
            if len(new_positions) == 1:
                new_position = new_positions[0]
                for srow in self._scan_pattern(ep):
                    setdefault(srow[key_position], []).append((srow[new_position],))
            else:
                for srow in self._scan_pattern(ep):
                    setdefault(srow[key_position], []).append(
                        tuple(srow[i] for i in new_positions)
                    )
        else:
            for srow in self._scan_pattern(ep):
                setdefault(tuple(srow[i] for i in key_positions), []).append(
                    tuple(srow[i] for i in new_positions)
                )
        # Frozen once built: readers only ``get``, iterate and ``len`` a
        # bucket, and a cached table outlives many executions -- a tuple is
        # smaller than a list, and untracked by the collector once its rows
        # are.  Replacing values leaves the dict's size, so the walk, intact.
        for key, bucket in table.items():
            table[key] = tuple(bucket)
        return table

    def _scan_pattern(self, ep: _EncodedPattern) -> Iterator[Tuple]:
        """Scan *ep* with only its ground positions bound.

        Yields one ID tuple per match, ordered like ``ep.variables``.
        """
        if self.tracer.detail:
            return self._traced_scan(ep)
        return self._scan_rows(ep)

    def _traced_scan(self, ep: _EncodedPattern) -> Iterator[Tuple]:
        """Counting wrapper around :meth:`_scan_rows`.

        Emits a closed ``sparql.scan`` span when the scan finishes —
        recorded as an *event* (never an open/close pair) because lazy
        volcano scans interleave and close out of order, which would
        corrupt a bracketed span stack.  An abandoned scan (LIMIT
        satisfied upstream) reports ``exhausted=False`` from its
        ``finally`` when the generator is closed.
        """
        rows = 0
        exhausted = False
        try:
            for row in self._scan_rows(ep):
                rows += 1
                yield row
            exhausted = True
        finally:
            self.tracer.event(
                "sparql.scan",
                pattern=ep.index,
                estimate=ep.est,
                rows_out=rows,
                exhausted=exhausted,
            )

    def _scan_rows(self, ep: _EncodedPattern) -> Iterator[Tuple]:
        s, p, o = (v if type(v) is int else None for v in ep.spec)
        positions = [ep.var_positions[v] for v in ep.variables]
        yield from _triples_to_scan_rows(self.graph.triples_ids(s, p, o), positions)

    @staticmethod
    def _plain_joinable(ep: _EncodedPattern) -> bool:
        """Can :meth:`_index_join_plain` join *ep*?  Not when it repeats a
        variable."""
        return all(len(positions) == 1 for positions in ep.var_positions.values())

    def _bind_index_join(
        self,
        ep: _EncodedPattern,
        col_of: Dict[Variable, int],
        step: Optional[JoinStep] = None,
        rows: int = 0,
    ) -> Tuple:
        """What :meth:`_index_join_plain` needs to join *ep* into rows laid
        out as *col_of*, fixed once per join step: each position resolved
        to a constant, a row column or free, the new positions' extractor,
        the checks of a planned *step* and the indexes to walk (None on a
        sharded graph, which routes per row).  *rows* is the input's size,
        which bounds the tests :func:`_may_pass` runs.
        """
        graph = self.graph
        store = graph if graph.is_sharded else None
        if store is None:
            spo, pos, osp = graph.spo_ids(), graph.pos_ids(), graph.osp_ids()
        else:
            spo = pos = osp = None  # routed per row below

        resolved = []
        for spec in ep.spec:
            if isinstance(spec, Variable):
                column = col_of.get(spec)
                resolved.append(("col", column) if column is not None else ("free", None))
            elif type(spec) is int:
                resolved.append(("const", spec))
            else:  # wildcard (blank node)
                resolved.append(("free", None))
        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = resolved
        # New variables appear in ascending position order (no repeats), so
        # the extractor table below covers every combination.
        new_positions = [ep.var_positions[v][0] for v in ep.variables if v not in col_of]
        keep = None
        checks = [None, None, None]  # per position: None, or ``id -> passes``
        if step is not None:
            keep = step.keep
            if step.live is not None:
                new_positions = [new_positions[i] for i in step.live]
            for index, check in step.checks.items():
                checks[ep.var_positions[step.new_vars[index]][0]] = check
        ok_s, ok_p, ok_o = checks
        may_pass = None
        if ok_o is not None and s_kind != "free" and p_kind == o_kind == "free":
            may_pass = _may_pass(pos, ok_p, ok_o, rows)  # pos: None if sharded
        # the checks on a whole (s, p, o) triple, for the routed streams
        admit = (
            None
            if checks == [None, None, None]
            else lambda triple: all(
                check is None or check(value) for check, value in zip(checks, triple)
            )
        )
        make = _ROW_EXTRACTORS[tuple(new_positions)]
        return (
            graph, store, spo, pos, osp, s_kind, s_val, p_kind, p_val, o_kind, o_val,
            keep, ok_s, ok_p, ok_o, may_pass, admit, make,
        )

    @staticmethod
    def _index_join_plain(bound: Tuple, rows: Iterable[Tuple]) -> List[Tuple]:
        """INLJ fast path: no repeated variables, every row binds the shared
        columns.  Bound positions are per-row constants, so matches append
        straight onto the row -- no merge bookkeeping -- and the index dicts
        are walked directly.  *bound* is :meth:`_bind_index_join`'s: the
        eager join binds a step and walks all its rows, the lazy chain binds
        each later pattern once and walks each upstream row as it arrives --
        a pattern that shares no variable with the rows too, its positions
        all constants or free.

        With a planned step a candidate is handled before its row is
        built: a checked variable is tested (a C-level call) as its index
        level yields it, and the row keeps only the step's live columns.
        A subject-bound ``?s ?p ?o`` with a checked object reads the leaf
        of only the predicates :func:`_may_pass` admits.

        On a sharded graph the probes route: a subject-bound row walks the
        owning shard's local indexes (same O(1) dict hops, no fan-out), and
        an unbound-subject row reads the store's ``triples_ids`` (its
        canonical sorted merge), so probe results stay shard-count-invariant.
        """
        (
            graph, store, spo, pos, osp, s_kind, s_val, p_kind, p_val, o_kind, o_val,
            keep, ok_s, ok_p, ok_o, may_pass, admit, make,
        ) = bound

        # A checked position is tested per candidate where it is the
        # innermost loop (a C-level call, no row built for a failure) and
        # narrows the keys of an outer loop; each loop keeps an unchecked
        # twin, so a step without checks runs the loop it always ran.
        out: List[Tuple] = []
        append = out.append
        for row in rows:
            s = s_val if s_kind == "const" else (row[s_val] if s_kind == "col" else None)
            p = p_val if p_kind == "const" else (row[p_val] if p_kind == "col" else None)
            o = o_val if o_kind == "const" else (row[o_val] if o_kind == "col" else None)
            base = row if keep is None else keep(row)
            if store is not None:
                if s is None:
                    triples = store.triples_ids(None, p, o)
                    for triple in triples if admit is None else filter(admit, triples):
                        append(base + make(*triple))
                    continue
                shard = store.shard_of(s)
                spo, osp = shard.spo, shard.osp
            if s is not None:
                by_predicate = spo.get(s)
                if not by_predicate:
                    continue
                if p is not None:
                    objects = by_predicate.get(p)
                    if not objects:
                        continue
                    if o is not None:
                        if o in objects:
                            append(base + make(s, p, o))
                    elif ok_o is None:
                        for obj in objects:
                            append(base + make(s, p, obj))
                    else:
                        for obj in objects:
                            if ok_o(obj):
                                append(base + make(s, p, obj))
                    continue
                if o is not None:
                    predicates = osp.get(o, {}).get(s)
                    if predicates:
                        for pred in predicates if ok_p is None else filter(ok_p, predicates):
                            append(base + make(s, pred, o))
                    continue
                if ok_o is None:
                    pairs = (
                        by_predicate.items()
                        if ok_p is None
                        else [(pred, by_predicate[pred]) for pred in filter(ok_p, by_predicate)]
                    )
                    for pred, objects in pairs:
                        for obj in objects:
                            append(base + make(s, pred, obj))
                else:
                    # a predicate no object of which can pass: leaf unread
                    for pred in filter(may_pass, by_predicate):
                        for obj in by_predicate[pred]:
                            if ok_o(obj):
                                append(base + make(s, pred, obj))
                continue
            if p is not None:
                by_object = pos.get(p)
                if not by_object:
                    continue
                if o is not None:
                    subjects = by_object.get(o, ())
                    for subj in subjects if ok_s is None else filter(ok_s, subjects):
                        append(base + make(subj, p, o))
                    continue
                for obj, subjects in by_object.items():
                    if ok_o is not None and not ok_o(obj):
                        continue
                    for subj in subjects if ok_s is None else filter(ok_s, subjects):
                        append(base + make(subj, p, obj))
                continue
            if o is not None:
                for subj, predicates in osp.get(o, {}).items():
                    if ok_s is not None and not ok_s(subj):
                        continue
                    for pred in predicates if ok_p is None else filter(ok_p, predicates):
                        append(base + make(subj, pred, o))
                continue
            triples = graph.triples_ids(None, None, None)
            for triple in triples if admit is None else filter(admit, triples):
                append(base + make(*triple))
        return out

    def _index_join_general(
        self, ep: _EncodedPattern, rows: Iterable[Tuple], col_of: Dict[Variable, int]
    ) -> List[Tuple]:
        """Per-row index lookups for a pattern that repeats a variable: each
        row's bound positions substituted, the matches read off
        ``triples_ids`` (:func:`_triples_to_scan_rows` keeps those whose
        repeated positions agree) and the new values appended to the row in
        ``ep.variables`` order."""
        triples_ids = self.graph.triples_ids
        positions = [ep.var_positions[v] for v in ep.variables]
        resolve = [
            (col_of.get(spec), None) if isinstance(spec, Variable) else (None, spec)
            for spec in ep.spec
        ]
        new = [i for i, variable in enumerate(ep.variables) if variable not in col_of]
        out: List[Tuple] = []
        for row in rows:
            s, p, o = (constant if c is None else row[c] for c, constant in resolve)
            for match in _triples_to_scan_rows(triples_ids(s, p, o), positions):
                out.append(row + tuple(match[i] for i in new))
        return out

    # -- the lazy ID chain (volcano-style) ------------------------------------
    #
    # Every operator is a generator over ID-tuple rows; a row is pulled
    # through the whole chain before the next one is produced, so a bounded
    # consumer stops the scans underneath it early.  It reads a simple WHERE
    # clause only and has two callers: the select sink's source
    # (_simple_source: a small-LIMIT page, or one pattern under FILTERs)
    # and ASK (_any_solution).  Each later pattern extends a row one way,
    # an index walk from that row (_stream_step), so no step scans or builds
    # ahead of its rows and the probe cache serves the eager join only.  The
    # first pattern's scan and the walks are the hash pipeline's
    # (_scan_pattern, _index_join_plain, _index_join_general); what changes
    # is the control flow around them.

    def _stream_id_rows(
        self, patterns: List[TriplePattern], simple_filters
    ) -> Tuple[Iterator[Tuple], Dict[Variable, int]]:
        """``(ID rows, col_of)`` of a simple WHERE clause
        (:meth:`_simple_where_shape`) off the lazy chain, in the hash
        pipeline's order (:func:`join_order`): the first pattern's scan
        (the empty row's extensions), each later pattern joined by one
        :meth:`_stream_step`, then the FILTERs as per-ID verdicts
        (:meth:`_term_verdicts`).  Every cell is an ID.  A pattern no
        triple can match, or a FILTER over a variable no pattern binds,
        gives no rows."""
        encoded = self._compile_patterns(patterns)
        if any(ep.impossible for ep in encoded):
            return iter(()), {}
        first, *rest = encoded if len(encoded) == 1 else join_order(encoded, set())
        rows = self._scan_pattern(first)
        col_of = {variable: column for column, variable in enumerate(first.variables)}
        for ep in rest:
            new_col_of = dict(col_of)
            for variable in ep.variables:
                new_col_of.setdefault(variable, len(new_col_of))
            rows = self._stream_step(ep, rows, col_of)
            col_of = new_col_of
        for test, variable in simple_filters:
            column = col_of.get(variable)
            if column is None:
                return iter(()), col_of
            rows = _passing(rows, column, self._term_verdicts(test))
        return rows, col_of

    def _stream_step(
        self, ep: _EncodedPattern, upstream: Iterator[Tuple], col_of: Dict[Variable, int]
    ) -> Iterator[Tuple]:
        """Extend each upstream row (laid out as *col_of*) with *ep*'s
        matches, its new values in ``ep.variables`` order, as it arrives: a
        plain pattern bound once, on the first row, and walked per row; a
        repeated variable takes :meth:`_index_join_general` per row."""
        if not self._plain_joinable(ep):
            for row in upstream:
                yield from self._index_join_general(ep, (row,), col_of)
            return
        bound = None
        for row in upstream:
            if bound is None:
                bound = self._bind_index_join(ep, col_of)
            yield from self._index_join_plain(bound, (row,))

    # -- the legacy substitute-and-scan pipeline -------------------------------

    def _evaluate_bgp_scan(
        self, patterns: List[TriplePattern], solutions: List[Solution]
    ) -> List[Solution]:
        """Index nested-loop join, re-picking the most selective pattern."""
        if not patterns:
            return solutions

        current = solutions
        remaining = list(patterns)
        bound_vars = set()
        for solution in solutions:
            bound_vars.update(solution.keys())
            break  # the header is identical across input solutions

        while remaining:
            remaining.sort(
                key=lambda p: -self._selectivity_score(p, bound_vars)
            )
            pattern = remaining.pop(0)
            next_solutions: List[Solution] = []
            for solution in current:
                next_solutions.extend(self._match_pattern(pattern, solution))
            current = next_solutions
            for variable in pattern.variables():
                bound_vars.add(variable)
            if not current:
                return []
        return current

    @staticmethod
    def _selectivity_score(pattern: TriplePattern, bound_vars: set) -> int:
        """Higher = evaluate earlier. Ground/bound positions add selectivity."""
        score = 0
        for position, weight in (
            (pattern.subject, 4),
            (pattern.object, 3),
            (pattern.predicate, 2),
        ):
            if not isinstance(position, Variable):
                score += weight
            elif position in bound_vars:
                score += weight - 1
        return score

    def _match_pattern(
        self, pattern: TriplePattern, solution: Solution
    ) -> Iterator[Solution]:
        s, p, o = _substitute(pattern, solution)

        if is_path(pattern.predicate):
            # Variable endpoints range over the node universe only.  A
            # binding carried in from elsewhere that names a non-node term
            # could only be satisfied by zero-length closure, which a
            # variable endpoint does not admit; enforcing it here keeps
            # path evaluation independent of join order.
            if (
                isinstance(pattern.subject, Variable)
                and s is not None
                and not self.graph.is_node_term(s)
            ):
                return
            if (
                isinstance(pattern.object, Variable)
                and o is not None
                and not self.graph.is_node_term(o)
            ):
                return
            for subject, obj in evaluate_path(self.graph, pattern.predicate, s, o):
                out = dict(solution)
                compatible = True
                for variable, value in (
                    (pattern.subject, subject),
                    (pattern.object, obj),
                ):
                    if isinstance(variable, Variable):
                        existing = out.get(variable)
                        if existing is None:
                            out[variable] = value
                        elif existing != value:
                            compatible = False
                            break
                if compatible:
                    yield out
            return

        for triple in self.graph.triples(s, p, o):
            out = dict(solution)
            compatible = True
            for variable, value in (
                (pattern.subject, triple.subject),
                (pattern.predicate, triple.predicate),
                (pattern.object, triple.object),
            ):
                if isinstance(variable, Variable):
                    existing = out.get(variable)
                    if existing is None:
                        out[variable] = value
                    elif existing != value:
                        compatible = False
                        break
            if compatible:
                yield out

    def _evaluate_optional(
        self, element: OptionalPattern, solutions: List[Solution]
    ) -> List[Solution]:
        out: List[Solution] = []
        for solution in solutions:
            extended = list(self._evaluate_group(element.group, [solution]))
            if extended:
                out.extend(extended)
            else:
                out.append(solution)
        return out

    def _evaluate_values(
        self, element: ValuesPattern, solutions: List[Solution]
    ) -> List[Solution]:
        out: List[Solution] = []
        for solution in solutions:
            for row in element.rows:
                candidate = dict(solution)
                compatible = True
                for variable, value in zip(element.variables, row):
                    if value is None:
                        continue  # UNDEF leaves the variable unconstrained
                    existing = candidate.get(variable)
                    if existing is None:
                        candidate[variable] = value
                    elif existing != value:
                        compatible = False
                        break
                if compatible:
                    out.append(candidate)
        return out

    def _filter_passes(self, expression: Expression, solution: Solution) -> bool:
        try:
            value = evaluate_expression(expression, solution, self._evaluate_exists)
            return effective_boolean_value(value)
        except ExpressionError:
            return False

    def _evaluate_exists(self, expression: ExistsExpression, solution: Solution) -> bool:
        for _ in self._evaluate_group(expression.group, [dict(solution)]):
            return True
        return False

    def _any_solution(self, group: GroupPattern) -> bool:
        # ASK needs exactly one witness: under ``hash`` a simple WHERE
        # clause stops the chain's scans as soon as it surfaces; any other
        # takes the group pipeline's first solution, as ``scan`` does.
        where = self._simple_where_shape(group) if self.strategy != "scan" else None
        if where is not None:
            rows, _col_of = self._stream_id_rows(*where)
        else:
            rows = self._evaluate_group(group, [{}])
        return next(iter(rows), None) is not None

    # -- SELECT pipeline -----------------------------------------------------

    def _run_select(self, query: SelectQuery) -> SelectResult:
        where = None if self.strategy == "scan" else self._simple_where_shape(query.where)
        if where is None:
            return self._run_select_general(query)  # rule 2
        # Rule 1: a plain page or a pure-COUNT aggregation runs a columnar
        # sink.  Rule 2: everything else.
        shape = self._simple_select_shape(query, where[0])
        if shape is not None:
            return self._run_select_columnar(query, *shape, where)
        return self._run_select_general(query)

    # -- the columnar executor (sinks over ID rows) ------------------------------

    @staticmethod
    def _simple_where_shape(group: GroupPattern):
        """``(patterns, simple_filters)`` when the WHERE clause *group* is
        plain triple patterns plus one-variable term-test filters, else
        None -- the shape whose rows are guaranteed pure ID tuples, every
        variable bound in every row (:meth:`_simple_source`,
        :meth:`_stream_id_rows`)."""
        patterns: List[TriplePattern] = []
        simple_filters = []
        for element in group.elements:
            if isinstance(element, TriplePattern):
                if is_path(element.predicate):
                    return None  # a path runs the term-level evaluator
                patterns.append(element)
            elif isinstance(element, FilterPattern):
                compiled = _simple_filter(element.expression)
                if compiled is None:
                    return None
                simple_filters.append(compiled)
            else:
                return None
        if not patterns:
            return None
        return patterns, simple_filters

    @staticmethod
    def _simple_select_shape(query: SelectQuery, patterns: List[TriplePattern]):
        """``(plan,)`` when a columnar sink takes the SELECT clause over a
        simple WHERE clause's *patterns*, else None.

        ``select-id`` (*plan* None) takes bare-variable projections or
        ``SELECT *`` with no ORDER BY.  ``aggregate-id`` (*plan*: the
        ``aggregate_plan``) takes a pure-COUNT aggregation with no HAVING
        and no DISTINCT: pattern variables as group keys (none: the implicit
        group), every item a group key or a plain COUNT of ``*`` or of a
        pattern variable -- which, bound in every row of this shape, is the
        group's size -- and bare sort variables (over output columns:
        :meth:`_aggregate_page`).
        """
        if query.having is not None:
            return None
        if not query.has_aggregates():
            if query.order_by or not (query.select_all or all(
                projection.alias is None and isinstance(projection.expression, VariableExpression)
                for projection in query.projections
            )):
                return None
            return (None,)
        plan = query.aggregate_plan()
        if plan is None or query.distinct or query.order_variables() is None:
            return None
        group_vars, items = plan
        bound = {
            term for pattern in patterns
            for term in (pattern.subject, pattern.predicate, pattern.object)
            if isinstance(term, Variable)
        }
        if set(group_vars) <= bound and all(
            (kind == "var" and payload in group_vars)
            or (kind == "agg" and payload.function == "COUNT" and not payload.distinct
                and (payload.expression is None or payload.expression.variable in bound))
            for kind, payload, _name in items
        ):
            return (plan,)
        return None

    def _id_projection_layout(
        self, query: SelectQuery, col_of: Dict[Variable, int], any_solutions: bool
    ) -> Tuple[List[str], List[Optional[int]]]:
        """``(names, columns)`` for projecting ID rows.

        The ``SELECT *`` header rule lives here: the header comes from the
        (complete) solution multiset -- zero solutions, empty header.  The
        columns are also the DISTINCT key of a row.
        """
        if query.select_all:
            if not any_solutions:
                return [], []
            names = sorted(variable.name for variable in col_of)
            by_name = {variable.name: column for variable, column in col_of.items()}
            return names, [by_name[name] for name in names]
        names = [p.expression.variable.name for p in query.projections]
        return names, [col_of.get(p.expression.variable) for p in query.projections]

    def _decode_id_rows(
        self,
        rows: Iterable[Tuple],
        names: List[str],
        columns: List[Optional[int]],
        count_columns: Iterable[int] = (),
    ) -> List[Row]:
        """Decode + project ID rows into result rows (the one decode
        loop).  Row positions in *count_columns* hold COUNTs instead of
        dictionary IDs; a None cell is unbound."""
        decode = self.graph.decode_id
        # equal counts make equal terms: one Literal per distinct count,
        # not one per group
        count_terms: Dict[int, Literal] = {}
        layout = [
            (name, column, column in count_columns)
            for name, column in zip(names, columns)
        ]
        out_rows: List[Row] = []
        for row in rows:
            projected: Row = {}
            for name, column, counted in layout:
                if column is None:
                    projected[name] = None
                    continue
                value = row[column]
                if counted:
                    term = count_terms.get(value)
                    if term is None:
                        term = count_terms[value] = Literal(value)
                    projected[name] = term
                else:
                    projected[name] = None if value is None else decode(value)
            out_rows.append(projected)
        return out_rows

    def _id_modifiers(
        self, query: SelectQuery, held: List[List], conditions
    ) -> Tuple[List[Tuple], int]:
        """ORDER BY / OFFSET / LIMIT over the groups, held as columns of
        group-key IDs and counts, before anything is decoded.
        Returns ``(page rows, sort keys built)``.

        *conditions* are ``(column, descending, key_of)``; their sort
        keys are memoized per distinct cell (:func:`_sort_key_column`),
        and *key_of* reads an ID's key from the dictionary's kept table
        (``TermDict.sort_keys``), so a warm graph decodes no cell to sort.
        Under a LIMIT the groups are first cut to the ``offset + k`` that
        can reach the page (:func:`_first_in_order`), so sort keys are
        built only for the groups that cut has to compare.  A stable index
        sort orders the survivors; every tie falls to input order, so the
        result equals sort, then slice.
        """
        memos: List[Dict] = [{} for _ in conditions]
        offset = query.offset or 0
        if query.limit is not None and len(held[0]) > offset + query.limit:
            chosen = sorted(
                _first_in_order(held, list(range(len(held[0]))), offset + query.limit, conditions, memos)
            )
            held = [[column[i] for i in chosen] for column in held]
        kept = list(zip(*held))
        if conditions and kept:
            # Stable multi-key sort, same discipline as _order: sort by
            # the last condition first; equal keys keep input order.  An
            # index sort keyed by ``list.__getitem__`` keeps every
            # comparison in C.
            order = list(range(len(kept)))
            for (column, descending, key_of), memo in zip(
                reversed(conditions), reversed(memos)
            ):
                keys = _sort_key_column(held[column], memo, key_of)
                order.sort(key=keys.__getitem__, reverse=descending)
            kept = [kept[i] for i in order]
        return kept[offset:], sum(map(len, memos))

    def _aggregate_page(
        self, query: SelectQuery, items, cols: List[List], columns: List[int], stats,
    ) -> SelectResult:
        """The aggregate sink's output: *cols* holds the groups as
        columns -- group-key IDs and counts, item *i* at
        ``columns[i]`` -- and only the page that survives the modifiers
        is decoded.

        The ORDER BY conditions name output columns (a group variable or
        a COUNT alias) and run in :meth:`_id_modifiers`, a COUNT column
        keyed by the count itself.
        """
        names = [name for _kind, _payload, name in items]
        counts = {column for column, item in zip(columns, items) if item[0] == "agg"}
        by_name = dict(zip(names, columns))
        conditions = []
        for variable, condition in zip(query.order_variables(), query.order_by):
            column = by_name.get(variable.name)
            # A sort variable that names no output column ties on every
            # group: drop it.
            if column is None:
                continue
            # a count orders as its xsd:integer
            key_of = int if column in counts else self.graph.dictionary.sort_keys.__getitem__
            conditions.append((column, condition.descending, key_of))
        page, sort_keys = self._id_modifiers(query, cols, conditions)
        self.stats.update(
            stats, sort_keys=sort_keys, decoded_rows=len(page), operator="aggregate-id"
        )
        return SelectResult(names, self._decode_id_rows(page, names, columns, counts))

    def _run_select_columnar(self, query: SelectQuery, plan, where) -> SelectResult:
        """The one executor of rule 1 (:meth:`_simple_select_shape`; *where*:
        :meth:`_simple_where_shape`): :meth:`_simple_source`'s ID rows into
        the select sink, or into the count sink under a *plan*.  The sinks
        pull the rows lazily, so a LIMIT-bounded sink stops its source at
        its page; the scan's cells are booked once the sink is done.
        """
        if self._reaches_no_row(query):
            # a page no row reaches builds no source: ``SELECT *`` takes one
            # row off the lazy chain, the witness its header needs; anything
            # else reads none
            grouped, cells = False, None
            if query.select_all:
                rows, col_of = self._stream_id_rows(*where)
                source = _islice(rows, 1)
            else:
                variables = dict.fromkeys(v for pattern in where[0] for v in pattern.variables())
                source, col_of = iter(()), {v: i for i, v in enumerate(variables)}
        else:
            source, col_of, grouped, cells = self._simple_source(query, *where, plan)
        if plan is None:
            result = self._select_page(query, source, col_of)
        else:
            result = self._count_groups(query, plan, source, col_of, grouped)
        if cells is not None:
            self.stats["scan_cells"] = cells(self.stats["input_rows"])
        if self.tracer.detail:
            self._operator_event()
        return result

    def _simple_source(
        self, query: SelectQuery, patterns, simple_filters, plan
    ) -> Tuple[Union[Iterator[Tuple], List[List]], Dict[Variable, int], bool, Optional[Callable]]:
        """``(source, col_of, grouped, cells)`` for a simple-shape BGP, its
        FILTERs applied.  The source is lazy ID rows laid out as *col_of*
        (a ``SELECT *`` scan's rows hold its ground cells too) -- or,
        *grouped*, the count sink's groups: their key columns, laid out as
        *col_of*, then their counts.  *cells* (None: no index scan)
        turns the rows the sink read into the cells the scan materialised.

        A small page -- ``LIMIT`` <= ``STREAM_DELEGATE_LIMIT``, no
        DISTINCT, not ``SELECT *``, no *plan* -- reads the lazy chain's rows
        (:meth:`_stream_id_rows`), so its sink stops the joins underneath
        at its page.  A single pattern reads the index
        (:meth:`_scan_source`); under FILTERs, the lazy chain's rows.
        Several patterns (or a fully-ground existence gate, which is no
        index scan) run the eager join -- it chooses INLJ or hash per step
        from the exact intermediate cardinality, which a build-then-probe
        cannot: probing ``?s a <C> . ?s ?p ?o`` that way builds a
        whole-graph table per extraction query -- and hand it the FILTERs
        and the variables read above it, so a row is tested where its
        variable is bound and carries only the columns still read.  Under a
        DISTINCT page (at most a page of keys) or a pure-COUNT GROUP BY the
        join's last step folds its rows into the keys the sink keeps
        (:meth:`_fold_step`): the DISTINCT rows, or the groups.
        """
        # A ``LIMIT 20`` page over a two-pattern join is 0.2 ms on the lazy
        # INLJ chain and tens of ms once the join materializes.  The test
        # comes before any set-up below (a small page pays for it), and
        # ignores OFFSET: every page of one paginated query then reads the
        # same source, keeping row order stable across pages.
        if (
            plan is None
            and query.limit is not None
            and query.limit <= self.engine.STREAM_DELEGATE_LIMIT
            and not query.distinct
            and not query.select_all
        ):
            rows, col_of = self._stream_id_rows(patterns, simple_filters)
            return rows, col_of, False, None
        compiled = self._compile_patterns(patterns)
        variables = list(dict.fromkeys(v for ep in compiled for v in ep.variables))
        if any(ep.impossible for ep in compiled) or any(
            variable not in variables for _test, variable in simple_filters
        ):
            # A FILTER over an unbound variable drops every row (the
            # general pipeline raises-and-rejects per row).
            return iter(()), {variable: i for i, variable in enumerate(variables)}, False, None
        wanted = self._wanted_variables(query, plan)
        if len(compiled) == 1 and compiled[0].variables:
            if simple_filters:
                rows, col_of = self._stream_id_rows(patterns, simple_filters)
                return rows, col_of, False, None
            return self._scan_source(query, compiled[0], wanted, plan)
        fold = cap = None
        if plan is None:
            if query.distinct:
                fold, cap = "distinct", self._page_cap(query)
        elif plan[0]:
            fold = "count"
        filters = [(variable, self._term_verdicts(test)) for test, variable in simple_filters]
        joined, col_of = self._bgp_id_rows(patterns, filters, wanted, fold, cap)
        if fold == "count" and isinstance(joined, dict):
            keys = list(_islice(joined, self._run_cap(query)))
            groups = [list(column) for column in zip(*keys)] or [[] for _ in col_of]
            groups.append(list(map(joined.__getitem__, keys)))
            return groups, col_of, True, None
        return iter(joined), col_of, False, None

    def _scan_source(self, query: SelectQuery, ep: _EncodedPattern, wanted, plan):
        """:meth:`_simple_source` of one pattern off the index.

        Its runs when a COUNT GROUP BY or a DISTINCT needs no more
        (:meth:`_pattern_runs`, one cell a run); else its rows through
        :meth:`Graph.scan_rows`, cut to the positions of the variables
        *wanted* (None: whole triples), so the index is not walked for the
        others.  A repeated variable keeps the triples whose positions
        agree, each read whole: three cells a triple read.
        """
        runs = self._pattern_runs(query, ep, wanted, plan)
        if runs is not None:
            keys, sizes = runs
            col_of = dict.fromkeys(wanted, 0)
            if plan is None:
                return zip(keys), col_of, False, lambda rows: rows
            keys = list(keys)
            return [keys, list(_islice(sizes, len(keys)))], col_of, True, lambda rows: rows
        s, p, o = (v if type(v) is int else None for v in ep.spec)
        positions = [ep.var_positions[v] for v in ep.variables]
        if any(len(position) > 1 for position in positions):
            # zip pulls the scan first, so ``read`` advances once per
            # triple the sink's pull took from it
            read = _count()
            triples = map(itemgetter(0), zip(self.graph.scan_rows(s, p, o, (True,) * 3), read))
            col_of = {variable: i for i, variable in enumerate(ep.variables)}
            return (
                _repeated_variable_scan_rows(triples, positions), col_of, False,
                lambda _rows: 3 * next(read),
            )
        want = tuple(wanted is None or v in wanted for v in ep.spec)
        cut = [position for position in range(3) if want[position]]
        col_of = {
            variable: cut.index(position)
            for variable, (position,) in ep.var_positions.items() if want[position]
        }
        return self.graph.scan_rows(s, p, o, want), col_of, False, lambda rows: rows * len(cut)

    def _pattern_runs(self, query: SelectQuery, ep: _EncodedPattern, wanted, plan):
        """``(keys, sizes)``: *ep*'s matches as runs of the leading unbound
        index level (:meth:`Graph.scan_runs`), at most
        :meth:`_run_cap` keys, when the one variable read above sits there
        alone and the sink is a pure-COUNT GROUP BY on it (counts are run
        lengths) or a DISTINCT page (keys are the distinct rows, no size is
        read), else None.  A key's rows are contiguous in the expanded
        scan, so first-seen order is key order.
        """
        if wanted is None or len(wanted) != 1:
            return None
        (variable,) = wanted
        if plan is None:
            if not query.distinct:
                return None
        elif plan[0] != [variable]:
            return None
        if any(len(positions) > 1 for positions in ep.var_positions.values()):
            return None
        runs = self.graph.scan_runs(*(v if type(v) is int else None for v in ep.spec))
        if runs is None or ep.spec[runs[0]] != variable:
            return None
        _position, keys, sizes = runs
        return _islice(keys, self._run_cap(query)), sizes

    @staticmethod
    def _reaches_no_row(query: SelectQuery) -> bool:
        """Is *query*'s page one no row reaches -- LIMIT 0, or an OFFSET no
        store's size comes near?"""
        return query.limit == 0 or (query.offset or 0) >= sys.maxsize

    @staticmethod
    def _run_cap(query: SelectQuery) -> Optional[int]:
        """The groups a grouped count sink reads at most (None: every
        one).  Each is a whole group, in first-seen order, so without
        ORDER BY the page is the first ``offset + limit`` of them.  A
        DISTINCT page reads them all (its sink stops pulling at its page on
        its own)."""
        if query.order_by or query.distinct:
            return None
        return Execution._page_cap(query)

    @staticmethod
    def _page_cap(query: SelectQuery) -> Optional[int]:
        """``offset + limit``, the rows a page reaches to (None without a
        LIMIT, or past ``sys.maxsize``, which ``islice`` cannot take).
        ``SELECT *`` derives its header from solution existence: it keeps
        at least one witness row even for LIMIT 0."""
        if query.limit is None:
            return None
        cap = (query.offset or 0) + query.limit
        if cap > sys.maxsize:
            return None
        return max(cap, 1) if query.select_all else cap

    @staticmethod
    def _wanted_variables(query: SelectQuery, plan) -> Optional[Set[Variable]]:
        """The variables whose *values* something above a simple-shape
        scan reads, or None for every one of them.

        Projections and group keys read values (ORDER BY over aggregate
        output reads output columns, which are group keys and counts).  A
        COUNT does not: every pattern variable is bound in every row of
        this shape, so the count is its group's size.  ``SELECT *`` reads
        the whole row.
        """
        if plan is not None:
            return set(plan[0])
        if query.select_all:
            return None
        return {p.expression.variable for p in query.projections}

    def _term_verdicts(self, table: bytes):
        """``id -> 0 / 1`` for one term test: the dictionary's kind bytes
        translated through *table* (one C-level pass, no decode), read by
        the lazy chain's FILTER and the join's binding step."""
        return self.graph.dictionary.kinds.translate(table).__getitem__

    def _select_page(
        self, query: SelectQuery, rows: Iterator[Tuple], col_of: Dict[Variable, int]
    ) -> SelectResult:
        """The select sink: projection / DISTINCT / OFFSET-LIMIT over ID rows.

        It reads no row past its page (:meth:`_page_cap`): a plain page is
        the first ``offset + limit`` rows, and a DISTINCT page, while it is
        short, reads only as many more rows as it still lacks keys.  A key
        is a row's projected cells -- the row itself when they are all of
        it -- and the kept keys, each first seen first, are the projected
        rows.  Runs (:meth:`_pattern_runs`) and a folded join's keys hold
        each key once, so there ``input_rows`` counts keys.
        """
        offset = query.offset or 0
        cap = self._page_cap(query)
        stop = None if cap is None else offset + query.limit
        names, columns = self._id_projection_layout(query, col_of, True)
        if query.distinct:
            bound = [column for column in columns if column is not None]
            # past its variables' cells a row holds only ground positions
            # (a ``SELECT *`` scan's), the same on every row
            keys = rows if bound == list(range(len(col_of))) else map(picker(bound), rows)
            input_rows, kept = 0, {}
            while cap is None or len(kept) < cap:
                block = list(_islice(keys, None if cap is None else cap - len(kept)))
                if not block:
                    break
                input_rows += len(block)
                kept.update(dict.fromkeys(block))
            self.stats["distinct_keys"] = len(kept)
            page = list(kept)[offset:stop]
            # a kept key is the projected row, its unbound cells left out
            at = _count()
            columns = [None if column is None else next(at) for column in columns]
        else:
            page = list(_islice(rows, cap))
            input_rows = len(page)
            page = page[offset:stop]
        if not input_rows:
            names, columns = self._id_projection_layout(query, col_of, False)
        self.stats.update(operator="select-id", input_rows=input_rows, decoded_rows=len(page))
        return SelectResult(names, self._decode_id_rows(page, names, columns))

    def _count_groups(
        self, query: SelectQuery, plan, source, col_of: Dict[Variable, int], grouped: bool,
    ) -> SelectResult:
        """The count sink: a pure-COUNT aggregation.  Fed *grouped*
        (:meth:`_pattern_runs`, a folded join's keys), each group is whole
        already: its key columns and counts are handed over as they are.
        Otherwise one :class:`Counter` counts the rows by their group key
        -- the row itself when the keys are all of it, the one ID when there
        is one -- in first-seen group order, as the general fold.  With no
        group key the rows make the implicit group: one row, whose count is
        0 over no rows.  Either way every group-key cell is an ID.
        """
        group_vars, items = plan
        group_columns = [col_of[variable] for variable in group_vars]
        if grouped:
            cols = [source[column] for column in group_columns]
            counts = source[-1]
            input_rows = len(counts)
        elif not group_columns:  # the implicit group
            input_rows = len(list(source))
            cols, counts = [], [input_rows]
        else:
            single = len(group_columns) == 1
            if single:  # an ID, not a 1-tuple, keys the group
                source = map(itemgetter(group_columns[0]), source)
            elif group_columns != list(range(len(col_of))):
                source = map(picker(group_columns), source)
            counter = Counter(source)
            input_rows = sum(counter.values())
            cols = [list(counter)] if single else (
                [list(column) for column in zip(*counter)] or [[] for _ in group_columns]
            )
            counts = list(counter.values())
        cols.append(counts)
        columns = [
            group_vars.index(payload) if kind == "var" else len(group_columns)
            for kind, payload, _name in items
        ]
        stats = {"input_rows": input_rows, "tracked_rows": len(counts)}
        return self._aggregate_page(query, items, cols, columns, stats)

    def _run_select_general(self, query: SelectQuery) -> SelectResult:
        # A page no row reaches is its header.  An explicit projection
        # names it, so the WHERE clause is not evaluated; ``SELECT *``'s is
        # the union of the solutions' variables, so that one still is.
        if self._reaches_no_row(query) and not query.select_all:
            solutions: List[Solution] = []
        else:
            solutions = list(self._evaluate_group(query.where, [{}]))

        if query.has_aggregates():
            rows, variables = self._aggregate(query, solutions)
            scopes: Optional[List[Solution]] = None  # rebuilt from the rows
        else:
            rows, variables = self._project(query, solutions)
            # ORDER BY may reference WHERE variables that were not projected
            # (ordering happens before projection in the spec), and also the
            # projection aliases -- merge both into the sort scope.
            scopes = []
            for row, solution in zip(rows, solutions):
                scope = dict(solution)
                for name, term in row.items():
                    if term is not None:
                        scope[Variable(name)] = term
                scopes.append(scope)

        rows = self._apply_modifiers(query, rows, variables, scopes=scopes)
        self._name_route("general")
        return SelectResult(variables, rows)

    def _project(
        self, query: SelectQuery, solutions: List[Solution]
    ) -> Tuple[List[Row], List[str]]:
        if query.select_all:
            names: List[str] = []
            seen = set()
            for solution in solutions:
                for variable in solution:
                    if variable.name not in seen:
                        seen.add(variable.name)
                        names.append(variable.name)
            names.sort()
            rows = [
                {name: solution.get(Variable(name)) for name in names}
                for solution in solutions
            ]
            return rows, names

        names = []
        for projection in query.projections:
            variable = projection.variable
            if variable is None:
                raise SparqlEvaluationError("projection without output variable")
            names.append(variable.name)

        rows = [self._project_row(query, names, solution) for solution in solutions]
        return rows, names

    def _project_row(
        self, query: SelectQuery, names: List[str], solution: Solution
    ) -> Row:
        row: Row = {}
        for projection, name in zip(query.projections, names):
            if isinstance(projection.expression, VariableExpression) and (
                projection.alias is None
            ):
                row[name] = solution.get(projection.expression.variable)
            else:
                try:
                    row[name] = evaluate_expression(
                        projection.expression, solution, self._evaluate_exists
                    )
                except ExpressionError:
                    row[name] = None
        return row

    # -- aggregation -----------------------------------------------------------

    def _aggregate(
        self, query: SelectQuery, solutions: List[Solution]
    ) -> Tuple[List[Row], List[str]]:
        groups: Dict[Tuple, List[Solution]] = {}
        if query.group_by:
            for solution in solutions:
                key = []
                for expression in query.group_by:
                    try:
                        key.append(
                            evaluate_expression(expression, solution, self._evaluate_exists)
                        )
                    except ExpressionError:
                        key.append(None)
                groups.setdefault(tuple(key), []).append(solution)
        else:
            # Implicit single group; aggregates over an empty pattern still
            # produce one row (COUNT(*) = 0) per the spec.
            groups[()] = solutions

        names: List[str] = []
        for projection in query.projections:
            variable = projection.variable
            if variable is None:
                raise SparqlEvaluationError(
                    "aggregate projections need an AS alias or bare variable"
                )
            names.append(variable.name)

        rows: List[Row] = []
        for key, members in groups.items():
            representative = members[0] if members else {}
            key_bindings: Solution = {}
            for expression, value in zip(query.group_by, key):
                if isinstance(expression, VariableExpression) and value is not None:
                    key_bindings[expression.variable] = value

            if query.having is not None:
                if not self._having_passes(query.having, members, key_bindings):
                    continue

            row: Row = {}
            for projection, name in zip(query.projections, names):
                row[name] = self._evaluate_projection_in_group(
                    projection.expression, members, representative, key_bindings
                )
            rows.append(row)
        return rows, names

    def _having_passes(
        self, expression: Expression, members: List[Solution], key_bindings: Solution
    ) -> bool:
        try:
            value = self._evaluate_projection_in_group(
                expression, members, members[0] if members else {}, key_bindings
            )
            return value is not None and effective_boolean_value(value)
        except ExpressionError:
            return False

    def _evaluate_projection_in_group(
        self,
        expression: Expression,
        members: List[Solution],
        representative: Solution,
        key_bindings: Solution,
    ) -> Optional[Term]:
        if isinstance(expression, Aggregate):
            return self._fold_aggregate(expression, members)
        if contains_aggregate(expression):
            # Rebuild the expression with aggregates replaced by their folds.
            substituted = self._substitute_aggregates(expression, members)
            try:
                return evaluate_expression(substituted, key_bindings, self._evaluate_exists)
            except ExpressionError:
                return None
        scope = dict(representative)
        scope.update(key_bindings)
        try:
            return evaluate_expression(expression, scope, self._evaluate_exists)
        except ExpressionError:
            return None

    def _substitute_aggregates(self, expression: Expression, members: List[Solution]):
        if isinstance(expression, Aggregate):
            value = self._fold_aggregate(expression, members)
            if value is None:
                raise ExpressionError("aggregate over empty group")
            return TermExpression(value)
        clone = copy.copy(expression)  # never mutate the parsed AST
        for slot in expression.__slots__:
            value = getattr(expression, slot)
            if isinstance(value, Expression):
                setattr(clone, slot, self._substitute_aggregates(value, members))
            elif isinstance(value, list):
                setattr(
                    clone,
                    slot,
                    [
                        self._substitute_aggregates(v, members)
                        if isinstance(v, Expression)
                        else v
                        for v in value
                    ],
                )
        return clone

    def _fold_aggregate(self, aggregate: Aggregate, members: List[Solution]) -> Optional[Term]:
        values: List[Term] = []
        if aggregate.expression is None:  # COUNT(*)
            if aggregate.distinct:
                unique = {tuple(sorted((v.name, t) for v, t in m.items())) for m in members}
                return Literal(len(unique))
            return Literal(len(members))

        for member in members:
            try:
                values.append(
                    evaluate_expression(aggregate.expression, member, self._evaluate_exists)
                )
            except ExpressionError:
                continue

        if aggregate.distinct:
            # first-seen order; a term hashes as it compares
            values = list(dict.fromkeys(values))
        return _fold(aggregate, values)

    # -- ordering / distinct -----------------------------------------------------

    def _apply_modifiers(
        self,
        query: SelectQuery,
        rows: List[Row],
        names: List[str],
        scopes: Optional[List[Solution]] = None,
    ) -> List[Row]:
        """The solution-modifier tail in spec order: ORDER BY, DISTINCT,
        OFFSET, LIMIT.

        ``scopes`` are the per-row sort scopes; when omitted they are
        rebuilt from the rows themselves (correct whenever the rows carry
        every variable ORDER BY may name, i.e. aggregate output).  Every
        term-space pipeline ends in this one tail; the count sink runs the
        same ORDER BY / OFFSET / LIMIT over its groups in ID space
        (:meth:`_id_modifiers`).
        """
        if query.order_by:
            if scopes is None:
                scopes = [
                    {
                        Variable(name): term
                        for name, term in row.items()
                        if term is not None
                    }
                    for row in rows
                ]
            rows = self._order(query, rows, scopes)
        if query.distinct:
            rows = self._distinct(rows, names)
        if query.offset:
            rows = rows[query.offset :]
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    def _order_key(self, condition, scope: Solution) -> Tuple:
        """One condition's sort key for one scope: ``(1, term key)`` or
        ``(0, ())`` when the key is unbound/errors (unbound sorts first).

        The count sink orders by the same keys (:func:`_sort_key_column`),
        so the orderings cannot diverge.
        """
        expression = condition.expression
        if isinstance(expression, VariableExpression):
            value = scope.get(expression.variable)
            return (1, value.sort_key()) if value is not None else (0, ())
        try:
            value = evaluate_expression(expression, scope, self._evaluate_exists)
            return (1, value.sort_key())
        except ExpressionError:
            return (0, ())

    def _order(
        self, query: SelectQuery, rows: List[Row], scopes: List[Solution]
    ) -> List[Row]:
        def sort_key(scope: Solution):
            return [
                self._order_key(condition, scope) for condition in query.order_by
            ]

        # Stable multi-key sort: sort by the last condition first; Python's
        # sort keeps equal elements in place even with reverse=True.
        decorated = [(sort_key(scope), row) for scope, row in zip(scopes, rows)]
        for position in range(len(query.order_by) - 1, -1, -1):
            reverse = query.order_by[position].descending
            decorated.sort(key=lambda item: item[0][position], reverse=reverse)
        return [row for _, row in decorated]

    @staticmethod
    def _distinct(rows: List[Row], variables: List[str]) -> List[Row]:
        seen = set()
        out: List[Row] = []
        for row in rows:
            key = tuple(row.get(name) for name in variables)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out


def evaluate(
    graph: Graph, query: Union[str, Query], strategy: str = "hash"
) -> Union[SelectResult, AskResult]:
    """Evaluate *query* (text or AST) against *graph*.

    ``strategy`` is ``"hash"`` (default) or ``"scan"`` (legacy oracle).
    """
    return QueryEngine(graph, strategy=strategy).run(query)
