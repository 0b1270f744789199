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

Three BGP pipelines sit behind ``QueryEngine(graph, strategy=...)``:

* ``"hash"`` (default) -- the eager dictionary-encoded hash-join pipeline
  above.  Small-LIMIT queries delegate to the streaming operators so
  pagination stops early.
* ``"stream"`` -- a volcano-style pipeline: every operator (pattern scan,
  hash/index join, FILTER, OPTIONAL, UNION, VALUES, projection, DISTINCT,
  OFFSET/LIMIT) is a generator over ID-tuple rows, so ``LIMIT k`` pulls
  exactly as much of the join as k rows require.  The two former pipeline
  breakers stream too: ``ORDER BY ... LIMIT k`` runs through a bounded
  ``heapq`` top-k (at most ``offset + k`` rows kept, stable tie-break on
  input order so the result equals sort-then-slice; DISTINCT rides along
  through a per-key champion table, so the result equals sort, stable
  dedup, slice), and column-shaped GROUP BY/aggregation folds
  incrementally into per-group :class:`_AggFold` accumulators (O(groups)
  state; COUNT DISTINCT via per-group seen-sets of encoded values).
* ``"scan"`` -- the legacy substitute-and-scan nested-loop join kept as
  the conformance oracle; the suite runs every query through all three
  pipelines and asserts identical solutions.

The *simple shape* -- plain triple patterns plus one-variable term-test
FILTERs, with bare-variable projections, sort keys and aggregates --
has one executor (:meth:`QueryEngine._run_select_simple`): a source of
ID *column* batches (``BATCH_SIZE`` rows each, volcano control flow
between batches) feeds a columnar FILTER (selection vectors) and one of
three sinks -- projection/DISTINCT/slice, top-k/sort, or GROUP BY fold
(:meth:`_AggFold.fold_batch`).  Rows stay dictionary IDs (and raw fold
values) through ORDER BY / DISTINCT / OFFSET / LIMIT
(:meth:`QueryEngine._id_modifiers`, which cuts what it holds to the
page's size after every batch and builds sort keys only for the rows a
cut has to compare); only the emitted page is decoded.
The source follows from the compiled patterns, never from a caller
option: a single pattern streams batches straight off the index
(:meth:`Graph.scan_columns`, materialising only the positions an
operator above reads -- :meth:`QueryEngine._wanted_variables`; zero-copy
on the sorted shard runs), several patterns run the eager join and
transpose its rows, and the ``stream`` engine chunks its lazy join
chain.

Compiled plans (encoded patterns + cardinality estimates) live in a
:class:`_SharedPlanCache` attached to the *graph* (one per graph, shared
by every engine over it, however short-lived), keyed by AST node identity
and validated against the graph's mutation ``generation``; together with
the parser's AST LRU this means a repeated query string skips tokenizing,
parsing, pattern encoding and estimation entirely -- on any engine.
"""

from __future__ import annotations

import heapq
from collections import Counter, OrderedDict
from itertools import chain as _chain
from itertools import islice as _islice
from itertools import repeat as _repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..obs.trace import NULL_TRACER
from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal, Term, Variable
from .errors import SparqlEvaluationError
from .functions import (
    ExpressionError,
    Solution,
    compare_terms,
    effective_boolean_value,
    evaluate_expression,
)
from .nodes import (
    Aggregate,
    AskQuery,
    CompareExpression,
    ExistsExpression,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    OptionalPattern,
    Projection,
    Query,
    SelectQuery,
    TermExpression,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VariableExpression,
    contains_aggregate,
)
from .parser import parse_query
from .results import AskResult, Row, SelectResult

__all__ = ["evaluate", "QueryEngine"]


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


#: Placeholder for a column a solution row does not bind (heterogeneous
#: solution streams after OPTIONAL / UNION).  Distinct from None, which is a
#: legal wildcard elsewhere.
_UNBOUND = object()

#: Term-kind tests the fast SELECT path can run without the expression
#: interpreter.  Keys are upper-cased builtin names; each maps a ground term
#: to the boolean the builtin (plus EBV) would produce.
_TERM_TESTS = {
    "ISLITERAL": lambda term: isinstance(term, Literal),
    "ISIRI": lambda term: isinstance(term, IRI),
    "ISURI": lambda term: isinstance(term, IRI),
    "ISBLANK": lambda term: isinstance(term, BNode),
    "BOUND": lambda term: True,
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


def _project_triple_columns(tcols, positions, simple):
    """(s, p, o) ID columns -> per-variable columns, or None when empty.

    The columnar counterpart of :func:`_triples_to_scan_rows`: ``simple``
    (no variable occurs at two positions) just selects columns; repeated
    variables keep only the rows where all their positions agree.
    """
    if simple:
        return [tcols[position[0]] for position in positions]
    n = len(tcols[0])
    selection = range(n)
    for position in positions:
        if len(position) > 1:
            first = position[0]
            selection = [
                i
                for i in selection
                if all(tcols[extra][i] == tcols[first][i] for extra in position[1:])
            ]
    if not selection:
        return None
    if len(selection) == n:
        return [tcols[position[0]] for position in positions]
    return [[tcols[position[0]][i] for i in selection] for position in positions]


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


def _simple_filter(expression: Expression):
    """``(test, variable)`` for one-variable term-test filters, else None."""
    if (
        isinstance(expression, FunctionCall)
        and len(expression.args) == 1
        and isinstance(expression.args[0], VariableExpression)
    ):
        test = _TERM_TESTS.get(expression.name)
        if test is not None:
            return test, expression.args[0].variable
    return None


def _concat_part(value: Term) -> str:
    """One GROUP_CONCAT fragment, per the fold the spec describes."""
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, IRI):
        return value.value
    return str(value)


class _AggFold:
    """Incremental fold of ONE aggregate inside ONE group.

    This is the single aggregation implementation behind every pipeline:
    the columnar aggregate sink, the streaming GROUP BY operator and the
    general ``_aggregate`` fold all feed values into instances of this
    class, so COUNT/SUM/MIN/MAX/AVG/SAMPLE/GROUP_CONCAT (and their
    DISTINCT variants) cannot diverge between strategies.

    Values arrive in solution order, either as dictionary IDs (with a
    ``decode`` callable; the columnar sink) or as ground terms (the
    term-level pipelines).  DISTINCT deduplicates on the *encoded*
    value -- IDs biject terms, so an ID seen-set equals a term seen-set
    without decoding, which is what keeps COUNT(DISTINCT ?v) from ever
    materializing member lists.  State is O(1) per group for the plain
    folds, O(distinct values) for DISTINCT and O(output) for
    GROUP_CONCAT.
    """

    __slots__ = (
        "function",
        "distinct",
        "separator",
        "seen",
        "count",
        "total",
        "numbers",
        "best",
        "best_key",
        "sample",
        "parts",
    )

    def __init__(self, aggregate: Aggregate, distinct: Optional[bool] = None):
        self.function = aggregate.function
        self.distinct = aggregate.distinct if distinct is None else distinct
        self.separator = aggregate.separator
        self.seen = set() if self.distinct else None
        self.count = 0  # COUNT result / COUNT(*) rows
        self.total = 0  # SUM/AVG running total (left fold, like sum())
        self.numbers = 0  # how many values were numeric (AVG divisor)
        self.best: Optional[Term] = None  # MIN/MAX champion
        self.best_key: Tuple = ()
        self.sample: Optional[Term] = None
        self.parts: Optional[List[str]] = (
            [] if aggregate.function == "GROUP_CONCAT" else None
        )

    def add_star(self, row_key=None) -> None:
        """Fold one group member into COUNT(*); *row_key* is the row's
        dedup identity, only consulted for COUNT(DISTINCT *)."""
        if self.seen is not None:
            if row_key in self.seen:
                return
            self.seen.add(row_key)
        self.count += 1

    def add_star_batch(self, n: int, rows=None) -> None:
        """Fold *n* group members into COUNT(*) at once.

        The vectorized counterpart of :meth:`add_star`: the plain fold
        is a single integer add.  ``rows`` supplies the member rows'
        dedup identities and is only consumed for COUNT(DISTINCT *).
        """
        if self.seen is None:
            self.count += n
            return
        seen = self.seen
        before = len(seen)
        seen.update(rows)
        self.count += len(seen) - before

    def fold_batch(self, values, decode=None) -> None:
        """Fold a column of bound values in one call.

        COUNT (plain and DISTINCT) vectorizes outright -- a length add,
        or a set-union delta, with no per-value Python dispatch.  The
        order-sensitive folds (MIN/MAX last-wins-among-equals, first
        SAMPLE, GROUP_CONCAT order, SUM's left fold) loop :meth:`add`
        over the column so batch results stay bit-identical to the
        row-at-a-time fold at any batch size.
        """
        if self.function == "COUNT":
            if self.seen is None:
                self.count += len(values)
                return
            seen = self.seen
            before = len(seen)
            seen.update(values)
            self.count += len(seen) - before
            return
        add = self.add
        for value in values:
            add(value, decode)

    def add(self, value, decode=None) -> None:
        """Fold one bound value (an ID when *decode* is given, else a term)."""
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        function = self.function
        if function == "COUNT":
            self.count += 1
            return
        term = decode(value) if decode is not None and type(value) is int else value
        if function in ("SUM", "AVG"):
            if isinstance(term, Literal):
                number = term.numeric_value()
                if number is None:
                    try:
                        number = float(term.lexical)
                    except ValueError:
                        return
                self.total = self.total + number
                self.numbers += 1
            return
        if function in ("MIN", "MAX"):
            key = term.sort_key()
            if self.best is None:
                self.best, self.best_key = term, key
            elif function == "MIN":
                if key < self.best_key:
                    self.best, self.best_key = term, key
            elif key >= self.best_key:
                # >= : among equal keys the *last* wins, matching the
                # stable sort-then-take-last the materialized fold used.
                self.best, self.best_key = term, key
            return
        if function == "SAMPLE":
            if self.sample is None:
                self.sample = term
            return
        self.parts.append(_concat_part(term))

    def value(self):
        """The fold's result before it is a term: a Python number or
        string (whose term is ``Literal(value)``), the winning term
        itself (MIN / MAX / SAMPLE), or None when there is no result.

        The columnar aggregate sink orders, deduplicates and slices
        groups on these (equal values make equal terms and vice versa
        within one aggregate's column) and builds terms only for the
        rows it emits.
        """
        function = self.function
        if function == "COUNT":
            return self.count
        if function == "SUM":
            total = self.total
            return int(total) if total == int(total) else float(total)
        if function == "AVG":
            if not self.numbers:
                return None
            mean = self.total / self.numbers
            return int(mean) if mean == int(mean) else float(mean)
        if function in ("MIN", "MAX"):
            return self.best
        if function == "SAMPLE":
            return self.sample
        if function == "GROUP_CONCAT":
            return self.separator.join(self.parts)
        raise SparqlEvaluationError(f"unhandled aggregate {function}")

    def result(self) -> Optional[Term]:
        return _fold_term(self.value())


def _fold_term(value) -> Optional[Term]:
    """The term of one :meth:`_AggFold.value`."""
    if value is None or isinstance(value, Term):
        return value
    return Literal(value)


class _TopKEntry:
    """One kept row of the bounded ORDER BY heap.

    ``__lt__`` means "sorts *later* in the final output than *other*", so
    under :mod:`heapq`'s min-heap discipline the root is always the worst
    row currently kept -- exactly the eviction candidate a bounded top-k
    needs.  ``keys`` holds one sort key per ORDER BY condition (built by
    the same key function the materialized sort uses), ``flags`` the
    per-condition descending markers, and ``seq`` the input sequence
    number: carrying it makes the order total, which is what pins the
    heap's output to sort-then-slice of the same input stream (stable
    tie-break on input order).
    """

    __slots__ = ("keys", "flags", "seq", "payload")

    def __init__(self, keys: Tuple, flags: Tuple[bool, ...], seq: int, payload):
        self.keys = keys
        self.flags = flags
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_TopKEntry") -> bool:
        for mine, theirs, descending in zip(self.keys, other.keys, self.flags):
            if mine != theirs:
                return (mine > theirs) != descending
        return self.seq > other.seq


def _champion_fold(entries: Iterator[_TopKEntry], key_of) -> Dict:
    """DISTINCT's per-key champion table, shared by every top-k variant.

    For each distinct dedup key (*key_of* over the entry payload) keep
    only the entry that sorts *earliest* in the final output order --
    under :class:`_TopKEntry`'s inverted ``__lt__`` ("sorts later"),
    that means replacing the champion exactly when ``champion < entry``.
    Feeding the champions to :func:`_topk_fold` then equals sort ->
    stable dedup -> slice, the modifier order the spec defines.  State
    is O(distinct keys), the cost DISTINCT itself implies.
    """
    champions: Dict = {}
    for entry in entries:
        key = key_of(entry.payload)
        champion = champions.get(key)
        if champion is None or champion < entry:
            champions[key] = entry
    return champions


def _topk_fold(entries: Iterator[_TopKEntry], keep: int) -> List[_TopKEntry]:
    """The k first-in-sort-order entries of a stream, in output order.

    Holds at most *keep* entries at any point.  Equivalent to sorting the
    whole stream and slicing ``[:keep]`` because the entry order is total
    (``seq`` breaks every tie).
    """
    if keep <= 0:
        for _ in entries:
            pass  # callers may collect headers/stats while streaming
        return []
    heap: List[_TopKEntry] = []
    push, replace = heapq.heappush, heapq.heapreplace
    for entry in entries:
        if len(heap) < keep:
            push(heap, entry)
        elif heap[0] < entry:
            # the root sorts later than the candidate -> candidate is
            # among the best `keep` seen so far; evict the root.
            replace(heap, entry)
    return sorted(heap, reverse=True)


def _sort_key_column(values, memo: Dict, term_of) -> List[Tuple]:
    """One ORDER BY condition's keys for a column of ID-space cells.

    A bound cell's key is its term's ``sort_key()``; an unbound cell's
    is ``()``, which sorts before every term key -- the order
    :meth:`QueryEngine._order_key` defines.  Keys are built once per
    distinct cell: *term_of* (a dictionary decode, or :func:`_fold_term`
    for raw fold values) runs on *memo* misses only.
    """
    for value in set(values).difference(memo):
        term = None if value is None else term_of(value)
        memo[value] = () if term is None else term.sort_key()
    return list(map(memo.__getitem__, values))


def _first_in_order(columns, indices: List[int], room, conditions, memos, level=0):
    """The *room* first of the rows *indices* in ORDER BY order, unordered.

    *indices* ascend (row sequence) and tie on every condition before
    *level*.  Lazy, left to right: this condition's keys settle every row
    but those tying with the ``room``-th best key; only they get the next
    condition's keys, and after the last condition the earliest rows win.
    """
    if len(indices) <= room:
        return indices
    if level == len(conditions) or not room:
        return indices[:room]
    column, descending, term_of = conditions[level]
    cells = columns[column]
    keys = _sort_key_column([cells[i] for i in indices], memos[level], term_of)
    if descending:
        bound = heapq.nlargest(room, keys)[-1]
        better = [i for i, key in zip(indices, keys) if key > bound]
    else:
        bound = heapq.nsmallest(room, keys)[-1]
        better = [i for i, key in zip(indices, keys) if key < bound]
    ties = [i for i, key in zip(indices, keys) if key == bound]
    return better + _first_in_order(
        columns, ties, room - len(better), conditions, memos, level + 1
    )


class _EncodedPattern:
    """One triple pattern compiled to dictionary-ID space.

    ``spec`` holds one entry per position (subject, predicate, object):

    * ``int``          -- a ground term's dictionary ID,
    * :class:`Variable`-- a query variable,
    * ``None``         -- a wildcard (blank node in the pattern, or the
      predicate slot of a property-path pattern),
    * :class:`Term`    -- a ground term that is *not* interned; impossible
      for plain patterns, but a path endpoint can still satisfy zero-length
      closure semantics, so path patterns keep the raw term for the
      term-level fallback.
    """

    __slots__ = ("index", "path", "spec", "variables", "var_positions", "impossible", "est")

    def __init__(self, index: int, pattern: TriplePattern, graph: Graph):
        from .paths import is_path

        self.index = index
        self.path = pattern.predicate if is_path(pattern.predicate) else None
        self.impossible = False
        self.variables: List[Variable] = []
        self.var_positions: Dict[Variable, List[int]] = {}
        spec: List = []
        positions = (pattern.subject, pattern.predicate, pattern.object)
        for position, term in enumerate(positions):
            if position == 1 and self.path is not None:
                spec.append(None)
                continue
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
                    if self.path is None:
                        self.impossible = True
                    spec.append(term)
                else:
                    spec.append(term_id)
        self.spec = tuple(spec)
        self.est = self._estimate(graph)

    def _estimate(self, graph: Graph) -> float:
        """Scan cardinality with only the ground positions bound."""
        if self.path is not None:
            s_bound = not isinstance(self.spec[0], Variable) and self.spec[0] is not None
            o_bound = not isinstance(self.spec[2], Variable) and self.spec[2] is not None
            if s_bound and o_bound:
                return 1.0
            if s_bound or o_bound:
                return 64.0
            return 4.0 * len(graph) + 64.0
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
    that AST's pattern nodes.  Pattern encoding is strategy-independent
    (every pipeline consumes the same :class:`_EncodedPattern`), so the
    ``hash``/``stream``/``scan`` engines of one graph share entries too.

    Keys are object identities, safe because the value holds a strong
    reference to the very pattern objects the ids name -- a live id can
    never be reused by a different object.
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
        entry, _ = self.lookup(
            graph,
            tuple(map(id, patterns)),
            lambda: (
                tuple(patterns),
                [
                    _EncodedPattern(index, pattern, graph)
                    for index, pattern in enumerate(patterns)
                ],
            ),
        )
        return entry[1]


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

    #: tables kept per graph.  Measured on the 110-endpoint census: one
    #: live table on 107 graphs, two on 3; 90,937 rows, about 16 MB in all.
    PROBE_CACHE_SIZE = 4

    __slots__ = ()

    def __init__(self):
        super().__init__(self.PROBE_CACHE_SIZE)


#: The documented ``exec_stats`` vocabulary.  Every engine/parallel-exec
#: write site uses exactly these snake_case keys (pinned by
#: ``tests/obs/test_explain.py``); the serving metrics bridge and
#: ``SparqlEndpoint._estimate_latency`` read them through
#: :meth:`QueryEngine.exec_stats_snapshot`.
EXEC_STAT_KEYS = frozenset(
    {
        # sink counters.  ``operator`` names the sink that produced the
        # result: ``select-id`` / ``topk-id`` / ``aggregate-id`` (the
        # simple-shape columnar sinks; ``topk-id`` covers the un-LIMITed
        # sort), ``stream-select`` / ``topk`` / ``stream-aggregate`` (the
        # term-space streaming operators)
        "operator",
        "input_rows",       # rows consumed by that operator
        "tracked_rows",     # max rows/groups it ever held between batches
                            # (memory contract); ``aggregate-id``: the
                            # groups folded
        "distinct_keys",    # DISTINCT seen-set / champion-table size; the
                            # ID-space tail: most keys it held at once
        "scan_cells",       # rows x wanted columns a single-pattern scan
                            # materialised (``Graph.scan_columns``)
        "sort_keys",        # ORDER BY keys the ID-space tail built (one
                            # per distinct cell it had to compare)
        "having_pruned",    # groups dropped by HAVING pushdown
        "decoded_rows",     # rows decoded at the result boundary;
                            # ``aggregate-id``: the page that survived
                            # ORDER BY / DISTINCT / OFFSET / LIMIT, not
                            # the groups
        "batches",          # column batches a columnar sink consumed
        # shard fan-out counters (sparql/parallel_exec.py)
        "shard_batches",        # partition-parallel batches dispatched
        "shard_parallel_ms",    # simulated cost booked for the batches
        "shard_sequential_ms",  # what the same scans would cost serially
        "shard_rows",           # rows merged out of the sorted runs
        "shard_warm_batches",   # batches that reused the warm worker set
    }
)


class QueryEngine:
    """Evaluates parsed queries against one graph.

    Instances are cheap; hold one per graph or just use :func:`evaluate`.
    ``strategy`` selects the BGP pipeline: ``"hash"`` (default) is the
    eager dictionary-encoded hash-join pipeline, ``"stream"`` the lazy
    volcano-style generator pipeline with OFFSET/LIMIT pushdown, and
    ``"scan"`` the legacy substitute-and-scan nested-loop join kept for
    conformance A/B runs.

    Planning is amortized across *all* engines of a graph: compiled
    patterns live in a :class:`_SharedPlanCache` attached to the graph,
    keyed on AST identity and invalidated when ``graph.generation``
    moves, so even transient engines start warm.
    """

    #: rows per column batch of the simple-shape executor -- large
    #: enough to amortize per-batch dispatch, small enough that a
    #: batch's columns stay cache-resident
    BATCH_SIZE = 1024

    def __init__(self, graph: Graph, strategy: str = "hash"):
        if strategy not in ("hash", "stream", "scan"):
            raise ValueError(f"unknown BGP strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        #: the partition-parallel scan target when the graph is a
        #: ShardedTripleStore (duck-typed: rdf must not import sparql)
        self._sharded = graph if getattr(graph, "is_sharded", False) else None
        self._plans: _SharedPlanCache = graph.derived_cache(
            "sparql/plans", _SharedPlanCache
        )
        self._probes: _SharedProbeCache = graph.derived_cache(
            "sparql/probe-tables", _SharedProbeCache
        )
        #: the engine's ShardScanPool (created lazily in run(), keyed on
        #: the store's shard layout and threaded through every shard
        #: batch the engine dispatches) -- back-to-back queries on one
        #: engine reuse the warm workers; only the first batch after a
        #: layout change pays the cold spin-up
        self._scan_pool = None
        #: observability for the bounded operators: the last top-k /
        #: streaming-aggregation run records how many rows it consumed and
        #: how many it ever held (benchmarks assert the O(k) / O(groups)
        #: memory contract through this).  Keys come from the documented
        #: ``EXEC_STAT_KEYS`` vocabulary; read via ``exec_stats_snapshot``.
        self.exec_stats: Dict[str, int] = {}
        #: span recorder (``repro.obs``).  Defaults to the shared no-op
        #: tracer; hot paths guard on ``self.obs.enabled`` so the
        #: disabled cost is one attribute read.
        self.obs = NULL_TRACER

    # -- compiled-plan cache ---------------------------------------------------

    def plan_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the graph's shared plan cache."""
        return self._plans.info()

    def probe_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the graph's shared probe-table cache."""
        return self._probes.info()

    def _compile_patterns(
        self, patterns: Sequence[TriplePattern]
    ) -> List[_EncodedPattern]:
        return self._plans.compile(self.graph, patterns)

    # -- public API -----------------------------------------------------------

    def run(self, query: Union[str, Query]) -> Union[SelectResult, AskResult]:
        # Reset per query: paths that don't track counters must not leave
        # a previous query's stats behind for a caller to misread.
        self.exec_stats = {}
        if self._sharded is not None:
            # One warm worker set per engine, keyed on the shard layout:
            # every shard batch any query on this engine dispatches
            # shares it, so back-to-back queries skip the cold spin-up.
            # ``clear()`` / re-partitioning replace the shards tuple,
            # which retires the pool (identity key holds the tuple, so
            # a recycled id can never alias a dead layout).
            layout = self._sharded.shards
            pool = self._scan_pool
            if pool is None or pool.layout_key is not layout:
                from .parallel_exec import ShardScanPool

                self._scan_pool = ShardScanPool(self._sharded, layout_key=layout)
        if isinstance(query, str):
            query = parse_query(query)
        obs = self.obs
        if not obs.enabled:
            return self._dispatch(query)
        obs.begin("sparql.run", strategy=self.strategy)
        try:
            return self._dispatch(query)
        finally:
            # exec_stats is fully populated by now; the run span carries
            # the snapshot so a trace is self-contained.
            obs.end(exec_stats=dict(self.exec_stats))

    def _dispatch(self, query: Query) -> Union[SelectResult, AskResult]:
        if isinstance(query, SelectQuery):
            return self._run_select(query)
        if isinstance(query, AskQuery):
            return AskResult(self._any_solution(query.where))
        raise SparqlEvaluationError(f"cannot evaluate {type(query).__name__}")

    def exec_stats_snapshot(self) -> Dict[str, int]:
        """A copy of the last run's ``exec_stats``.

        The engine reuses/replaces the live dict between runs, so
        callers that read counters *after* the query returns (endpoint
        latency model, serving metrics bridge) must snapshot here
        rather than alias ``self.exec_stats``.
        """
        return dict(self.exec_stats)

    def explain(self, query: Union[str, Query]) -> "ExplainReport":
        """EXPLAIN ANALYZE: execute *query* under a private tracer and
        return the annotated operator span tree (rows in/out, tracked
        state, shard fan-out).  The engine's attached ``obs`` recorder
        is restored afterwards, so explaining never pollutes a serving
        trace."""
        from ..obs.explain import ExplainReport
        from ..obs.trace import Tracer

        text = query if isinstance(query, str) else "<parsed query>"
        # No clock (the engine charges no latency — rows matter, not
        # time); detail on (operator spans are the whole point here).
        tracer = Tracer(seed=0, detail=True)
        previous = self.obs
        self.obs = tracer
        try:
            result = self.run(query)
        finally:
            self.obs = previous
        rows = len(result.rows) if hasattr(result, "rows") else None
        return ExplainReport(
            query=text,
            strategy=self.strategy,
            rows=rows,
            exec_stats=self.exec_stats_snapshot(),
            tracer=tracer,
            trace_id=tracer.trace_ids()[0],
        )

    def _operator_event(self) -> None:
        """Record the bounded operator that just finished as a closed
        span (call sites guard on ``self.obs.detail`` — operator events
        are the EXPLAIN-tier of the trace vocabulary)."""
        stats = {
            key: value
            for key, value in self.exec_stats.items()
            if not key.startswith("shard_")
        }
        name = stats.pop("operator", "operator")
        self.obs.event(f"sparql.{name}", **stats)

    # -- pattern evaluation -----------------------------------------------------

    def _evaluate_group(
        self, group: GroupPattern, bindings: Iterable[Solution]
    ) -> Iterator[Solution]:
        """Evaluate a group pattern given an input solution stream."""
        if self.strategy == "stream":
            return self._evaluate_group_stream(group, iter(bindings))
        return self._evaluate_group_eager(group, bindings)

    def _evaluate_group_eager(
        self, group: GroupPattern, bindings: Iterable[Solution]
    ) -> Iterator[Solution]:
        """The materializing group pipeline (hash and scan strategies)."""
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
        if self.strategy == "hash":
            return self._evaluate_bgp_hash(patterns, solutions)
        return self._evaluate_bgp_scan(patterns, solutions)

    # -- the dictionary-encoded hash-join pipeline -----------------------------

    def _evaluate_bgp_hash(
        self, patterns: List[TriplePattern], solutions: List[Solution]
    ) -> List[Solution]:
        """Greedy selectivity-ordered joins over ID-tuple solution rows."""
        if not patterns or not solutions:
            return solutions
        joined = self._bgp_id_rows(patterns, solutions)
        if joined is None:
            return []
        rows, col_of = joined
        if not rows:
            return []

        decode = self.graph.decode_id
        out: List[Solution] = []
        layout = list(col_of.items())
        for row in rows:
            solution = {}
            for variable, column in layout:
                value = row[column]
                if value is _UNBOUND:
                    continue
                solution[variable] = decode(value) if type(value) is int else value
            out.append(solution)
        return out

    def _bgp_id_rows(
        self, patterns: List[TriplePattern], solutions: List[Solution]
    ) -> Optional[Tuple[List[Tuple], Dict[Variable, int]]]:
        """The BGP join pipeline in ID space.

        Returns ``(rows, column_of)`` where each row is a tuple of
        dictionary IDs (or raw non-interned terms carried through from the
        input solutions), or ``None`` when a pattern can match nothing.
        """
        graph = self.graph
        encoded = self._compile_patterns(patterns)
        for compiled in encoded:
            if compiled.impossible:
                return None

        # Column layout: one slot per variable ever bound; rows are tuples.
        columns: List[Variable] = []
        col_of: Dict[Variable, int] = {}
        for solution in solutions:
            for variable in solution:
                if variable not in col_of:
                    col_of[variable] = len(columns)
                    columns.append(variable)
        lookup = graph.lookup_id
        width = len(columns)
        rows: List[Tuple] = []
        for solution in solutions:
            row = [_UNBOUND] * width
            for variable, term in solution.items():
                term_id = lookup(term)
                # Terms outside the dictionary stay as raw terms: they hash
                # fine and can never equal a scanned ID, which is exactly
                # the join semantics they need.
                row[col_of[variable]] = term_id if term_id is not None else term
            rows.append(tuple(row))

        remaining = list(encoded)
        while remaining and rows:
            chosen = min(
                remaining,
                key=lambda ep: (ep.est / (16.0 ** sum(1 for v in ep.variables if v in col_of)), ep.index),
            )
            remaining.remove(chosen)
            rows, columns, col_of = self._join_pattern(chosen, rows, columns, col_of)
        return rows, col_of

    def _join_pattern(
        self,
        ep: _EncodedPattern,
        rows: List[Tuple],
        columns: List[Variable],
        col_of: Dict[Variable, int],
    ) -> Tuple[List[Tuple], List[Variable], Dict[Variable, int]]:
        """Join one pattern into the current solution rows."""
        shared = [v for v in ep.variables if v in col_of]
        new_vars = [v for v in ep.variables if v not in col_of]
        new_columns = columns + new_vars
        new_col_of = dict(col_of)
        for variable in new_vars:
            new_col_of[variable] = len(col_of) + new_vars.index(variable)

        if not shared:
            # Cartesian extension; scan once.  new_vars == ep.variables here.
            scan = list(self._scan_pattern(ep))
            if not scan:
                return [], new_columns, new_col_of
            return [row + srow for row in rows for srow in scan], new_columns, new_col_of

        if ep.path is not None or ep.est > 4.0 * len(rows):
            out = self._index_join(ep, rows, col_of, new_col_of, len(new_vars))
            return out, new_columns, new_col_of

        # Hash join: scan once, key the scan rows on the shared variables,
        # probe with every intermediate row.
        table = self._build_probe_table(ep, shared, new_vars)
        out: List[Tuple] = []
        fallback: List[Tuple] = []
        get = table.get
        if len(shared) == 1:
            shared_col = col_of[shared[0]]
            for row in rows:
                key = row[shared_col]
                if key is _UNBOUND:
                    fallback.append(row)
                    continue
                bucket = get(key)
                if bucket:
                    for extra in bucket:
                        out.append(row + extra)
        else:
            shared_cols = [col_of[v] for v in shared]
            for row in rows:
                key = tuple(row[c] for c in shared_cols)
                if _UNBOUND in key:
                    fallback.append(row)  # heterogeneous row; handle per-row below
                    continue
                bucket = get(key)
                if bucket:
                    for extra in bucket:
                        out.append(row + extra)
        if fallback:
            out.extend(self._index_join(ep, fallback, col_of, new_col_of, len(new_vars)))
        return out, new_columns, new_col_of

    def _build_probe_table(
        self,
        ep: _EncodedPattern,
        shared: Sequence[Variable],
        new_vars: Sequence[Variable],
    ) -> Dict:
        """*ep* scanned into ``{shared key: [new-variable tuples]}``.

        The build side of both hash joins (eager and streaming).  A single
        shared variable (the overwhelmingly common join shape) keys on the
        bare value instead of a 1-tuple.

        The table comes from the graph's :class:`_SharedProbeCache` when
        this generation already built it; ``sparql.probe_build`` fires
        either way (``cached`` says which), ``sparql.scan`` only when the
        scan ran.  Two builds stay uncached.  A property-path table
        depends on the path expression and on raw (non-interned) endpoint
        terms, neither of which the ID key holds.  A sharded graph's
        shard-spanning build (subject unbound) runs partition-parallel
        -- per-shard tables merge rank-ordered into the same table the
        sequential fold would produce -- and ``parallel_probe_table``
        books its simulated shard time into ``exec_stats``, which
        ``SparqlEndpoint._estimate_latency`` reads: a hit that skipped
        it would move simulated latency, and with it the serving digests.
        """
        var_index = {v: i for i, v in enumerate(ep.variables)}
        key_positions = tuple(var_index[v] for v in shared)
        new_positions = tuple(var_index[v] for v in new_vars)
        ground = tuple(v if type(v) is int else None for v in ep.spec)
        var_positions = [ep.var_positions[v] for v in ep.variables]
        cached = False
        if ep.path is not None:
            table = self._probe_table(ep, key_positions, new_positions)
        elif self._sharded is not None and ground[0] is None:
            from .parallel_exec import parallel_probe_table

            table = parallel_probe_table(
                self._sharded,
                *ground,
                var_positions,
                key_positions,
                new_positions,
                stats=self.exec_stats,
                pool=self._scan_pool,
                obs=self.obs,
            )
        else:
            table, cached = self._probes.lookup(
                self.graph,
                (ground, tuple(map(tuple, var_positions)), key_positions, new_positions),
                lambda: self._probe_table(ep, key_positions, new_positions),
            )
        if self.obs.detail:
            self.obs.event(
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
        return table

    def _scan_pattern(self, ep: _EncodedPattern) -> Iterator[Tuple]:
        """Scan *ep* with only its ground positions bound.

        Yields one ID tuple per match, ordered like ``ep.variables``.
        """
        if self.obs.detail:
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
            self.obs.event(
                "sparql.scan",
                pattern=ep.index,
                estimate=ep.est,
                rows_out=rows,
                exhausted=exhausted,
            )

    def _scan_rows(self, ep: _EncodedPattern) -> Iterator[Tuple]:
        if ep.path is not None:
            yield from self._scan_path(ep, ep.spec[0], ep.spec[2])
            return
        spec = ep.spec
        s, p, o = (v if type(v) is int else None for v in spec)
        positions = [ep.var_positions[v] for v in ep.variables]
        if self._sharded is not None and s is None:
            # Subject unbound -> the scan spans shards: run it partition-
            # parallel and consume the canonical (shard-count-invariant)
            # merged stream.  Subject-bound scans route straight to the
            # owning shard -- the whole forward star lives there anyway.
            from .parallel_exec import parallel_scan_ids

            triples = parallel_scan_ids(
                self._sharded,
                s,
                p,
                o,
                stats=self.exec_stats,
                pool=self._scan_pool,
                obs=self.obs,
            )
            yield from _triples_to_scan_rows(triples, positions)
            return
        yield from _triples_to_scan_rows(self.graph.triples_ids(s, p, o), positions)

    def _scan_path(self, ep: _EncodedPattern, s_spec, o_spec) -> Iterator[Tuple]:
        """Path-pattern scan; spec entries as in :class:`_EncodedPattern`."""
        from .paths import evaluate_path, evaluate_path_ids

        graph = self.graph
        if isinstance(s_spec, Term) and not isinstance(s_spec, Variable) or (
            isinstance(o_spec, Term) and not isinstance(o_spec, Variable)
        ):
            # A non-interned ground endpoint: only zero-length closure
            # semantics can satisfy it -- delegate to the term level.
            s_term = self._path_endpoint_term(s_spec)
            o_term = self._path_endpoint_term(o_spec)
            pairs = self._encode_pairs(evaluate_path(graph, ep.path, s_term, o_term))
        else:
            s = s_spec if type(s_spec) is int else None
            o = o_spec if type(o_spec) is int else None
            pairs = evaluate_path_ids(graph, ep.path, s, o)
        yield from self._pairs_to_rows(ep, pairs)

    def _path_endpoint_term(self, spec) -> Optional[Term]:
        if type(spec) is int:
            return self.graph.decode_id(spec)
        if isinstance(spec, Term) and not isinstance(spec, Variable):
            return spec
        return None

    def _encode_pairs(self, pairs) -> Iterator[Tuple]:
        """Map term pairs back into hybrid ID space (raw terms survive)."""
        lookup = self.graph.lookup_id
        for s_term, o_term in pairs:
            s = lookup(s_term)
            o = lookup(o_term)
            yield (s if s is not None else s_term, o if o is not None else o_term)

    def _pairs_to_rows(self, ep: _EncodedPattern, pairs) -> Iterator[Tuple]:
        """Turn path (s, o) pairs into scan rows over ``ep.variables``."""
        s_spec, o_spec = ep.spec[0], ep.spec[2]
        s_var = s_spec if isinstance(s_spec, Variable) else None
        o_var = o_spec if isinstance(o_spec, Variable) else None
        # Compare by equality: the parser mints distinct-but-equal Variable
        # objects for the two positions of ``?x path ?x``.
        if s_var is not None and s_var == o_var:
            for s, o in pairs:
                if s == o:
                    yield (s,)
            return
        if s_var is not None and o_var is not None:
            yield from pairs
            return
        if s_var is not None:
            for s, _ in pairs:
                yield (s,)
            return
        if o_var is not None:
            for _, o in pairs:
                yield (o,)
            return
        for _ in pairs:
            yield ()
            return  # ground-ground path: one witness is enough

    def _index_join(
        self,
        ep: _EncodedPattern,
        rows: List[Tuple],
        col_of: Dict[Variable, int],
        new_col_of: Dict[Variable, int],
        extra_width: int,
    ) -> List[Tuple]:
        """Per-row index lookups (the INLJ side of the pipeline)."""
        if ep.path is None and all(
            len(positions) == 1 for positions in ep.var_positions.values()
        ):
            bound_columns = [col_of[v] for v in ep.variables if v in col_of]
            homogeneous = not any(
                row[column] is _UNBOUND for column in bound_columns for row in rows
            )
            if homogeneous:
                return self._index_join_plain(ep, rows, col_of)
        return self._index_join_general(ep, rows, col_of, new_col_of, extra_width)

    def _index_join_plain(
        self, ep: _EncodedPattern, rows: List[Tuple], col_of: Dict[Variable, int]
    ) -> List[Tuple]:
        """INLJ fast path: no repeated variables, every row binds the shared
        columns.  Bound positions are per-row constants, so matches append
        straight onto the row -- no merge bookkeeping -- and the index dicts
        are walked directly.

        On a sharded graph the probes route: a subject-bound row walks the
        owning shard's local indexes (same O(1) dict hops, no fan-out), and
        an unbound-subject row consumes the store's canonical sorted-merge
        stream, so probe results stay shard-count-invariant.
        """
        graph = self.graph
        store = self._sharded
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
            else:  # wildcard (blank node); raw terms are impossible here
                resolved.append(("free", None))
        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = resolved
        # New variables appear in ascending position order (no repeats), so
        # the extractor table below covers every combination.
        extra_positions = tuple(
            ep.var_positions[v][0] for v in ep.variables if v not in col_of
        )
        make = _ROW_EXTRACTORS[extra_positions]

        out: List[Tuple] = []
        append = out.append
        for row in rows:
            s = s_val if s_kind == "const" else (row[s_val] if s_kind == "col" else None)
            p = p_val if p_kind == "const" else (row[p_val] if p_kind == "col" else None)
            o = o_val if o_kind == "const" else (row[o_val] if o_kind == "col" else None)
            if (
                (s is not None and type(s) is not int)
                or (p is not None and type(p) is not int)
                or (o is not None and type(o) is not int)
            ):
                continue  # a raw non-interned term matches no triple
            if store is not None:
                if s is None:
                    if p is not None and o is not None:
                        # The common fully-bound probe: one small subject
                        # set per shard -- concatenate and sort once, no
                        # per-shard run/merge machinery.  Same output as
                        # the routed stream ((p, o) fixed, so sorting the
                        # subjects is sorting the triples).
                        matched = [
                            subj
                            for probe_shard in store.shards
                            for subj in probe_shard.pos.get(p, {}).get(o, ())
                        ]
                        matched.sort()
                        for subj in matched:
                            append(row + make(subj, p, o))
                        continue
                    # Shard-spanning probe: consume the canonical routed
                    # stream (sorted fan-out merge) instead of global dicts.
                    for triple in store.triples_ids(None, p, o):
                        append(row + make(*triple))
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
                            append(row + make(s, p, o))
                        continue
                    for obj in objects:
                        append(row + make(s, p, obj))
                    continue
                if o is not None:
                    predicates = osp.get(o, {}).get(s)
                    if predicates:
                        for pred in predicates:
                            append(row + make(s, pred, o))
                    continue
                for pred, objects in by_predicate.items():
                    for obj in objects:
                        append(row + make(s, pred, obj))
                continue
            if p is not None:
                by_object = pos.get(p)
                if not by_object:
                    continue
                if o is not None:
                    for subj in by_object.get(o, ()):
                        append(row + make(subj, p, o))
                    continue
                for obj, subjects in by_object.items():
                    for subj in subjects:
                        append(row + make(subj, p, obj))
                continue
            if o is not None:
                for subj, predicates in osp.get(o, {}).items():
                    for pred in predicates:
                        append(row + make(subj, pred, o))
                continue
            for triple in graph.triples_ids(None, None, None):
                append(row + make(*triple))
        return out

    def _index_join_general(
        self,
        ep: _EncodedPattern,
        rows: List[Tuple],
        col_of: Dict[Variable, int],
        new_col_of: Dict[Variable, int],
        extra_width: int,
    ) -> List[Tuple]:
        """Per-row index lookups: the fully general merge (repeated
        variables, heterogeneous rows, property paths)."""
        graph = self.graph
        out: List[Tuple] = []
        width = len(col_of)
        is_node_id = graph.is_node_id
        for row in rows:
            # Resolve each position against this row.
            resolved: List = []
            dead = False
            for position, spec in enumerate(ep.spec):
                if isinstance(spec, Variable):
                    column = col_of.get(spec)
                    value = row[column] if column is not None else _UNBOUND
                    if value is _UNBOUND:
                        resolved.append(None)
                    elif type(value) is int:
                        if (
                            ep.path is not None
                            and position != 1
                            and not is_node_id(value)
                        ):
                            # A variable path endpoint ranges over the node
                            # universe only (join-order independence; the
                            # scan pipeline enforces the same rule).
                            dead = True
                            break
                        resolved.append(value)
                    else:
                        dead = True  # non-interned term can match no triple
                        break
                else:
                    resolved.append(spec)
            if dead:
                continue

            if ep.path is not None:
                matches = self._row_path_matches(ep, resolved[0], resolved[2])
            else:
                matches = self._row_plain_matches(ep, resolved)

            for bound in matches:  # bound: value per ep.variables
                merged = None
                extra = [_UNBOUND] * extra_width
                for variable, value in zip(ep.variables, bound):
                    column = col_of.get(variable)
                    if column is None:
                        extra[new_col_of[variable] - width] = value
                    elif row[column] is _UNBOUND:
                        if merged is None:
                            merged = list(row)
                        merged[column] = value
                base = tuple(merged) if merged is not None else row
                out.append(base + tuple(extra))
        return out

    def _row_plain_matches(self, ep: _EncodedPattern, resolved: List) -> Iterator[Tuple]:
        """Matches for a plain pattern with per-row constants substituted."""
        s, p, o = resolved
        positions = [ep.var_positions[v] for v in ep.variables]
        yield from _triples_to_scan_rows(self.graph.triples_ids(s, p, o), positions)

    def _row_path_matches(
        self, ep: _EncodedPattern, s_value: Optional[int], o_value: Optional[int]
    ) -> Iterator[Tuple]:
        """Matches for a path pattern with per-row endpoint bindings.

        Endpoints are node IDs or None by this point: the resolution step
        already rejected rows binding a path-endpoint variable to a raw or
        non-node term.
        """
        from .paths import evaluate_path_ids

        pairs = evaluate_path_ids(self.graph, ep.path, s_value, o_value)
        yield from self._pairs_to_rows(ep, pairs)

    # -- the streaming (volcano-style) pipeline --------------------------------
    #
    # Every operator is a generator over ID-tuple rows; a row is pulled
    # through the whole chain before the next one is produced, so a bounded
    # consumer (LIMIT, ASK, EXISTS) stops the scans underneath it early.
    # Physical operators are shared with the hash pipeline (_scan_pattern,
    # _index_join); what changes is the control flow around them.

    def _evaluate_group_stream(
        self, group: GroupPattern, solutions: Iterator[Solution]
    ) -> Iterator[Solution]:
        """Lazy group pipeline: compose generators element by element."""
        stream = solutions
        filters: List[FilterPattern] = []
        pending: List[TriplePattern] = []
        for element in group.elements:
            if isinstance(element, TriplePattern):
                pending.append(element)
                continue
            if isinstance(element, FilterPattern):
                filters.append(element)
                continue
            if pending:
                stream = self._stream_bgp(tuple(pending), stream)
                pending = []
            if isinstance(element, OptionalPattern):
                stream = self._stream_optional(element, stream)
            elif isinstance(element, UnionPattern):
                stream = self._stream_union(element, stream)
            elif isinstance(element, GroupPattern):
                stream = self._evaluate_group_stream(element, stream)
            elif isinstance(element, ValuesPattern):
                stream = self._stream_values(element, stream)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvaluationError(f"unknown pattern element {element!r}")
        if pending:
            stream = self._stream_bgp(tuple(pending), stream)
        for filter_pattern in filters:
            stream = self._stream_filter(filter_pattern.expression, stream)
        return stream

    def _stream_filter(
        self, expression: Expression, stream: Iterator[Solution]
    ) -> Iterator[Solution]:
        for solution in stream:
            if self._filter_passes(expression, solution):
                yield solution

    def _stream_optional(
        self, element: OptionalPattern, stream: Iterator[Solution]
    ) -> Iterator[Solution]:
        for solution in stream:
            extended = self._evaluate_group_stream(element.group, iter((solution,)))
            first = next(extended, _UNBOUND)
            if first is _UNBOUND:
                yield solution
            else:
                yield first
                yield from extended

    def _stream_union(
        self, element: UnionPattern, stream: Iterator[Solution]
    ) -> Iterator[Solution]:
        # UNION replays its input once per alternative, so the input is the
        # one place the stream pipeline has to buffer.  Alternatives still
        # evaluate lazily, alternative-major like the eager pipeline.
        buffered = list(stream)
        for alternative in element.alternatives:
            yield from self._evaluate_group_stream(alternative, iter(buffered))

    def _stream_values(
        self, element: ValuesPattern, stream: Iterator[Solution]
    ) -> Iterator[Solution]:
        for solution in stream:
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
                    yield candidate

    def _stream_bgp(
        self, patterns: Sequence[TriplePattern], solutions: Iterator[Solution]
    ) -> Iterator[Solution]:
        """The BGP join chain as a per-input-solution volcano pipeline.

        Each input solution seeds a single ID row; one generator per
        pattern extends rows lazily.  Operator state that is worth sharing
        across input solutions (hash-join build tables, cartesian scan
        buffers) lives in ``state`` keyed by pattern, so heterogeneous
        input headers each get a layout but the expensive scans run once.
        """
        encoded = self._compile_patterns(patterns)
        if any(ep.impossible for ep in encoded):
            return
        graph = self.graph
        lookup = graph.lookup_id
        decode = graph.decode_id
        plans: Dict[frozenset, Tuple] = {}
        state: Dict = {}
        for solution in solutions:
            header = frozenset(solution)
            plan = plans.get(header)
            if plan is None:
                plan = plans[header] = self._stream_plan(encoded, solution)
            columns, steps, out_layout = plan
            row: List = []
            for variable in columns:
                term = solution[variable]
                term_id = lookup(term)
                # Non-interned terms ride along raw; they can never equal a
                # scanned ID, which is the join semantics they need.
                row.append(term_id if term_id is not None else term)
            source: Iterator[Tuple] = iter((tuple(row),))
            for step in steps:
                source = self._stream_step(step, source, state)
            for out_row in source:
                out: Solution = {}
                for variable, column in out_layout:
                    value = out_row[column]
                    if value is _UNBOUND:
                        continue
                    out[variable] = decode(value) if type(value) is int else value
                yield out

    def _stream_plan(
        self, encoded: List[_EncodedPattern], solution: Solution
    ) -> Tuple[List[Variable], List[Tuple], List[Tuple[Variable, int]]]:
        """Join order + per-step column layouts for one input header.

        Greedy selectivity order, same scoring as the hash pipeline; the
        layouts are precomputed here so each solution only pays tuple
        construction at run time.
        """
        columns = sorted(solution, key=lambda variable: variable.name)
        col_of: Dict[Variable, int] = {v: i for i, v in enumerate(columns)}
        steps: List[Tuple] = []
        remaining = list(encoded)
        while remaining:
            bound = col_of
            chosen = min(
                remaining,
                key=lambda ep: (
                    ep.est / (16.0 ** sum(1 for v in ep.variables if v in bound)),
                    ep.index,
                ),
            )
            remaining.remove(chosen)
            shared = tuple(v for v in chosen.variables if v in col_of)
            new_vars = tuple(v for v in chosen.variables if v not in col_of)
            new_col_of = dict(col_of)
            for variable in new_vars:
                new_col_of[variable] = len(new_col_of)
            steps.append((chosen, col_of, new_col_of, new_vars, shared))
            col_of = new_col_of
        return columns, steps, list(col_of.items())

    #: hash-join build tables above this estimated cardinality would scan
    #: the pattern eagerly and defeat LIMIT pushdown, so anything larger
    #: joins by per-row index lookups instead.  Kept deliberately small:
    #: the build is the one eager scan the streaming pipeline allows
    #: itself, and a bounded consumer must stay O(limit + constant).
    STREAM_HASH_BUILD_MAX = 64.0

    def _stream_step(
        self, step: Tuple, upstream: Iterator[Tuple], state: Dict
    ) -> Iterator[Tuple]:
        """Extend each upstream row with one pattern's matches, lazily."""
        ep, col_of, new_col_of, new_vars, shared = step
        extra_width = len(new_vars)

        if not shared and ep.path is None:
            # Cartesian extension.  The single-upstream-row case (every
            # BGP's first pattern) streams straight off the index scan; a
            # multi-row upstream needs the scan replayed, so it buffers.
            first = next(upstream, _UNBOUND)
            if first is _UNBOUND:
                return
            second = next(upstream, _UNBOUND)
            if second is _UNBOUND:
                for srow in self._scan_pattern(ep):
                    yield first + srow
                return
            key = (ep.index, "scan")
            scan = state.get(key)
            if scan is None:
                scan = state[key] = list(self._scan_pattern(ep))
            for row in _chain((first, second), upstream):
                for srow in scan:
                    yield row + srow
            return

        if shared and ep.path is None and ep.est <= self.STREAM_HASH_BUILD_MAX:
            # Hash join against a small pattern: build the table once per
            # BGP (shared across input solutions), probe row by row.
            key = (ep.index, tuple(v.name for v in shared))
            table = state.get(key)
            if table is None:
                table = state[key] = self._build_probe_table(ep, shared, new_vars)
            shared_cols = [col_of[v] for v in shared]
            get = table.get
            if len(shared_cols) == 1:
                shared_col = shared_cols[0]
                for row in upstream:
                    probe = row[shared_col]
                    if probe is _UNBOUND:
                        yield from self._index_join(
                            ep, [row], col_of, new_col_of, extra_width
                        )
                        continue
                    bucket = get(probe)
                    if bucket:
                        for extra in bucket:
                            yield row + extra
            else:
                for row in upstream:
                    probe = tuple(row[c] for c in shared_cols)
                    if _UNBOUND in probe:
                        yield from self._index_join(
                            ep, [row], col_of, new_col_of, extra_width
                        )
                        continue
                    bucket = get(probe)
                    if bucket:
                        for extra in bucket:
                            yield row + extra
            return

        # Index nested-loop join: per-row index lookups, no upfront scan.
        # Covers property paths, repeated variables and large patterns.
        for row in upstream:
            yield from self._index_join(ep, [row], col_of, new_col_of, extra_width)

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

        from .paths import evaluate_path, is_path

        if is_path(pattern.predicate):
            # Variable endpoints range over the node universe only.  A
            # binding carried in from elsewhere that names a non-node term
            # could only be satisfied by zero-length closure, which a
            # variable endpoint does not admit; enforcing it here keeps
            # path evaluation independent of join order (and in agreement
            # with the hash pipeline).
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
        # Fast path for the ubiquitous liveness probe ``ASK { ?s ?p ?o }``
        # (and any single plain pattern): probe the ID indexes directly
        # instead of materializing the full scan.
        if self.strategy != "scan" and len(group.elements) == 1:
            element = group.elements[0]
            from .paths import is_path

            if isinstance(element, TriplePattern) and not is_path(element.predicate):
                compiled = self._compile_patterns((element,))[0]
                if compiled.impossible:
                    return False
                for row in self._scan_pattern(compiled):
                    return True
                return False
        if self.strategy == "scan":
            for _ in self._evaluate_group(group, [{}]):
                return True
            return False
        # ASK needs exactly one witness: the streaming pipeline stops the
        # underlying scans as soon as it surfaces (the eager pipeline would
        # materialize the complete join first).
        for _ in self._evaluate_group_stream(group, iter(({},))):
            return True
        return False

    # -- SELECT pipeline -----------------------------------------------------

    #: the eager engine hands a SELECT to the streaming operators only when
    #: LIMIT is at most this.  Small limits are where pushdown pays by
    #: construction; large limits are usually pagination pages, where the
    #: limit rarely binds and the eager ID-space join is faster.
    STREAM_DELEGATE_LIMIT = 64

    def _run_select(self, query: SelectQuery) -> SelectResult:
        if self.strategy == "scan":
            return self._run_select_general(query)
        lazy = self.strategy == "stream"
        small = query.limit is not None and query.limit <= self.STREAM_DELEGATE_LIMIT
        # Small-LIMIT queries pay for every row an eager pipeline
        # materializes and then throws away, so the eager engine routes
        # them through the streaming operators.  This rule must precede
        # the simple-shape executor: a ``LIMIT 20`` page over a
        # two-pattern join is 0.2 ms on the lazy INLJ chain and tens of
        # ms once any join materializes.  Unordered DISTINCT stays
        # eager (it deduplicates in ID space before decoding).  The gate
        # must not involve OFFSET: all pages of one paginated query then
        # land on the same pipeline, keeping row order stable across
        # pages.
        if self._streamable(query) and (lazy or (small and not query.distinct)):
            return self._run_select_streaming(query)
        simple = self._simple_select_shape(query)
        # The stream engine enters only with an ORDER BY (its bounded
        # top-k); its aggregation and ``SELECT *`` stay on the
        # term-space streaming operators below.
        if simple is not None and (not lazy or simple[3] is not None):
            return self._run_select_simple(query, *simple)
        if (lazy or small) and self._topk_shape(query):
            return self._run_select_topk_general(query)
        if self._stream_aggregate_shape(query):
            # Column-shaped aggregation outside the simple shape
            # (OPTIONAL/UNION/paths in the WHERE clause): fold
            # incrementally instead of materializing group member lists.
            return self._run_select_aggregate_stream(query)
        return self._run_select_general(query)

    @staticmethod
    def _streamable(query: SelectQuery) -> bool:
        """Can SELECT evaluation run without a pipeline breaker?

        ORDER BY, grouping/aggregation and HAVING need the full solution
        multiset before the first output row; ``SELECT *`` derives its
        header from the solutions, which would make a truncated stream
        observable.  Everything else keeps row-at-a-time semantics.
        """
        return (
            not query.order_by
            and query.having is None
            and not query.select_all
            and not query.has_aggregates()
        )

    @staticmethod
    def _topk_shape(query: SelectQuery) -> bool:
        """Is this ``ORDER BY ... LIMIT k`` the bounded heap can run?

        DISTINCT rides along through a per-key champion table: each
        distinct projected row keeps only its earliest-in-sort-order
        entry, and the heap then slices the champions -- equivalent to
        sort, stable dedup, slice (the modifier order the spec defines).
        Aggregation routes through the streaming GROUP BY fold instead
        (its O(groups) output is then ordered whole).
        """
        return (
            bool(query.order_by)
            and query.limit is not None
            and query.having is None
            and not query.has_aggregates()
        )

    @staticmethod
    def _stream_aggregate_shape(query: SelectQuery) -> bool:
        """Can grouping/aggregation fold incrementally (O(groups) state)?

        Expression-valued group keys, aggregate arguments and projections
        stay on the materialized path -- ``aggregate_plan`` is the same
        column-shape probe the simple-shape executor uses.  HAVING rides
        along when it is a conjunction of aggregate-vs-constant
        comparisons (``having_aggregate_conjuncts``): those gate groups
        at fold-result time; any other HAVING still re-evaluates over
        materialized member lists.
        """
        return (
            query.has_aggregates()
            and (
                query.having is None
                or query.having_aggregate_conjuncts() is not None
            )
            and not query.select_all
            and query.aggregate_plan() is not None
        )

    def _run_select_streaming(self, query: SelectQuery) -> SelectResult:
        """Row-at-a-time SELECT: project, deduplicate and paginate while
        pulling, so OFFSET/LIMIT bound the work the joins underneath do."""
        names: List[str] = []
        for projection in query.projections:
            variable = projection.variable
            if variable is None:
                raise SparqlEvaluationError("projection without output variable")
            names.append(variable.name)
        if query.limit == 0:
            return SelectResult(names, [])

        solutions = self._evaluate_group_stream(query.where, iter(({},)))
        rows: List[Row] = []
        seen = set() if query.distinct else None
        skip = query.offset or 0
        limit = query.limit
        input_rows = 0
        for input_rows, solution in enumerate(solutions, 1):
            row = self._project_row(query, names, solution)
            if seen is not None:
                dedup_key = tuple(row.get(name) for name in names)
                if dedup_key in seen:
                    continue
                seen.add(dedup_key)
            if skip:
                skip -= 1
                continue
            rows.append(row)
            if limit is not None and len(rows) >= limit:
                break
        self.exec_stats.update(
            operator="stream-select", input_rows=input_rows, decoded_rows=len(rows)
        )
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, rows)

    # -- bounded top-k ORDER BY -------------------------------------------------

    def _run_select_topk_general(self, query: SelectQuery) -> SelectResult:
        """Term-space bounded ORDER BY: the materialized path's scopes
        (solution + projected row), a heap instead of a full sort."""
        conditions = query.order_by
        flags = tuple(condition.descending for condition in conditions)
        keep = (query.offset or 0) + query.limit
        stats = {"operator": "topk", "input_rows": 0, "tracked_rows": 0}

        if not query.select_all:
            names: List[str] = []
            for projection in query.projections:
                variable = projection.variable
                if variable is None:
                    raise SparqlEvaluationError("projection without output variable")
                names.append(variable.name)
            if query.limit == 0:
                self.exec_stats.update(stats)
                return SelectResult(names, [])

        solutions = self._evaluate_group_stream(query.where, iter(({},)))

        if query.select_all:
            seen_names = set()

            def entries() -> Iterator[_TopKEntry]:
                for seq, solution in enumerate(solutions):
                    stats["input_rows"] += 1
                    for variable in solution:
                        seen_names.add(variable.name)
                    keys = tuple(
                        self._order_key(condition, solution)
                        for condition in conditions
                    )
                    yield _TopKEntry(keys, flags, seq, solution)

            if query.distinct:
                # DISTINCT on SELECT *: the projected row is determined by
                # the solution's bound items (unbound projects to None and
                # None is never a bound value), so the item set is the
                # dedup key.
                champions = _champion_fold(
                    entries(),
                    lambda solution: frozenset(
                        (variable.name, term)
                        for variable, term in solution.items()
                    ),
                )
                stats["distinct_keys"] = len(champions)
                kept = _topk_fold(iter(champions.values()), keep)
            else:
                kept = _topk_fold(entries(), keep)
            names = sorted(seen_names)
            rows = [
                {name: entry.payload.get(Variable(name)) for name in names}
                for entry in kept[query.offset or 0 :]
            ]
        else:
            # Sort keys need the projected row in scope only when a
            # condition could see an alias-bound value: a non-variable
            # condition (its expression may name any alias) or a bare
            # sort variable that an ``(expr AS ?alias)`` projection
            # rebinds.  Bare projections bind the same value the
            # solution already holds, so they never change a key.
            alias_names = {
                projection.alias.name
                for projection in query.projections
                if projection.alias is not None
            }
            keys_need_row = any(
                condition.variable is None or condition.variable.name in alias_names
                for condition in conditions
            )

            if query.distinct:
                # DISTINCT dedups on the projected row, so every input row
                # projects (no survivors-only shortcut) and the row is the
                # entry payload.
                def entries() -> Iterator[_TopKEntry]:
                    for seq, solution in enumerate(solutions):
                        stats["input_rows"] += 1
                        row = self._project_row(query, names, solution)
                        if keys_need_row:
                            scope = dict(solution)
                            for name, term in row.items():
                                if term is not None:
                                    scope[Variable(name)] = term
                        else:
                            scope = solution
                        keys = tuple(
                            self._order_key(condition, scope)
                            for condition in conditions
                        )
                        yield _TopKEntry(keys, flags, seq, row)

                champions = _champion_fold(
                    entries(), lambda row: tuple(row[name] for name in names)
                )
                stats["distinct_keys"] = len(champions)
                kept = _topk_fold(iter(champions.values()), keep)
                rows = [entry.payload for entry in kept[query.offset or 0 :]]
            elif keys_need_row:

                def entries() -> Iterator[_TopKEntry]:
                    for seq, solution in enumerate(solutions):
                        stats["input_rows"] += 1
                        row = self._project_row(query, names, solution)
                        # ORDER BY may reference WHERE variables that were
                        # not projected (ordering happens before projection
                        # in the spec) and the projection aliases -- same
                        # scope the materialized path sorts with.
                        scope = dict(solution)
                        for name, term in row.items():
                            if term is not None:
                                scope[Variable(name)] = term
                        keys = tuple(
                            self._order_key(condition, scope)
                            for condition in conditions
                        )
                        yield _TopKEntry(keys, flags, seq, row)

                kept = _topk_fold(entries(), keep)
                rows = [entry.payload for entry in kept[query.offset or 0 :]]
            else:
                # Keys read straight off the solutions; project only the
                # offset+k survivors instead of every input row.
                def entries() -> Iterator[_TopKEntry]:
                    for seq, solution in enumerate(solutions):
                        stats["input_rows"] += 1
                        keys = tuple(
                            self._order_key(condition, solution)
                            for condition in conditions
                        )
                        yield _TopKEntry(keys, flags, seq, solution)

                kept = _topk_fold(entries(), keep)
                rows = [
                    self._project_row(query, names, entry.payload)
                    for entry in kept[query.offset or 0 :]
                ]

        stats["tracked_rows"] = len(kept)
        self.exec_stats.update(stats)
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, rows)

    # -- streaming (incremental) aggregation ------------------------------------

    @staticmethod
    def _having_fold_passes(value: Optional[Term], op: str, constant: Term) -> bool:
        """One pushed-down HAVING conjunct, evaluated on a fold result.

        Runs the real expression interpreter on ``value op constant`` so
        numeric promotion and error semantics cannot diverge from the
        materialized path (which substitutes the same fold result into
        the original expression); a None fold result (e.g. AVG over no
        numerics) is an expression error there, so it gates here.
        """
        if value is None:
            return False
        try:
            result = evaluate_expression(
                CompareExpression(op, TermExpression(value), TermExpression(constant)),
                {},
                None,
            )
            return effective_boolean_value(result)
        except ExpressionError:
            return False

    def _run_select_aggregate_stream(self, query: SelectQuery) -> SelectResult:
        """GROUP BY/aggregation as an incremental fold: one pass over the
        solution stream, O(groups) tracked state, never a member list.

        Under ``strategy="stream"`` the input is the lazy volcano
        pipeline, so peak memory really is the accumulator table; under
        the eager strategies the same fold replaces the materialized
        group-then-rescan machinery.  ORDER BY / DISTINCT / OFFSET /
        LIMIT then apply to the O(groups) output rows in spec order --
        which is what makes "top-k entities by count" queries cheap.
        """
        group_vars, items = query.aggregate_plan()
        agg_specs = [
            (index, payload)
            for index, (kind, payload, _name) in enumerate(items)
            if kind == "agg"
        ]
        # Pushed-down HAVING conjuncts fold alongside the projected
        # aggregates (negative slots so they never collide with item
        # indexes) and gate each group when its row is emitted.
        having = (
            query.having_aggregate_conjuncts() if query.having is not None else None
        )
        having_specs = [
            (-(position + 1), aggregate, op, constant)
            for position, (aggregate, op, constant) in enumerate(having or ())
        ]
        fold_specs = agg_specs + [
            (slot, aggregate) for slot, aggregate, _op, _constant in having_specs
        ]

        def fresh_folds() -> Dict[int, _AggFold]:
            return {index: _AggFold(aggregate) for index, aggregate in fold_specs}

        solutions = self._evaluate_group(query.where, [{}])
        groups: Dict[Tuple, Tuple[Solution, Dict[int, _AggFold]]] = {}
        input_rows = 0
        for solution in solutions:
            input_rows += 1
            key = tuple(solution.get(variable) for variable in group_vars)
            state = groups.get(key)
            if state is None:
                state = groups[key] = (solution, fresh_folds())
            folds = state[1]
            for index, aggregate in fold_specs:
                fold = folds[index]
                if aggregate.expression is None:  # COUNT(*)
                    if aggregate.distinct:
                        fold.add_star(
                            tuple(sorted((v.name, t) for v, t in solution.items()))
                        )
                    else:
                        fold.add_star()
                    continue
                value = solution.get(aggregate.expression.variable)
                if value is not None:
                    fold.add(value)
        if not group_vars and not groups:
            # Implicit single group; aggregates over an empty pattern still
            # produce one row (COUNT(*) = 0) per the spec.
            groups[()] = ({}, fresh_folds())

        names = [name for _kind, _payload, name in items]
        rows: List[Row] = []
        having_pruned = 0
        for first_solution, folds in groups.values():
            if having_specs and not all(
                self._having_fold_passes(folds[slot].result(), op, constant)
                for slot, _aggregate, op, constant in having_specs
            ):
                having_pruned += 1
                continue
            row: Row = {}
            for index, (kind, payload, name) in enumerate(items):
                if kind == "var":
                    row[name] = first_solution.get(payload)
                else:
                    row[name] = folds[index].result()
            rows.append(row)
        self.exec_stats.update(
            operator="stream-aggregate",
            input_rows=input_rows,
            tracked_rows=len(groups),
        )
        if having_specs:
            self.exec_stats["having_pruned"] = having_pruned
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, self._apply_modifiers(query, rows, names))

    # -- the simple-shape executor (columnar sinks over ID batches) ------------

    @staticmethod
    def _simple_where_shape(query: SelectQuery):
        """``(patterns, simple_filters)`` when the WHERE clause is plain
        triple patterns plus one-variable term-test filters, else None --
        the shape whose rows are guaranteed pure ID tuples."""
        from .paths import is_path

        patterns: List[TriplePattern] = []
        simple_filters = []
        for element in query.where.elements:
            if isinstance(element, TriplePattern):
                if is_path(element.predicate):
                    return None  # path rows can carry raw terms; keep general
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
    def _simple_select_shape(query: SelectQuery):
        """``(patterns, simple_filters, aggregate plan, sort variables)``
        when *query* is the simple shape end to end, else None.

        On top of :meth:`_simple_where_shape`: bare-variable projections
        (or ``SELECT *``), bare-variable sort keys, column-shaped
        aggregation (``aggregate_plan``) and a HAVING that pushes down
        into the fold.  The plan is None without aggregates; the sort
        variables are None unless a non-aggregate query has an ORDER BY
        (ORDER BY over aggregate output is the aggregate sink's own:
        :meth:`_aggregate_page`).
        """
        if query.having is not None and (
            not query.has_aggregates()
            or query.having_aggregate_conjuncts() is None
        ):
            return None
        shape = QueryEngine._simple_where_shape(query)
        if shape is None:
            return None
        plan = order_vars = None
        if query.has_aggregates():
            plan = query.aggregate_plan()
            if plan is None:
                return None
        else:
            if not query.select_all:
                for projection in query.projections:
                    if projection.alias is not None or not isinstance(
                        projection.expression, VariableExpression
                    ):
                        return None
            if query.order_by:
                order_vars = query.order_variables()
                if order_vars is None:
                    return None
        return shape[0], shape[1], plan, order_vars

    def _id_projection_layout(
        self, query: SelectQuery, col_of: Dict[Variable, int], any_solutions: bool
    ) -> Tuple[List[str], List[Optional[int]]]:
        """``(names, columns)`` for projecting ID rows.

        Shared by the select and top-k sinks so the ``SELECT *`` header
        rule stays in one place: the header comes from the (complete)
        solution multiset -- zero solutions, empty header.  The columns
        are also the DISTINCT key of a row.
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
        fold_columns: Iterable[int] = (),
    ) -> List[Row]:
        """Decode + project ID rows into result rows (the one decode
        loop).  Row positions in *fold_columns* hold raw fold values
        (:meth:`_AggFold.value`) instead of dictionary IDs."""
        decode = self.graph.decode_id
        # equal fold values make equal terms: one Literal per distinct
        # count, not one per group
        fold_terms: Dict = {}
        layout = [
            (name, column, column in fold_columns)
            for name, column in zip(names, columns)
        ]
        out_rows: List[Row] = []
        for row in rows:
            projected: Row = {}
            for name, column, folded in layout:
                if column is None:
                    projected[name] = None
                    continue
                value = row[column]
                if folded:
                    term = fold_terms.get(value)
                    if term is None and value is not None:
                        term = fold_terms[value] = _fold_term(value)
                    projected[name] = term
                elif value is None or value is _UNBOUND:
                    projected[name] = None
                else:
                    projected[name] = decode(value) if type(value) is int else value
            out_rows.append(projected)
        return out_rows

    def _id_modifiers(
        self, query: SelectQuery, batches: Iterator[List], conditions, dedup_columns
    ) -> Tuple[List[Tuple], Dict[str, int]]:
        """ORDER BY / DISTINCT / OFFSET / LIMIT over ID column batches:
        the one modifier tail of the columnar sinks, run before anything
        is decoded.  Returns ``(page rows, stats)``.

        *conditions* are ``(column, descending, term_of)``; their sort
        keys are memoized per distinct cell (:func:`_sort_key_column`).
        Rows are held as columns, in input order.  Under LIMIT they are
        cut after every batch to the rows that can still reach the page
        (:func:`_first_in_order`) -- DISTINCT keeps each *dedup_columns*
        key's earliest row in sort order, LIMIT the ``offset + k`` first
        of those -- so between batches the tail holds the page's size,
        not the input's, and sort keys are built only for the rows a cut
        has to compare.  Without a LIMIT everything is held and DISTINCT
        cuts once, at the end.  A stable index sort orders the survivors.
        Every tie falls to input order, so the result equals sort, stable
        dedup, slice at any batch size.
        """
        memos: List[Dict] = [{} for _ in conditions]
        stats = {"input_rows": 0, "batches": 0, "tracked_rows": 0}
        if query.distinct:
            stats["distinct_keys"] = 0
        offset = query.offset or 0
        keep = float("inf") if query.limit is None else offset + query.limit

        def cut(held: List[List]) -> List[List]:
            n = len(held[0])
            chosen = list(range(n))
            if query.distinct:
                key_columns = [
                    held[column] if column is not None else _repeat(None, n)
                    for column in dedup_columns
                ]
                sharing: Dict[Tuple, List[int]] = {}
                for i, key in enumerate(
                    zip(*key_columns) if key_columns else _repeat((), n)
                ):
                    sharing.setdefault(key, []).append(i)
                stats["distinct_keys"] = max(stats["distinct_keys"], len(sharing))
                chosen = sorted(
                    _first_in_order(held, rows, 1, conditions, memos)[0]
                    for rows in sharing.values()
                )
            chosen = sorted(_first_in_order(held, chosen, keep, conditions, memos))
            return [[column[i] for i in chosen] for column in held]

        held: List[List] = []
        for cols in batches:
            stats["batches"] += 1
            stats["input_rows"] += len(cols[0])
            if held:
                for column, more in zip(held, cols):
                    column.extend(more)
            else:
                held = [list(column) for column in cols]
            if len(held[0]) > keep:
                held = cut(held)
            stats["tracked_rows"] = max(stats["tracked_rows"], len(held[0]))
        if query.distinct and held:
            held = cut(held)
        kept = list(zip(*held))
        if conditions and kept:
            # Stable multi-key sort, same discipline as _order: sort by
            # the last condition first; equal keys keep input order.  An
            # index sort keyed by ``list.__getitem__`` keeps every
            # comparison in C.
            order = list(range(len(kept)))
            for (column, descending, term_of), memo in zip(
                reversed(conditions), reversed(memos)
            ):
                keys = _sort_key_column(held[column], memo, term_of)
                order.sort(key=keys.__getitem__, reverse=descending)
            kept = [kept[i] for i in order]
        stats["sort_keys"] = sum(map(len, memos))
        return kept[offset:], stats

    def _aggregate_fold_specs(self, query: SelectQuery, plan, col_of):
        """``(group columns, fold specs, having specs)`` for an ID-space
        aggregation."""
        group_vars, items = plan
        group_columns = [col_of.get(variable) for variable in group_vars]
        agg_specs = []  # (item index, aggregate, value column or None)
        for index, (kind, payload, _name) in enumerate(items):
            if kind == "agg":
                column = (
                    col_of.get(payload.expression.variable)
                    if payload.expression is not None
                    else None
                )
                agg_specs.append((index, payload, column))
        # Pushed-down HAVING conjuncts: extra folds on negative slots,
        # gating groups at result time instead of falling back to the
        # materialized member-list path.
        having = (
            query.having_aggregate_conjuncts() if query.having is not None else None
        )
        having_specs = []  # (slot, aggregate, value column, op, constant)
        for position, (aggregate, op, constant) in enumerate(having or ()):
            column = (
                col_of.get(aggregate.expression.variable)
                if aggregate.expression is not None
                else None
            )
            having_specs.append((-(position + 1), aggregate, column, op, constant))
        fold_specs = agg_specs + [
            (slot, aggregate, column)
            for slot, aggregate, column, _op, _constant in having_specs
        ]
        return group_columns, fold_specs, having_specs

    def _group_columns(self, items, groups, col_of, having_specs):
        """``(cols, having_pruned)``: the folded groups as ONE column
        batch, a column per item.  HAVING gates on the negative-slot
        folds, ``var`` items carry the ID the group's first member row
        holds, ``agg`` items their fold's raw value."""
        survivors = list(groups.values())
        if having_specs:
            survivors = [
                state
                for state in survivors
                if all(
                    self._having_fold_passes(state[1][slot].result(), op, constant)
                    for slot, _aggregate, _column, op, constant in having_specs
                )
            ]
        cols: List[List] = []
        for index, (kind, payload, _name) in enumerate(items):
            if kind == "agg":
                cols.append([folds[index].value() for _first_row, folds in survivors])
                continue
            column = col_of.get(payload)
            cols.append(
                [
                    None if column is None or first_row is None else first_row[column]
                    for first_row, _folds in survivors
                ]
            )
        if not cols:
            # no items (``SELECT *`` over groups): one placeholder
            # column, a batch's length is ``len(cols[0])``
            cols.append([None] * len(survivors))
        return cols, len(groups) - len(survivors)

    def _aggregate_page(
        self, query: SelectQuery, items, cols: List[List], columns: List[int], stats
    ) -> SelectResult:
        """The aggregate sink's output: *cols* holds the groups as one
        column batch -- group-key IDs and raw fold values, item *i* at
        ``columns[i]`` -- and only the page that survives the modifiers
        is decoded.

        ORDER BY conditions that name an output column (a group variable
        or an aggregate alias) run in :meth:`_id_modifiers`; an
        expression condition needs decoded rows in scope, so that query
        shape decodes every group and ends in :meth:`_apply_modifiers`.
        """
        names = [name for _kind, _payload, name in items]
        fold_columns = {
            column for column, item in zip(columns, items) if item[0] == "agg"
        }
        order_vars = query.order_variables()
        if order_vars is None:
            rows = self._decode_id_rows(zip(*cols), names, columns, fold_columns)
            stats["decoded_rows"] = len(rows)
            rows = self._apply_modifiers(query, rows, names)
        else:
            decode = self.graph.decode_id
            by_name = dict(zip(names, columns))
            conditions = []
            for variable, condition in zip(order_vars, query.order_by):
                column = by_name.get(variable.name)
                # A sort variable that names no output column ties on
                # every group: drop it.
                if column is not None:
                    term_of = _fold_term if column in fold_columns else decode
                    conditions.append((column, condition.descending, term_of))
            page, tail = self._id_modifiers(query, iter((cols,)), conditions, columns)
            # the tail counted one batch of groups; the fold's own
            # counters (rows folded, groups held) are the sink's
            stats = {**tail, **stats, "decoded_rows": len(page)}
            rows = self._decode_id_rows(page, names, columns, fold_columns)
        self.exec_stats.update(stats, operator="aggregate-id")
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, rows)

    def _run_select_simple(
        self, query: SelectQuery, patterns, simple_filters, plan, order_vars
    ) -> SelectResult:
        """The one executor of the simple shape (see
        :meth:`_simple_select_shape`): a source of ID column batches, a
        columnar FILTER, then the select / top-k / aggregate sink.

        Rows of this shape are pure ID tuples, so operators pass
        ``BATCH_SIZE``-row column vectors instead of per-row tuples.
        Control flow stays volcano *between* batches, so LIMIT-bounded
        sinks stop pulling early.
        """
        batches, col_of = self._simple_source(query, patterns, simple_filters, plan)
        filter_specs = []
        for test, variable in simple_filters:
            column = col_of.get(variable)
            if column is None:
                # Filter over an unbound variable drops every row (the
                # general pipeline raises-and-rejects per row).
                batches = iter(())
                filter_specs = []
                break
            filter_specs.append((test, column, {}))
        if filter_specs:
            batches = self._filter_batches(batches, filter_specs)

        if plan is not None:
            return self._batch_aggregate(query, plan, batches, col_of)
        if order_vars is not None:
            return self._batch_topk(query, order_vars, batches, col_of)
        return self._batch_select(query, batches, col_of)

    def _simple_source(
        self, query: SelectQuery, patterns, simple_filters, plan
    ) -> Tuple[Iterator[List], Dict[Variable, int]]:
        """``(column-batch iterator, col_of)`` for a simple-shape BGP.

        A single pattern streams batches straight off the index, the
        columns nothing above reads left unmaterialised (``col_of`` still
        names every pattern variable: boundness does not change).
        Several patterns (or a fully-ground existence gate, which is no
        column source) run the eager join -- it chooses INLJ or hash
        per step from the exact intermediate cardinality, which a
        build-then-probe over column batches cannot: probing
        ``?s a <C> . ?s ?p ?o`` that way builds a whole-graph table per
        extraction query.  The stream engine chunks its lazy chain
        instead, so a bounded sink's state stays O(offset + k).
        """
        compiled = self._compile_patterns(patterns)
        if any(ep.impossible for ep in compiled):
            return iter(()), {}
        if self.strategy == "stream":
            _columns, steps, out_layout = self._stream_plan(compiled, {})
            rows: Iterator[Tuple] = iter(((),))
            state: Dict = {}
            for step in steps:
                rows = self._stream_step(step, rows, state)
            return self._row_batches(rows), dict(out_layout)
        if len(compiled) == 1 and compiled[0].variables:
            ep = compiled[0]
            limit_hint = self._batch_limit_hint(query, ep, simple_filters, plan)
            col_of = {variable: i for i, variable in enumerate(ep.variables)}
            wanted = self._wanted_variables(query, simple_filters, plan)
            return self._scan_batches(ep, wanted, limit_hint), col_of
        joined, col_of = self._bgp_id_rows(patterns, [{}])
        return self._row_batches(iter(joined)), col_of

    def _row_batches(self, rows: Iterator[Tuple]) -> Iterator[List]:
        """Chunk ID rows into column batches (one transpose per chunk)."""
        size = self.BATCH_SIZE
        while True:
            block = list(_islice(rows, size))
            if not block:
                return
            # Zero-width rows (every pattern ground) ride as one
            # placeholder column: a batch's length is ``len(cols[0])``.
            yield list(zip(*block)) if block[0] else [block]

    @staticmethod
    def _batch_limit_hint(query, ep, simple_filters, plan) -> Optional[int]:
        """Per-shard row bound for the bounded lazy fan-out.

        Only a LIMIT-bounded single-pattern scan with nothing between
        the scan and the slice (no filter, DISTINCT, ORDER BY or
        aggregation, and no repeated-variable row drops) can truncate
        each shard's run to its first ``offset+limit`` rows: any global
        top-``k`` of the sorted-run merge lies within the first ``k``
        of every per-shard run, so results are unchanged -- only the
        rows shipped (and charged) shrink.
        """
        if (
            plan is not None
            or query.limit is None
            or query.order_by
            or query.distinct
            or simple_filters
            or any(len(ep.var_positions[v]) > 1 for v in ep.variables)
        ):
            return None
        hint = (query.offset or 0) + query.limit
        if query.select_all:
            # SELECT * derives its header from solution existence: keep
            # at least one witness row even for LIMIT 0.
            hint = max(hint, 1)
        return hint

    @staticmethod
    def _wanted_variables(query: SelectQuery, simple_filters, plan) -> Optional[Set[Variable]]:
        """The variables whose *values* something above a simple-shape
        scan reads, or None for every one of them.

        Filters, projections, sort keys, group keys and folds read values
        (ORDER BY over aggregate output reads output columns, which are
        group keys and folds).  A non-DISTINCT ``COUNT(?v)`` does not:
        every pattern variable is bound in every row of this shape, so
        the fold only takes its column's length.  ``SELECT *`` and
        ``COUNT(DISTINCT *)`` read the whole row.
        """
        if query.select_all:
            return None
        wanted = {variable for _test, variable in simple_filters}
        if plan is None:
            wanted.update(p.expression.variable for p in query.projections)
            wanted.update(condition.variable for condition in query.order_by)
            return wanted
        group_vars, items = plan
        wanted.update(group_vars)
        aggregates = [a for a, _op, _constant in query.having_aggregate_conjuncts() or ()]
        for kind, payload, _name in items:
            if kind == "var":
                wanted.add(payload)
            else:
                aggregates.append(payload)
        for aggregate in aggregates:
            if aggregate.expression is None:
                if aggregate.distinct:
                    return None
            elif aggregate.distinct or aggregate.function != "COUNT":
                wanted.add(aggregate.expression.variable)
        return wanted

    def _scan_batches(
        self,
        ep: _EncodedPattern,
        wanted: Optional[Set[Variable]],
        limit_hint: Optional[int],
    ) -> Iterator[List]:
        """Stream *ep*'s matches as per-variable ID column batches.

        On a sharded graph a subject-unbound scan consumes the merged
        column batches straight off the per-shard sorted runs (zero-copy
        on one shard: the batches are slices of the shard's cached run);
        everything else is :meth:`Graph.scan_columns`, which leaves the
        column of a variable outside *wanted* (None = all wanted) as
        ``None`` cells and does not walk the index for it.
        """
        s, p, o = (v if type(v) is int else None for v in ep.spec)
        positions = [ep.var_positions[v] for v in ep.variables]
        simple = all(len(position) == 1 for position in positions)
        batch_size = self.BATCH_SIZE
        want = (True, True, True)
        if self._sharded is not None and s is None:
            from .parallel_exec import parallel_scan_batches

            triple_cols = parallel_scan_batches(
                self._sharded,
                p,
                o,
                batch_size,
                stats=self.exec_stats,
                pool=self._scan_pool,
                obs=self.obs,
                limit_hint=limit_hint if simple else None,
            )
        else:
            if wanted is not None and simple:
                want = tuple(v in wanted for v in ep.spec)
            triple_cols = self.graph.scan_columns(
                s, p, o, want, batch_size, limit_hint if simple else None
            )
        width = sum(want)
        cells = 0
        for tcols in triple_cols:
            cells += len(tcols[0]) * width
            self.exec_stats["scan_cells"] = cells
            cols = _project_triple_columns(tcols, positions, simple)
            if cols is not None:
                yield cols

    def _filter_batches(self, batches: Iterator[List], filter_specs) -> Iterator[List]:
        """Columnar FILTER: memoized term-kind tests build a selection
        vector per batch; the survivors compact into fresh columns.  A
        batch that loses every row yields nothing."""
        decode = self.graph.decode_id

        def stage():
            for cols in batches:
                n = len(cols[0])
                selection = None  # None = every row survives so far
                for test, column, memo in filter_specs:
                    values = cols[column]
                    lookup = memo.get
                    kept = []
                    keep = kept.append
                    for i in range(n) if selection is None else selection:
                        value = values[i]
                        verdict = lookup(value)
                        if verdict is None:
                            verdict = memo[value] = test(decode(value))
                        if verdict:
                            keep(i)
                    selection = kept
                    if not selection:
                        break
                if selection is None or len(selection) == n:
                    yield cols
                elif selection:
                    yield [[column[i] for i in selection] for column in cols]

        return stage()

    def _batch_select(
        self, query: SelectQuery, batches: Iterator[List], col_of: Dict[Variable, int]
    ) -> SelectResult:
        """Batched projection / DISTINCT / OFFSET-LIMIT sink.

        LIMIT pushdown across batches: stop pulling once ``offset +
        limit`` surviving (post-DISTINCT) rows are buffered.  ``SELECT
        *`` still needs one witness row for its header rule, so the cap
        never stops the pull before the first non-empty batch.
        """
        offset = query.offset or 0
        cap = None if query.limit is None else offset + query.limit
        distinct = query.distinct
        if distinct:
            _names, dedup_columns = self._id_projection_layout(query, col_of, True)
            seen = set()
        if cap == 0 and not query.select_all:
            batches = iter(())  # the header is known without a witness
        kept: List[Tuple] = []
        input_rows = 0
        n_batches = 0
        for cols in batches:
            n_batches += 1
            n = len(cols[0])
            input_rows += n
            if distinct:
                add = seen.add
                for row in zip(*cols):
                    key = tuple(
                        row[column] if column is not None else None
                        for column in dedup_columns
                    )
                    if key not in seen:
                        add(key)
                        kept.append(row)
            else:
                kept.extend(zip(*cols))
            if cap is not None and len(kept) >= cap:
                break
        page = kept[offset:] if cap is None else kept[offset:cap]
        names, columns = self._id_projection_layout(query, col_of, input_rows > 0)
        self.exec_stats.update(
            operator="select-id",
            input_rows=input_rows,
            batches=n_batches,
            decoded_rows=len(page),
        )
        if distinct:
            self.exec_stats["distinct_keys"] = len(seen)
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, self._decode_id_rows(page, names, columns))

    def _batch_topk(
        self,
        query: SelectQuery,
        order_vars: List[Variable],
        batches: Iterator[List],
        col_of: Dict[Variable, int],
    ) -> SelectResult:
        """The ORDER BY sink: sort-key columns (one decode per distinct
        ID) into :meth:`_id_modifiers`, then decode the page."""
        decode = self.graph.decode_id
        # A sort variable no pattern binds ties on every row: drop it.
        conditions = [
            (col_of[variable], condition.descending, decode)
            for variable, condition in zip(order_vars, query.order_by)
            if variable in col_of
        ]
        _names, dedup_columns = self._id_projection_layout(query, col_of, True)
        page, stats = self._id_modifiers(query, batches, conditions, dedup_columns)
        names, columns = self._id_projection_layout(
            query, col_of, stats["input_rows"] > 0
        )
        self.exec_stats.update(stats, operator="topk-id", decoded_rows=len(page))
        if self.obs.detail:
            self._operator_event()
        return SelectResult(names, self._decode_id_rows(page, names, columns))

    def _batch_aggregate(
        self, query: SelectQuery, plan, batches: Iterator[List], col_of: Dict[Variable, int]
    ) -> SelectResult:
        """GROUP BY / aggregation over column batches, O(groups) state.

        Pure-COUNT grouping vectorizes through :class:`Counter` (one
        C-speed update per batch; Counter preserves first-seen insertion
        order, matching the dict-based fold's group order).  Everything
        else slices each batch's value columns per group and folds them
        through :meth:`_AggFold.fold_batch`, so results are identical to
        the row-at-a-time fold at any batch size.  Either way the groups
        leave as one column batch of IDs and raw fold values
        (:meth:`_aggregate_page`).
        """
        group_vars, items = plan
        group_columns, fold_specs, having_specs = self._aggregate_fold_specs(
            query, plan, col_of
        )

        if (
            not having_specs
            and len(group_columns) == 1
            and group_columns[0] is not None
            and all(
                (kind == "var" and payload == group_vars[0])
                or (
                    kind == "agg"
                    and payload.function == "COUNT"
                    and not payload.distinct
                    and (
                        payload.expression is None
                        or col_of.get(payload.expression.variable) is not None
                    )
                )
                for kind, payload, _name in items
            )
        ):
            # COUNT over a column that is bound in every row equals the
            # group size (this shape never produces unbound values), so
            # the whole aggregation is one Counter over the key column.
            return self._batch_count_groups(query, items, group_columns[0], batches)

        decode = self.graph.decode_id
        groups: Dict = {}
        input_rows = 0
        n_batches = 0
        single_group = not group_vars
        for cols in batches:
            n_batches += 1
            n = len(cols[0])
            input_rows += n
            if single_group:
                buckets = {(): None}  # None selection = the whole batch
            else:
                if len(group_columns) == 1:
                    column = group_columns[0]
                    keys = cols[column] if column is not None else _repeat(None, n)
                else:
                    keys = zip(
                        *(
                            cols[column] if column is not None else _repeat(None, n)
                            for column in group_columns
                        )
                    )
                buckets = {}
                for i, key in enumerate(keys):
                    indices = buckets.get(key)
                    if indices is None:
                        buckets[key] = indices = []
                    indices.append(i)
            for key, indices in buckets.items():
                state = groups.get(key)
                if state is None:
                    first_index = 0 if indices is None else indices[0]
                    state = groups[key] = (
                        tuple(column[first_index] for column in cols),
                        {index: _AggFold(agg) for index, agg, _ in fold_specs},
                    )
                folds = state[1]
                whole = indices is None or len(indices) == n
                for index, aggregate, column in fold_specs:
                    fold = folds[index]
                    if aggregate.expression is None:  # COUNT(*)
                        if not aggregate.distinct:
                            fold.add_star_batch(n if whole else len(indices))
                        elif whole:
                            fold.add_star_batch(n, zip(*cols))
                        else:
                            fold.add_star_batch(
                                len(indices),
                                (
                                    tuple(column[i] for column in cols)
                                    for i in indices
                                ),
                            )
                        continue
                    if column is None:
                        continue
                    values = (
                        cols[column]
                        if whole
                        else [cols[column][i] for i in indices]
                    )
                    fold.fold_batch(values, decode)

        if single_group and not groups:
            # Implicit single group over an empty input still produces
            # one row (COUNT(*) = 0) per the spec.
            groups[()] = (None, {index: _AggFold(agg) for index, agg, _ in fold_specs})

        cols, having_pruned = self._group_columns(items, groups, col_of, having_specs)
        stats = {
            "input_rows": input_rows,
            "tracked_rows": len(groups),
            "batches": n_batches,
        }
        if having_specs:
            stats["having_pruned"] = having_pruned
        return self._aggregate_page(query, items, cols, list(range(len(items))), stats)

    def _batch_count_groups(
        self, query: SelectQuery, items, group_column: int, batches: Iterator[List]
    ) -> SelectResult:
        """The fully-vectorized aggregation: single-key pure-COUNT GROUP
        BY as one :class:`Counter` update per batch."""
        counter: Counter = Counter()
        input_rows = 0
        n_batches = 0
        for cols in batches:
            n_batches += 1
            n = len(cols[0])
            input_rows += n
            counter.update(cols[group_column])
        stats = {
            "input_rows": input_rows,
            "tracked_rows": len(counter),
            "batches": n_batches,
        }
        cols = [list(counter), list(counter.values())]
        columns = [0 if kind == "var" else 1 for kind, _payload, _name in items]
        return self._aggregate_page(query, items, cols, columns, stats)

    def _run_select_general(self, query: SelectQuery) -> SelectResult:
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
        import copy

        from .nodes import TermExpression  # local to avoid confusion at top level

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
            seen = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            values = seen
        return self._fold_values(aggregate, values)

    @staticmethod
    def _fold_values(aggregate: Aggregate, values: List[Term]) -> Optional[Term]:
        """Fold already-extracted (and deduplicated) values per the spec.

        Thin wrapper over :class:`_AggFold` (distinct handling disabled --
        callers dedupe before extraction), so the materialized path and
        the incremental paths share one fold.
        """
        fold = _AggFold(aggregate, distinct=False)
        for value in values:
            fold.add(value)
        return fold.result()

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
        term-space pipeline ends in this one tail; the columnar sinks
        run the same modifiers in ID space (:meth:`_id_modifiers`).
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

        Shared by the materialized sort and the bounded top-k heap so the
        two orderings cannot diverge.
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

    ``strategy`` is ``"hash"`` (eager, default), ``"stream"`` (lazy
    volcano pipeline) or ``"scan"`` (legacy oracle).
    """
    return QueryEngine(graph, strategy=strategy).run(query)
