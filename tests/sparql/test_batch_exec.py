"""Batch-boundary conformance for the simple-shape columnar executor.

Plain-BGP SELECTs run as ``BATCH_SIZE``-row column batches through one
source (index scan | eager join | lazy chain) and one of three sinks,
so their results must not depend on where the batch edges fall.  The
suite sweeps ``QueryEngine.BATCH_SIZE`` in {1, 7, 1024, > rows} on the
default engine -- against the larger-than-input size row for row, and
against the ``scan`` oracle -- and pins the batch-edge cases a
row-at-a-time suite can never see:

* DISTINCT keys recurring across batch boundaries,
* ORDER BY ties straddling a batch edge, with and without LIMIT
  (tie-break is the global row sequence, not a per-batch one),
* batches emptied wholesale by a selective FILTER,
* GROUP BY groups whose members span many batches (order-sensitive
  folds must see members in global row order),
* the bounded lazy fan-out: LIMIT-bounded unbound scans stop shipping
  shard rows once the slice is satisfied,
* routing: a multi-pattern BGP never builds a whole-graph probe table.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.government import government_graph
from repro.rdf import Graph, IRI, Literal, ShardedTripleStore, Triple
from repro.sparql import QueryEngine
from repro.sparql.results import AskResult

EX = "http://example.org/"

#: degenerate, prime-sized (so group and tie runs straddle edges), the
#: default, and larger-than-input
BATCH_SIZES = (1, 7, 1024, 10**6)

#: ``(query, oracle)``: *oracle* marks queries whose row multiset is
#: fully determined (no enumeration-order-dependent slice, SAMPLE or
#: GROUP_CONCAT), so the scan oracle must agree too
QUERIES = (
    ("SELECT * WHERE { ?s ?p ?o }", True),
    (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} LIMIT 5", False),
    (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} LIMIT 70", False),
    ("SELECT DISTINCT ?o WHERE { ?s ?p ?o }", True),
    (f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}p1> ?o }} OFFSET 1 LIMIT 3", False),
    (f"SELECT ?s ?v WHERE {{ ?s <{EX}p2> ?v }} ORDER BY ?v ?s LIMIT 4", True),
    (f"SELECT DISTINCT ?v WHERE {{ ?s <{EX}p2> ?v }} ORDER BY DESC(?v) LIMIT 3", True),
    # un-LIMITed ORDER BY: the top-k sink's full-sort case, ties on ?o
    (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} ORDER BY ?o", False),
    (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} ORDER BY DESC(?o) ?s OFFSET 2", True),
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p", True),
    # two-pattern ORDER BY ... LIMIT k: source and tie order are one join
    (f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }} ORDER BY ?c LIMIT 3", False),
    (f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }} "
     "ORDER BY ?c ?a ?b LIMIT 3", True),
    ("SELECT ?s ?o WHERE { ?s ?p ?o FILTER(isLiteral(?o)) }", True),
    ("SELECT ?s ?o WHERE { ?s ?p ?o FILTER(isIRI(?o)) } LIMIT 70", False),
    # FILTER over a variable no pattern binds drops every row
    ("SELECT ?s WHERE { ?s ?p ?o FILTER(isIRI(?nope)) }", True),
    ("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o FILTER(isIRI(?nope)) }", True),
    (f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }}", True),
    # fully-ground existence gates: beside a column source, and alone
    (f"SELECT ?s ?o WHERE {{ <{EX}n0> <{EX}p0> <{EX}n1> . ?s <{EX}p1> ?o }}", True),
    (f"SELECT * WHERE {{ <{EX}n0> <{EX}p0> <{EX}n1> }}", True),
    (f"SELECT (COUNT(*) AS ?n) WHERE {{ <{EX}n0> <{EX}p0> <{EX}n1> }}", True),
    ("SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", True),
    ("SELECT ?p (COUNT(DISTINCT ?o) AS ?n) (MIN(?o) AS ?lo) "
     "WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p", True),
    ("SELECT (COUNT(*) AS ?n) (SAMPLE(?o) AS ?w) WHERE { ?s ?p ?o }", False),
    ("SELECT ?p (GROUP_CONCAT(?o) AS ?all) WHERE { ?s ?p ?o } GROUP BY ?p", False),
    ("SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p "
     "HAVING (COUNT(?s) > 2)", True),
    ("ASK { ?s ?p ?o }", True),
)

triples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),   # subject
        st.integers(min_value=0, max_value=2),   # predicate
        st.integers(min_value=0, max_value=11),  # object: node or literal
    ),
    min_size=0,
    max_size=40,
)


def _build(triples) -> Graph:
    g = Graph()
    for s, p, o in triples:
        g.add(
            Triple(
                IRI(f"{EX}n{s}"),
                IRI(f"{EX}p{p}"),
                IRI(f"{EX}n{o}") if o < 10 else Literal(o),
            )
        )
    return g


def _run(graph, query, batch_size, strategy="hash"):
    """``(result, exec_stats)`` of *query* with ``BATCH_SIZE`` patched."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryEngine, "BATCH_SIZE", batch_size)
        engine = QueryEngine(graph, strategy=strategy)
        return engine.run(query), engine.exec_stats_snapshot()


def _ordered_rows(result):
    return [
        {name: term.n3() if term else None for name, term in row.items()}
        for row in result.rows
    ]


def _canonical_rows(result):
    return sorted(
        tuple(sorted((name, value or "") for name, value in row.items()))
        for row in _ordered_rows(result)
    )


def _assert_same(reference, candidate, context):
    if isinstance(reference, AskResult):
        assert bool(reference) == bool(candidate), context
        return
    assert reference.variables == candidate.variables, context
    assert _ordered_rows(reference) == _ordered_rows(candidate), context


@settings(max_examples=120, deadline=None)
@given(
    triples=triples_strategy,
    batch_size=st.sampled_from(BATCH_SIZES),
    case=st.sampled_from(QUERIES),
)
def test_property_batch_size_never_changes_results(triples, batch_size, case):
    """Any batch size reproduces the one-batch result row for row, and
    the scan oracle's solutions."""
    query, oracle = case
    graph = _build(triples)
    reference, _ = _run(graph, query, 10**6)
    candidate, _ = _run(graph, query, batch_size)
    _assert_same(reference, candidate, (batch_size, query))
    if oracle:
        scan = QueryEngine(graph, strategy="scan").run(query)
        if isinstance(scan, AskResult):
            assert bool(scan) == bool(candidate), query
        else:
            assert sorted(scan.variables) == sorted(candidate.variables), query
            assert _canonical_rows(scan) == _canonical_rows(candidate), query


# -- pinned batch-edge cases -------------------------------------------------


def _edge_graph() -> Graph:
    """30 rows of one predicate whose objects cycle through 5 values:
    every batch size in the sweep puts duplicate keys, group members and
    sort ties on both sides of some batch edge."""
    g = Graph()
    for i in range(30):
        g.add(Triple(IRI(f"{EX}s{i:02d}"), IRI(f"{EX}v"), Literal(i % 5)))
    return g


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_distinct_keys_recur_across_batch_boundaries(batch_size):
    graph = _edge_graph()
    query = f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}v> ?o }}"
    reference, _ = _run(graph, query, 10**6)
    result, stats = _run(graph, query, batch_size)
    _assert_same(reference, result, batch_size)
    assert stats["operator"] == "select-id"
    assert stats["distinct_keys"] == 5
    assert stats["input_rows"] == 30


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("limit", (4, 5, 6, 13))
@pytest.mark.parametrize("strategy", ("hash", "stream"))
def test_topk_ties_at_batch_edges(batch_size, limit, strategy):
    """Six-way sort-key ties: whichever rows the slice cuts through, the
    kept ties are decided by the global row sequence, so every batch
    size keeps exactly the first ``limit`` rows of the full sort."""
    graph = _edge_graph()
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }} ORDER BY ?o"
    full, _ = _run(graph, query, 10**6, strategy)
    result, stats = _run(graph, f"{query} LIMIT {limit}", batch_size, strategy)
    assert _ordered_rows(result) == _ordered_rows(full)[:limit]
    assert stats["operator"] == "topk-id"
    assert stats["tracked_rows"] <= limit


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_full_sort_ties_at_batch_edges(batch_size):
    """Without LIMIT the sink sorts everything: equal keys keep the
    scan's row order (ascending and descending alike), whatever the
    batch edges cut through -- a stable sort of the unordered result."""
    graph = _edge_graph()
    pattern = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }}"
    unordered, _ = _run(graph, pattern, 10**6)
    for order, descending in (("?o", False), ("DESC(?o)", True)):
        result, stats = _run(graph, f"{pattern} ORDER BY {order}", batch_size)
        assert result.rows == sorted(
            unordered.rows, key=lambda row: int(row["o"].lexical), reverse=descending
        )
        assert stats["operator"] == "topk-id"
        assert stats["tracked_rows"] == stats["input_rows"] == 30
        assert stats["batches"] == -(-30 // batch_size)


@pytest.mark.parametrize("batch_size", (1, 7, 10))
def test_selective_filter_empties_whole_batches(batch_size):
    """Blocks of literal-only rows: with batch_size dividing the block
    runs, some batches lose every row to FILTER(isIRI(?o)).  Empty
    batches must vanish without tripping the sink or the modifiers."""
    g = Graph()
    for i in range(40):
        # rows 10..19 and 30..39 are IRIs, the rest literals
        obj = IRI(f"{EX}o{i}") if (i // 10) % 2 else Literal(i)
        g.add(Triple(IRI(f"{EX}s{i:02d}"), IRI(f"{EX}v"), obj))
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o FILTER(isIRI(?o)) }}"
    reference, _ = _run(g, query, 10**6)
    result, stats = _run(g, query, batch_size)
    _assert_same(reference, result, batch_size)
    assert len(result.rows) == 20
    # the sink only ever sees surviving batches
    assert stats["input_rows"] == 20
    assert stats["batches"] <= -(-40 // batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_group_by_groups_span_batches(batch_size):
    """Interleaved group keys: every group's members arrive split over
    many batches, and the order-sensitive folds (GROUP_CONCAT order,
    first SAMPLE, MIN/MAX last-wins) must match the one-batch fold bit
    for bit."""
    graph = _edge_graph()
    query = (
        f"SELECT ?o (COUNT(?s) AS ?n) (GROUP_CONCAT(?s) AS ?members) "
        f"(SAMPLE(?s) AS ?first) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o ORDER BY ?o"
    )
    reference, _ = _run(graph, query, 10**6)
    result, stats = _run(graph, query, batch_size)
    _assert_same(reference, result, batch_size)
    assert stats["operator"] == "aggregate-id"
    assert stats["tracked_rows"] == 5  # O(groups), not O(rows)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_pure_count_group_by_matches_general_fold(batch_size):
    """The Counter fast path (single key, plain COUNT) must keep the
    dict fold's first-seen group order and counts."""
    graph = _edge_graph()
    query = f"SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o"
    result, stats = _run(graph, query, batch_size)
    assert [(int(r["o"].lexical), int(r["n"].lexical)) for r in result.rows] == [
        (value, 6) for value in range(5)
    ]
    assert stats["operator"] == "aggregate-id"
    # a second aggregate leaves the Counter path for the general fold
    general, _ = _run(
        graph,
        f"SELECT ?o (COUNT(?s) AS ?n) (MIN(?s) AS ?lo) WHERE {{ ?s <{EX}v> ?o }} "
        "GROUP BY ?o",
        batch_size,
    )
    assert [(r["o"], r["n"]) for r in general.rows] == [
        (r["o"], r["n"]) for r in result.rows
    ]


@pytest.mark.parametrize(
    "query,operator,input_rows",
    [
        (f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }}", "select-id", 30),
        # the eager join ships its rows to the sink as column batches too
        # (30 subjects x 6 sharing each object)
        (f"SELECT ?s ?t WHERE {{ ?s <{EX}v> ?o . ?t <{EX}v> ?o }}", "select-id", 180),
        (f"SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o",
         "aggregate-id", 30),
    ],
    ids=["scan", "join", "fold"],
)
def test_exec_stats_report_rows_per_batch(query, operator, input_rows):
    """batches * BATCH_SIZE covers input_rows -- O(rows / BATCH_SIZE)
    control-flow transfers into every sink: EXPLAIN ANALYZE derives
    rows-per-batch from the two counters."""
    _, stats = _run(_edge_graph(), query, 7)
    assert stats["operator"] == operator
    assert stats["input_rows"] == input_rows
    assert stats["batches"] == -(-input_rows // 7)


# -- routing: the source follows from the patterns ----------------------------


def test_multi_pattern_bgps_never_build_a_whole_graph_probe_table():
    """A deterministic work count, not a timing: neither the small-LIMIT
    typed-join page nor the per-class extraction histogram may scan the
    open ``?s ?p ?o`` pattern into a probe table.  Build-then-probe over
    column batches does exactly that (``rows_out == len(graph)`` for a
    20-row page, or for the one subject of the smallest class), which is
    an 18x loss on the index-extraction workload."""
    g = government_graph(scale=0.2, seed=5)
    census = QueryEngine(g).run(
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c"
    )
    smallest = min(census.rows, key=lambda row: int(row["n"].lexical))["c"]
    for query in (
        "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 20",
        f"SELECT ?p (COUNT(?o) AS ?n) WHERE {{ ?s a <{smallest.value}> . ?s ?p ?o }} "
        "GROUP BY ?p",
    ):
        report = QueryEngine(g).explain(query)
        assert report.rows
        builds = [
            span.attrs["rows_out"]
            for span in report.tracer.spans
            if span.name == "sparql.probe_build"
        ]
        assert len(g) not in builds, (query, builds)


# -- bounded lazy fan-out (LIMIT pushdown into the shard scan) ---------------


def _sharded_edge_store(shards: int) -> ShardedTripleStore:
    store = ShardedTripleStore(shards=shards)
    store.add_many_terms(
        (IRI(f"{EX}s{i:03d}"), IRI(f"{EX}v"), Literal(i)) for i in range(600)
    )
    return store


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_limit_bounded_scan_ships_bounded_shard_rows(shards):
    """A LIMIT-bounded unbound scan truncates every shard's run to the
    first offset+limit rows before shipping: results are unchanged, but
    shard_rows is bounded by shards * (offset + limit) instead of the
    full store size.  (LIMIT 70: past the small-LIMIT streaming bound.)"""
    store = _sharded_edge_store(shards)
    query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
    result, stats = _run(store, f"{query} LIMIT 70", 8)
    assert stats["operator"] == "select-id"
    assert stats["shard_rows"] <= shards * 70
    # the unbounded scan ships everything by contrast
    full, stats = _run(store, query, 8)
    assert stats["shard_rows"] == 600
    assert _ordered_rows(result) == _ordered_rows(full)[:70]


def test_limit_zero_select_star_still_derives_its_header():
    """SELECT * needs one witness row for its header even at LIMIT 0, so
    the bounded fan-out never truncates below one row per shard."""
    store = _sharded_edge_store(2)
    engine = QueryEngine(store)
    result = engine.run("SELECT * WHERE { ?s ?p ?o } LIMIT 0")
    assert engine.exec_stats["operator"] == "select-id"
    assert result.rows == []
    assert result.variables == ["o", "p", "s"]
    reference = QueryEngine(store, strategy="scan").run(
        "SELECT * WHERE { ?s ?p ?o } LIMIT 0"
    )
    assert reference.variables == result.variables
