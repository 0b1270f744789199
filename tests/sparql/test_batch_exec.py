"""Row-source conformance for the columnar executor.

A plain page and a pure-COUNT aggregation run as ID rows, pulled lazily,
through one source (index scan | lazy chain | eager join) and one of two
sinks.  The suite checks the default engine against the ``scan`` oracle,
checks that a page is the matching slice of its unpaged query row for
row, and pins the cases a row-at-a-time oracle cannot see -- those on the
30-row edge graph as built and reloaded, eagerly or with lazy shards:

* DISTINCT keys that recur across the scan,
* a selective FILTER that hands the sink only the passing rows,
* COUNT groups whose members are spread over the scan,
* the LIMIT bound: a LIMIT-bounded unbound scan of a sharded store
  stops materialising rows once the slice is satisfied,
* routing: a multi-pattern BGP never builds a whole-graph probe table.

ORDER BY ties and order-sensitive folds (GROUP_CONCAT, SAMPLE) run the
general path; their cases below pin that route and the oracle's rows.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.government import government_graph
from repro.rdf import Graph, IRI, Literal, ShardedTripleStore, Triple
from repro.sparql import QueryEngine
from repro.sparql.results import AskResult

EX = "http://example.org/"

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
    # un-LIMITed ORDER BY: the full-sort case, ties on ?o
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


def _run(graph, query):
    """``(result, stats)`` of *query* on the default engine."""
    execution = QueryEngine(graph).execute(query)
    return execution.result, execution.stats


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


_PAGE = re.compile(r"(?: OFFSET (\d+))?(?: LIMIT (\d+))?$")


@settings(max_examples=120, deadline=None)
@given(triples=triples_strategy, case=st.sampled_from(QUERIES))
def test_property_a_page_is_its_query_s_slice(triples, case):
    """A page is the slice of its unpaged query's rows, row for row, and
    the result is the scan oracle's solutions."""
    query, oracle = case
    graph = _build(triples)
    candidate, _ = _run(graph, query)
    page = _PAGE.search(query)
    if page.group(0):
        unpaged, _ = _run(graph, query[: page.start()])
        offset = int(page.group(1) or 0)
        limit = None if page.group(2) is None else offset + int(page.group(2))
        assert candidate.variables == unpaged.variables, query
        assert _ordered_rows(candidate) == _ordered_rows(unpaged)[offset:limit], query
    if oracle:
        scan = QueryEngine(graph, strategy="scan").run(query)
        if isinstance(scan, AskResult):
            assert bool(scan) == bool(candidate), query
        else:
            assert sorted(scan.variables) == sorted(candidate.variables), query
            assert _canonical_rows(scan) == _canonical_rows(candidate), query


# -- pinned cases ---------------------------------------------------------------


@pytest.fixture(scope="module")
def edge_graph(store, stored) -> Graph:
    """30 rows of one predicate whose objects cycle through 5 values:
    duplicate keys, group members and sort ties spread over the scan --
    as built and reloaded, eagerly or with lazy shards."""
    g = Graph()
    for i in range(30):
        g.add(Triple(IRI(f"{EX}s{i:02d}"), IRI(f"{EX}v"), Literal(i % 5)))
    return stored(g, store)


def test_distinct_keys_recur_across_the_scan(edge_graph):
    # ?o is the leaf level of SPO, so the scan expands rows (``?s <v> ?o``
    # reads ?o's runs: the twin below)
    query = "SELECT DISTINCT ?o WHERE { ?s ?p ?o }"
    result, stats = _run(edge_graph, query)
    oracle = QueryEngine(edge_graph, strategy="scan").run(query)
    assert _canonical_rows(result) == _canonical_rows(oracle)
    assert stats["operator"] == "select-id"
    assert stats["distinct_keys"] == 5
    assert stats["input_rows"] == 30


def test_a_distinct_page_reads_only_the_rows_it_lacks_keys_for():
    """While a DISTINCT page is short it reads as many more rows as it
    lacks keys: objects 0, 0, 1, 1, 2, ... and LIMIT 3 read 3 rows (two
    keys), 1 (a repeat), 1 (the third key) -- 5 of the 30."""
    g = Graph()
    for i in range(30):
        g.add(Triple(IRI(f"{EX}s{i:02d}"), IRI(f"{EX}v"), Literal(i // 2)))
    query = "SELECT DISTINCT ?o WHERE { ?s ?p ?o } LIMIT 3"
    result, stats = _run(g, query)
    assert [int(row["o"].lexical) for row in result.rows] == [0, 1, 2]
    assert stats["operator"] == "select-id"
    assert (stats["input_rows"], stats["distinct_keys"], stats["scan_cells"]) == (5, 3, 5)


def test_distinct_leading_level_reads_each_key_once(edge_graph):
    """The runs twin: ?o heads POS under ``<v>``, so the sink is handed
    the five keys and keeps the expanded order."""
    query = f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}v> ?o }}"
    expanded, _ = _run(edge_graph, "SELECT DISTINCT ?o WHERE { ?s ?p ?o }")
    result, stats = _run(edge_graph, query)
    _assert_same(expanded, result, query)
    assert stats["operator"] == "select-id"
    assert stats["distinct_keys"] == stats["input_rows"] == stats["scan_cells"] == 5


@pytest.mark.parametrize("limit", (4, 5, 6, 13))
@pytest.mark.parametrize("source", ("simple", "optional"))
def test_topk_ties_keep_the_full_sort_s_rows(edge_graph, limit, source):
    """Six-way sort-key ties: whichever rows the slice cuts through, the
    kept ties are decided by the global row sequence, so the page is
    exactly the first ``limit`` rows of the full sort, the oracle's --
    on the general path, over the plain pattern and behind an OPTIONAL
    that never matches."""
    never = f" OPTIONAL {{ ?s <{EX}absent> ?m }}" if source == "optional" else ""
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o{never} }} ORDER BY ?o"
    full, _ = _run(edge_graph, query)
    result, stats = _run(edge_graph, f"{query} LIMIT {limit}")
    assert _ordered_rows(result) == _ordered_rows(full)[:limit]
    oracle = QueryEngine(edge_graph, strategy="scan").run(f"{query} LIMIT {limit}")
    assert _ordered_rows(result) == _ordered_rows(oracle)
    assert stats["operator"] == "general"


def test_full_sort_ties_keep_the_scan_order(edge_graph):
    """Without LIMIT the general path sorts everything: equal keys keep
    the scan's row order (ascending and descending alike) -- a stable
    sort of the unordered page, the oracle's rows."""
    pattern = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }}"
    unordered, _ = _run(edge_graph, pattern)
    for order, descending in (("?o", False), ("DESC(?o)", True)):
        query = f"{pattern} ORDER BY {order}"
        result, stats = _run(edge_graph, query)
        assert result.rows == sorted(
            unordered.rows, key=lambda row: int(row["o"].lexical), reverse=descending
        )
        assert result.rows == QueryEngine(edge_graph, strategy="scan").run(query).rows
        assert stats["operator"] == "general"


def test_a_selective_filter_hands_the_sink_only_passing_rows():
    """Blocks of literal-only rows: whole runs of the scan lose every row
    to FILTER(isIRI(?o)), and the sink reads only the rows that pass."""
    g = Graph()
    for i in range(40):
        # rows 10..19 and 30..39 are IRIs, the rest literals
        obj = IRI(f"{EX}o{i}") if (i // 10) % 2 else Literal(i)
        g.add(Triple(IRI(f"{EX}s{i:02d}"), IRI(f"{EX}v"), obj))
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o FILTER(isIRI(?o)) }}"
    result, stats = _run(g, query)
    oracle = QueryEngine(g, strategy="scan").run(query)
    assert _canonical_rows(result) == _canonical_rows(oracle)
    assert len(result.rows) == 20
    # the sink only ever sees surviving rows
    assert stats["input_rows"] == 20


def test_interleaved_groups_fold_on_the_general_path(edge_graph):
    """Interleaved group keys: every group's members are spread over the
    scan, and the order-sensitive folds (GROUP_CONCAT order, first
    SAMPLE) run the general path and match the oracle bit for bit."""
    query = (
        f"SELECT ?o (COUNT(?s) AS ?n) (GROUP_CONCAT(?s) AS ?members) "
        f"(SAMPLE(?s) AS ?first) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o ORDER BY ?o"
    )
    result, stats = _run(edge_graph, query)
    _assert_same(QueryEngine(edge_graph, strategy="scan").run(query), result, query)
    assert stats["operator"] == "general"


def test_pure_count_group_by_matches_general_fold(edge_graph):
    """The Counter fast path (single key, plain COUNT) must keep the
    dict fold's first-seen group order and counts."""
    query = f"SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o"
    result, stats = _run(edge_graph, query)
    assert [(int(r["o"].lexical), int(r["n"].lexical)) for r in result.rows] == [
        (value, 6) for value in range(5)
    ]
    assert stats["operator"] == "aggregate-id"
    # a second aggregate leaves the count sink for the general path
    general, _ = _run(
        edge_graph,
        f"SELECT ?o (COUNT(?s) AS ?n) (MIN(?s) AS ?lo) WHERE {{ ?s <{EX}v> ?o }} "
        "GROUP BY ?o",
    )
    assert [(r["o"], r["n"]) for r in general.rows] == [
        (r["o"], r["n"]) for r in result.rows
    ]


@pytest.mark.parametrize(
    "query,operator,input_rows",
    [
        (f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }}", "select-id", 30),
        # the eager join hands its rows to the sink too (30 subjects x 6
        # sharing each object)
        (f"SELECT ?s ?t WHERE {{ ?s <{EX}v> ?o . ?t <{EX}v> ?o }}", "select-id", 180),
        # ?o is no leading index level here, so the fold counts rows (the
        # parent's ``?s <v> ?o`` is the runs row below)
        ("SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?o",
         "aggregate-id", 30),
        # runs: five keys and their run lengths
        (f"SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}v> ?o }} GROUP BY ?o",
         "aggregate-id", 5),
    ],
    ids=["scan", "join", "fold", "runs"],
)
def test_exec_stats_count_the_rows_each_sink_read(edge_graph, query, operator, input_rows):
    """``input_rows`` is what the sink read off its source: rows, or the
    keys of runs."""
    _, stats = _run(edge_graph, query)
    assert stats["operator"] == operator
    assert stats["input_rows"] == input_rows


# -- routing: the source follows from the patterns ----------------------------


def test_multi_pattern_bgps_never_build_a_whole_graph_probe_table():
    """A deterministic work count, not a timing: neither the small-LIMIT
    typed-join page nor the per-class extraction histogram may scan the
    open ``?s ?p ?o`` pattern into a probe table.  Build-then-probe over
    the scan does exactly that (``rows_out == len(graph)`` for a
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


# -- the LIMIT bound on a sharded store's spanning scan ------------------------


def _sharded_edge_store(shards: int) -> ShardedTripleStore:
    store = ShardedTripleStore(shards=shards)
    store.add_many_terms(
        (IRI(f"{EX}s{i:03d}"), IRI(f"{EX}v"), Literal(i)) for i in range(600)
    )
    return store


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_limit_bounded_scan_ships_bounded_shard_rows(shards):
    """A LIMIT-bounded unbound scan stops at the first offset+limit rows
    of the shards' merged run: results are unchanged, but the scan
    materialises 70 rows of three cells instead of the store's 600.
    (LIMIT 70: past the small-LIMIT streaming bound.)"""
    store = _sharded_edge_store(shards)
    query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
    result, stats = _run(store, f"{query} LIMIT 70")
    assert stats["operator"] == "select-id"
    assert stats["scan_cells"] == 70 * 3
    # the unbounded scan reads everything by contrast
    full, stats = _run(store, query)
    assert stats["scan_cells"] == 600 * 3
    assert _ordered_rows(result) == _ordered_rows(full)[:70]


def test_limit_zero_select_star_still_derives_its_header():
    """SELECT * needs one witness row for its header even at LIMIT 0, so
    the LIMIT bound never cuts the scan below one row."""
    store = _sharded_edge_store(2)
    execution = QueryEngine(store).execute("SELECT * WHERE { ?s ?p ?o } LIMIT 0")
    result = execution.result
    assert execution.stats["operator"] == "select-id"
    assert execution.stats["input_rows"] == 1  # the witness, no more
    assert result.rows == []
    assert result.variables == ["o", "p", "s"]
    reference = QueryEngine(store, strategy="scan").run(
        "SELECT * WHERE { ?s ?p ?o } LIMIT 0"
    )
    assert reference.variables == result.variables
