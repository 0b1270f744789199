"""The bounded top-k ORDER BY operator and the streaming aggregation fold.

Property tests pin the two contracts PR 3 introduces:

* ``ORDER BY ... LIMIT k`` through the bounded heap returns exactly the
  rows that materializing the full result, sorting it and slicing would
  -- including the stable tie-break on input order, sort keys over
  unprojected WHERE variables, and unbound-sorts-first semantics;
* streaming GROUP BY/aggregation (the incremental :class:`_AggFold`
  accumulators) equals the materialized ``_aggregate`` fold, including
  COUNT(DISTINCT ?v) via per-group seen-sets.

The memory contract (O(offset+k) / O(groups) tracked rows, not O(rows))
is asserted through ``QueryEngine.exec_stats``, not by timing.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal
from repro.sparql import QueryEngine, evaluate
from repro.sparql.parser import parse_query

EX = "http://example.org/"

_locals = st.text(alphabet=string.ascii_lowercase[:6], min_size=1, max_size=2)
_subjects = _locals.map(lambda s: IRI(f"{EX}s/{s}"))
_predicates = st.sampled_from([IRI(f"{EX}p{i}") for i in range(3)])
_objects = st.one_of(
    _subjects,
    st.integers(min_value=0, max_value=9).map(Literal),
)

_triples = st.lists(
    st.tuples(_subjects, _predicates, _objects), min_size=0, max_size=40
)


def _graph(triple_specs) -> Graph:
    g = Graph()
    g.add_many_terms(triple_specs)
    return g


def _exact_rows(result):
    """Row-for-row canonical form (ORDER BY results compare ordered)."""
    return [
        {name: term.n3() if term is not None else None for name, term in row.items()}
        for row in result.rows
    ]


def _canonical_rows(result):
    """Order-insensitive canonical form (aggregation results)."""
    return sorted(
        tuple(
            (name, row[name].n3() if row[name] is not None else "")
            for name in sorted(row)
        )
        for row in result.rows
    )


# ---------------------------------------------------------------------------
# top-k == full-sort-then-slice
# ---------------------------------------------------------------------------

#: ORDER BY query templates; {mod} takes the LIMIT/OFFSET clause.  The mix
#: covers both heap variants: pure BGPs with bare-variable keys (the
#: ID-space heap), unprojected sort variables, OPTIONAL with unbound sort
#: keys and multi-condition ASC/DESC (the term-space heap).
TOPK_TEMPLATES = [
    "SELECT ?s ?o WHERE { ?s <http://example.org/p0> ?o } ORDER BY ?o ?s {mod}",
    "SELECT ?s WHERE { ?s <http://example.org/p0> ?o } ORDER BY DESC(?o) {mod}",
    "SELECT ?s ?v WHERE { ?s <http://example.org/p0> ?o . "
    "?o <http://example.org/p1> ?v } ORDER BY ?v DESC(?s) {mod}",
    "SELECT * WHERE { ?s <http://example.org/p0> ?o } ORDER BY DESC(?s) ?o {mod}",
    "SELECT ?s ?l WHERE { ?s <http://example.org/p0> ?o "
    "OPTIONAL { ?s <http://example.org/p2> ?l } } ORDER BY ?l DESC(?o) {mod}",
    "SELECT ?s WHERE { ?s <http://example.org/p1> ?o "
    "FILTER ( isLiteral(?o) ) } ORDER BY ?o {mod}",
]


@settings(max_examples=40, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(TOPK_TEMPLATES),
    limit=st.integers(min_value=0, max_value=12),
    offset=st.integers(min_value=0, max_value=6),
)
def test_topk_matches_sort_then_slice(specs, template, limit, offset):
    """Bounded heap == materialize + sort + slice, on the same pipeline."""
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", ""), strategy="stream")
    paged = evaluate(
        graph,
        template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"),
        strategy="stream",
    )
    assert _exact_rows(paged) == _exact_rows(full)[offset : offset + limit]
    assert paged.variables == full.variables


@settings(max_examples=25, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(TOPK_TEMPLATES),
    limit=st.integers(min_value=0, max_value=8),
)
def test_topk_heap_never_tracks_more_than_k_rows(specs, template, limit):
    graph = _graph(specs)
    engine = QueryEngine(graph, strategy="stream")
    result = engine.run(template.replace("{mod}", f"LIMIT {limit}"))
    stats = engine.exec_stats
    assert stats["operator"] in ("topk-id", "topk")
    assert stats["tracked_rows"] <= limit
    assert len(result.rows) <= limit


# ---------------------------------------------------------------------------
# DISTINCT + ORDER BY + LIMIT: the per-key champion table
# ---------------------------------------------------------------------------

#: DISTINCT variants; the dedup key (projected row) deliberately differs
#: from the sort key in most templates, so the champion rule -- keep the
#: earliest-in-sort-order entry per distinct projected row -- is what is
#: being pinned, not plain dedup.
DISTINCT_TOPK_TEMPLATES = [
    "SELECT DISTINCT ?s WHERE { ?s <http://example.org/p0> ?o } ORDER BY ?o ?s {mod}",
    "SELECT DISTINCT ?o WHERE { ?s <http://example.org/p0> ?o } ORDER BY DESC(?o) {mod}",
    "SELECT DISTINCT * WHERE { ?s <http://example.org/p0> ?o } ORDER BY ?s ?o {mod}",
    "SELECT DISTINCT ?s WHERE { ?s <http://example.org/p0> ?o "
    "OPTIONAL { ?s <http://example.org/p2> ?l } } ORDER BY ?l DESC(?o) {mod}",
]


@settings(max_examples=40, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(DISTINCT_TOPK_TEMPLATES),
    limit=st.integers(min_value=0, max_value=12),
    offset=st.integers(min_value=0, max_value=6),
    strategy=st.sampled_from(("hash", "stream")),
)
def test_distinct_topk_matches_sort_dedup_slice(specs, template, limit, offset, strategy):
    """Champion table == materialize + sort + stable dedup + slice.

    The unlimited query runs the materialized modifier tail (no LIMIT means
    no champion table), so the two implementations check each other.
    """
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", ""), strategy=strategy)
    paged = evaluate(
        graph,
        template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"),
        strategy=strategy,
    )
    assert _exact_rows(paged) == _exact_rows(full)[offset : offset + limit]
    assert paged.variables == full.variables


@settings(max_examples=25, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(DISTINCT_TOPK_TEMPLATES),
    limit=st.integers(min_value=1, max_value=8),
)
def test_distinct_topk_routes_through_champion_table(specs, template, limit):
    """DISTINCT + ORDER BY + LIMIT no longer bypasses the bounded operator:
    it reports the champion-table stats, and the heap still holds at most
    ``limit`` of the champions."""
    graph = _graph(specs)
    engine = QueryEngine(graph, strategy="stream")
    result = engine.run(template.replace("{mod}", f"LIMIT {limit}"))
    stats = engine.exec_stats
    assert stats["operator"] in ("topk-id", "topk")
    assert stats["distinct_keys"] >= len(result.rows)
    assert stats["tracked_rows"] <= limit
    assert len(result.rows) <= limit


def _ladder_graph(n: int) -> Graph:
    """n p0-rows with distinct integer ranks + sparse p2 labels."""
    g = Graph()
    p0, p2 = IRI(f"{EX}p0"), IRI(f"{EX}p2")
    triples = [(IRI(f"{EX}n{i}"), p0, Literal(i)) for i in range(n)]
    triples += [
        (IRI(f"{EX}n{i}"), p2, Literal(f"label-{i}")) for i in range(0, n, 3)
    ]
    g.add_many_terms(triples)
    return g


def test_topk_sorts_by_unprojected_variable():
    """The sort key may name a WHERE variable the SELECT drops."""
    graph = _ladder_graph(20)
    query = (
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?rank }} ORDER BY DESC(?rank) LIMIT 3"
    )
    for strategy in ("scan", "hash", "stream"):
        result = evaluate(graph, query, strategy=strategy)
        assert [str(row["s"]) for row in result.rows] == [
            f"{EX}n19",
            f"{EX}n18",
            f"{EX}n17",
        ]


def test_topk_unbound_sort_key_sorts_first_stably():
    """Rows whose sort variable is unbound come first, in input order."""
    graph = _ladder_graph(9)
    query = (
        f"SELECT ?s ?l WHERE {{ ?s <{EX}p0> ?rank "
        f"OPTIONAL {{ ?s <{EX}p2> ?l }} }} ORDER BY ?l ?rank LIMIT 9"
    )
    for strategy in ("scan", "hash", "stream"):
        rows = evaluate(graph, query, strategy=strategy).rows
        labelled = [row for row in rows if row["l"] is not None]
        unlabelled = [row for row in rows if row["l"] is None]
        # all unbound-l rows precede every bound-l row ...
        assert rows[: len(unlabelled)] == unlabelled
        # ... unbound rows tie on ?l, so the second key (?rank) orders them
        assert [str(row["s"]) for row in unlabelled] == [
            f"{EX}n{i}" for i in range(9) if i % 3 != 0
        ]
        assert [str(row["l"]) for row in labelled] == [
            "label-0",
            "label-3",
            "label-6",
        ]


def test_topk_id_space_keeps_only_k_rows():
    """The ID-space heap consumes the whole join but keeps offset+k rows."""
    graph = _ladder_graph(500)
    engine = QueryEngine(graph, strategy="stream")
    result = engine.run(
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?rank }} ORDER BY ?rank LIMIT 5 OFFSET 2"
    )
    assert [str(row["s"]) for row in result.rows] == [
        f"{EX}n{i}" for i in range(2, 7)
    ]
    stats = engine.exec_stats
    assert stats["operator"] == "topk-id"
    assert stats["input_rows"] == 500
    assert stats["tracked_rows"] == 7  # offset + limit, not 500


def test_hash_engine_delegates_order_limit_to_topk():
    graph = _ladder_graph(300)
    engine = QueryEngine(graph)  # default hash strategy
    result = engine.run(
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?rank }} ORDER BY DESC(?rank) LIMIT 4"
    )
    assert len(result.rows) == 4
    assert engine.exec_stats["operator"] == "topk-id"
    assert engine.exec_stats["tracked_rows"] == 4


# ---------------------------------------------------------------------------
# streaming aggregation == materialized aggregation
# ---------------------------------------------------------------------------

#: aggregate templates over order-insensitive folds (no SAMPLE /
#: GROUP_CONCAT: their results legitimately depend on enumeration order).
AGG_TEMPLATES = [
    "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }",
    "SELECT ?p (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT ?p (SUM(?o) AS ?total) (AVG(?o) AS ?mean) "
    "WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT ?s (SUM(DISTINCT ?o) AS ?total) WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT ?s (COUNT(?l) AS ?n) WHERE { ?s <http://example.org/p0> ?o "
    "OPTIONAL { ?s <http://example.org/p2> ?l } } GROUP BY ?s",
]


@settings(max_examples=40, deadline=None)
@given(specs=_triples, template=st.sampled_from(AGG_TEMPLATES))
def test_stream_aggregation_matches_scan_oracle(specs, template):
    graph = _graph(specs)
    scan = evaluate(graph, template, strategy="scan")
    for strategy in ("hash", "stream"):
        modern = evaluate(graph, template, strategy=strategy)
        assert _canonical_rows(modern) == _canonical_rows(scan)
        assert sorted(modern.variables) == sorted(scan.variables)


@settings(max_examples=25, deadline=None)
@given(specs=_triples, template=st.sampled_from(AGG_TEMPLATES))
def test_stream_aggregation_matches_materialized_general_path(specs, template):
    """The incremental fold == the engine's own materialized ``_aggregate``
    over the *same* solution stream (exact, including row order)."""
    graph = _graph(specs)
    engine = QueryEngine(graph, strategy="stream")
    streamed = engine.run(template)
    assert engine.exec_stats.get("operator") == "stream-aggregate"
    materialized = engine._run_select_general(parse_query(template))
    assert _exact_rows(streamed) == _exact_rows(materialized)


def test_stream_aggregation_tracks_groups_not_rows():
    graph = _ladder_graph(600)  # 600 p0 rows + 200 p2 rows, 2 predicates
    engine = QueryEngine(graph, strategy="stream")
    result = engine.run(
        "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
    )
    counts = {str(row["p"]): int(row["n"].lexical) for row in result.rows}
    assert counts == {f"{EX}p0": 600, f"{EX}p2": 200}
    stats = engine.exec_stats
    assert stats["input_rows"] == 800
    assert stats["tracked_rows"] == 2  # O(groups), not O(rows)
    # feeding an ordered, LIMITed tail (top-k groups by count) folds the same
    top = engine.run(
        "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p "
        "ORDER BY DESC(?n) LIMIT 1"
    )
    assert [str(row["p"]) for row in top.rows] == [f"{EX}p0"]
    assert engine.exec_stats["operator"] == "stream-aggregate"
    assert engine.exec_stats["tracked_rows"] == 2


def test_count_distinct_uses_seen_sets_not_member_lists():
    """COUNT(DISTINCT ?v) state is the distinct-value set, per group."""
    graph = Graph()
    p = IRI(f"{EX}p")
    graph.add_many_terms(
        (IRI(f"{EX}s{i % 4}"), p, Literal(i % 5)) for i in range(400)
    )
    query = (
        f"SELECT ?s (COUNT(DISTINCT ?o) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?s"
    )
    for strategy in ("scan", "hash", "stream"):
        result = evaluate(graph, query, strategy=strategy)
        assert {int(row["n"].lexical) for row in result.rows} == {5}
        assert len(result.rows) == 4


def test_group_order_limit_composes_fold_and_sort():
    """Top-k entities by count: the paper's exploratory shape end-to-end."""
    graph = Graph()
    knows = IRI(f"{EX}knows")
    # subject i knows i+1 others -> degrees 1..8, unique per subject
    triples = []
    for i in range(8):
        for j in range(i + 1):
            triples.append((IRI(f"{EX}s{i}"), knows, IRI(f"{EX}o{j}")))
    graph.add_many_terms(triples)
    query = (
        f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s <{EX}knows> ?o }} "
        f"GROUP BY ?s ORDER BY DESC(?n) LIMIT 3"
    )
    for strategy in ("scan", "hash", "stream"):
        rows = evaluate(graph, query, strategy=strategy).rows
        assert [(str(r["s"]), int(r["n"].lexical)) for r in rows] == [
            (f"{EX}s7", 8),
            (f"{EX}s6", 7),
            (f"{EX}s5", 6),
        ]


# ---------------------------------------------------------------------------
# the shared per-graph plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_is_shared_across_engines_of_one_graph():
    graph = _ladder_graph(10)
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"
    first = QueryEngine(graph)
    first.run(query)
    misses = first.plan_cache_info()["misses"]
    # a brand-new engine (even of a different strategy) starts warm
    for strategy in ("hash", "stream"):
        transient = QueryEngine(graph, strategy=strategy)
        transient.run(query)
        info = transient.plan_cache_info()
        assert info["misses"] == misses
    assert QueryEngine(graph).plan_cache_info()["hits"] >= 2


def test_plan_cache_not_shared_across_graphs():
    g1, g2 = _ladder_graph(3), _ladder_graph(4)
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert len(evaluate(g1, query).rows) == 3
    assert len(evaluate(g2, query).rows) == 4
    assert QueryEngine(g1).plan_cache_info() != QueryEngine(g2).plan_cache_info() or (
        len(evaluate(g1, query).rows) == 3
    )


def test_shared_plan_cache_still_invalidated_by_mutation():
    graph = _ladder_graph(4)
    engine = QueryEngine(graph)
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert len(engine.run(query).rows) == 4
    graph.add_many_terms([(IRI(f"{EX}extra"), IRI(f"{EX}p0"), Literal(99))])
    # another engine sees the invalidation too
    assert len(QueryEngine(graph, strategy="stream").run(query).rows) == 5
    assert engine.plan_cache_info()["generation"] == graph.generation


# ---------------------------------------------------------------------------
# conformance edge: LIMIT 0 and empty inputs through the heap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["scan", "hash", "stream"])
def test_order_limit_zero(strategy):
    graph = _ladder_graph(5)
    result = evaluate(
        graph,
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }} ORDER BY ?o LIMIT 0",
        strategy=strategy,
    )
    assert result.rows == []
    assert result.variables == ["s"]


@pytest.mark.parametrize("strategy", ["scan", "hash", "stream"])
def test_order_limit_on_empty_graph(strategy):
    result = evaluate(
        Graph(),
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }} ORDER BY DESC(?o) LIMIT 3",
        strategy=strategy,
    )
    assert result.rows == []
