"""ORDER BY pages and aggregation against their oracles.

An ORDER BY over solutions runs the general path; a pure-COUNT
aggregation over a simple WHERE clause (plain patterns, term-test
FILTERs) runs the ``aggregate-id`` sink, fed ID rows straight off the
indexes or the join, and every other aggregate the general path.
Property tests pin the two contracts:

* ``ORDER BY ... LIMIT k`` returns exactly the rows that materializing
  the full result, sorting it and slicing would -- including the stable
  tie-break on input order, sort keys over unprojected WHERE variables,
  and unbound-sorts-first semantics;
* GROUP BY/aggregation through the count sink equals the materialized
  ``_aggregate`` fold, and every aggregate equals the scan oracle,
  COUNT(DISTINCT ?v) included.

The count sink's memory contract (O(groups) tracked rows, not O(rows))
is asserted through ``Execution.stats``, not by timing.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal
from repro.sparql import Execution, QueryEngine, evaluate
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
#: covers pure BGPs with bare-variable keys, unprojected sort variables
#: and multi-condition ASC/DESC, and OPTIONAL with unbound sort keys -- all
#: on the general path.
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
    """Bounded tail == materialize + sort + slice, on the same pipeline."""
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", ""))
    paged = evaluate(graph, template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"))
    assert _exact_rows(paged) == _exact_rows(full)[offset : offset + limit]
    assert paged.variables == full.variables


@settings(max_examples=25, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(TOPK_TEMPLATES),
    limit=st.integers(min_value=0, max_value=8),
)
def test_an_order_by_page_runs_the_general_path(specs, template, limit):
    graph = _graph(specs)
    engine = QueryEngine(graph)
    execution = engine.execute(template.replace("{mod}", f"LIMIT {limit}"))
    result, stats = execution.result, execution.stats
    assert len(result.rows) <= limit
    assert stats["operator"] == "general"
    assert "tracked_rows" not in stats


# ---------------------------------------------------------------------------
# DISTINCT + ORDER BY + LIMIT: each key's earliest row in sort order
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
)
def test_distinct_topk_matches_sort_dedup_slice(specs, template, limit, offset):
    """Champion rule == materialize + sort + stable dedup + slice.

    The unlimited query cuts once, at the end (no LIMIT means no cut per
    batch), so the two runs of the tail check each other.
    """
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", ""))
    paged = evaluate(graph, template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"))
    assert _exact_rows(paged) == _exact_rows(full)[offset : offset + limit]
    assert paged.variables == full.variables


@settings(max_examples=25, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(DISTINCT_TOPK_TEMPLATES),
    limit=st.integers(min_value=1, max_value=8),
)
def test_a_distinct_order_by_page_runs_the_general_path(specs, template, limit):
    """DISTINCT + ORDER BY + LIMIT runs the general path: no sink counts
    keys or holds rows."""
    graph = _graph(specs)
    engine = QueryEngine(graph)
    execution = engine.execute(template.replace("{mod}", f"LIMIT {limit}"))
    result, stats = execution.result, execution.stats
    assert len(result.rows) <= limit
    assert stats["operator"] == "general"
    assert "distinct_keys" not in stats and "tracked_rows" not in stats


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
    for strategy in ("scan", "hash"):
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
    for strategy in ("scan", "hash"):
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


def test_an_order_by_page_sorts_the_whole_join():
    """The general path builds every row of the join, sorts, then slices:
    the page equals the oracle's."""
    graph = _ladder_graph(500)
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?rank }} ORDER BY ?rank LIMIT 5 OFFSET 2"
    execution = QueryEngine(graph).execute(query)
    result = execution.result
    assert [str(row["s"]) for row in result.rows] == [
        f"{EX}n{i}" for i in range(2, 7)
    ]
    assert result.rows == evaluate(graph, query, strategy="scan").rows
    stats = execution.stats
    assert stats["operator"] == "general"
    assert stats["join_rows"] == 500


def test_hash_engine_runs_order_limit_on_the_general_path():
    graph = _ladder_graph(300)
    engine = QueryEngine(graph)  # default hash strategy
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?rank }} ORDER BY DESC(?rank) LIMIT 4"
    execution = engine.execute(query)
    result = execution.result
    assert [str(row["s"]) for row in result.rows] == [f"{EX}n{i}" for i in (299, 298, 297, 296)]
    assert execution.stats["operator"] == "general"


# ---------------------------------------------------------------------------
# the incremental fold == materialized aggregation
# ---------------------------------------------------------------------------

#: aggregate templates over order-insensitive folds (no SAMPLE /
#: GROUP_CONCAT: their results legitimately depend on enumeration order).
#: The first and third are pure COUNTs, the count sink's; the rest run the
#: general path.
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
    modern = evaluate(graph, template)
    assert _canonical_rows(modern) == _canonical_rows(scan)
    assert sorted(modern.variables) == sorted(scan.variables)


@settings(max_examples=25, deadline=None)
@given(specs=_triples, template=st.sampled_from(AGG_TEMPLATES))
def test_stream_aggregation_matches_materialized_general_path(specs, template):
    """The incremental fold == the engine's own materialized ``_aggregate``
    over the *same* solution stream (exact, including row order)."""
    graph = _graph(specs)
    engine = QueryEngine(graph)
    execution = engine.execute(template)
    streamed = execution.result
    counted = template in (AGG_TEMPLATES[0], AGG_TEMPLATES[2])
    assert execution.stats.get("operator") == ("aggregate-id" if counted else "general")
    materialized = Execution(engine)._run_select_general(parse_query(template))
    assert _exact_rows(streamed) == _exact_rows(materialized)


def test_stream_aggregation_tracks_groups_not_rows():
    graph = _ladder_graph(600)  # 600 p0 rows + 200 p2 rows, 2 predicates
    engine = QueryEngine(graph)
    execution = engine.execute(
        "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
    )
    result = execution.result
    counts = {str(row["p"]): int(row["n"].lexical) for row in result.rows}
    assert counts == {f"{EX}p0": 600, f"{EX}p2": 200}
    stats = execution.stats
    assert stats["input_rows"] == 800
    assert stats["tracked_rows"] == 2  # O(groups), not O(rows)
    # feeding an ordered, LIMITed tail (top-k groups by count) folds the same
    execution = engine.execute(
        "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p "
        "ORDER BY DESC(?n) LIMIT 1"
    )
    top = execution.result
    assert [str(row["p"]) for row in top.rows] == [f"{EX}p0"]
    assert execution.stats["operator"] == "aggregate-id"
    assert execution.stats["tracked_rows"] == 2


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
    for strategy in ("scan", "hash"):
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
    for strategy in ("scan", "hash"):
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
    # a brand-new engine starts warm
    for _ in range(2):
        transient = QueryEngine(graph)
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
    assert len(QueryEngine(graph).run(query).rows) == 5
    assert engine.plan_cache_info()["generation"] == graph.generation


# ---------------------------------------------------------------------------
# conformance edge: LIMIT 0 and empty inputs through the bounded tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["scan", "hash"])
def test_order_limit_zero(strategy):
    graph = _ladder_graph(5)
    result = evaluate(
        graph,
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }} ORDER BY ?o LIMIT 0",
        strategy=strategy,
    )
    assert result.rows == []
    assert result.variables == ["s"]


@pytest.mark.parametrize("strategy", ["scan", "hash"])
def test_order_limit_on_empty_graph(strategy):
    result = evaluate(
        Graph(),
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }} ORDER BY DESC(?o) LIMIT 3",
        strategy=strategy,
    )
    assert result.rows == []
