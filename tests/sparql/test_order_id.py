"""The ID-space ORDER BY sink (sort raw ID rows, decode the emitted page).

Simple-shape queries order ID tuples with memoized decoded keys -- a
full sort without LIMIT, a bounded heap with one -- and only decode
rows that survive DISTINCT/OFFSET/LIMIT.  These tests pin (a) that the
sink actually runs (``operator == "topk-id"``), and (b) that its output
is row-for-row identical to the scan oracle's materialized sort, ties
included.
"""

from __future__ import annotations

import pytest

from repro.rdf import parse_turtle
from repro.sparql import QueryEngine

DATA = """
@prefix ex: <http://example.org/> .

ex:a ex:score 3 ; ex:group ex:g1 ; a ex:T .
ex:b ex:score 1 ; ex:group ex:g2 ; a ex:T .
ex:c ex:score 3 ; ex:group ex:g1 ; a ex:T .
ex:d ex:score 2 ; ex:group ex:g2 ; a ex:T .
ex:e ex:score 1 ; ex:group ex:g1 ; a ex:T .
"""

PREFIX = "PREFIX ex: <http://example.org/> "


@pytest.fixture(scope="module")
def graph():
    return parse_turtle(DATA)


def _ordered(result):
    return [
        [(name, str(term)) for name, term in sorted(row.items())]
        for row in result.rows
    ]


CASES = [
    # plain full sort, no LIMIT -- the satellite's target shape
    ("full-sort", PREFIX + "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY ?v ?s"),
    # descending + secondary key, ties broken by the second condition
    ("desc-keys", PREFIX + "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY DESC(?v) ?s"),
    # LIMIT above the small-LIMIT streaming bound
    ("big-limit", PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY ?v ?s LIMIT 100"),
    # DISTINCT + ORDER BY without LIMIT: sort, then stable dedup
    ("distinct", PREFIX + "SELECT DISTINCT ?g WHERE { ?s ex:group ?g . ?s ex:score ?v } ORDER BY ?g"),
    # OFFSET slicing after the sort
    ("offset", PREFIX + "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY ?v ?s OFFSET 2"),
    # SELECT * header from the full solution multiset
    ("select-star", PREFIX + "SELECT * WHERE { ?s ex:score ?v } ORDER BY DESC(?s)"),
    # sort key on an unprojected WHERE variable
    ("unprojected-key", PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY DESC(?v) ?s"),
    # term-test filter composed under the sort
    ("filtered", PREFIX + "SELECT ?s ?v WHERE { ?s ?p ?v FILTER (isLiteral(?v)) } ORDER BY ?v ?s"),
    # unbound sort variable: every key ties, input order is kept
    ("unbound-key", PREFIX + "SELECT ?s WHERE { ?s a ex:T } ORDER BY ?nope ?s"),
]


@pytest.mark.parametrize("case_id,query", CASES, ids=[c[0] for c in CASES])
def test_order_id_matches_materialized_sort(graph, case_id, query):
    engine = QueryEngine(graph)
    result = engine.run(query)
    assert engine.exec_stats.get("operator") == "topk-id", engine.exec_stats
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


def test_decodes_only_the_emitted_page(graph):
    engine = QueryEngine(graph)
    # only the emitted page is ever decoded, whatever the LIMIT
    result = engine.run(
        PREFIX + "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY ?v ?s OFFSET 1 LIMIT 100"
    )
    stats = engine.exec_stats
    assert stats["operator"] == "topk-id"
    assert stats["input_rows"] == 5
    assert stats["decoded_rows"] == len(result.rows) == 4


@pytest.mark.parametrize("strategy", ["hash", "stream"])
def test_limit_bounds_the_rows_kept(graph, strategy):
    # with a LIMIT the sink is a bounded heap: offset + k rows, not all 5
    engine = QueryEngine(graph, strategy=strategy)
    engine.run(PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY ?v ?s LIMIT 2")
    assert engine.exec_stats["operator"] == "topk-id"
    assert engine.exec_stats["tracked_rows"] == 2
    engine.run(PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY ?v ?s")
    assert engine.exec_stats["tracked_rows"] == 5


# -- the stream engine feeds the same sink ------------------------------------


@pytest.mark.parametrize("case_id,query", CASES, ids=[c[0] for c in CASES])
def test_stream_strategy_uses_id_sorter_for_unlimited_order(graph, case_id, query):
    """ORDER BY on the stream engine runs the same ID-space sink (fed by
    its lazy chain) instead of the materializing general path."""
    engine = QueryEngine(graph, strategy="stream")
    result = engine.run(query)
    assert engine.exec_stats.get("operator") == "topk-id", engine.exec_stats
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


def test_non_simple_shapes_fall_back(graph):
    # OPTIONAL in the WHERE clause: not the pure-ID shape
    engine = QueryEngine(graph)
    query = (
        PREFIX
        + "SELECT ?s ?g WHERE { ?s ex:score ?v OPTIONAL { ?s ex:group ?g } } "
        + "ORDER BY ?v ?s"
    )
    result = engine.run(query)
    assert engine.exec_stats.get("operator") != "topk-id"
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


def test_expression_sort_key_falls_back(graph):
    engine = QueryEngine(graph)
    query = PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY (?v * 2) ?s"
    result = engine.run(query)
    assert engine.exec_stats.get("operator") != "topk-id"
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)
