"""The ID-space ORDER BY sink (sort raw ID rows, decode the emitted page).

Simple-shape queries order ID tuples with memoized decoded keys -- a
full sort without LIMIT, a bounded heap with one -- and only decode
rows that survive DISTINCT/OFFSET/LIMIT.  These tests pin (a) that the
sink actually runs (``operator == "topk-id"``), and (b) that its output
is row-for-row identical to the scan oracle's materialized sort, ties
included.  The aggregate sink runs the same modifiers over its groups
(``operator == "aggregate-id"``, ``decoded_rows`` = the page); its
table-driven differential is at the end of the file.
"""

from __future__ import annotations

import itertools

import pytest

from repro.rdf import Graph, parse_turtle
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


# -- ordered aggregates: the same modifiers over (group IDs, raw fold values) --
#
# One table-driven differential against the scan oracle.  A row is a sort
# key kind; every row runs ASC/DESC x with/without a tie-breaking second
# condition x the OFFSET/LIMIT table x DISTINCT x HAVING, on both engines,
# at three batch sizes and two shard counts.  Ties are everywhere in the
# data (a/d and c/g fold to the same values), so an unstable sort or a heap
# that is not sort-then-slice shows as a row-order difference.

AGG_DATA = """
@prefix ex: <http://example.org/> .

ex:a ex:m 3, 1 .
ex:b ex:m 2, "2" .
ex:c ex:m 4 .
ex:d ex:m 1, 3 .
ex:e ex:m "n/a" .
ex:f ex:m 2.5, "x" .
ex:g ex:m 4 .
ex:h ex:m ex:other .
"""

#: (id, projection, GROUP BY, sort key, groups folded, runs in ID space?)
AGG_KEYS = [
    ("group-iri", "?s (COUNT(?v) AS ?n)", "?s", "?s", 8, True),
    ("group-literal", "?v (COUNT(?s) AS ?n)", "?v", "?v", 9, True),
    ("count-alias", "?s (COUNT(?v) AS ?n)", "?s", "?n", 8, True),
    ("sum-alias", "?s (SUM(?v) AS ?n)", "?s", "?n", 8, True),
    # AVG over no numeric value is unbound: e and h sort first ascending
    ("avg-alias", "?s (AVG(?v) AS ?n)", "?s", "?n", 8, True),
    ("min-alias", "?s (MIN(?v) AS ?n)", "?s", "?n", 8, True),
    ("max-alias", "?s (MAX(?v) AS ?n)", "?s", "?n", 8, True),
    # a group key no pattern binds: one group, key unbound
    ("unbound-group-key", "?nope (COUNT(?v) AS ?n)", "?nope", "?nope", 1, True),
    # a group variable the projection drops names no output column: ties
    ("unprojected-group-key", "(COUNT(?v) AS ?n)", "?s", "?s", 8, True),
    # DISTINCT really collapses rows when only the fold is projected
    ("fold-only-projection", "(COUNT(?v) AS ?n)", "?s", "?n", 8, True),
    # an expression needs decoded rows in scope: term-space modifiers
    ("expression-falls-back", "?s (COUNT(?v) AS ?n)", "?s", "(?n * 2)", 8, False),
]

AGG_SLICES = [
    "",
    "LIMIT 0",
    "LIMIT 2",
    "LIMIT 100",  # more than the groups, and past the small-LIMIT bound
    "OFFSET 1 LIMIT 3",
    "OFFSET 2",
    "OFFSET 100",
]

_oracle_rows = {}


@pytest.fixture(scope="module", params=(1, 4), ids=lambda n: f"shards{n}")
def agg_graph(request):
    graph = Graph(shards=request.param)
    graph.update(parse_turtle(AGG_DATA))
    return graph


@pytest.mark.parametrize("batch_size", (1, 7, 1024))
@pytest.mark.parametrize("strategy", ("hash", "stream"))
@pytest.mark.parametrize(
    "projection,group_by,key,groups,id_space",
    [row[1:] for row in AGG_KEYS],
    ids=[row[0] for row in AGG_KEYS],
)
def test_ordered_aggregate_matches_the_scan_oracle(
    agg_graph, monkeypatch, projection, group_by, key, groups, id_space,
    strategy, batch_size,
):
    monkeypatch.setattr(QueryEngine, "BATCH_SIZE", batch_size)
    engine = QueryEngine(agg_graph, strategy=strategy)
    oracle = QueryEngine(agg_graph, strategy="scan")
    for descending, tie_break, page, distinct, having in itertools.product(
        (False, True), (False, True), AGG_SLICES, (False, True), (False, True)
    ):
        condition = f"DESC({key})" if descending else key
        if tie_break:
            condition += " DESC(?s)"
        query = (
            PREFIX
            + f"SELECT {'DISTINCT ' if distinct else ''}{projection} "
            + f"WHERE {{ ?s ex:m ?v }} GROUP BY {group_by} "
            + ("HAVING (COUNT(?v) > 1) " if having else "")
            + f"ORDER BY {condition} {page}"
        )
        expected = _oracle_rows.get((id(agg_graph), query))
        if expected is None:
            expected = _oracle_rows[id(agg_graph), query] = _ordered(oracle.run(query))
        result = engine.run(query)
        assert _ordered(result) == expected, query
        if strategy == "stream":
            continue  # stream-aggregate: term-space modifiers
        stats = engine.exec_stats
        assert stats["operator"] == "aggregate-id", query
        assert stats["tracked_rows"] == groups, query
        if id_space:
            # only the page that survived the modifiers was decoded
            assert stats["decoded_rows"] == len(result.rows), query
            assert ("distinct_keys" in stats) == distinct, query
        else:
            assert stats["decoded_rows"] == groups - stats.get("having_pruned", 0), query


# -- the lazy tail: sort keys only for the rows a cut has to compare ---------
#
# Under LIMIT (and under DISTINCT) the tail cuts what it holds after every
# batch: the first condition's keys settle every row but those tying with
# the ``offset + k``-th best key, only those get the next condition's keys,
# and the last tie-break is the input sequence.  Every row below runs on
# both engines at three batch sizes against the scan oracle's sort-then-
# slice, through every page of TAIL_PAGES, with and without DISTINCT.
# The data is nine subjects with one first key shared by all of them
# (``same``), one with two values split 2 / 7 (``two``) and one with three
# values in no order (``b``), so a cut lands inside a tie group whatever
# the page, and at batch sizes 1 and 3 every tie group spans a batch edge.

TAIL_DATA = """
@prefix ex: <http://example.org/> .

ex:r1 ex:same 7 ; ex:two 1 ; ex:b 3 .
ex:r2 ex:same 7 ; ex:two 2 ; ex:b 1 .
ex:r3 ex:same 7 ; ex:two 2 ; ex:b 2 .
ex:r4 ex:same 7 ; ex:two 2 ; ex:b 2 .
ex:r5 ex:same 7 ; ex:two 1 ; ex:b 1 .
ex:r6 ex:same 7 ; ex:two 2 ; ex:b 3 .
ex:r7 ex:same 7 ; ex:two 2 ; ex:b 2 .
ex:r8 ex:same 7 ; ex:two 2 ; ex:b 1 .
ex:r9 ex:same 7 ; ex:two 2 ; ex:b 2 .
"""

#: (id, projection, WHERE, ORDER BY)
TAIL_ORDERS = [
    # every row ties on the only key: the page is the first rows scanned
    ("all-tie", "?s", "?s ex:same ?k", "?k"),
    ("all-tie-desc", "?s ?k", "?s ex:same ?k", "DESC(?k)"),
    # every row ties on the first key: the second one decides all of it
    ("all-tie-then-key", "?s", "?s ex:same ?k", "?k DESC(?s)"),
    # two first keys, 2 + 7 rows: the bound falls inside the larger group
    ("two-keys", "?s ?t", "?s ex:two ?t", "?t"),
    ("two-keys-desc", "?s", "?s ex:two ?t", "DESC(?t)"),
    ("two-keys-then-key", "?s ?t", "?s ex:two ?t", "DESC(?t) DESC(?s)"),
    # three conditions, mixed directions, ties left after the second
    ("three-mixed", "?s ?p ?o", "?s ?p ?o", "?p DESC(?o) ?s"),
    ("three-mixed-flipped", "?s ?p ?o", "?s ?p ?o", "DESC(?p) ?o DESC(?s)"),
    ("two-of-three", "?s ?o", "?s ?p ?o", "DESC(?o) ?p"),
    # a sort variable no pattern binds ties on every row, wherever it is
    ("unbound-first", "?s ?v", "?s ex:b ?v", "?nope DESC(?v)"),
    ("unbound-last", "?s ?v", "?s ex:b ?v", "?v ?nope"),
    ("unbound-only", "?s", "?s ex:b ?v", "DESC(?nope)"),
    # SELECT *: the header needs a witness row even when the page is empty
    ("select-star", "*", "?s ex:b ?v", "DESC(?v)"),
    # DISTINCT keys narrower than the sort key: a key's earliest row in
    # sort order stands for it
    ("narrow-dedup", "?p", "?s ?p ?o", "DESC(?o) ?s"),
    ("narrow-dedup-ties", "?o", "?s ?p ?o", "?p"),
    ("dedup-key-unsorted", "?v", "?s ex:b ?v", "?s"),
]

#: (page, offset, limit)
TAIL_PAGES = [
    ("", 0, None),
    ("LIMIT 0", 0, 0),
    ("LIMIT 1", 0, 1),
    ("LIMIT 4", 0, 4),
    ("LIMIT 5 OFFSET 2", 2, 5),
    ("LIMIT 3 OFFSET 50", 50, 3),  # past the end
    ("LIMIT 100", 0, 100),  # more than the rows
]


@pytest.fixture(scope="module")
def tail_graph():
    return parse_turtle(TAIL_DATA)


def _header_and_rows(result):
    return list(result.variables), _ordered(result)


@pytest.mark.parametrize("batch_size", (1, 3, 1024))
@pytest.mark.parametrize("strategy", ("hash", "stream"))
@pytest.mark.parametrize(
    "projection,where,order", [row[1:] for row in TAIL_ORDERS],
    ids=[row[0] for row in TAIL_ORDERS],
)
def test_lazy_tail_matches_sort_then_slice(
    tail_graph, monkeypatch, projection, where, order, strategy, batch_size
):
    monkeypatch.setattr(QueryEngine, "BATCH_SIZE", batch_size)
    engine = QueryEngine(tail_graph, strategy=strategy)
    oracle = QueryEngine(tail_graph, strategy="scan")
    for (page, offset, limit), distinct in itertools.product(TAIL_PAGES, (False, True)):
        query = (
            PREFIX
            + f"SELECT {'DISTINCT ' if distinct else ''}{projection} "
            + f"WHERE {{ {where} }} ORDER BY {order} {page}"
        )
        expected = _oracle_rows.get((id(tail_graph), query))
        if expected is None:
            expected = _oracle_rows[id(tail_graph), query] = _header_and_rows(
                oracle.run(query)
            )
        result = engine.run(query)
        assert _header_and_rows(result) == expected, query
        stats = engine.exec_stats
        assert stats["operator"] == "topk-id", query
        assert stats["decoded_rows"] == len(result.rows), query
        assert ("distinct_keys" in stats) == distinct, query
        if limit is not None:
            # what the tail holds between batches is the page, DISTINCT or not
            assert stats["tracked_rows"] <= offset + limit, query


def test_lazy_tail_builds_keys_for_the_rows_it_has_to_compare(tail_graph):
    """``sort_keys`` counts the distinct cells keyed.  Nine rows, two
    first keys; the second condition is keyed only for the rows tying at
    the page's bound (and, to order the page, for the rows on it): the
    two ``two = 1`` rows ascending, the seven ``two = 2`` rows
    descending, all nine when there is nothing to cut."""
    engine = QueryEngine(tail_graph)
    template = PREFIX + "SELECT ?s WHERE {{ ?s ex:two ?t }} ORDER BY {order} LIMIT {k}"
    for order, k, second_keys in (
        ("?t ?s", 1, 2),
        ("?t ?s", 2, 2),  # both rows fit: no cut, keyed to order the page
        ("DESC(?t) ?s", 1, 7),
        ("?t ?s", 100, 9),
    ):
        engine.run(template.format(order=order, k=k))
        assert engine.exec_stats["sort_keys"] == 2 + second_keys, (order, k)
