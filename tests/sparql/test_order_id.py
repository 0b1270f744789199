"""ORDER BY in ID space: the count sink's groups (sort IDs and counts,
decode the emitted page) -- and every other ORDER BY, on the general path.

A pure-COUNT aggregation over a simple WHERE clause orders its groups as
group-key IDs and counts with memoized keys, cuts them to the page and
decodes only the rows that survive OFFSET/LIMIT (``operator ==
"aggregate-id"``, ``decoded_rows`` = the page).  An ORDER BY over
solutions, any other aggregate, a DISTINCT over groups and any other
WHERE clause run the general path (``operator == "general"``).  Every
case is row-for-row identical to the scan oracle's materialized sort,
ties included.
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

#: the same rows off the simple WHERE clause (the sinks' ID rows) and --
#: behind an OPTIONAL that never matches -- off the general path
SOURCES = {"simple": "", "optional": " OPTIONAL { ?s ex:absent ?absent }"}


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
    execution = engine.execute(query)
    result = execution.result
    assert execution.stats.get("operator") == "general", execution.stats
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


def test_decodes_only_the_emitted_page(graph):
    engine = QueryEngine(graph)
    # only the emitted page of groups is ever decoded, whatever the LIMIT
    query = (
        PREFIX + "SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s ex:score ?v } GROUP BY ?s "
        "ORDER BY ?n ?s OFFSET 1 LIMIT 100"
    )
    execution = engine.execute(query)
    result, stats = execution.result, execution.stats
    assert stats["operator"] == "aggregate-id"
    assert stats["input_rows"] == stats["tracked_rows"] == 5
    assert stats["decoded_rows"] == len(result.rows) == 4
    assert _ordered(result) == _ordered(QueryEngine(graph, strategy="scan").run(query))


def test_limit_bounds_the_rows_kept(graph):
    # an ORDER BY over solutions sorts them all, then slices, on the
    # general path: no sink holds anything
    engine = QueryEngine(graph)
    oracle = QueryEngine(graph, strategy="scan")
    for page in ("LIMIT 2", ""):
        query = PREFIX + f"SELECT ?s WHERE {{ ?s ex:score ?v }} ORDER BY ?v ?s {page}"
        execution = engine.execute(query)
        assert execution.stats["operator"] == "general"
        assert "tracked_rows" not in execution.stats
        assert _ordered(execution.result) == _ordered(oracle.run(query))


def test_non_simple_where_runs_the_general_path(graph):
    # OPTIONAL in the WHERE clause: not the pure-ID shape the sinks read
    engine = QueryEngine(graph)
    query = (
        PREFIX
        + "SELECT ?s ?g WHERE { ?s ex:score ?v OPTIONAL { ?s ex:group ?g } } "
        + "ORDER BY ?v ?s"
    )
    execution = engine.execute(query)
    result = execution.result
    assert execution.stats.get("operator") == "general"
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


def test_expression_sort_key_falls_back(graph):
    engine = QueryEngine(graph)
    query = PREFIX + "SELECT ?s WHERE { ?s ex:score ?v } ORDER BY (?v * 2) ?s"
    execution = engine.execute(query)
    result = execution.result
    assert execution.stats.get("operator") == "general"
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _ordered(result) == _ordered(oracle)


# -- ordered aggregates: the same modifiers over (group IDs, raw fold values) --
#
# One table-driven differential against the scan oracle.  A row is a sort
# key kind; every row runs ASC/DESC x with/without a tie-breaking second
# condition x the OFFSET/LIMIT table x DISTINCT x HAVING, from both sources,
# on two shard counts x each of the conftest's STORES (as built, reloaded,
# reloaded with lazy shards).  Only a pure-COUNT row over
# the simple source with neither DISTINCT nor HAVING runs the aggregate
# sink; any other fold, an unbound group key, an expression sort key, a
# DISTINCT, a HAVING or the OPTIONAL source runs the general path.  Ties are everywhere in
# the data (a/d and c/g fold to the same values), so an unstable sort or a
# heap that is not sort-then-slice shows as a row-order difference.

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

#: (id, projection, GROUP BY, sort key, groups folded, runs the aggregate sink?)
AGG_KEYS = [
    ("group-iri", "?s (COUNT(?v) AS ?n)", "?s", "?s", 8, True),
    ("group-literal", "?v (COUNT(?s) AS ?n)", "?v", "?v", 9, True),
    ("count-alias", "?s (COUNT(?v) AS ?n)", "?s", "?n", 8, True),
    ("sum-alias", "?s (SUM(?v) AS ?n)", "?s", "?n", 8, False),
    # AVG over no numeric value is unbound: e and h sort first ascending
    ("avg-alias", "?s (AVG(?v) AS ?n)", "?s", "?n", 8, False),
    ("min-alias", "?s (MIN(?v) AS ?n)", "?s", "?n", 8, False),
    ("max-alias", "?s (MAX(?v) AS ?n)", "?s", "?n", 8, False),
    # a group key no pattern binds: one group, key unbound
    ("unbound-group-key", "?nope (COUNT(?v) AS ?n)", "?nope", "?nope", 1, False),
    # a group variable the projection drops names no output column: ties
    ("unprojected-group-key", "(COUNT(?v) AS ?n)", "?s", "?s", 8, True),
    # DISTINCT really collapses rows when only the fold is projected
    ("fold-only-projection", "(COUNT(?v) AS ?n)", "?s", "?n", 8, True),
    # an expression needs decoded rows in scope: the general path
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
def agg_graph(request, store, stored):
    graph = Graph(shards=request.param)
    graph.update(parse_turtle(AGG_DATA))
    return stored(graph, store)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize(
    "projection,group_by,key,groups,columnar",
    [row[1:] for row in AGG_KEYS],
    ids=[row[0] for row in AGG_KEYS],
)
def test_ordered_aggregate_matches_the_scan_oracle(
    agg_graph, projection, group_by, key, groups, columnar, source,
):
    engine = QueryEngine(agg_graph)
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
            + f"WHERE {{ ?s ex:m ?v{SOURCES[source]} }} GROUP BY {group_by} "
            + ("HAVING (COUNT(?v) > 1) " if having else "")
            + f"ORDER BY {condition} {page}"
        )
        expected = _oracle_rows.get((id(agg_graph), query))
        if expected is None:
            expected = _oracle_rows[id(agg_graph), query] = _ordered(oracle.run(query))
        execution = engine.execute(query)
        result = execution.result
        assert _ordered(result) == expected, query
        stats = execution.stats
        if not columnar or having or distinct or source != "simple":
            assert stats["operator"] == "general", query
            continue
        folded = 0 if page == "LIMIT 0" else groups  # a LIMIT 0 page reads nothing
        assert stats["operator"] == "aggregate-id", query
        assert stats["tracked_rows"] == folded, query
        # only the page that survived the modifiers was decoded
        assert stats["decoded_rows"] == len(result.rows), query


# -- ORDER BY over solutions: the general path's sort-then-slice ------------
#
# Every row below runs from both sources on the general path against the
# scan oracle's sort-then-slice, through every page of TAIL_PAGES, with
# and without DISTINCT: a DISTINCT keeps each key's earliest row in sort
# order, and the last tie-break is the input sequence -- on the graph as
# built and reloaded, eagerly or with lazy shards, whose scans must keep
# the same sequence.
# The data is nine subjects with one first key shared by all of them
# (``same``), one with two values split 2 / 7 (``two``) and one with three
# values in no order (``b``), so a page's edge lands inside a tie group
# whatever the page.

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

TAIL_PAGES = [
    "",
    "LIMIT 0",
    "LIMIT 1",
    "LIMIT 4",
    "LIMIT 5 OFFSET 2",
    "LIMIT 3 OFFSET 50",  # past the end
    "LIMIT 100",  # more than the rows
]


@pytest.fixture(scope="module")
def tail_graph(store, stored):
    return stored(parse_turtle(TAIL_DATA), store)


def _header_and_rows(result):
    return list(result.variables), _ordered(result)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize(
    "projection,where,order", [row[1:] for row in TAIL_ORDERS],
    ids=[row[0] for row in TAIL_ORDERS],
)
def test_lazy_tail_matches_sort_then_slice(tail_graph, projection, where, order, source):
    engine = QueryEngine(tail_graph)
    oracle = QueryEngine(tail_graph, strategy="scan")
    for page, distinct in itertools.product(TAIL_PAGES, (False, True)):
        query = (
            PREFIX
            + f"SELECT {'DISTINCT ' if distinct else ''}{projection} "
            + f"WHERE {{ {where}{SOURCES[source]} }} ORDER BY {order} {page}"
        )
        expected = _oracle_rows.get((id(tail_graph), query))
        if expected is None:
            expected = _oracle_rows[id(tail_graph), query] = _header_and_rows(
                oracle.run(query)
            )
        execution = engine.execute(query)
        result = execution.result
        assert _header_and_rows(result) == expected, query
        assert execution.stats["operator"] == "general", query


#: six subjects counting 1, 2, 2, 2, 3 and 3 triples
COUNT_TIES = """
@prefix ex: <http://example.org/> .

ex:a ex:m 1 .
ex:b ex:m 1, 2 .
ex:c ex:m 1, 2 .
ex:d ex:m 1, 2 .
ex:e ex:m 1, 2, 3 .
ex:f ex:m 1, 2, 3 .
"""


def test_lazy_tail_builds_keys_for_the_rows_it_has_to_compare():
    """The top-entities shape: ``sort_keys`` counts the distinct cells
    keyed.  The counts take three keys; ``?s`` is keyed only for the
    groups tying at the page's bound (and, to order the page, for the
    groups on it): ``e`` and ``f`` for the top one or two, those two and
    the three count-2 groups for the top three, all six when there is
    nothing to cut."""
    graph = parse_turtle(COUNT_TIES)
    engine = QueryEngine(graph)
    oracle = QueryEngine(graph, strategy="scan")
    template = (
        PREFIX + "SELECT ?s (COUNT(?p) AS ?n) WHERE {{ ?s ?p ?o }} "
        "GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT {k}"
    )
    for k, second_keys in ((1, 2), (2, 2), (3, 5), (100, 6)):
        query = template.format(k=k)
        execution = engine.execute(query)
        assert execution.stats["operator"] == "aggregate-id", k
        assert execution.stats["sort_keys"] == 3 + second_keys, k
        assert _ordered(execution.result) == _ordered(oracle.run(query)), k
