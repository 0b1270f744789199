"""Conformance suite: the hash engine against the legacy scan oracle.

Every case runs through ``QueryEngine(graph, strategy="scan")`` (the
seed's substitute-and-scan nested-loop evaluator) and the default
``"hash"`` engine, in three modes, and asserts they return identical
solutions.  ``hash`` runs the case as written: its columnar sinks for a
column-shaped SELECT over a simple WHERE clause, the general path for the
rest.  ``paged`` runs it as one page (:func:`run_hash`), which feeds the
select sink off the lazy ID chain for every un-DISTINCT bare-variable
case with no ORDER BY or aggregate over a simple WHERE clause; a page
over OPTIONAL / UNION / VALUES / a path or any other FILTER runs the
general path.  ``encoded`` adds an OPTIONAL that never
matches, so no WHERE clause is the simple shape and every SELECT runs the
general path.
Queries without ORDER BY compare as multisets (no engine promises an
order); ORDER BY queries compare row-for-row.

Each case also pins the expected row count so a regression that breaks
*every* engine the same way still fails.
"""

from __future__ import annotations

import pytest

from repro.rdf import Graph, IRI, Literal, Triple, parse_turtle
from repro.sparql import Execution, QueryEngine
from repro.sparql.nodes import SelectQuery, VariableExpression
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult

DATA = """
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:Startup rdfs:subClassOf ex:Company .
ex:Company rdfs:subClassOf ex:Org .

ex:alice a ex:Person ; rdfs:label "Alice"@en ; ex:age 30 ;
    ex:knows ex:bob , ex:carol ; ex:worksFor ex:acme .
ex:bob a ex:Person ; rdfs:label "Bob" ; ex:age 25 ;
    ex:knows ex:carol ; ex:worksFor ex:beta .
ex:carol a ex:Robot ; ex:age 5 ; ex:knows ex:carol .
ex:dave a ex:Person ; ex:age 41 .

ex:acme a ex:Company ; rdfs:label "Acme" ; ex:locatedIn ex:metropolis .
ex:beta a ex:Startup ; rdfs:label "Beta" .
ex:metropolis a ex:City ; rdfs:label "Metropolis" .
"""


@pytest.fixture(scope="module")
def graph() -> Graph:
    g = parse_turtle(DATA)
    # A term that only a blank-node-subject triple holds, to exercise the
    # non-IRI corner of the dictionary.
    from repro.rdf import BNode

    g.add(Triple(BNode("anon1"), IRI("http://example.org/age"), Literal(99)))
    return g


PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

#: (case id, query text, expected row count; None for ASK cases).
CASES = [
    # -- basic BGPs -----------------------------------------------------------
    ("spo-scan", "SELECT * WHERE { ?s ?p ?o }", 26),
    ("by-class", PREFIX + "SELECT ?s WHERE { ?s a ex:Person }", 3),
    ("two-patterns", PREFIX + "SELECT ?s ?n WHERE { ?s a ex:Person . ?s ex:age ?n }", 3),
    (
        "join-chain",
        PREFIX + "SELECT ?a ?b ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }",
        4,
    ),
    (
        "pred-var",
        PREFIX + "SELECT ?p ?o WHERE { ex:alice ?p ?o }",
        6,
    ),
    ("repeated-var", PREFIX + "SELECT ?x WHERE { ?x ex:knows ?x }", 1),
    (
        "ground-witness",
        PREFIX + "SELECT ?s WHERE { ex:alice ex:knows ex:bob . ?s a ex:City }",
        1,
    ),
    (
        "impossible-term",
        PREFIX + "SELECT ?s WHERE { ?s ex:knows ex:nobody }",
        0,
    ),
    # -- OPTIONAL -------------------------------------------------------------
    (
        "optional-label",
        PREFIX
        + "SELECT ?s ?l WHERE { ?s a ex:Person OPTIONAL { ?s rdfs:label ?l } }",
        3,
    ),
    (
        "optional-chain",
        PREFIX
        + "SELECT ?s ?e ?city WHERE { ?s ex:worksFor ?e "
        + "OPTIONAL { ?e ex:locatedIn ?city } }",
        2,
    ),
    (
        "optional-filter-inside",
        PREFIX
        + "SELECT ?s ?n WHERE { ?s a ex:Person "
        + "OPTIONAL { ?s ex:age ?n FILTER (?n > 28) } }",
        3,
    ),
    (
        "optional-unmatched-join",
        PREFIX
        + "SELECT ?s ?l WHERE { ?s ex:age ?n OPTIONAL { ?s rdfs:label ?l } }",
        5,
    ),
    # -- UNION / VALUES -------------------------------------------------------
    (
        "union",
        PREFIX
        + "SELECT ?s WHERE { { ?s a ex:Person } UNION { ?s a ex:Robot } }",
        4,
    ),
    (
        "union-hetero",
        PREFIX
        + "SELECT ?s ?n ?l WHERE { { ?s ex:age ?n } UNION { ?s rdfs:label ?l } . "
        + "?s a ex:Person }",
        5,
    ),
    (
        "values-single",
        PREFIX
        + "SELECT ?s ?n WHERE { VALUES ?s { ex:alice ex:carol } ?s ex:age ?n }",
        2,
    ),
    (
        "values-undef",
        PREFIX
        + "SELECT ?s ?n WHERE { VALUES (?s ?n) { (ex:alice UNDEF) (UNDEF 25) } "
        + "?s ex:age ?n }",
        2,
    ),
    # -- FILTER ---------------------------------------------------------------
    ("filter-gt", PREFIX + "SELECT ?s WHERE { ?s ex:age ?n FILTER (?n >= 30) }", 3),
    (
        "filter-bool",
        PREFIX
        + "SELECT ?s WHERE { ?s ex:age ?n FILTER (?n > 10 && ?n < 40) }",
        2,
    ),
    (
        "filter-isliteral",
        PREFIX + "SELECT ?s ?o WHERE { ?s ?p ?o FILTER ( isLiteral(?o) ) }",
        10,
    ),
    (
        "filter-regex",
        PREFIX
        + 'SELECT ?s WHERE { ?s rdfs:label ?l FILTER regex(str(?l), "^A") }',
        2,
    ),
    (
        "filter-exists",
        PREFIX
        + "SELECT ?s WHERE { ?s a ex:Person FILTER EXISTS { ?s ex:knows ?x } }",
        2,
    ),
    (
        "filter-not-exists",
        PREFIX
        + "SELECT ?s WHERE { ?s a ex:Person FILTER NOT EXISTS { ?s ex:knows ?x } }",
        1,
    ),
    # property paths and multi-pattern joins *inside* EXISTS groups: the
    # endpoint layer's feature/pattern walkers descend into these (PR 6),
    # so every engine must agree on their semantics too
    (
        "filter-exists-path",
        PREFIX
        + "SELECT ?s WHERE { ?s ex:worksFor ?e "
        + "FILTER EXISTS { ?e a/rdfs:subClassOf* ex:Org } }",
        2,
    ),
    (
        "filter-not-exists-join",
        PREFIX
        + "SELECT ?s WHERE { ?s a ex:Person "
        + "FILTER NOT EXISTS { ?s ex:knows ?o . ?o a ex:Robot } }",
        1,
    ),
    (
        "filter-exists-path-conjunct",
        PREFIX
        + "SELECT ?s ?n WHERE { ?s ex:age ?n "
        + "FILTER (?n > 20 && EXISTS { ?s ex:knows+ ex:carol }) }",
        2,
    ),
    # -- aggregates -----------------------------------------------------------
    (
        "count-star",
        PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Person }",
        1,
    ),
    (
        "count-group",
        PREFIX + "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c",
        5,
    ),
    (
        "count-distinct",
        PREFIX
        + "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ex:knows ?o }",
        1,
    ),
    (
        "sum-avg-minmax",
        PREFIX
        + "SELECT (SUM(?n) AS ?total) (AVG(?n) AS ?mean) (MIN(?n) AS ?lo) "
        + "(MAX(?n) AS ?hi) WHERE { ?s ex:age ?n }",
        1,
    ),
    (
        "group-concat",
        PREFIX
        + 'SELECT (GROUP_CONCAT(?l ; separator=", ") AS ?all) '
        + "WHERE { ?s rdfs:label ?l } ",
        1,
    ),
    (
        "group-having",
        PREFIX
        + "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c "
        + "HAVING (COUNT(?s) > 1)",
        1,
    ),
    (
        "count-empty",
        PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Ghost }",
        1,
    ),
    # -- solution modifiers ---------------------------------------------------
    (
        "order-by",
        PREFIX + "SELECT ?s ?n WHERE { ?s ex:age ?n } ORDER BY ?n",
        5,
    ),
    (
        "order-desc-limit",
        PREFIX + "SELECT ?s ?n WHERE { ?s ex:age ?n } ORDER BY DESC(?n) LIMIT 2",
        2,
    ),
    (
        "distinct",
        PREFIX + "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
        7,
    ),
    (
        "offset-limit",
        PREFIX + "SELECT ?s WHERE { ?s ex:age ?n } ORDER BY ?s OFFSET 1 LIMIT 2",
        2,
    ),
    (
        "distinct-paged",
        PREFIX + "SELECT DISTINCT ?c WHERE { ?s a ?c } LIMIT 4 OFFSET 2",
        3,
    ),
    # -- property paths -------------------------------------------------------
    (
        "path-closure",
        PREFIX
        + "SELECT ?s WHERE { ?s a/rdfs:subClassOf* ex:Company }",
        2,
    ),
    (
        "path-inverse",
        PREFIX + "SELECT ?o WHERE { ?o ^ex:knows ex:alice }",
        2,
    ),
    (
        "path-alternative",
        PREFIX
        + "SELECT ?s ?o WHERE { ?s ex:knows|ex:worksFor ?o }",
        6,
    ),
    (
        "path-sequence",
        PREFIX
        + "SELECT ?s ?city WHERE { ?s ex:worksFor/ex:locatedIn ?city }",
        1,
    ),
    (
        "path-plus",
        PREFIX + "SELECT ?t WHERE { ex:Startup rdfs:subClassOf+ ?t }",
        2,
    ),
    (
        "path-star-bound",
        PREFIX + "SELECT ?t WHERE { ex:Startup rdfs:subClassOf* ?t }",
        3,
    ),
    # Regressions: the repeated-variable path check must compare variables
    # by equality (the parser mints distinct-but-equal objects) ...
    (
        "path-repeated-var",
        PREFIX + "SELECT ?x WHERE { ?x ex:knows+ ?x }",
        1,
    ),
    # ... and zero-length closure over a variable endpoint must range over
    # the node universe regardless of join order (?c gets bound to
    # predicate IRIs by the second pattern in one plan but not the other).
    (
        "path-zero-length-join-order",
        PREFIX + "SELECT * WHERE { ?c rdfs:subClassOf* ?z . ?a ?c ?b }",
        0,
    ),
    # -- ORDER BY ... LIMIT and aggregation (the bounded columnar sinks).
    # Sort keys are total orders (unique values or a tie-breaking
    # condition) so the row-for-row comparison is engine-independent.
    (
        "order-limit-unprojected",
        PREFIX + "SELECT ?s WHERE { ?s ex:age ?n } ORDER BY DESC(?n) LIMIT 3",
        3,
    ),
    (
        "order-offset-page",
        PREFIX + "SELECT ?s ?n WHERE { ?s ex:age ?n } ORDER BY ?n OFFSET 2 LIMIT 2",
        2,
    ),
    (
        "order-optional-unbound-first",
        PREFIX
        + "SELECT ?s ?l WHERE { ?s ex:age ?n OPTIONAL { ?s rdfs:label ?l } } "
        + "ORDER BY ?l ?n LIMIT 4",
        4,
    ),
    (
        "order-two-keys",
        PREFIX + "SELECT ?s ?o WHERE { ?s ex:knows ?o } ORDER BY ?s DESC(?o) LIMIT 3",
        3,
    ),
    (
        "order-builtin-condition",
        PREFIX
        + "SELECT ?s WHERE { ?s rdfs:label ?l } ORDER BY STRLEN(?l) ?s LIMIT 3",
        3,
    ),
    (
        "order-select-star-limit",
        PREFIX + "SELECT * WHERE { ?s ex:age ?n } ORDER BY DESC(?n) LIMIT 2",
        2,
    ),
    (
        "group-order-topk",
        PREFIX
        + "SELECT ?s (COUNT(?o) AS ?k) WHERE { ?s ex:knows ?o } "
        + "GROUP BY ?s ORDER BY DESC(?k) ?s LIMIT 2",
        2,
    ),
    (
        "count-distinct-group",
        PREFIX
        + "SELECT ?c (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s a ?c . ?s ex:knows ?o } "
        + "GROUP BY ?c",
        2,
    ),
    (
        "agg-over-optional",
        PREFIX
        + "SELECT (AVG(?n) AS ?mean) WHERE { ?s a ex:Person "
        + "OPTIONAL { ?s ex:age ?n } }",
        1,
    ),
    (
        "agg-over-union",
        PREFIX
        + "SELECT (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) WHERE { "
        + "{ ?s a ex:Person . ?s ex:age ?n } UNION { ?s a ex:Robot . ?s ex:age ?n } }",
        1,
    ),
    (
        "group-by-only-projection",
        PREFIX + "SELECT ?c WHERE { ?s a ?c } GROUP BY ?c",
        5,
    ),
    # -- DISTINCT + ORDER BY + LIMIT (each key's earliest row in sort order).
    # Sort, stable dedup on the projected row, slice -- in that spec
    # order -- so the row-for-row comparison pins the champion rule
    # across scan|hash.
    (
        "distinct-order-limit",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p LIMIT 3",
        3,
    ),
    (
        "distinct-order-offset-page",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p LIMIT 4 OFFSET 2",
        4,
    ),
    (
        "distinct-order-desc",
        PREFIX + "SELECT DISTINCT ?o WHERE { ?s ex:knows ?o } ORDER BY DESC(?o) LIMIT 2",
        2,
    ),
    (
        "distinct-order-unprojected-key",
        # dedup key (?p) differs from the sort key (?o ?p): the champion
        # per distinct ?p is its earliest row in the full sort order
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?o ?p LIMIT 5",
        5,
    ),
    (
        "distinct-order-optional",
        PREFIX
        + "SELECT DISTINCT ?s WHERE { ?s ex:knows ?o OPTIONAL { ?o rdfs:label ?l } } "
        + "ORDER BY ?s LIMIT 2",
        2,
    ),
    (
        "distinct-star-order",
        PREFIX + "SELECT DISTINCT * WHERE { ?s ex:knows ?o } ORDER BY ?s ?o LIMIT 3",
        3,
    ),
    # -- un-LIMITed ORDER BY (the ID-space sorter).
    # No page bound applies, so these pin the full sort -- sort raw ID
    # rows, decode only emitted rows -- across scan|hash.
    (
        "order-desc-unlimited",
        PREFIX + "SELECT ?s ?n WHERE { ?s ex:age ?n } ORDER BY DESC(?n)",
        5,
    ),
    (
        "distinct-order-unlimited",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
        7,
    ),
    (
        "order-offset-no-limit",
        PREFIX + "SELECT ?s ?n WHERE { ?s ex:age ?n } ORDER BY ?n OFFSET 2",
        3,
    ),
    (
        "order-two-keys-unlimited",
        PREFIX + "SELECT ?s ?o WHERE { ?s ex:knows ?o } ORDER BY ?s DESC(?o)",
        4,
    ),
]

#: a LIMIT (or OFFSET + LIMIT) past ``sys.maxsize``: no engine may take it
#: as a size; kept out of ``CASES``, whose row order the sharded suite pins
#: by one digest over the whole table
HUGE_LIMIT_CASES = [
    ("limit-past-maxsize", "SELECT * WHERE { ?s ?p ?o } LIMIT 9223372036854775808", 26),
    ("limit-1e23", "SELECT * WHERE { ?s ?p ?o } LIMIT 100000000000000000000000", 26),
    (
        "offset-limit-past-maxsize",
        "SELECT * WHERE { ?s ?p ?o } LIMIT 4611686018427387904 OFFSET 4611686018427387904",
        0,
    ),
    (
        "distinct-join-past-maxsize",
        "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o } LIMIT 9223372036854775808",
        15,
    ),
]

ASK_CASES = [
    ("ask-hit", PREFIX + "ASK { ?s a ex:Robot }", True),
    ("ask-miss", PREFIX + "ASK { ?s a ex:Ghost }", False),
    ("ask-join", PREFIX + "ASK { ?s ex:worksFor ?e . ?e ex:locatedIn ?c }", True),
]

#: ASKs whose WHERE clause is not the simple shape (the group pipeline's
#: first solution), a hit and a miss each; kept out of ``ASK_CASES``, which
#: the sharded suite pins by one digest with ``CASES``
ASK_GROUP_CASES = [
    ("ask-optional-hit", PREFIX + "ASK { ?s a ex:Robot OPTIONAL { ?s rdfs:label ?l } }", True),
    ("ask-optional-miss", PREFIX + "ASK { ?s a ex:Ghost OPTIONAL { ?s rdfs:label ?l } }", False),
    ("ask-union-hit", PREFIX + "ASK { { ?s a ex:Ghost } UNION { ?s a ex:Robot } }", True),
    (
        "ask-union-miss",
        PREFIX + "ASK { { ?s a ex:Ghost } UNION { ?s a ex:City . ?s ex:age ?n } }",
        False,
    ),
    ("ask-values-hit", PREFIX + "ASK { VALUES ?s { ex:nobody ex:alice } ?s a ex:Person }", True),
    ("ask-values-miss", PREFIX + "ASK { VALUES ?s { ex:nobody ex:carol } ?s a ex:Person }", False),
    ("ask-compare-hit", PREFIX + "ASK { ?s ex:age ?n FILTER ( ?n > 40 ) }", True),
    ("ask-compare-miss", PREFIX + "ASK { ?s ex:age ?n FILTER ( ?n > 100 ) }", False),
    (
        "ask-not-exists-hit",
        PREFIX + "ASK { ?s a ex:Person FILTER NOT EXISTS { ?s rdfs:label ?l } }",
        True,
    ),
    (
        "ask-not-exists-miss",
        PREFIX + "ASK { ?s a ex:Company FILTER NOT EXISTS { ?s rdfs:label ?l } }",
        False,
    ),
    ("ask-path-hit", PREFIX + "ASK { ex:Startup rdfs:subClassOf+ ex:Org }", True),
    ("ask-path-miss", PREFIX + "ASK { ex:Org rdfs:subClassOf+ ex:Startup }", False),
]


def _canonical_rows(result: SelectResult):
    """Order-insensitive canonical form of a SELECT result's rows."""
    def row_key(row):
        return tuple(
            (name, row[name].n3() if row[name] is not None else "")
            for name in sorted(row)
        )

    return sorted(row_key(row) for row in result.rows)


#: how the hash engine runs a corpus case: as written, or as one page
MODES = ("hash", "paged")

#: an OPTIONAL no corpus graph matches: its variables are never bound
NEVER = " OPTIONAL { ?absent0 <http://example.org/absent> ?absent1 } "

#: the page a ``paged`` case asks for: the lazy chain's LIMIT bound, and
#: more rows than any corpus result holds, so the page is the whole result
PAGE = QueryEngine.STREAM_DELEGATE_LIMIT


def reads_the_chain(query: SelectQuery) -> bool:
    """A page the select sink reads off the lazy chain: ``LIMIT`` <=
    :data:`PAGE`, no DISTINCT, ORDER BY, aggregate, HAVING or ``SELECT *``,
    bare-variable projections and a simple WHERE clause."""
    return (
        query.limit is not None
        and query.limit <= PAGE
        and not query.distinct
        and not query.order_by
        and not query.select_all
        and not query.has_aggregates()
        and query.having is None
        and all(
            projection.alias is None and isinstance(projection.expression, VariableExpression)
            for projection in query.projections
        )
        and Execution._simple_where_shape(query.where) is not None
    )


def check_chain_page(execution, query: SelectQuery) -> None:
    """What the chain buys a page: the select sink pulled at most its
    ``offset + limit`` rows, and no eager join built any."""
    stats = execution.stats
    assert stats["operator"] == "select-id", stats
    assert "join_rows" not in stats, stats
    assert stats["input_rows"] <= (query.offset or 0) + query.limit, stats


def run_hash(graph, mode, query):
    """``(text, result)``: *query* run on the hash engine as *mode* says.

    ``paged`` appends ``LIMIT 64`` to a SELECT without a LIMIT.  A SELECT
    that :func:`reads_the_chain` must show it (:func:`check_chain_page`).
    ``encoded`` puts :data:`NEVER` at the end of the WHERE clause, and
    the SELECT must run the general path.  The text returned is the one
    that ran, for the oracle to run too.
    """
    parsed = parse_query(query)
    select = isinstance(parsed, SelectQuery)
    if mode == "paged" and select and parsed.limit is None:
        query = f"{query} LIMIT {PAGE}"
    elif mode == "encoded" and select:
        end = query.rindex("}")
        query = query[:end] + NEVER + query[end:]
    parsed = parse_query(query)
    execution = QueryEngine(graph).execute(query)
    if select and reads_the_chain(parsed):
        check_chain_page(execution, parsed)
    if mode == "encoded" and select:
        assert execution.stats.get("operator") == "general", query
    return query, execution.result


@pytest.mark.parametrize("mode", MODES + ("encoded",))
@pytest.mark.parametrize("case_id,query,expected", CASES, ids=[c[0] for c in CASES])
def test_pipeline_matches_scan(graph, mode, case_id, query, expected):
    query, modern = run_hash(graph, mode, query)
    scan = QueryEngine(graph, strategy="scan").run(query)
    assert isinstance(scan, SelectResult) and isinstance(modern, SelectResult)
    assert sorted(scan.variables) == sorted(modern.variables)
    assert len(modern.rows) == expected
    if "ORDER BY" in query:
        # Ordered comparison: the ordering contract must agree too.
        assert [
            {name: term.n3() if term else None for name, term in row.items()}
            for row in scan.rows
        ] == [
            {name: term.n3() if term else None for name, term in row.items()}
            for row in modern.rows
        ]
    else:
        assert _canonical_rows(scan) == _canonical_rows(modern)


@pytest.mark.parametrize(
    "case_id,query,expected", HUGE_LIMIT_CASES, ids=[c[0] for c in HUGE_LIMIT_CASES]
)
def test_a_limit_past_maxsize_matches_scan(graph, case_id, query, expected):
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph).run(query)
    assert len(modern.rows) == expected
    assert _canonical_rows(scan) == _canonical_rows(modern)


#: one query per route a page can take, for :data:`PAST_MAXSIZE`'s cuts
PAGE_ROUTES = {
    "small-page": "SELECT ?s ?o WHERE { ?s ?p ?o }",
    "small-join-page": "SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o }",
    "small-filtered-page": "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(isIRI(?o)) }",
    "distinct-page": "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
    "count-group-by": "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "order-by-counts": (
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?n) ?s"
    ),
    "select-star": "SELECT * WHERE { ?s a ?c . ?s ?p ?o }",
    "join-count-group-by": "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c",
    "join-distinct-page": "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o }",
    "optional-page": PREFIX + "SELECT ?s ?l WHERE { ?s a ?c OPTIONAL { ?s rdfs:label ?l } }",
}

#: the columnar routes over several patterns, where an unread page could
#: still run the eager join
JOIN_ROUTES = ("join-count-group-by", "join-distinct-page", "select-star")

#: an OFFSET or a LIMIT past ``sys.maxsize``, which ``islice`` cannot take
PAST_MAXSIZE = {"offset": f" OFFSET {10**20} LIMIT 5", "limit": f" LIMIT {2**63}"}


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
@pytest.mark.parametrize("cut", sorted(PAST_MAXSIZE))
@pytest.mark.parametrize("route", sorted(PAGE_ROUTES))
def test_a_cut_past_maxsize_on_every_route_matches_scan(graph, monkeypatch, shards, cut, route):
    store = graph
    if shards > 1:
        store = Graph(shards=shards)
        store.add_many(graph)
    query = PAGE_ROUTES[route] + PAST_MAXSIZE[cut]
    scan = QueryEngine(store, strategy="scan").run(query)
    calls = []
    evaluate_group = Execution._evaluate_group

    def counted(self, *args, **kwargs):
        calls.append(args)
        return evaluate_group(self, *args, **kwargs)

    monkeypatch.setattr(Execution, "_evaluate_group", counted)
    execution = QueryEngine(store).execute(query)
    modern = execution.result
    assert modern.variables == scan.variables
    if cut == "offset" and route == "optional-page":
        # no row reaches the page and the projection names its header:
        # the WHERE clause is not evaluated
        assert not calls and "join_rows" not in execution.stats, execution.stats
    elif cut == "offset":
        # no row reaches the page: a columnar sink reads none, ``SELECT *``
        # one, the witness its header needs, and no join is built
        assert execution.stats["input_rows"] == (route == "select-star"), execution.stats
        assert execution.stats.get("join_rows", 0) == 0, execution.stats
    if "ORDER BY" in query:
        assert modern.rows == scan.rows
    else:
        assert _canonical_rows(modern) == _canonical_rows(scan)


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
@pytest.mark.parametrize("route", JOIN_ROUTES)
def test_a_limit_zero_join_page_builds_no_join(graph, shards, route):
    """A LIMIT 0 page over several patterns reads no row and builds no
    join; ``SELECT *`` takes its header's witness off the lazy chain."""
    store = graph
    if shards > 1:
        store = Graph(shards=shards)
        store.add_many(graph)
    query = PAGE_ROUTES[route] + " LIMIT 0"
    scan = QueryEngine(store, strategy="scan").run(query)
    execution = QueryEngine(store).execute(query)
    assert execution.stats["operator"] in ("select-id", "aggregate-id")
    assert execution.result.variables == scan.variables
    assert execution.result.rows == scan.rows == []
    assert execution.stats["input_rows"] == (route == "select-star"), execution.stats
    assert execution.stats.get("join_rows", 0) == 0, execution.stats


@pytest.mark.parametrize(
    "case_id,query,expected",
    ASK_CASES + ASK_GROUP_CASES,
    ids=[c[0] for c in ASK_CASES + ASK_GROUP_CASES],
)
def test_ask_matches_scan(graph, case_id, query, expected):
    # hash ASK stops at its first witness: the lazy chain's over a simple
    # WHERE clause, the group pipeline's over any other
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph).run(query)
    assert isinstance(scan, AskResult) and isinstance(modern, AskResult)
    assert bool(scan) == bool(modern) == expected


def test_strategy_validation(graph):
    with pytest.raises(ValueError):
        QueryEngine(graph, strategy="quantum")
    # the lazy chain feeds the select sink and ASK; it is not a strategy
    with pytest.raises(ValueError):
        QueryEngine(graph, strategy="stream")
    # the retired knobs stay retired: batching is not a caller's choice
    with pytest.raises(ValueError):
        QueryEngine(graph, strategy="batch")
    with pytest.raises(TypeError):
        QueryEngine(graph, batch_size=2)
