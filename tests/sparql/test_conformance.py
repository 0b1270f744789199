"""Conformance suite: the modern pipelines against the legacy scan oracle.

Every case runs the same query text through ``QueryEngine(graph,
strategy="scan")`` (the seed's substitute-and-scan nested-loop evaluator)
and each modern pipeline -- ``"hash"`` (the eager dictionary-encoded
hash-join pipeline plus its ID-space SELECT fast path) and ``"stream"``
(the volcano-style generator pipeline with OFFSET/LIMIT pushdown) -- and
asserts they return identical solutions.  Queries without ORDER BY
compare as multisets (no engine promises an order); ORDER BY queries
compare row-for-row.

Each case also pins the expected row count so a regression that breaks
*every* engine the same way still fails.
"""

from __future__ import annotations

import pytest

from repro.rdf import Graph, IRI, Literal, Triple, parse_turtle
from repro.sparql import QueryEngine
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
    # -- top-k ORDER BY + streaming aggregation (PR 3's bounded operators).
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
    # -- DISTINCT + ORDER BY + LIMIT (PR 5's per-key champion table).
    # Sort, stable dedup on the projected row, slice -- in that spec
    # order -- so the row-for-row comparison pins the champion rule
    # across scan|hash|stream.
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
    # -- un-LIMITed ORDER BY (PR 8: the stream engine's ID-space sorter).
    # No heap bound applies, so these pin the full-sort delegation --
    # sort raw ID rows, decode only emitted rows -- across
    # scan|hash|stream.
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

ASK_CASES = [
    ("ask-hit", PREFIX + "ASK { ?s a ex:Robot }", True),
    ("ask-miss", PREFIX + "ASK { ?s a ex:Ghost }", False),
    ("ask-join", PREFIX + "ASK { ?s ex:worksFor ?e . ?e ex:locatedIn ?c }", True),
]


def _canonical_rows(result: SelectResult):
    """Order-insensitive canonical form of a SELECT result's rows."""
    def row_key(row):
        return tuple(
            (name, row[name].n3() if row[name] is not None else "")
            for name in sorted(row)
        )

    return sorted(row_key(row) for row in result.rows)


#: the modern pipelines checked against the scan oracle
STRATEGIES = ("hash", "stream")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case_id,query,expected", CASES, ids=[c[0] for c in CASES])
def test_pipeline_matches_scan(graph, strategy, case_id, query, expected):
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph, strategy=strategy).run(query)
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


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case_id,query,expected", ASK_CASES, ids=[c[0] for c in ASK_CASES])
def test_ask_matches_scan(graph, strategy, case_id, query, expected):
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph, strategy=strategy).run(query)
    assert isinstance(scan, AskResult) and isinstance(modern, AskResult)
    assert bool(scan) == bool(modern) == expected


def test_strategy_validation(graph):
    with pytest.raises(ValueError):
        QueryEngine(graph, strategy="quantum")
    # the retired knobs stay retired: batching is not a caller's choice
    with pytest.raises(ValueError):
        QueryEngine(graph, strategy="batch")
    with pytest.raises(TypeError):
        QueryEngine(graph, batch_size=2)
