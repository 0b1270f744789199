"""The SELECTs the columnar sinks do not take run the general path.

The sinks take a column-shaped SELECT -- bare-variable projections or
column-shaped aggregates, no HAVING, bare-variable sort keys -- over a
simple WHERE clause: triple patterns plus one-variable term-test FILTERs,
whose rows are ID tuples with every variable bound.  Anything else runs
``_run_select_general`` (``operator == "general"``): a WHERE clause with
OPTIONAL, UNION, VALUES, a property path or another FILTER, where a
variable may be unbound or a term may be one the dictionary lacks; a
HAVING; an ORDER BY expression over groups.  Every case below reports
that route and runs against the ``scan`` oracle row for row.
"""

from __future__ import annotations

import pytest

from repro.rdf import parse_turtle
from repro.sparql import QueryEngine
from repro.sparql.parser import parse_query

DATA = """
@prefix ex: <http://example.org/> .

ex:a a ex:T ; ex:n 3 ; ex:label "a" ; ex:next ex:b .
ex:b a ex:T ; ex:n 1 ; ex:next ex:c .
ex:c a ex:T ; ex:n 2 ; ex:label "c" ; ex:label "cc" .
ex:d a ex:T .
"""

PREFIX = "PREFIX ex: <http://example.org/> "
TYPED = "?s a ex:T"
LABELLED = "?s a ex:T OPTIONAL { ?s ex:label ?l }"

#: (case id, query, rows)
CASES = [
    # SELECT *: a variable no solution binds is not a column
    ("star-never-bound", f"SELECT * WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }} ORDER BY ?s", 4),
    ("star-never-bound-page",
     f"SELECT * WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }} ORDER BY DESC(?s) LIMIT 2", 2),
    ("star-never-bound-unordered", f"SELECT * WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }}", 4),
    # unbound sort cells sort first
    ("unbound-sorts-first", f"SELECT ?s ?l WHERE {{ {LABELLED} }} ORDER BY ?l ?s LIMIT 3", 3),
    ("unbound-sorts-first-desc",
     f"SELECT ?s ?l WHERE {{ {LABELLED} }} ORDER BY DESC(?l) ?s LIMIT 2 OFFSET 1", 2),
    ("unbound-distinct", f"SELECT DISTINCT ?l WHERE {{ {LABELLED} }} ORDER BY ?l", 4),
    # folds skip unbound cells; COUNT of a sometimes-unbound variable is
    # not the group's size
    ("count-sum-concat-unbound",
     f"SELECT ?s (COUNT(?l) AS ?c) (SUM(?n) AS ?t) (GROUP_CONCAT(?l) AS ?g) "
     f"WHERE {{ {LABELLED} OPTIONAL {{ ?s ex:n ?n }} }} GROUP BY ?s ORDER BY ?s", 4),
    ("count-sum-concat-unbound-page",
     f"SELECT ?s (COUNT(?l) AS ?c) (SUM(?n) AS ?t) (GROUP_CONCAT(?l) AS ?g) "
     f"WHERE {{ {LABELLED} OPTIONAL {{ ?s ex:n ?n }} }} GROUP BY ?s ORDER BY DESC(?c) ?s LIMIT 2", 2),
    ("count-unbound-only",
     f"SELECT ?s (COUNT(?l) AS ?c) WHERE {{ {LABELLED} }} GROUP BY ?s ORDER BY ?s", 4),
    ("count-never-bound",
     f"SELECT (COUNT(?m) AS ?c) (SUM(?m) AS ?t) (GROUP_CONCAT(?m) AS ?g) "
     f"WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }}", 1),
    ("group-by-unbound", f"SELECT ?l (COUNT(*) AS ?c) WHERE {{ {LABELLED} }} GROUP BY ?l ORDER BY ?l", 4),
    ("having-unbound",
     f"SELECT ?s WHERE {{ {LABELLED} }} GROUP BY ?s HAVING (COUNT(?l) >= 1) ORDER BY ?s", 2),
    # VALUES terms the dictionary lacks ride raw: sorted, grouped, DISTINCTed
    ("values-absent-sorted",
     'SELECT ?x WHERE { VALUES ?x { ex:a ex:zzz "nope" 7 ex:b } } ORDER BY ?x', 5),
    ("values-absent-sorted-page",
     f"SELECT ?s ?x WHERE {{ {TYPED} VALUES ?x {{ ex:zzz ex:c }} }} ORDER BY DESC(?x) ?s LIMIT 3", 3),
    ("values-absent-grouped",
     f"SELECT ?x (COUNT(?s) AS ?c) (MIN(?x) AS ?lo) WHERE {{ {TYPED} VALUES ?x {{ ex:zzz \"nope\" ex:a }} }} "
     "GROUP BY ?x ORDER BY ?x", 3),
    ("values-absent-distinct",
     f"SELECT DISTINCT ?x WHERE {{ {TYPED} VALUES ?x {{ ex:zzz ex:a ex:zzz }} }} ORDER BY DESC(?x) LIMIT 1", 1),
    ("values-absent-distinct-unordered",
     f"SELECT DISTINCT ?x WHERE {{ {TYPED} VALUES ?x {{ ex:zzz ex:a ex:zzz }} }}", 2),
    ("values-absent-count-distinct",
     f"SELECT (COUNT(DISTINCT ?x) AS ?c) WHERE {{ {TYPED} VALUES ?x {{ ex:zzz \"nope\" ex:a }} }}", 1),
    # COUNT(DISTINCT *): a row's identity includes its unbound cells
    ("count-distinct-star",
     f"SELECT (COUNT(DISTINCT *) AS ?c) (COUNT(*) AS ?all) "
     f"WHERE {{ {{ {LABELLED} }} UNION {{ {LABELLED} }} }}", 1),
    ("count-distinct-star-grouped",
     f"SELECT ?s (COUNT(DISTINCT *) AS ?c) WHERE {{ {{ {LABELLED} }} UNION {{ {TYPED} }} }} "
     "GROUP BY ?s ORDER BY DESC(?c) ?s LIMIT 2", 2),
    # property-path rows, a zero-length path from a term no triple holds
    ("path-rows", "SELECT ?s ?o WHERE { ?s ex:next+ ?o } ORDER BY ?s ?o", 3),
    ("path-rows-page", "SELECT ?s ?o WHERE { ?s ex:next* ?o } ORDER BY DESC(?o) ?s LIMIT 2", 2),
    ("path-grouped",
     "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ex:next+ ?o } GROUP BY ?s ORDER BY DESC(?c) ?s LIMIT 1", 1),
    ("path-from-absent", "SELECT ?o WHERE { ex:zzz ex:next* ?o } ORDER BY ?o", 1),
    # a simple WHERE clause under a SELECT clause the sinks do not take
    ("having",
     "SELECT ?s (SUM(?n) AS ?t) WHERE { ?s ex:n ?n } GROUP BY ?s HAVING (SUM(?n) > 1) ORDER BY ?s", 2),
    ("having-expression",
     "SELECT ?s WHERE { ?s ex:n ?n } GROUP BY ?s HAVING (SUM(?n) * 2 > COUNT(?n)) ORDER BY DESC(?s)", 3),
    ("order-expression-over-groups",
     "SELECT ?s (SUM(?n) AS ?t) WHERE { ?s ex:n ?n } GROUP BY ?s ORDER BY DESC(?t * 2) ?s LIMIT 2", 2),
    ("compare-filter", "SELECT ?s ?n WHERE { ?s ex:n ?n FILTER (?n > 1) } ORDER BY ?n", 2),
]


@pytest.fixture(scope="module")
def graph():
    return parse_turtle(DATA)


def _ordered(result):
    return [
        {name: term.n3() if term is not None else None for name, term in row.items()}
        for row in result.rows
    ]


@pytest.mark.parametrize("case_id,query,rows", CASES, ids=[case[0] for case in CASES])
def test_routes_to_general_and_matches_the_oracle(graph, case_id, query, rows):
    text = PREFIX + query
    execution = QueryEngine(graph).execute(text)
    result = execution.result
    oracle = QueryEngine(graph, strategy="scan").run(text)
    assert execution.stats["operator"] == "general"
    assert result.variables == oracle.variables
    if parse_query(text).order_by or len(oracle.rows) <= 1:
        assert _ordered(result) == _ordered(oracle)
    else:
        key = lambda row: sorted((name, str(value)) for name, value in row.items())  # noqa: E731
        assert sorted(map(key, _ordered(result))) == sorted(map(key, _ordered(oracle)))
    assert len(result.rows) == rows


def _values(graph, query):
    result = QueryEngine(graph).run(PREFIX + query)
    return [
        tuple(None if row[name] is None else str(row[name]) for name in result.variables)
        for row in result.rows
    ]


def test_a_fold_skips_unbound_cells(graph):
    """``ex:d`` has no label and no number: COUNT 0, SUM 0, GROUP_CONCAT ""."""
    query = (
        f"SELECT ?s (COUNT(?l) AS ?c) (SUM(?n) AS ?t) (GROUP_CONCAT(?l) AS ?g) "
        f"WHERE {{ {LABELLED} OPTIONAL {{ ?s ex:n ?n }} }} GROUP BY ?s ORDER BY ?s"
    )
    ex = "http://example.org/"
    assert _values(graph, query) == [
        (f"{ex}a", "1", "3", "a"),
        (f"{ex}b", "0", "1", ""),
        (f"{ex}c", "2", "4", "c cc"),
        (f"{ex}d", "0", "0", ""),
    ]


def test_a_never_bound_variable_leaves_the_star_header(graph):
    result = QueryEngine(graph).run(
        PREFIX + f"SELECT * WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }}"
    )
    assert result.variables == ["s"]


def test_raw_terms_sort_among_encoded_ones(graph):
    """IRIs before literals, numbers before other literals -- wherever a
    term's cell came from (``ex:zzz`` and ``"nope"`` are in no triple)."""
    query = 'SELECT ?x WHERE { VALUES ?x { ex:a ex:zzz "nope" 7 ex:b } } ORDER BY ?x'
    ex = "http://example.org/"
    assert [x for (x,) in _values(graph, query)] == [f"{ex}a", f"{ex}b", f"{ex}zzz", "7", "nope"]
