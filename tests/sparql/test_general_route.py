"""The SELECTs the columnar sinks do not take run the general path.

The two sinks read a simple WHERE clause -- triple patterns plus
one-variable term-test FILTERs, whose rows are ID tuples with every
variable bound: ``select-id`` takes bare-variable projections (or
``SELECT *``) with no ORDER BY, ``aggregate-id`` a pure-COUNT aggregation
over pattern variables with no HAVING or DISTINCT.  Anything else runs
``_run_select_general`` (``operator == "general"``): a WHERE clause with
OPTIONAL, UNION, VALUES, a property path or another FILTER, where a
variable may be unbound or a term may be one the dictionary lacks; a
HAVING; an ORDER BY over solutions; any other aggregate; an ORDER BY
expression over groups.  Every case below reports that route and runs
against the ``scan`` oracle row for row.
"""

from __future__ import annotations

import pytest

from repro.rdf import IRI, Literal, parse_turtle
from repro.sparql import QueryEngine
from repro.sparql.evaluator import Execution
from repro.sparql.nodes import TriplePattern
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


#: (case id, query, rows): shapes over a simple WHERE clause that are
#: neither a plain page nor a pure COUNT; each equals the oracle with row
#: order included
MOVED = [
    # an ORDER BY over solutions: ASC / DESC, several keys, ties, unbound
    # keys, SELECT *, DISTINCT, OFFSET, a page past the small-LIMIT bound
    ("order-asc", "SELECT ?s ?n WHERE { ?s ex:n ?n } ORDER BY ?n", 3),
    ("order-desc", "SELECT ?s ?n WHERE { ?s ex:n ?n } ORDER BY DESC(?n)", 3),
    ("order-keys", "SELECT ?s ?p WHERE { ?s ?p ?o } ORDER BY ?p DESC(?s)", 12),
    ("order-ties", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?p", 12),
    ("order-unprojected", "SELECT ?s WHERE { ?s ex:n ?n } ORDER BY DESC(?n)", 3),
    ("order-unbound", "SELECT ?s WHERE { ?s a ex:T } ORDER BY ?nope", 4),
    ("order-unbound-then-key", "SELECT ?s WHERE { ?s a ex:T } ORDER BY ?nope DESC(?s)", 4),
    ("order-star", "SELECT * WHERE { ?s ex:n ?n } ORDER BY DESC(?s)", 3),
    ("order-distinct", "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY DESC(?p)", 4),
    ("order-distinct-narrow", "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?o ?s", 4),
    ("order-offset", "SELECT ?s ?n WHERE { ?s ex:n ?n } ORDER BY ?n OFFSET 1", 2),
    ("order-page", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s LIMIT 5 OFFSET 2", 5),
    ("order-big-page", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 100", 12),
    ("order-limit-zero", "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 0", 0),
    ("order-join", "SELECT ?s ?l WHERE { ?s ex:n ?n . ?s ex:label ?l } ORDER BY DESC(?l) ?n", 3),
    ("order-filtered",
     "SELECT ?s ?o WHERE { ?s ?p ?o FILTER (isLiteral(?o)) } ORDER BY ?o ?s LIMIT 100", 6),
    # every aggregate but a plain COUNT
    ("sum", "SELECT ?s (SUM(?n) AS ?x) WHERE { ?s ex:n ?n } GROUP BY ?s ORDER BY ?s", 3),
    ("avg", "SELECT (AVG(?n) AS ?x) WHERE { ?s ex:n ?n }", 1),
    ("min-max", "SELECT (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) WHERE { ?s ex:n ?n }", 1),
    ("min-by-group",
     "SELECT ?s (MIN(?l) AS ?x) WHERE { ?s ex:label ?l } GROUP BY ?s ORDER BY DESC(?x)", 2),
    ("sample", "SELECT ?s (SAMPLE(?l) AS ?x) WHERE { ?s ex:label ?l } GROUP BY ?s ORDER BY ?s", 2),
    ("group-concat",
     "SELECT ?s (GROUP_CONCAT(?l ; SEPARATOR = '|') AS ?x) WHERE { ?s ex:label ?l } "
     "GROUP BY ?s ORDER BY ?s", 2),
    ("count-distinct", "SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s ?p ?o }", 1),
    ("count-distinct-grouped",
     "SELECT ?s (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?s", 4),
    ("count-distinct-star", "SELECT (COUNT(DISTINCT *) AS ?c) WHERE { ?s ?p ?o }", 1),
    # a count with anything else in the SELECT clause
    ("count-and-sum",
     "SELECT ?s (COUNT(?n) AS ?c) (SUM(?n) AS ?x) WHERE { ?s ex:n ?n } GROUP BY ?s ORDER BY ?s", 3),
    ("distinct-groups",
     "SELECT DISTINCT (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?c", 3),
    ("distinct-groups-unordered", "SELECT DISTINCT (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s", 3),
    ("unbound-group-key", "SELECT ?nope (COUNT(?s) AS ?c) WHERE { ?s a ex:T } GROUP BY ?nope", 1),
    ("count-unbound",
     "SELECT ?s (COUNT(?nope) AS ?c) WHERE { ?s a ex:T } GROUP BY ?s ORDER BY ?s", 4),
    ("ungrouped-variable",
     "SELECT ?s ?n (COUNT(?n) AS ?c) WHERE { ?s ex:n ?n } GROUP BY ?s ORDER BY ?s", 3),
]


@pytest.mark.parametrize("case_id,query,rows", MOVED, ids=[case[0] for case in MOVED])
def test_a_moved_shape_runs_general_in_the_oracles_order(graph, case_id, query, rows):
    text = PREFIX + query
    execution = QueryEngine(graph).execute(text)
    oracle = QueryEngine(graph, strategy="scan").run(text)
    assert execution.stats["operator"] == "general"
    assert execution.result.variables == oracle.variables
    assert _ordered(execution.result) == _ordered(oracle)
    assert len(oracle.rows) == rows


#: (case id, query, sink, rows): what the sinks keep
KEPT = [
    # the implicit group stays a count: one row, 0 over no rows
    ("count-star", "SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:T }", "aggregate-id", 1),
    ("count-star-empty", "SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Missing }", "aggregate-id", 1),
    ("count-var", "SELECT (COUNT(?n) AS ?c) WHERE { ?s ex:n ?n }", "aggregate-id", 1),
    ("count-join", "SELECT (COUNT(*) AS ?c) WHERE { ?s ex:n ?n . ?s ex:label ?l }", "aggregate-id", 1),
    ("count-filtered",
     "SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o FILTER (isLiteral(?o)) }", "aggregate-id", 1),
    ("count-page", "SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:T } LIMIT 0", "aggregate-id", 0),
    ("count-ordered",
     "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?c) ?s", "aggregate-id", 4),
    ("page", "SELECT ?s ?o WHERE { ?s ?p ?o } OFFSET 3", "select-id", 9),
    ("distinct-page", "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 100", "select-id", 4),
]


@pytest.mark.parametrize("case_id,query,sink,rows", KEPT, ids=[case[0] for case in KEPT])
def test_a_kept_shape_stays_on_its_sink(graph, case_id, query, sink, rows):
    text = PREFIX + query
    execution = QueryEngine(graph).execute(text)
    oracle = QueryEngine(graph, strategy="scan").run(text)
    assert execution.stats["operator"] == sink
    assert execution.result.variables == oracle.variables
    if parse_query(text).order_by or len(oracle.rows) <= 1:
        assert _ordered(execution.result) == _ordered(oracle)
    key = lambda row: sorted((name, str(value)) for name, value in row.items())  # noqa: E731
    assert sorted(map(key, _ordered(execution.result))) == sorted(map(key, _ordered(oracle)))
    assert len(execution.result.rows) == rows


def test_a_filtered_pattern_keeps_the_scans_row_order(graph):
    """A single pattern under term-test FILTERs stays on ``select-id``
    and keeps the unfiltered scan's row order: its rows are the plain
    page's rows that pass, in that page's order."""
    engine = QueryEngine(graph)
    plain = engine.execute(PREFIX + "SELECT ?s ?o WHERE { ?s ?p ?o }")
    assert plain.stats["operator"] == "select-id"
    for test, kind in (("isLiteral", Literal), ("isIRI", IRI)):
        filtered = engine.execute(PREFIX + f"SELECT ?s ?o WHERE {{ ?s ?p ?o FILTER ({test}(?o)) }}")
        assert filtered.stats["operator"] == "select-id"
        assert filtered.result.rows == [row for row in plain.result.rows if isinstance(row["o"], kind)]


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


#: (case id, query, evaluates): ``LIMIT 0`` pages the sinks do not take.
#: An explicit projection -- aggregates included -- names the page's
#: header, so the WHERE clause is not evaluated; ``SELECT *``'s header is
#: the union of the solutions' variables, so it is.
LIMIT_ZERO = [
    ("star", f"SELECT * WHERE {{ {LABELLED} }} ORDER BY ?s LIMIT 0", True),
    ("star-never-bound", f"SELECT * WHERE {{ {TYPED} OPTIONAL {{ ?s ex:gone ?m }} }} LIMIT 0", True),
    ("star-ordered-simple", "SELECT * WHERE { ?s ex:n ?n } ORDER BY ?n LIMIT 0", True),
    ("projection", f"SELECT ?s ?l WHERE {{ {LABELLED} }} LIMIT 0", False),
    ("projection-ordered", "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 0", False),
    ("projection-distinct-offset",
     f"SELECT DISTINCT ?l WHERE {{ {LABELLED} }} ORDER BY ?l OFFSET 1 LIMIT 0", False),
    ("expression", f"SELECT ?s (STR(?l) AS ?x) WHERE {{ {LABELLED} }} ORDER BY ?x LIMIT 0", False),
    ("aggregate-implicit-group", "SELECT (SUM(?n) AS ?t) (COUNT(*) AS ?c) WHERE { ?s ex:n ?n } LIMIT 0", False),
    ("aggregate-grouped",
     f"SELECT ?s (COUNT(?l) AS ?c) WHERE {{ {LABELLED} }} GROUP BY ?s "
     "HAVING (COUNT(?l) > 0) ORDER BY DESC(?c) LIMIT 0", False),
    ("aggregate-count-distinct", "SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s ?p ?o } LIMIT 0", False),
]


@pytest.mark.parametrize("case_id,query,evaluates", LIMIT_ZERO, ids=[case[0] for case in LIMIT_ZERO])
def test_a_limit_zero_page_is_its_header(graph, monkeypatch, case_id, query, evaluates):
    text = PREFIX + query
    oracle = QueryEngine(graph, strategy="scan").run(text)
    unpaged = QueryEngine(graph, strategy="scan").run(text.replace(" LIMIT 0", ""))
    assert oracle.variables == unpaged.variables and unpaged.rows
    calls = []
    evaluate_group = Execution._evaluate_group

    def counted(self, *args, **kwargs):
        calls.append(args)
        return evaluate_group(self, *args, **kwargs)

    monkeypatch.setattr(Execution, "_evaluate_group", counted)
    execution = QueryEngine(graph).execute(text)
    assert execution.stats["operator"] == "general"
    assert execution.result.rows == oracle.rows == []
    assert execution.result.variables == oracle.variables
    assert bool(calls) == evaluates
    assert ("join_rows" in execution.stats) == evaluates


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


#: (case id, query, the opening BGPs' patterns): under ``hash`` only a
#: BGP that opens its group -- its input the one empty solution, no
#: property path -- runs the eager ID join; a BGP bound by earlier
#: solutions (inside OPTIONAL or EXISTS, after a UNION or VALUES) or
#: holding a path runs the substitute-and-scan loop
SPLIT = [
    ("optional-inner",
     f"SELECT ?s ?l ?n WHERE {{ {TYPED} OPTIONAL {{ ?s ex:label ?l . ?s ex:n ?n }} }}", (TYPED,)),
    ("after-union",
     "SELECT ?s ?n WHERE { { ?s ex:label ?l } UNION { ?s ex:next ?x } ?s ex:n ?n }",
     ("?s ex:label ?l", "?s ex:next ?x")),
    ("after-values",
     f'SELECT ?s ?l WHERE {{ {TYPED} VALUES ?l {{ "a" "cc" }} ?s ex:label ?l }}', (TYPED,)),
    ("exists-inner",
     f"SELECT ?s WHERE {{ {TYPED} FILTER EXISTS {{ ?s ex:label ?l . ?s ex:n ?n }} }}", (TYPED,)),
    ("path", "SELECT ?s ?o WHERE { ?s ex:next* ?o }", ()),
    ("path-joined", f"SELECT ?s ?o WHERE {{ {TYPED} . ?s ex:next+ ?o }}", ()),
    ("path-after-optional",
     f"SELECT ?s ?o WHERE {{ {LABELLED} ?s ex:next* ?o }}", (TYPED,)),
]


@pytest.mark.parametrize("case_id,query,opening", SPLIT, ids=[case[0] for case in SPLIT])
def test_only_the_opening_bgp_runs_the_eager_join(graph, monkeypatch, case_id, query, opening):
    text = PREFIX + query
    scan = QueryEngine(graph, strategy="scan")
    oracle = scan.run(text)
    # the eager join books the rows of the opening BGPs, one pattern each
    expected = sum(len(scan.run(f"{PREFIX}SELECT * WHERE {{ {bgp} }}").rows) for bgp in opening)
    calls = {"eager": [], "scan": []}

    def spy(kind, real):
        def counted(self, patterns, *args):
            calls[kind].append(patterns)
            return real(self, patterns, *args)
        return counted

    monkeypatch.setattr(Execution, "_evaluate_bgp_hash", spy("eager", Execution._evaluate_bgp_hash))
    monkeypatch.setattr(Execution, "_evaluate_bgp_scan", spy("scan", Execution._evaluate_bgp_scan))
    execution = QueryEngine(graph).execute(text)
    assert execution.stats["operator"] == "general"
    assert len(calls["eager"]) == len(opening) and calls["scan"]
    assert execution.stats.get("join_rows", 0) == expected
    assert execution.result.variables == oracle.variables
    if all(isinstance(element, TriplePattern) for element in parse_query(text).where.elements):
        # one BGP holding a path: both strategies run the same loop
        assert _ordered(execution.result) == _ordered(oracle)
    key = lambda row: sorted((name, str(value)) for name, value in row.items())  # noqa: E731
    assert sorted(map(key, _ordered(execution.result))) == sorted(map(key, _ordered(oracle)))
