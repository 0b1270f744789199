"""Non-finite doubles through every door: ORDER BY, MIN / MAX, SUM / AVG.

A NaN literal used to sort with a key unequal to itself, so a heap, a split
and a full sort each put it somewhere else: ``ORDER BY ?o LIMIT 3`` returned
four rows through ``hash`` and another three through ``scan``.  SUM and
AVG raised on an infinite or NaN total, and ``Literal(float)`` wrote
Python's ``inf`` / ``nan`` where XSD says ``INF`` / ``NaN``.  Each table
below runs its rows through both pipelines.
"""

from __future__ import annotations

import math

import pytest

from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.terms import XSD_DOUBLE
from repro.sparql import QueryEngine

EX = "http://example.org/"
STRATEGIES = ("scan", "hash")
VALUES = ["3", "NaN", "1", "2", "NaN", "0.5", "INF", "-INF"]


def _graph(lexicals) -> Graph:
    graph = Graph()
    for i, lexical in enumerate(lexicals):
        graph.add(Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}v"), Literal(lexical, datatype=XSD_DOUBLE)))
    return graph


def _rows(graph, query, strategy):
    result = QueryEngine(graph, strategy=strategy).run(query)
    return [tuple(row[name].n3() if row[name] else None for name in result.variables)
            for row in result.rows]


def test_nan_has_one_place_among_the_sort_keys():
    nan = Literal("NaN", datatype=XSD_DOUBLE)
    assert nan.sort_key() == nan.sort_key()
    keys = sorted(Literal(v, datatype=XSD_DOUBLE).sort_key() for v in VALUES)
    # numbers in value order, then NaN ranked as a non-numeric literal
    assert [key[-3] if key[1] else key[-1] for key in keys] == [
        "-INF", "0.5", "1", "2", "3", "INF", "NaN", "NaN",
    ]


PATTERN = f"{{ ?s <{EX}v> ?o }}"
#: the same rows on the general path (an OPTIONAL that never matches)
SOURCES = {"simple": PATTERN, "optional": f"{{ ?s <{EX}v> ?o OPTIONAL {{ ?s <{EX}absent> ?m }} }}"}
#: (query, rows it must return: ``min(k, n - offset)``)
ORDERED = [
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY ?o ?s", 8),
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY ?o LIMIT 3", 3),
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY DESC(?o) LIMIT 3", 3),
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY ?o LIMIT 3 OFFSET 2", 3),
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY DESC(?o) ?s OFFSET 6", 2),
    (f"SELECT ?s ?o WHERE {PATTERN} ORDER BY ?o ?s LIMIT 70", 8),
    (f"SELECT DISTINCT ?o WHERE {PATTERN} ORDER BY ?o LIMIT 4", 4),
    (f"SELECT DISTINCT ?o WHERE {PATTERN} ORDER BY DESC(?o)", 7),
    (f"SELECT DISTINCT ?o WHERE {PATTERN} ORDER BY ?o OFFSET 5", 2),
    (f"SELECT ?s (MAX(?o) AS ?m) WHERE {PATTERN} GROUP BY ?s ORDER BY ?m ?s LIMIT 3", 3),
    (f"SELECT ?s (MIN(?o) AS ?m) WHERE {PATTERN} GROUP BY ?s ORDER BY DESC(?m) ?s", 8),
    (f"SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE {PATTERN}", 1),
]


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("query,expected", ORDERED, ids=range(len(ORDERED)))
def test_pipelines_agree_on_nan_ordering(query, expected, source):
    graph = _graph(VALUES)
    query = query.replace(PATTERN, SOURCES[source])
    scan, hash_ = (_rows(graph, query, strategy) for strategy in STRATEGIES)
    assert len(scan) == expected
    assert hash_ == scan


def test_nan_sorts_after_every_number():
    graph = _graph(VALUES)
    query = f"SELECT ?o WHERE {PATTERN} ORDER BY ?o"
    for strategy in STRATEGIES:
        assert [row[0].split('"')[1] for row in _rows(graph, query, strategy)] == [
            "-INF", "0.5", "1", "2", "3", "INF", "NaN", "NaN",
        ], strategy
    lo_hi = f"SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE {PATTERN}"
    nan, minus_inf = (Literal(v, datatype=XSD_DOUBLE).n3() for v in ("NaN", "-INF"))
    assert _rows(graph, lo_hi, "hash") == [(minus_inf, nan)]


#: (values, SUM, AVG) as XSD lexical forms of xsd:double
TOTALS = [
    (["INF", "2"], "INF", "INF"),
    (["-INF", "2"], "-INF", "-INF"),
    (["NaN", "2"], "NaN", "NaN"),
    (["INF", "-INF"], "NaN", "NaN"),
    (["1e308", "1e308"], "INF", "INF"),
]


@pytest.mark.parametrize("values,total,mean", TOTALS, ids=[",".join(v) for v, _t, _m in TOTALS])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_non_finite_total_stays_a_double(values, total, mean, strategy):
    graph = _graph(values)
    folds = f"SELECT (SUM(?o) AS ?t) (AVG(?o) AS ?m) WHERE {PATTERN}"
    expected = tuple(Literal(v, datatype=XSD_DOUBLE).n3() for v in (total, mean))
    assert _rows(graph, folds, strategy) == [expected]
    grouped = f"SELECT ?p (SUM(?o) AS ?t) (AVG(?o) AS ?m) WHERE {{ ?s ?p ?o }} GROUP BY ?p"
    assert [row[1:] for row in _rows(graph, grouped, strategy)] == [expected]


def test_finite_totals_keep_their_forms():
    graph = _graph(["1.5", "2.5"])
    folds = f"SELECT (SUM(?o) AS ?t) (AVG(?o) AS ?m) WHERE {PATTERN}"
    for strategy in STRATEGIES:
        assert _rows(graph, folds, strategy) == [(Literal(4).n3(), Literal(2).n3())]


@pytest.mark.parametrize(
    "value,lexical",
    [
        (float("inf"), "INF"),
        (float("-inf"), "-INF"),
        (float("nan"), "NaN"),
        (2.5, "2.5"),
        (1e308, "1e+308"),
        (-0.0, "-0.0"),
    ],
)
def test_literal_of_a_float_writes_the_xsd_form(value, lexical):
    literal = Literal(value)
    assert (literal.lexical, literal.datatype) == (lexical, XSD_DOUBLE)
    number = literal.numeric_value()
    assert (math.isnan(number) and math.isnan(value)) or number == value
