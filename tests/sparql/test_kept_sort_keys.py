"""ORDER BY keys kept beside the dictionary, and integer order.

``TermDict.sort_keys`` keeps ``id -> term.sort_key()`` for every ID an
ORDER BY cut compared, so a warm graph keys no cell twice.  It is derived
state over recycled IDs: ``decref`` drops an ID's key where it frees the
ID, and ``copy`` / ``restore`` start the table empty.  The per-execution
memo stays in front of it, so an execution's ``stats`` do not depend on
what ran before.

An ``xsd:integer`` orders by its exact value: ``Literal.sort_key`` keeps
the int, where a float overflows past ~1e308 and ties integers past 2**53.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.rdf import IRI, Graph, Literal, TermDict, Triple, parse_turtle
from repro.serving import default_query_mix
from repro.sparql import QueryEngine

EX = "http://example.org/"
PREFIX = "PREFIX ex: <http://example.org/> "

BIG = "1" + "0" * 400  # an integer no float holds
PAST_2_53 = (-9007199254740993, -9007199254740992, 9007199254740992, 9007199254740993)


def _rows(result):
    return [[(name, str(term)) for name, term in sorted(row.items())] for row in result.rows]


def _scores(values) -> Graph:
    return parse_turtle(
        "@prefix ex: <http://example.org/> .\n"
        + "".join(f"ex:s{i} ex:v {value} .\n" for i, value in enumerate(values))
    )


# -- integer order -------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["hash", "scan"])
def test_order_by_an_integer_past_float_range(strategy):
    graph = _scores([BIG, 5, "1.5e+300", -3])
    engine = QueryEngine(graph, strategy=strategy)
    ascending = engine.run(PREFIX + "SELECT ?v WHERE { ?s ex:v ?v } ORDER BY ?v")
    assert [str(row["v"]) for row in ascending.rows] == ["-3", "5", "1.5e+300", BIG]
    page = engine.run(PREFIX + "SELECT ?s WHERE { ?s ex:v ?v } ORDER BY DESC(?v) LIMIT 1")
    assert [str(row["s"]) for row in page.rows] == [f"{EX}s0"]
    folds = engine.run(PREFIX + "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s ex:v ?v }")
    assert [(str(row["lo"]), str(row["hi"])) for row in folds.rows] == [("-3", BIG)]


@pytest.mark.parametrize("strategy", ["hash", "scan"])
def test_integers_past_2_53_order_by_value(strategy):
    graph = _scores(reversed(PAST_2_53))
    engine = QueryEngine(graph, strategy=strategy)
    ascending = engine.run(PREFIX + "SELECT ?v WHERE { ?s ex:v ?v } ORDER BY ?v")
    assert [int(str(row["v"])) for row in ascending.rows] == list(PAST_2_53)
    descending = engine.run(PREFIX + "SELECT ?v WHERE { ?s ex:v ?v } ORDER BY DESC(?v) LIMIT 2")
    assert [int(str(row["v"])) for row in descending.rows] == list(PAST_2_53[::-1][:2])
    folds = engine.run(PREFIX + "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s ex:v ?v }")
    assert [(int(str(row["lo"])), int(str(row["hi"]))) for row in folds.rows] == [
        (PAST_2_53[0], PAST_2_53[-1])
    ]


def test_an_integer_and_an_equal_decimal_still_tie_on_value():
    integer = Literal("2", datatype="http://www.w3.org/2001/XMLSchema#integer")
    decimal = Literal("2", datatype="http://www.w3.org/2001/XMLSchema#decimal")
    assert integer.sort_key() == decimal.sort_key()
    assert Literal(2).sort_key() < Literal(2.5).sort_key() < Literal(3).sort_key()


# -- the kept table --------------------------------------------------------------------


def test_a_freed_id_drops_its_key_and_copies_start_empty():
    table = TermDict()
    kept, other = table.encode(Literal("a")), table.encode(Literal("b"))
    table.incref(kept)
    table.incref(other)
    assert table.sort_keys[kept] == Literal("a").sort_key()
    assert table.sort_keys[other] == Literal("b").sort_key()
    assert len(table.copy().sort_keys) == 0
    restored = TermDict.restore(iter(table.snapshot_items()), 2, [], 0)
    assert len(restored.sort_keys) == 0
    table.decref(kept)
    assert kept not in table.sort_keys
    assert table.encode(Literal("z")) == kept  # the freed ID is recycled
    assert table.sort_keys[kept] == Literal("z").sort_key()


def test_an_order_after_a_recycled_id_equals_scan():
    """Run an ORDER BY, free term T, let a new term U take T's ID, and run
    it again: U must sort as U, not as the T whose key it inherited."""
    graph = Graph()
    s1, s2, p = IRI(f"{EX}s1"), IRI(f"{EX}s2"), IRI(f"{EX}p")
    graph.add(Triple(s1, p, Literal("a")))
    graph.add(Triple(s1, p, Literal("m")))
    graph.add(Triple(s2, p, Literal("n")))
    queries = [
        PREFIX + "SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?o ?s",
        PREFIX + "SELECT ?o WHERE { ?s ex:p ?o } ORDER BY ?o LIMIT 2",
    ]
    engine = QueryEngine(graph)
    for query in queries:
        assert _rows(engine.run(query)) == _rows(QueryEngine(graph, strategy="scan").run(query))
    freed = graph.lookup_id(Literal("a"))
    graph.remove(Triple(s1, p, Literal("a")))
    graph.add(Triple(s2, p, Literal("z")))
    assert graph.lookup_id(Literal("z")) == freed
    for query in queries:
        assert _rows(engine.run(query)) == _rows(QueryEngine(graph, strategy="scan").run(query))


# -- stats do not depend on history ------------------------------------------------------


@pytest.fixture(scope="module")
def government():
    return government_graph(scale=1.0, seed=5)


def test_top_entities_stats_do_not_depend_on_history(government):
    """The per-execution memo stays in front of the kept keys, so a cold
    graph, a second execution and a table another ORDER BY warmed book the
    same counters (``sort_keys`` included) and return the same rows."""
    (text,) = [t.text for t in default_query_mix() if t.name == "top-entities"]
    graph = government.copy()
    assert len(graph.dictionary.sort_keys) == 0
    engine = QueryEngine(graph)
    cold = engine.execute(text)
    assert len(graph.dictionary.sort_keys) > 0
    again = engine.execute(text)
    fresh = government.copy()
    QueryEngine(fresh).execute("SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o LIMIT 3")
    warmed = QueryEngine(fresh).execute(text)
    assert cold.stats == again.stats == warmed.stats
    assert cold.stats["sort_keys"] > 0
    assert _rows(cold.result) == _rows(again.result) == _rows(warmed.result)
