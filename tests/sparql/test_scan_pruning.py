"""Work as counts: what a simple-shape query scans, keys and holds.

Two ``exec_stats`` counters say how much of the index a single-pattern
query materialised (``scan_cells``: rows x the pattern positions some
operator reads) and how many ORDER BY keys its tail built (``sort_keys``:
distinct cells it had to compare).  They are deterministic, so what the
late-materialising executor saves is pinned here as counts -- on the
benchmark's own graph for the serving templates -- and ``bench/`` only
has to time it.  ``tracked_rows`` is pinned as what its vocabulary entry
says: the most rows the sink held between batches.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datagen import government_graph
from repro.rdf import parse_turtle
from repro.serving import default_query_mix
from repro.sparql import QueryEngine

PREFIX = "PREFIX ex: <http://example.org/> "

DATA = """
@prefix ex: <http://example.org/> .

ex:a ex:v 1, 2 ; ex:w 2 ; ex:link ex:b .
ex:b ex:v 2 ; ex:w "x" ; ex:link ex:b .
ex:c ex:v 3, 1 ; ex:link ex:a .
"""


@pytest.fixture(scope="module")
def graph():
    return parse_turtle(DATA)


def _canonical(result):
    return list(result.variables), [
        sorted((name, str(term)) for name, term in row.items()) for row in result.rows
    ]


#: (id, query, pattern positions a sink reads, rows scanned)
WANTED = [
    # a non-DISTINCT COUNT(?v) takes its column's length, nothing else
    ("count-var", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s", 1, 10),
    ("count-star", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", 0, 10),
    ("count-alone", "SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:v ?o }", 0, 5),
    # every other fold reads values
    ("count-distinct", "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", 2, 10),
    ("sum", "SELECT ?s (SUM(?o) AS ?n) WHERE { ?s ex:v ?o } GROUP BY ?s", 2, 5),
    ("max-no-group", "SELECT (MAX(?o) AS ?m) WHERE { ?s ex:v ?o }", 1, 5),
    ("sample", "SELECT ?p (SAMPLE(?s) AS ?x) WHERE { ?s ?p ?o } GROUP BY ?p", 2, 10),
    # COUNT(DISTINCT *) dedups whole rows
    ("count-distinct-star", "SELECT ?p (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", 3, 10),
    # HAVING folds are folds
    ("having-sum", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:v ?o } GROUP BY ?s HAVING (SUM(?o) > 2)", 2, 5),
    ("having-count", "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 3)", 1, 10),
    # a projected variable that is no group key is read off the first row
    ("ungrouped-var", "SELECT ?s ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s", 2, 10),
    # ORDER BY over aggregate output reads output columns
    ("ordered-groups", "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 2", 1, 10),
    # plain SELECT: projection, FILTER and ORDER BY variables
    ("project-one", "SELECT ?o WHERE { ?s ex:v ?o }", 1, 5),
    ("project-distinct", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }", 1, 10),
    ("filter-unprojected", "SELECT ?s WHERE { ?s ?p ?o FILTER (isLiteral(?o)) }", 2, 10),
    ("order-unprojected", "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o ?s", 2, 10),
    ("order-unbound", "SELECT ?p WHERE { ?s ?p ?o } ORDER BY ?nope", 1, 10),
    # everything, or nothing the function can see through: all positions
    ("select-star", "SELECT * WHERE { ?s ex:v ?o }", 3, 5),
    ("all-projected", "SELECT ?s ?p ?o WHERE { ?s ?p ?o }", 3, 10),
    ("repeated-variable", "SELECT ?p WHERE { ?s ?p ?s }", 3, 10),
]


@pytest.mark.parametrize("batch_size", (1, 4, 1024))
@pytest.mark.parametrize(
    "query,width,rows", [row[1:] for row in WANTED], ids=[row[0] for row in WANTED]
)
def test_scan_materialises_the_positions_a_sink_reads(
    graph, monkeypatch, query, width, rows, batch_size
):
    monkeypatch.setattr(QueryEngine, "BATCH_SIZE", batch_size)
    engine = QueryEngine(graph)
    result = engine.run(PREFIX + query)
    oracle = QueryEngine(graph, strategy="scan").run(PREFIX + query)
    assert _canonical(result) == _canonical(oracle)
    assert engine.exec_stats["scan_cells"] == rows * width


def test_pruned_scan_keeps_first_seen_group_order(graph):
    """Groups leave in the order the scan first met them: a pruned scan
    visits the same index in the same order."""
    engine = QueryEngine(graph)
    query = PREFIX + "SELECT ?{key} (COUNT(?{other}) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?{key}"
    for key, other, position in (("s", "o", 0), ("p", "s", 1), ("o", "p", 2)):
        result = engine.run(query.format(key=key, other=other))
        first_seen = list(dict.fromkeys(t[position] for t in graph.triples_ids()))
        assert [row[key] for row in result.rows] == [
            graph.decode_id(term_id) for term_id in first_seen
        ]
        assert engine.exec_stats["scan_cells"] == len(graph)


# -- tracked_rows: the most rows held between batches ---------------------------


@pytest.mark.parametrize("batch_size", (1, 4, 1024))
def test_tracked_rows_is_the_high_water_mark(graph, monkeypatch, batch_size):
    monkeypatch.setattr(QueryEngine, "BATCH_SIZE", batch_size)
    engine = QueryEngine(graph)
    ordered = PREFIX + "SELECT {select} WHERE {{ ?s ?p ?o }} ORDER BY ?o ?s {page}"

    engine.run(ordered.format(select="?s ?o", page="LIMIT 2 OFFSET 1"))
    stats = engine.exec_stats
    assert stats["input_rows"] == 10
    assert stats["tracked_rows"] == 3  # offset + k ...
    assert stats["tracked_rows"] <= 3 + batch_size  # ... within the contract

    # DISTINCT under LIMIT holds the page too, not a champion per key:
    # six distinct objects pass through, three rows are ever kept, and
    # ``distinct_keys`` is the most keys in hand at once (page + batch)
    engine.run(ordered.format(select="DISTINCT ?o", page="LIMIT 2 OFFSET 1"))
    stats = engine.exec_stats
    assert stats["tracked_rows"] == 3
    assert stats["distinct_keys"] == {1: 4, 4: 5, 1024: 6}[batch_size]

    # without a LIMIT everything is held until the input ends -- DISTINCT
    # or not (the parent reported the deduplicated rows, not the ten held)
    for select in ("DISTINCT ?o", "?o"):
        engine.run(ordered.format(select=select, page=""))
        assert engine.exec_stats["tracked_rows"] == 10
    engine.run(ordered.format(select="DISTINCT ?o", page=""))
    assert engine.exec_stats["distinct_keys"] == 6


# -- the serving templates on the benchmark's graph ----------------------------------


@pytest.fixture(scope="module")
def bench_graph():
    return government_graph(scale=1.0, seed=5)


@pytest.fixture(scope="module")
def templates():
    return {template.name: template.text for template in default_query_mix()}


def test_top_entities_scans_one_column_and_keys_the_ties(bench_graph, templates):
    """``serve_uncached``'s heavy template: 12,427 cells instead of
    37,281, 243 sort keys instead of 2,996."""
    triples = len(bench_graph)
    per_subject = Counter(s for s, _p, _o in bench_graph.triples_ids())
    sizes = Counter(per_subject.values())
    most = max(sizes)
    assert (triples, len(per_subject), len(sizes), sizes[most]) == (12427, 2990, 6, 237)

    engine = QueryEngine(bench_graph)
    result = engine.run(templates["top-entities"])
    stats = engine.exec_stats
    assert len(result.rows) == stats["decoded_rows"] == 10
    assert stats["operator"] == "aggregate-id"
    assert (stats["input_rows"], stats["batches"], stats["tracked_rows"]) == (12427, 13, 2990)
    # one of three positions ...
    assert stats["scan_cells"] == 12427
    # ... the six distinct counts, and a ?s key for each subject tying at
    # the page's bound; the other 2,753 subjects are never decoded
    assert stats["sort_keys"] == 6 + 237


def test_census_templates_scan_the_class_column(bench_graph, templates):
    engine = QueryEngine(bench_graph)
    for name in ("class-census", "distinct-classes"):
        engine.run(templates[name])
        stats = engine.exec_stats
        assert stats["input_rows"] == 2978, name
        assert stats["scan_cells"] == 2978, name  # ?c of (?s, rdf:type, ?c)


def test_page_templates_never_reach_the_column_scan(bench_graph, templates):
    """Small-LIMIT pages run the lazy chain (rule 1): their stats are
    what they were, with no scan or sort counter."""
    engine = QueryEngine(bench_graph)
    for name, rows in (("spo-page", 50), ("typed-join-page", 20), ("labels-page", 12)):
        engine.run(templates[name])
        assert engine.exec_stats == {
            "operator": "stream-select", "input_rows": rows, "decoded_rows": rows,
        }, name


def test_all_wanted_scan_reads_three_cells_a_row(bench_graph):
    engine = QueryEngine(bench_graph)
    engine.run("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5000")
    stats = engine.exec_stats
    assert stats["operator"] == "select-id"
    assert stats["scan_cells"] == 5000 * 3  # the LIMIT reaches the scan
    engine.run("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 5000")
    assert engine.exec_stats["scan_cells"] == 12427 * 3
