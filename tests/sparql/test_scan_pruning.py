"""Work as counts: what a simple-shape query scans, keys and holds.

Two ``Execution.stats`` counters say how much of the index a single-pattern
query materialised (``scan_cells``: rows x the pattern positions some
operator reads) and how many ORDER BY keys its tail built (``sort_keys``:
distinct cells it had to compare).  They are deterministic, so what the
late-materialising executor saves is pinned here as counts -- on the
benchmark's own graph for the serving templates -- and ``bench/`` only
has to time it.  ``tracked_rows`` is pinned as what its vocabulary entry
says: the groups the count sink held.  A shape no sink takes runs the
general path, which builds every row of the pattern (``join_rows``) and
scans no columns.
"""

from __future__ import annotations

import itertools
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
def graph(store, stored):
    """The small graph, as built and reloaded (eagerly, or with lazy
    shards): a reloaded store scans the same cells in the same order."""
    return stored(parse_turtle(DATA), store)


def _canonical(result):
    return list(result.variables), [
        sorted((name, str(term)) for name, term in row.items()) for row in result.rows
    ]


#: (id, query, pattern positions a sink reads, rows scanned -- or runs
#: read, one cell each, where the scan hands the sink runs)
WANTED = [
    # a non-DISTINCT COUNT(?v) takes its column's length, nothing else;
    # grouped on the leading index level it takes the three subjects'
    # run lengths (parent: 1 x 10 rows)
    ("count-var", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s", 1, 3),
    ("count-star", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", 0, 10),
    ("count-alone", "SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:v ?o }", 0, 5),
    # ORDER BY over aggregate output reads output columns (runs again;
    # parent: 1 x 10 rows)
    ("ordered-groups", "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 2", 1, 3),
    # plain SELECT: the projected variables
    ("project-one", "SELECT ?o WHERE { ?s ex:v ?o }", 1, 5),
    ("project-distinct", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }", 1, 10),
    # everything, or nothing the function can see through: all positions
    ("select-star", "SELECT * WHERE { ?s ex:v ?o }", 3, 5),
    ("all-projected", "SELECT ?s ?p ?o WHERE { ?s ?p ?o }", 3, 10),
    ("repeated-variable", "SELECT ?p WHERE { ?s ?p ?s }", 3, 10),
]


@pytest.mark.parametrize(
    "query,width,rows", [row[1:] for row in WANTED], ids=[row[0] for row in WANTED]
)
def test_scan_materialises_the_positions_a_sink_reads(graph, query, width, rows):
    execution = QueryEngine(graph).execute(PREFIX + query)
    result = execution.result
    oracle = QueryEngine(graph, strategy="scan").run(PREFIX + query)
    assert _canonical(result) == _canonical(oracle)
    assert execution.stats["scan_cells"] == rows * width


#: (id, query, rows the pattern matches): no sink takes these SELECT
#: clauses, so their simple WHERE clause runs the general path, which
#: builds every row of the pattern (``join_rows``) and scans no columns
GENERAL = [
    ("having-sum", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:v ?o } GROUP BY ?s HAVING (SUM(?o) > 2)", 5),
    ("having-count", "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 3)", 10),
    # every fold but a plain COUNT
    ("count-distinct", "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", 10),
    ("sum", "SELECT ?s (SUM(?o) AS ?n) WHERE { ?s ex:v ?o } GROUP BY ?s", 5),
    ("max-no-group", "SELECT (MAX(?o) AS ?m) WHERE { ?s ex:v ?o }", 5),
    ("sample", "SELECT ?p (SAMPLE(?s) AS ?x) WHERE { ?s ?p ?o } GROUP BY ?p", 10),
    ("count-distinct-star", "SELECT ?p (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", 10),
    # a projected variable that is no group key
    ("ungrouped-var", "SELECT ?s ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s", 10),
    # an ORDER BY over solutions
    ("order-unprojected", "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o ?s", 10),
    ("order-unbound", "SELECT ?p WHERE { ?s ?p ?o } ORDER BY ?nope", 10),
]


@pytest.mark.parametrize("query,rows", [row[1:] for row in GENERAL], ids=[row[0] for row in GENERAL])
def test_the_general_path_builds_every_row(graph, query, rows):
    execution = QueryEngine(graph).execute(PREFIX + query)
    oracle = QueryEngine(graph, strategy="scan").run(PREFIX + query)
    assert _canonical(execution.result) == _canonical(oracle)
    stats = execution.stats
    assert stats["operator"] == "general"
    assert stats["join_rows"] == rows
    assert "scan_cells" not in stats


def test_a_filtered_pattern_streams_the_lazy_chain(graph):
    """A single pattern under a term-test FILTER feeds the select sink
    the lazy chain's rows, FILTERed before the sink: no column is
    scanned, and ``input_rows`` counts the rows that passed."""
    query = PREFIX + "SELECT ?s WHERE { ?s ?p ?o FILTER (isLiteral(?o)) }"
    execution = QueryEngine(graph).execute(query)
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _canonical(execution.result) == _canonical(oracle)
    stats = execution.stats
    assert stats["operator"] == "select-id"
    assert stats["input_rows"] == stats["decoded_rows"] == 7
    assert "scan_cells" not in stats


def test_pruned_scan_keeps_first_seen_group_order(graph):
    """Groups leave in the order the scan first met them: a pruned scan
    visits the same index in the same order, and so do its runs."""
    engine = QueryEngine(graph)
    query = PREFIX + "SELECT ?{key} (COUNT(?{other}) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?{key}"
    for key, other, position in (("s", "o", 0), ("p", "s", 1), ("o", "p", 2)):
        execution = engine.execute(query.format(key=key, other=other))
        result = execution.result
        first_seen = list(dict.fromkeys(t[position] for t in graph.triples_ids()))
        assert [row[key] for row in result.rows] == [
            graph.decode_id(term_id) for term_id in first_seen
        ]
        # ?s heads the index walked: one cell per subject's run (parent:
        # len(graph) for every key)
        cells = len(first_seen) if position == 0 else len(graph)
        assert execution.stats["scan_cells"] == cells


# -- tracked_rows: the groups the count sink held ------------------------------


def test_tracked_rows_is_the_high_water_mark(graph):
    """The count sink holds its groups, whatever the page; an ORDER BY
    over solutions -- DISTINCT, LIMITed or neither -- runs the general
    path, which holds no sink rows and equals the oracle."""
    engine = QueryEngine(graph)
    oracle = QueryEngine(graph, strategy="scan")
    grouped = PREFIX + "SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?o ORDER BY ?o {page}"
    for page in ("LIMIT 2 OFFSET 1", ""):
        stats = engine.execute(grouped.format(page=page)).stats
        assert stats["operator"] == "aggregate-id"
        assert (stats["input_rows"], stats["tracked_rows"]) == (10, 6)

    ordered = PREFIX + "SELECT {select} WHERE {{ ?s ?p ?o }} ORDER BY ?o ?s {page}"
    for select, page in itertools.product(("?s ?o", "DISTINCT ?o", "?o"), ("LIMIT 2 OFFSET 1", "")):
        query = ordered.format(select=select, page=page)
        execution = engine.execute(query)
        assert execution.stats["operator"] == "general", query
        assert "tracked_rows" not in execution.stats, query
        assert _canonical(execution.result) == _canonical(oracle.run(query)), query


# -- the serving templates on the benchmark's graph ----------------------------------


@pytest.fixture(scope="module")
def bench_graph():
    return government_graph(scale=1.0, seed=5)


@pytest.fixture(scope="module")
def templates():
    return {template.name: template.text for template in default_query_mix()}


def test_top_entities_scans_one_column_and_keys_the_ties(bench_graph, templates):
    """``serve_uncached``'s heavy template: 2,990 run cells instead of
    37,281, 243 sort keys instead of 2,996."""
    triples = len(bench_graph)
    per_subject = Counter(s for s, _p, _o in bench_graph.triples_ids())
    sizes = Counter(per_subject.values())
    most = max(sizes)
    assert (triples, len(per_subject), len(sizes), sizes[most]) == (12427, 2990, 6, 237)

    execution = QueryEngine(bench_graph).execute(templates["top-entities"])
    result, stats = execution.result, execution.stats
    assert len(result.rows) == stats["decoded_rows"] == 10
    assert stats["operator"] == "aggregate-id"
    # one run per subject (parent: 12427 rows)
    assert (stats["input_rows"], stats["tracked_rows"]) == (2990, 2990)
    # one cell per run (parent: 12427, one of three positions) ...
    assert stats["scan_cells"] == 2990
    # ... the six distinct counts, and a ?s key for each subject tying at
    # the page's bound; the other 2,753 subjects are never decoded
    assert stats["sort_keys"] == 6 + 237


def test_census_templates_scan_the_class_column(bench_graph, templates):
    engine = QueryEngine(bench_graph)
    for name in ("class-census", "distinct-classes"):
        stats = engine.execute(templates[name]).stats
        # the twelve classes' runs of (rdf:type, ?c, ?s) (parent: 2978 rows)
        assert stats["input_rows"] == 12, name
        assert stats["scan_cells"] == 12, name  # parent: 2978, ?c of each row


def test_page_templates_never_reach_the_column_scan(bench_graph, templates):
    """Small-LIMIT pages read the lazy chain into the select sink: their
    stats are what they were, with no scan or sort counter."""
    engine = QueryEngine(bench_graph)
    for name, rows in (("spo-page", 50), ("typed-join-page", 20), ("labels-page", 12)):
        assert engine.execute(templates[name]).stats == {
            "operator": "select-id", "input_rows": rows, "decoded_rows": rows,
        }, name


def test_all_wanted_scan_reads_three_cells_a_row(bench_graph):
    engine = QueryEngine(bench_graph)
    stats = engine.execute("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5000").stats
    assert stats["operator"] == "select-id"
    assert stats["scan_cells"] == 5000 * 3  # the LIMIT reaches the scan
    # an ORDER BY runs the general path: every row built, no column scanned
    stats = engine.execute("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 5000").stats
    assert stats["operator"] == "general"
    assert stats["join_rows"] == 12427
    assert "scan_cells" not in stats
