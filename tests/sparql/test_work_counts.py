"""Work counts per query shape, pinned exactly.

Each of ``default_query_mix()``'s seven templates and Index Extraction's
two whole-dataset questions (the datatype properties of every class, the
links between classes), on the benchmark's government graph (the two
questions also on one census dataset) under the
default ``hash`` strategy: the sink that answered, the rows it consumed,
the cells the scan materialised, the sort keys the ID-space tail built,
the rows the eager join built and the rows decoded, read from
``QueryEngine.execute(q).stats`` (``None``: the counter was not booked).

The numbers are a fence, not a bound: a change that moves one changes how
much work the query does.  Lower a pin in place when a change cuts that
work on purpose.
"""

from __future__ import annotations

import pytest

from repro.datagen import big_lod_graph, government_graph
from repro.rdf import IRI
from repro.rdf.namespaces import RDF
from repro.serving import default_query_mix
from repro.sparql import QueryEngine
from repro.sparql.evaluator import EXEC_STAT_KEYS

KEYS = ("operator", "input_rows", "scan_cells", "sort_keys", "join_rows", "decoded_rows")

QUESTIONS = {
    "datatypes": (
        "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
    ),
    "links": (
        "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { ?s a ?c . ?s ?p ?o . ?o a ?target } "
        "GROUP BY ?c ?p ?target"
    ),
}

#: name -> KEYS, on ``government_graph(scale=1.0, seed=5)``
PINS = {
    "spo-page": ("select-id", 50, None, None, None, 50),
    "typed-join-page": ("select-id", 20, None, None, None, 20),
    "class-census": ("aggregate-id", 12, 12, 0, None, 12),
    "top-entities": ("aggregate-id", 2990, 2990, 243, None, 10),
    "distinct-classes": ("select-id", 12, 12, None, None, 12),
    "labels-page": ("select-id", 12, None, None, None, 12),
    "ask-typed": ("ask", None, None, None, None, None),
    "datatypes": ("select-id", 20, None, None, 2998, 20),
    "links": ("aggregate-id", 11, None, 0, 7053, 11),
}

#: question -> KEYS, on dataset 1 of the seed-2020 census: the join's last
#: step folds its rows into the sink's keys, so ``input_rows`` is the keys
#: and ``join_rows`` the 137 typed rows plus what the later steps built
CENSUS_PINS = {
    "datatypes": ("select-id", 34, None, None, 137 + 34, 34),
    "links": ("aggregate-id", 25, None, 0, 381, 25),
}


#: template -> its ``Execution.stats``, every key, on the same graph
TEMPLATE_STATS = {
    "spo-page": {"operator": "select-id", "input_rows": 50, "decoded_rows": 50},
    "typed-join-page": {"operator": "select-id", "input_rows": 20, "decoded_rows": 20},
    "labels-page": {"operator": "select-id", "input_rows": 12, "decoded_rows": 12},
    "class-census": {
        "operator": "aggregate-id", "scan_cells": 12, "input_rows": 12,
        "tracked_rows": 12, "sort_keys": 0, "decoded_rows": 12,
    },
    "top-entities": {
        "operator": "aggregate-id", "scan_cells": 2990, "input_rows": 2990,
        "tracked_rows": 2990, "sort_keys": 243, "decoded_rows": 10,
    },
    "distinct-classes": {
        "operator": "select-id", "scan_cells": 12, "input_rows": 12,
        "distinct_keys": 12, "decoded_rows": 12,
    },
    "ask-typed": {"operator": "ask"},
}


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(government_graph(scale=1.0, seed=5))


@pytest.fixture(scope="module")
def census_engine():
    # what build_world(seed=2020) hosts at http://lod1.example.org/sparql
    return QueryEngine(
        big_lod_graph(class_count=16, group_count=4, instances_per_class=9, seed=2021,
                      name="biglod1")
    )


@pytest.fixture(scope="module")
def texts():
    found = {template.name: template.text for template in default_query_mix()}
    found.update(QUESTIONS)
    return found


def test_every_shape_is_pinned(texts):
    assert sorted(texts) == sorted(PINS)
    assert sorted(TEMPLATE_STATS) == sorted(t.name for t in default_query_mix())


@pytest.mark.parametrize("name", sorted(PINS))
def test_work_counts_of_one_query(engine, texts, name):
    stats = engine.execute(texts[name]).stats
    assert set(stats) <= EXEC_STAT_KEYS
    assert tuple(stats.get(key) for key in KEYS) == PINS[name]


@pytest.mark.parametrize("name", sorted(TEMPLATE_STATS))
def test_the_stats_of_one_serving_template(engine, texts, name):
    """Every counter a served template books, exactly: a change to the
    route or the sink of the mix moves one of these."""
    assert engine.execute(texts[name]).stats == TEMPLATE_STATS[name]


@pytest.mark.parametrize("shape", ["GROUP BY ?s"])
def test_a_limit_zero_page_reads_nothing(engine, shape):
    """``LIMIT 0`` under the aggregate sink pulls nothing: no cell is
    scanned (``scan_cells`` is never booked) and no row enters the sink
    -- where its 2,990 subjects' runs were read before."""
    execution = engine.execute(f"SELECT ?s WHERE {{ ?s ?p ?o }} {shape} LIMIT 0")
    stats = execution.stats
    assert execution.result.rows == []
    assert stats.get("scan_cells", 0) == stats["input_rows"] == 0


def test_an_ordered_limit_zero_page_runs_the_general_path(engine):
    """An ORDER BY over solutions is no sink's, so ``LIMIT 0`` runs the
    general path -- which answers an explicit projection's page with its
    header and builds no row (12,427 before it evaluated and sliced)."""
    execution = engine.execute("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 0")
    assert execution.result.rows == []
    assert execution.result.variables == ["s"]
    assert execution.stats == {"operator": "general"}


#: a run-fed pure-COUNT GROUP BY with no ORDER BY: each run is a whole
#: group in first-seen order, so the sink reads the page's runs and no more
#: -- ``(input_rows, tracked_rows, scan_cells)``, 2,990 each before it
#: stopped at its page
PAGE_STOP = ("SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s LIMIT 10", (10, 10, 10))


def test_a_run_fed_count_stops_at_its_page(engine):
    text, pin = PAGE_STOP
    stats = engine.execute(text).stats
    assert stats["operator"] == "aggregate-id"
    assert (stats["input_rows"], stats["tracked_rows"], stats["scan_cells"]) == pin


def test_a_distinct_count_page_reads_every_group(engine):
    """``SELECT DISTINCT`` over the counts dedups rows, not groups: its
    first three rows can lie past the first three groups.  No sink takes
    it: the general path builds every row, and its page is the
    oracle's."""
    text = "SELECT DISTINCT (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s LIMIT 3"
    execution = engine.execute(text)
    assert execution.stats == {"operator": "general", "join_rows": 12427}
    scan = QueryEngine(engine.graph, strategy="scan").execute(text).result
    assert execution.result.rows == scan.rows


RUN_FED_COUNTS = [
    "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    # DISTINCT over the counts runs the general path: its pages check the
    # run-fed ones above and below
    "SELECT DISTINCT (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT DISTINCT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    # the join's last step folds its rows into groups (``_fold_step``)
    "SELECT ?c ?p (COUNT(?o) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c ?p",
]
PAGES = ["", " LIMIT 0", " LIMIT 3", " OFFSET 5 LIMIT 3", " OFFSET 2988 LIMIT 5", " OFFSET 7"]


@pytest.mark.parametrize("page", PAGES)
@pytest.mark.parametrize("text", RUN_FED_COUNTS)
def test_a_run_fed_count_page_equals_scan(engine, text, page):
    """The page stop against the oracle, row for row, under DISTINCT,
    OFFSET and LIMIT."""
    hash_rows = engine.execute(text + page).result.rows
    scan_rows = QueryEngine(engine.graph, strategy="scan").execute(text + page).result.rows
    assert hash_rows == scan_rows


#: pages past the lazy chain's small-LIMIT bound whose sources are rows
#: pulled lazily: the lazy chain (a FILTERed pattern) and the eager join.
#: The select sink reads the page's rows and no more (1,024 each while
#: the sinks took column batches: a whole batch before the cut)
PAGED_SOURCES = [
    "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(isLiteral(?o)) } LIMIT 100",
    "SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 100",
]


@pytest.mark.parametrize("text", PAGED_SOURCES, ids=["lazy-chain", "join"])
def test_a_page_reads_only_its_rows(engine, text):
    execution = engine.execute(text)
    stats = execution.stats
    assert stats["operator"] == "select-id"
    assert stats["input_rows"] == stats["decoded_rows"] == 100
    unpaged = engine.execute(text.replace(" LIMIT 100", "")).result.rows
    assert len(unpaged) > 100
    assert execution.result.rows == unpaged[:100]


#: a LIMIT or OFFSET past ``sys.maxsize`` on each sink and source that
#: slices a page (a cap ``islice`` cannot take reads every row instead)
HUGE = 10**20
HUGE_PAGES = [
    f"SELECT ?s ?o WHERE {{ ?s ?p ?o }} LIMIT {HUGE}",
    f"SELECT DISTINCT ?p WHERE {{ ?s ?p ?o }} LIMIT {HUGE}",
    f"SELECT DISTINCT ?s WHERE {{ ?s ?p ?o }} LIMIT {HUGE}",
    f"SELECT ?s (COUNT(?p) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?s LIMIT {HUGE}",
    f"SELECT ?c ?p (COUNT(?o) AS ?n) WHERE {{ ?s a ?c . ?s ?p ?o }} GROUP BY ?c ?p LIMIT {HUGE}",
    f"SELECT DISTINCT ?c ?p WHERE {{ ?s a ?c . ?s ?p ?o }} LIMIT {HUGE}",
    f"SELECT ?s ?o WHERE {{ ?s ?p ?o }} OFFSET {HUGE} LIMIT 100",
]


@pytest.mark.parametrize("text", HUGE_PAGES)
def test_a_page_past_maxsize_is_the_unpaged_result(engine, text):
    result = engine.execute(text).result
    assert result.rows == QueryEngine(engine.graph, strategy="scan").execute(text).result.rows


#: one query per route, and per source of each columnar sink: name ->
#: (query, operator, the counters that say which source fed the sink)
ROUTES = {
    "select-small-page": ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "select-id", set()),
    "ask": ("ASK { ?s ?p ?o }", "ask", set()),
    "general": ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 3", "general", {"join_rows"}),
    "select-scan": ("SELECT ?s ?o WHERE { ?s ?p ?o }", "select-id", {"scan_cells"}),
    "select-runs": ("SELECT DISTINCT ?s WHERE { ?s ?p ?o }", "select-id", {"scan_cells"}),
    "select-join": ("SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o }", "select-id", {"join_rows"}),
    "select-chain": (
        "SELECT ?s WHERE { ?s ?p ?o FILTER(isLiteral(?o)) }", "select-id", set()
    ),
    "aggregate-runs": (
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s", "aggregate-id",
        {"scan_cells"},
    ),
    "aggregate-fold": (
        "SELECT ?c ?p (COUNT(?o) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c ?p",
        "aggregate-id", {"join_rows"},
    ),
    "aggregate-rows": (
        "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p",
        "aggregate-id", {"scan_cells"},
    ),
}


def test_the_stat_vocabulary_is_what_the_engine_writes(engine):
    """The union of the keys every route and source books is exactly
    ``EXEC_STAT_KEYS``: a key whose writer is gone cannot stay in the
    vocabulary, and no write site books a key outside it."""
    written = set()
    for name, (text, operator, source) in ROUTES.items():
        stats = engine.execute(text).stats
        assert stats["operator"] == operator, name
        assert source <= set(stats) and not ({"scan_cells", "join_rows"} - source) & set(stats), name
        written |= set(stats)
    assert written == EXEC_STAT_KEYS


@pytest.mark.parametrize("name", sorted(CENSUS_PINS))
def test_work_counts_of_one_census_dataset(census_engine, name):
    stats = census_engine.execute(QUESTIONS[name]).stats
    assert tuple(stats.get(key) for key in KEYS) == CENSUS_PINS[name]


class _Unread(tuple):
    """An object leaf that may be neither measured, iterated nor probed."""

    def __len__(self):
        raise AssertionError("an object leaf was read")

    def __iter__(self):
        raise AssertionError("an object leaf was read")

    def __contains__(self, item):
        raise AssertionError("an object leaf was read")


def test_top_entities_reads_no_object_leaf(engine, texts):
    """A subject's triple count is kept beside SPO: the run-fed COUNT and
    its top-k tail take it without reading any of the 2,990 subjects'
    object leaves."""
    expected = engine.execute(texts["top-entities"]).result.rows
    graph = government_graph(scale=1.0, seed=5)
    for by_predicate in graph.spo_ids().values():
        for predicate, objects in by_predicate.items():
            by_predicate[predicate] = _Unread(objects)
    assert QueryEngine(graph).execute(texts["top-entities"]).result.rows == expected


def _census_graph():
    return big_lod_graph(class_count=16, group_count=4, instances_per_class=9, seed=2021,
                         name="biglod1")


def _unread_dead_leaves(graph, subjects) -> int:
    """Replace with :class:`_Unread` every SPO leaf of each predicate none of
    whose objects anywhere is typed -- so no row of ``?s ?p ?o . ?o a ?t``
    can use it -- among those with no more objects than *subjects*, the rows
    a ``?s a ...`` step hands the ``?s ?p ?o`` step (above that bound the
    step takes a predicate to pass untested); the number of such
    predicates."""
    spo, pos = graph.spo_ids(), graph.pos_ids()
    rdf_type = graph.lookup_id(RDF.type)
    typed = {s for s, by_predicate in spo.items() if rdf_type in by_predicate}
    dead = {
        p for p, by_object in pos.items()
        if len(by_object) <= subjects and not any(o in typed for o in by_object)
    }
    for by_predicate in spo.values():
        for predicate in dead & by_predicate.keys():
            by_predicate[predicate] = _Unread(by_predicate[predicate])
    return len(dead)


def _typed_rows(graph, class_iri=None) -> int:
    pos = graph.pos_ids()[graph.lookup_id(RDF.type)]
    if class_iri is not None:
        return len(pos[graph.lookup_id(class_iri)])
    return sum(map(len, pos.values()))


@pytest.mark.parametrize("make", [lambda: government_graph(scale=1.0, seed=5), _census_graph],
                         ids=["government", "census-1"])
def test_the_links_question_reads_no_leaf_of_a_dead_predicate(make):
    """A predicate with no typed object anywhere (a literal-only one, or one
    linking only to untyped nodes) cannot yield a link: the subject-bound
    ``?s ?p ?o`` step drops it before it reads its leaf."""
    expected = QueryEngine(make()).execute(QUESTIONS["links"]).result.rows
    graph = make()
    rows = _typed_rows(graph)
    predicates = len(graph.pos_ids())
    unread = _unread_dead_leaves(graph, rows)
    # every dead predicate is within the bound here: 13 of 24 on the
    # government graph, 5 of 30 on census-1
    assert (unread, predicates) in ((13, 24), (5, 30))
    assert QueryEngine(graph).execute(QUESTIONS["links"]).result.rows == expected


@pytest.mark.parametrize("paged", [False, True])
def test_a_per_class_link_scan_reads_no_leaf_of_a_dead_predicate(paged):
    """Index Extraction's per-class rung (its aggregate and its paged scan)
    on the government graph's largest class, 900 bus stops."""
    class_iri = "http://gov.example.org/govdata/BusStop"
    pattern = f"WHERE {{ ?s a <{class_iri}> . ?s ?p ?o . ?o a ?target }}"
    if paged:
        text = f"SELECT ?p ?target {pattern} LIMIT 1000 OFFSET 0"
    else:
        text = f"SELECT ?p ?target (COUNT(?o) AS ?n) {pattern} GROUP BY ?p ?target"
    expected = QueryEngine(government_graph(scale=1.0, seed=5)).execute(text).result.rows
    assert expected
    graph = government_graph(scale=1.0, seed=5)
    assert _unread_dead_leaves(graph, _typed_rows(graph, IRI(class_iri))) == 12
    assert QueryEngine(graph).execute(text).result.rows == expected
