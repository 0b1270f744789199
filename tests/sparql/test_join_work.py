"""What the eager join builds, as a count: ``Execution.stats["join_rows"]``.

``join_rows`` is the rows the join's steps built, summed over steps -- the
seed of a deterministic work ledger.  A step handles a candidate before it
builds the row: a one-variable term-test FILTER runs where its variable is
bound, and the next pattern's probe table gates the step that binds its
key, so a candidate either can survive to the output or is never built.

Index Extraction's two whole-dataset questions (the datatype properties of
every class, and the links between classes) on the benchmark's government
graph and on dataset 1 of the seed-2020 census.  The parent tree built
every candidate and filtered afterwards; its numbers are in the comments.
"""

from __future__ import annotations

import pytest

from repro.datagen import big_lod_graph, government_graph
from repro.rdf import Graph, IRI, ShardedTripleStore, Triple
from repro.rdf.namespaces import RDF
from repro.sparql import QueryEngine

DATATYPES = "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
LINKS = (
    "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { ?s a ?c . ?s ?p ?o . ?o a ?target } "
    "GROUP BY ?c ?p ?target"
)

#: (graph, question, join_rows bound, result rows).  Parent (filter after
#: the join, no gate): government 15,393 / 19,457, census-1 775 / 994.
BOUNDS = [
    ("government", DATATYPES, 8_351, 20),
    ("government", LINKS, 11_106, 11),
    ("census-1", DATATYPES, 419, 34),
    ("census-1", LINKS, 575, 25),
]


@pytest.fixture(scope="module")
def graphs():
    return {
        "government": government_graph(scale=1.0, seed=5),
        # what build_world(seed=2020) hosts at http://lod1.example.org/sparql
        "census-1": big_lod_graph(
            class_count=16, group_count=4, instances_per_class=9, seed=2021, name="biglod1"
        ),
    }


@pytest.mark.parametrize("name,query,bound,rows", BOUNDS)
def test_the_extraction_questions_build_only_what_can_survive(graphs, name, query, bound, rows):
    graph = graphs[name]
    execution = QueryEngine(graph).execute(query)
    result = execution.result
    assert len(result.rows) == rows
    assert execution.stats["join_rows"] <= bound
    scan = QueryEngine(graph, strategy="scan").run(query)
    assert sorted(map(sorted, (r.items() for r in result.rows))) == sorted(
        map(sorted, (r.items() for r in scan.rows))
    )


def _typed(graph) -> int:
    return sum(1 for _ in graph.triples_ids(None, graph.lookup_id(RDF.type), None))


def test_the_datatype_question_builds_the_type_scan_and_the_literals(graphs):
    """Step one is the ``?s a ?c`` scan; step two, the last, folds into
    the DISTINCT above it and builds one row per distinct (class,
    property) key whose object is a literal -- 137 + 34 on census-1, where
    building every literal row made 137 + 282."""
    graph = graphs["census-1"]
    execution = QueryEngine(graph).execute(DATATYPES)
    keys = QueryEngine(graph).run(
        "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
    )
    assert execution.stats["join_rows"] == _typed(graph) + len(keys.rows)


@pytest.mark.parametrize("offset,limit", [(0, 3), (2, 3), (0, 0), (0, 1000)])
def test_a_distinct_fold_stops_at_its_page(graphs, offset, limit):
    """Keys leave the folding step in first-seen order, so a DISTINCT under
    LIMIT is final after ``offset + limit`` keys: the join builds the type
    scan and at most that many keys, and answers the unbounded query's
    page.  A LIMIT 0 page builds no join at all: no ``join_rows``."""
    graph = graphs["census-1"]
    page = f"{DATATYPES} LIMIT {limit} OFFSET {offset}"
    execution = QueryEngine(graph).execute(page)
    if limit == 0:
        assert "join_rows" not in execution.stats
    else:
        assert execution.stats["join_rows"] <= _typed(graph) + offset + limit
    whole = QueryEngine(graph).run(DATATYPES).rows
    assert execution.result.rows == whole[offset:offset + limit]


def _chain(store: Graph) -> Graph:
    """``?s a <Small> . ?s <p> ?o . ?o <q> ?x``: two Small subjects among
    100 ``p`` subjects, and 50 ``q`` triples of which two hang off a Small
    subject's object -- the ``q`` pattern gates the ``p`` step (estimate
    50 <= 100) and still joins by INLJ (50 > 4 x 2 candidates)."""
    ex = "http://example.org/"
    for i in range(100):
        store.add(Triple(IRI(f"{ex}s{i}"), IRI(f"{ex}p"), IRI(f"{ex}o{i}")))
    for i in range(2):
        store.add(Triple(IRI(f"{ex}s{i}"), RDF.type, IRI(f"{ex}Small")))
    for i in range(50):
        store.add(Triple(IRI(f"{ex}o{i * 2}"), IRI(f"{ex}q"), IRI(f"{ex}x{i}")))
    return store


CHAIN = (
    "SELECT ?s ?x WHERE { ?s a <http://example.org/Small> . "
    "?s <http://example.org/p> ?o . ?o <http://example.org/q> ?x }"
)


def test_a_gate_comes_from_the_shared_probe_cache_only():
    """The gate is the cached ``?o <q> ?x`` table, on a plain graph and on
    a sharded store alike (its build spans the shards and is cached like
    any other): one build, the gated step keeps one row, and the same
    rows in the same order."""
    plain = QueryEngine(_chain(Graph()))
    execution = plain.execute(CHAIN)
    expected = execution.result.rows
    assert len(expected) == 1
    assert plain.probe_cache_info()["misses"] == 1
    assert execution.stats["join_rows"] == 2 + 1 + 1

    sharded = QueryEngine(_chain(ShardedTripleStore(shards=2)))
    execution = sharded.execute(CHAIN)
    assert execution.result.rows == expected
    assert sharded.probe_cache_info()["misses"] == 1
    assert execution.stats["join_rows"] == 2 + 1 + 1
