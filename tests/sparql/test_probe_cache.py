"""The per-graph probe-table cache: build a join's hash table once per graph
generation, share it between engines, never let it change an answer or a
simulated latency."""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
from repro.endpoint.profiles import EndpointProfile
from repro.rdf import IRI, ShardedTripleStore, Triple
from repro.rdf.namespaces import RDF
from repro.sparql import QueryEngine
from repro.sparql.evaluator import (
    _SharedProbeCache,
    _repeated_variable_scan_rows,
    _triples_to_scan_rows,
)

GOV = "http://gov.example.org/govdata/"

#: the per-class extraction histogram: ``?o a ?t`` is the hash-join build
#: side (595 typed subjects against a few hundred probing rows)
JOIN = (
    f"SELECT ?p ?t (COUNT(?o) AS ?n) WHERE {{ ?s a <{GOV}School> . ?s ?p ?o . "
    "?o a ?t } GROUP BY ?p ?t"
)
#: a build side small enough (7 rows <= STREAM_HASH_BUILD_MAX) for the
#: stream engine to hash-join instead of probing the index row by row
STREAM_JOIN = (
    f"SELECT ?h ?m WHERE {{ ?h a <{GOV}Hospital> . ?h <{GOV}hospitalInMunicipality> ?m }}"
)


@pytest.fixture()
def graph():
    return government_graph(scale=0.2, seed=5)


def rows_of(result):
    return [tuple(sorted(row.items())) for row in result.rows]


@pytest.mark.parametrize(
    "strategy,query", [("hash", JOIN), ("stream", STREAM_JOIN)]
)
def test_second_run_builds_nothing(graph, strategy, query):
    engine = QueryEngine(graph, strategy=strategy)
    first = engine.run(query)
    built = engine.probe_cache_info()
    assert built["misses"] >= 1 and built["hits"] == 0
    second = engine.run(query)
    again = engine.probe_cache_info()
    assert again["misses"] == built["misses"]
    assert again["hits"] == built["misses"]
    assert rows_of(second) == rows_of(first)
    assert first.rows
    assert sorted(rows_of(first)) == sorted(
        rows_of(QueryEngine(graph, strategy="scan").run(query))
    )


def test_a_write_rebuilds_and_the_answer_follows(graph):
    """``add`` / ``remove`` of a matching triple bump the generation: the
    next join rebuilds and agrees with the scan oracle; a duplicate ``add``
    changes nothing and invalidates nothing."""
    engine, oracle = QueryEngine(graph), QueryEngine(graph, strategy="scan")
    school = next(iter(graph.subjects(RDF.type, IRI(GOV + "School"))))
    extra = Triple(school, IRI(GOV + "twin"), school)  # School -twin-> School

    def check(expected_misses):
        result = engine.run(JOIN)
        assert sorted(rows_of(result)) == sorted(rows_of(oracle.run(JOIN)))
        assert engine.probe_cache_info()["misses"] == expected_misses
        return len(result.rows)

    groups = check(1)
    assert graph.add(extra)
    assert check(2) == groups + 1
    assert not graph.add(extra)  # no-op write
    assert check(2) == groups + 1
    assert graph.remove(extra)
    assert check(3) == groups


def test_lru_bound_holds_under_five_build_sides(graph):
    engine = QueryEngine(graph)
    # one predicate per class, as many triples as the class has members:
    # the class scan goes first, the predicate is hash-built -- a different
    # ground spec each time, so a different table
    sides = [
        ("Municipality", "population"),
        ("PublicOffice", "openingHours"),
        ("School", "studentCount"),
        ("Hospital", "bedCount"),
        ("Event", "startDate"),
    ]
    assert len(sides) > _SharedProbeCache.PROBE_CACHE_SIZE
    for class_name, predicate in sides:
        result = engine.run(
            f"SELECT ?s ?v WHERE {{ ?s a <{GOV}{class_name}> . ?s <{GOV}{predicate}> ?v }}"
        )
        assert result.rows
        assert engine.probe_cache_info()["size"] <= _SharedProbeCache.PROBE_CACHE_SIZE
    info = engine.probe_cache_info()
    assert info["misses"] == len(sides)
    assert info["size"] == _SharedProbeCache.PROBE_CACHE_SIZE


def test_engines_of_one_graph_share_it_two_graphs_do_not(graph):
    QueryEngine(graph).run(JOIN)
    other = QueryEngine(graph)
    assert other.probe_cache_info()["misses"] == 1
    other.run(JOIN)
    assert other.probe_cache_info() == {
        "hits": 1, "misses": 1, "size": 1, "generation": graph.generation
    }
    clone = QueryEngine(graph.copy())
    assert clone.probe_cache_info()["size"] == 0
    clone.run(JOIN)
    assert clone.probe_cache_info()["hits"] == 0
    assert other.probe_cache_info()["hits"] == 1


def test_sharded_spanning_build_bypasses_the_cache(graph):
    """``parallel_probe_table`` books simulated shard time that the
    endpoint's latency model reads, so a repeat must run it again: same
    shard counters, same simulated latency, nothing cached."""
    clock = SimulationClock()
    endpoint = SparqlEndpoint(
        "http://s/sparql",
        ShardedTripleStore.from_graph(graph, 4),
        clock,
        profile=EndpointProfile("flat", jitter=0.0),
        availability=AlwaysAvailable(),
    )
    endpoint.query(JOIN)  # the first batch pays the pool's cold spin-up
    runs = []
    for _ in range(2):
        before = clock.now_ms
        endpoint.query(JOIN)
        stats = endpoint._engine.exec_stats_snapshot()
        runs.append(
            ({k: v for k, v in stats.items() if k.startswith("shard_")},
             clock.now_ms - before)
        )
    (first, first_ms), (second, second_ms) = runs
    assert first["shard_batches"] == 2  # the class scan and the build
    assert first.keys() == second.keys()
    assert first == pytest.approx(second)
    assert first_ms == pytest.approx(second_ms)
    info = endpoint._engine.probe_cache_info()
    assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)


# -- the scan-row projection the builds (and every scan) run through ------------


@pytest.mark.parametrize(
    "positions",
    [
        [],                      # fully ground pattern
        [[2]],                   # one variable
        [[0], [2]],              # two
        [[0], [1], [2]],         # three
        [[2], [0]],              # ?o before ?s in the variable order
        [[0, 2], [1]],           # ?x ?p ?x: the repeated-variable path
        [[0, 1, 2]],             # ?x ?x ?x
    ],
)
def test_scan_row_projection_matches_the_loop(positions):
    triples = [(1, 2, 1), (1, 2, 3), (4, 4, 4), (5, 6, 7), (7, 6, 7)]
    assert list(_triples_to_scan_rows(iter(triples), positions)) == list(
        _repeated_variable_scan_rows(iter(triples), positions)
    )
    assert list(_triples_to_scan_rows([], positions)) == []
