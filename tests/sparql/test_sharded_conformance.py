"""Conformance + property suites for partition-parallel execution.

Two contracts, from the sharding subsystem's merge determinism rule:

1. **Oracle conformance** -- on a sharded graph, every modern pipeline
   still matches the legacy scan oracle, for the *entire* conformance
   corpus (the cases are imported from ``test_conformance``), at every
   shard count.
2. **Shard-count invariance** -- SELECT/ASK/aggregate results are
   byte-identical (row order included) between ``shards=1`` and any
   other shard count, for fixed corpora and for hypothesis-generated
   random datasets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import government_graph
from repro.rdf import BNode, Graph, IRI, Literal, ShardedTripleStore, Triple, parse_turtle
from repro.sparql import QueryEngine
from repro.sparql.results import AskResult, SelectResult

from test_conformance import ASK_CASES, CASES, DATA, STRATEGIES, _canonical_rows

SHARD_COUNTS = (1, 2, 4, 8)


def _base_graph() -> Graph:
    g = parse_turtle(DATA)
    g.add(Triple(BNode("anon1"), IRI("http://example.org/age"), Literal(99)))
    return g


@pytest.fixture(scope="module")
def sharded_graphs():
    base = _base_graph()
    return {n: ShardedTripleStore.from_graph(base, n) for n in SHARD_COUNTS}


def _ordered_rows(result: SelectResult):
    return [
        {name: term.n3() if term else None for name, term in row.items()}
        for row in result.rows
    ]


# -- 1. the full conformance corpus against the scan oracle, per shard count --


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case_id,query,expected", CASES, ids=[c[0] for c in CASES])
def test_sharded_pipeline_matches_scan(
    sharded_graphs, shards, strategy, case_id, query, expected
):
    graph = sharded_graphs[shards]
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph, strategy=strategy).run(query)
    assert isinstance(scan, SelectResult) and isinstance(modern, SelectResult)
    assert sorted(scan.variables) == sorted(modern.variables)
    assert len(modern.rows) == expected
    if "ORDER BY" in query:
        assert _ordered_rows(scan) == _ordered_rows(modern)
    else:
        assert _canonical_rows(scan) == _canonical_rows(modern)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "case_id,query,expected", ASK_CASES, ids=[c[0] for c in ASK_CASES]
)
def test_sharded_ask_matches_scan(
    sharded_graphs, shards, strategy, case_id, query, expected
):
    graph = sharded_graphs[shards]
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph, strategy=strategy).run(query)
    assert isinstance(scan, AskResult) and isinstance(modern, AskResult)
    assert bool(scan) == bool(modern) == expected


# -- 2. shard-count invariance: byte-identical rows in order -----------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case_id,query,expected", CASES, ids=[c[0] for c in CASES])
def test_shard_count_never_changes_results(
    sharded_graphs, strategy, case_id, query, expected
):
    baseline = _ordered_rows(
        QueryEngine(sharded_graphs[1], strategy=strategy).run(query)
    )
    for shards in SHARD_COUNTS[1:]:
        result = QueryEngine(sharded_graphs[shards], strategy=strategy).run(query)
        assert _ordered_rows(result) == baseline, f"shards={shards}"


# -- the partition-parallel accounting contract ------------------------------


def test_spanning_scan_records_pool_accounting(sharded_graphs):
    stats = QueryEngine(sharded_graphs[4]).execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert stats["shard_batches"] >= 1
    assert 0.0 < stats["shard_parallel_ms"] < stats["shard_sequential_ms"]
    totals = sharded_graphs[4].shard_stats
    assert totals["batches"] >= stats["shard_batches"]
    assert totals["rows"] >= stats["shard_rows"]


def test_single_shard_pays_the_sequential_sum(sharded_graphs):
    stats = QueryEngine(sharded_graphs[1]).execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert stats["shard_parallel_ms"] == pytest.approx(stats["shard_sequential_ms"])


def test_subject_bound_scan_runs_no_batch(sharded_graphs):
    execution = QueryEngine(sharded_graphs[4]).execute(
        "SELECT ?p ?o WHERE { <http://example.org/alice> ?p ?o }"
    )
    assert "shard_batches" not in execution.stats


def test_multi_batch_query_reuses_warm_workers(sharded_graphs):
    """Pool reuse across one query's scan batches: only the first batch
    pays the cold dispatch, every later one runs on warm workers."""
    engine = QueryEngine(sharded_graphs[4])
    stats = engine.execute("SELECT ?s ?c WHERE { ?s ?p ?o . ?s a ?c }").stats
    assert stats["shard_batches"] >= 2
    assert stats["shard_warm_batches"] == stats["shard_batches"] - 1


def test_pool_stays_warm_across_queries_on_one_engine(sharded_graphs):
    """The worker set is per *engine*, keyed on the shard layout:
    back-to-back queries skip the cold spin-up entirely, so the second
    query's every batch is warm -- while a fresh engine (fresh pool)
    starts cold again.  Each execution's stats stay per-query: the warm
    count is the query's own, not the pool's lifetime total."""
    engine = QueryEngine(sharded_graphs[4])
    first = engine.execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert first["shard_batches"] == 1
    assert first["shard_warm_batches"] == 0  # engine's first batch: cold
    second = engine.execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert second["shard_batches"] == 1
    assert second["shard_warm_batches"] == 1  # reused the warm workers
    fresh = QueryEngine(sharded_graphs[4]).execute("SELECT * WHERE { ?s ?p ?o }")
    assert fresh.stats["shard_warm_batches"] == 0


def test_pool_retires_when_the_shard_layout_changes(sharded_graphs):
    """clear() replaces the shards tuple, so the engine's warm worker
    set is keyed off the dead layout and the next query starts cold."""
    store = sharded_graphs[4].copy()
    engine = QueryEngine(store)
    engine.run("SELECT * WHERE { ?s ?p ?o }")
    stats = engine.execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert stats["shard_warm_batches"] == 1
    store.clear()
    for triple in sharded_graphs[1]:
        store.add(triple)
    stats = engine.execute("SELECT * WHERE { ?s ?p ?o }").stats
    assert stats["shard_batches"] == 1
    assert stats["shard_warm_batches"] == 0


def test_warm_batches_cost_less_than_cold(sharded_graphs):
    """The warm dispatch constant is what the reuse buys in simulated time:
    two batches under one pool cost less than the same two cold."""
    from repro.sparql.parallel_exec import (
        SHARD_DISPATCH_MS,
        SHARD_WARM_DISPATCH_MS,
    )

    assert SHARD_WARM_DISPATCH_MS < SHARD_DISPATCH_MS
    engine = QueryEngine(sharded_graphs[4])
    stats = engine.execute("SELECT ?s ?c WHERE { ?s ?p ?o . ?s a ?c }").stats
    batches = stats["shard_batches"]
    # sequential cost had the pool been cold for every batch: each batch
    # dispatches one task per shard
    saved = (batches - 1) * 4 * (SHARD_DISPATCH_MS - SHARD_WARM_DISPATCH_MS)
    assert saved > 0.0
    cold_equivalent = stats["shard_sequential_ms"] + saved
    assert stats["shard_sequential_ms"] < cold_equivalent


def test_scan_join_makespan_falls_as_shards_are_added():
    """The scaling curve, in simulated time only: on the extraction-shaped
    scan+join+fold the pool makespan strictly falls 1 -> 2 -> 4 shards and
    is >= 2x better at 4, while the sequential sum only grows by dispatch
    constants (the per-row work is fixed) and the rows never change."""
    from repro.sparql.parallel_exec import SHARD_DISPATCH_MS

    base = government_graph(scale=0.2, seed=5)
    query = "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c"
    sequential, makespan, rows = {}, {}, {}
    for shards in (1, 2, 4):
        execution = QueryEngine(ShardedTripleStore.from_graph(base, shards)).execute(query)
        rows[shards] = _ordered_rows(execution.result)
        stats = execution.stats
        sequential[shards] = stats["shard_sequential_ms"]
        makespan[shards] = stats["shard_parallel_ms"]
        dispatches = shards * stats["shard_batches"]
        assert sequential[1] <= sequential[shards] <= (
            sequential[1] + dispatches * SHARD_DISPATCH_MS
        )
    assert rows[1] == rows[2] == rows[4] and rows[1]
    assert makespan[1] == pytest.approx(sequential[1])
    assert makespan[4] < makespan[2] < makespan[1]
    assert makespan[1] / makespan[4] >= 2.0


# -- hypothesis: random data, random shard counts, fixed query shapes --------

EX = "http://example.org/"

PROPERTY_QUERIES = (
    "SELECT * WHERE { ?s ?p ?o }",
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }}",
    f"SELECT ?s ?v WHERE {{ ?s <{EX}p2> ?v }} ORDER BY ?v ?s",
    f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?s "
    "ORDER BY DESC(?n) ?s LIMIT 3",
    f"SELECT ?p (COUNT(?s) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?p "
    "HAVING (COUNT(?s) > 1)",
    f"ASK {{ ?s <{EX}p1> ?o }}",
)

triples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),   # subject
        st.integers(min_value=0, max_value=2),   # predicate
        st.integers(min_value=0, max_value=11),  # object: node or literal
    ),
    min_size=0,
    max_size=40,
)


def _build(triples, shards):
    store = ShardedTripleStore(shards=shards)
    store.add_many_terms(
        (
            IRI(f"{EX}n{s}"),
            IRI(f"{EX}p{p}"),
            IRI(f"{EX}n{o}") if o < 10 else Literal(o),
        )
        for s, p, o in triples
    )
    return store


@settings(max_examples=40, deadline=None)
@given(
    triples=triples_strategy,
    shards=st.sampled_from(SHARD_COUNTS[1:]),
    query=st.sampled_from(PROPERTY_QUERIES),
    strategy=st.sampled_from(STRATEGIES),
)
def test_property_shard_count_invariance(triples, shards, query, strategy):
    """Shard count never changes SELECT/ASK/aggregate results or order."""
    one = QueryEngine(_build(triples, 1), strategy=strategy).run(query)
    many = QueryEngine(_build(triples, shards), strategy=strategy).run(query)
    if isinstance(one, AskResult):
        assert bool(one) == bool(many)
    else:
        assert one.variables == many.variables
        assert _ordered_rows(one) == _ordered_rows(many)
