"""Conformance of crash-recovered stores.

The durability acceptance criterion: a store recovered from disk -- after
an injected crash, with a WAL tail replayed on top of the last committed
snapshot -- is indistinguishable from the original to the query engine.
The corpus is the full ``test_conformance`` suite, run at shard counts
1/2/4 against the legacy scan oracle, on graphs that went through:

    save -> journal net-zero churn (adds then removes of the same extras)
         -> one more append crashed mid-record (torn tail on disk)
         -> ``Graph.load``

so recovery must replay the churn, truncate the torn record, and land on
exactly the original content.
"""

from __future__ import annotations

import pytest

from repro.rdf import BNode, Graph, IRI, Literal, Triple, attach_journal, content_digest, parse_turtle
from repro.rdf.durability import CrashInjector, CrashPoint
from repro.sparql import QueryEngine
from repro.sparql.results import AskResult, SelectResult

from test_conformance import ASK_CASES, CASES, DATA, MODES, _canonical_rows, run_hash

SHARD_COUNTS = (1, 2, 4)

EX = "http://example.org/"
EXTRAS = [
    Triple(IRI(f"{EX}ghost{i}"), IRI(f"{EX}temp"), Literal(i)) for i in range(3)
]


def _base_graph() -> Graph:
    g = parse_turtle(DATA)
    g.add(Triple(BNode("anon1"), IRI("http://example.org/age"), Literal(99)))
    return g


def _recovered_store(root: str, shards: int) -> Graph:
    base = _base_graph()
    store = Graph(identifier="conformance", shards=shards)
    store.add_many_terms((t.subject, t.predicate, t.object) for t in base)
    store.save(root)

    # journaled churn that nets to zero content change
    probe = CrashInjector()
    journal = attach_journal(store, root, injector=probe)
    for extra in EXTRAS:
        store.add(extra)
    for extra in EXTRAS:
        store.remove(extra)
    churn_boundaries = probe.sequence

    # one more append, crashed inside the torn-write window: the WAL ends
    # in a half-written record recovery must truncate
    probe.crash_at = churn_boundaries + 1  # before=+0, partial=+1
    with pytest.raises(CrashPoint) as crash:
        store.add(Triple(IRI(f"{EX}ghost99"), IRI(f"{EX}temp"), Literal(99)))
    assert crash.value.op == "wal-append:partial"

    recovered = Graph.load(root, lazy=False, verify=True)
    assert content_digest(recovered) == content_digest(base)
    return recovered


@pytest.fixture(scope="module")
def recovered_graphs(tmp_path_factory):
    roots = tmp_path_factory.mktemp("recovered")
    return {
        n: _recovered_store(str(roots / f"shards-{n}"), n) for n in SHARD_COUNTS
    }


def _ordered_rows(result: SelectResult):
    return [
        {name: term.n3() if term else None for name, term in row.items()}
        for row in result.rows
    ]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case_id,query,expected", CASES, ids=[c[0] for c in CASES])
def test_recovered_store_matches_scan(
    recovered_graphs, shards, mode, case_id, query, expected
):
    graph = recovered_graphs[shards]
    query, modern = run_hash(graph, mode, query)
    scan = QueryEngine(graph, strategy="scan").run(query)
    assert isinstance(scan, SelectResult) and isinstance(modern, SelectResult)
    assert len(modern.rows) == expected
    if "ORDER BY" in query:
        assert _ordered_rows(scan) == _ordered_rows(modern)
    else:
        assert _canonical_rows(scan) == _canonical_rows(modern)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "case_id,query,expected", ASK_CASES, ids=[c[0] for c in ASK_CASES]
)
def test_recovered_store_ask_matches(recovered_graphs, shards, case_id, query, expected):
    graph = recovered_graphs[shards]
    scan = QueryEngine(graph, strategy="scan").run(query)
    modern = QueryEngine(graph).run(query)
    assert isinstance(scan, AskResult) and isinstance(modern, AskResult)
    assert bool(scan) == bool(modern) == expected
