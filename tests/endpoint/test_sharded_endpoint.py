"""Sharded endpoints: a sharded store behind an endpoint is storage only.

The simulated endpoint charges a dataset-size execution term per query,
the same whether the graph is sharded or not: shards change how the
triples are stored, not what a query costs or returns.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.endpoint import SimulationClock, SparqlEndpoint
from repro.rdf import ShardedTripleStore

URL = "http://shard.example.org/sparql"

SCAN_QUERY = "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c"
POINT_QUERY = "ASK { ?s ?p ?o }"


@pytest.fixture(scope="module")
def dataset():
    return government_graph(scale=0.3, seed=5)


def _endpoint(graph):
    return SparqlEndpoint(URL, graph, SimulationClock(), profile="virtuoso", seed=9)


def test_sharded_endpoint_returns_identical_rows(dataset):
    plain = _endpoint(dataset)
    sharded = _endpoint(ShardedTripleStore.from_graph(dataset, 4))
    a = plain.query(SCAN_QUERY)
    b = sharded.query(SCAN_QUERY)
    canonical = lambda result: sorted(
        tuple((k, str(v)) for k, v in sorted(row.items())) for row in result.rows
    )
    assert canonical(a) == canonical(b)


@pytest.mark.parametrize("query", [SCAN_QUERY, POINT_QUERY])
def test_sharding_charges_no_other_simulated_time(dataset, query):
    # identical url/profile/seed -> identical jitter draw per query, so a
    # sharded store may differ from a plain one only if its layout priced in
    plain = _endpoint(dataset)
    sharded = _endpoint(ShardedTripleStore.from_graph(dataset, 4))
    plain.query(query)
    sharded.query(query)
    assert sharded.stats.total_latency_ms == plain.stats.total_latency_ms > 0.0
