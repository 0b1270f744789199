"""Shared fixtures for the test suite.

Heavyweight artifacts (the Scholarly graph, an indexed H-BOLD app) are
session-scoped: they're deterministic and read-only in the tests that
share them.
"""

from __future__ import annotations

import pytest

from repro.core import HBold
from repro.datagen import build_world, scholarly_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.rdf import Graph, IRI, Literal, Triple, parse_turtle

EX = "http://example.org/"


@pytest.fixture()
def small_graph() -> Graph:
    """Nine triples: two Persons, one Robot, labels, ages, knows-links."""
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

        ex:alice a ex:Person ; ex:knows ex:bob ; rdfs:label "Alice"@en ; ex:age 30 .
        ex:bob a ex:Person ; ex:age 25 ; ex:knows ex:carol .
        ex:carol a ex:Robot ; ex:age 5 .
        """
    )


@pytest.fixture(scope="session")
def scholarly():
    """A small but structurally complete Scholarly LD graph."""
    return scholarly_graph(scale=0.1, seed=7)


#: how a graph reaches the engine: as built, saved and reloaded with every
#: shard's indexes built, or reloaded with lazy shards that fill their
#: indexes on their first read (``Graph.scan_rows`` over a cold shard)
STORES = ("built", "reloaded", "lazy")


@pytest.fixture(scope="session", params=STORES)
def store(request) -> str:
    """One of :data:`STORES`: a test that asks for it runs once per store."""
    return request.param


@pytest.fixture(scope="session")
def stored(tmp_path_factory):
    """``stored(graph, store)``: *graph* as the engine meets it under one
    of :data:`STORES`, the reloaded ones from a fresh store directory."""

    def restore(graph: Graph, store: str) -> Graph:
        if store == "built":
            return graph
        root = str(tmp_path_factory.mktemp(store))
        graph.save(root)
        return Graph.load(root, lazy=store == "lazy")

    return restore


@pytest.fixture()
def network() -> EndpointNetwork:
    return EndpointNetwork(clock=SimulationClock())


@pytest.fixture()
def client(network) -> SparqlClient:
    return SparqlClient(network)


def make_endpoint(network, graph, url="http://test.example.org/sparql", **options):
    """Register a reliable endpoint wrapping *graph* on *network*."""
    endpoint = SparqlEndpoint(
        url,
        graph,
        network.clock,
        availability=options.pop("availability", AlwaysAvailable()),
        **options,
    )
    network.register(endpoint)
    return endpoint


@pytest.fixture(scope="session")
def tiny_world():
    """A miniature full world: 20 indexable + 5 broken endpoints, reliable."""
    return build_world(indexable=20, broken=5, portal_new_indexable=3, flaky=False, seed=3)


@pytest.fixture(scope="session")
def indexed_app(tiny_world):
    """An HBold app with the first five indexable endpoints fully indexed."""
    app = HBold(tiny_world.network)
    app.bootstrap_registry(tiny_world.listed_urls)
    results = app.update_all(tiny_world.indexable_urls[:5])
    assert all(results.values()), f"fixture indexing failed: {results}"
    return app
