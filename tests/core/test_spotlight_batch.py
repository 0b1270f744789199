"""The batched exploration spotlight: one GROUP BY per endpoint, cached.

``HBold.explore`` used to issue one aggregate + ORDER BY round trip per
class the user opened; a full walk over a C-class endpoint cost C
queries.  The batch path issues a single ``GROUP BY (class, entity)``
query, folds per-class top-k client-side, and caches the result on the
endpoint graph's ``derived_cache`` keyed by the graph generation.
"""

from __future__ import annotations

import pytest

from repro.core import HBold
from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlEndpoint,
)

URL = "http://spot.example.org/sparql"


def _app(profile="virtuoso"):
    network = EndpointNetwork(clock=SimulationClock())
    endpoint = SparqlEndpoint(
        URL,
        government_graph(scale=0.15, seed=11),
        network.clock,
        profile=profile,
        availability=AlwaysAvailable(),
    )
    network.register(endpoint)
    app = HBold(network)
    app.bootstrap_registry([URL])
    assert app.index_endpoint(URL)
    return app, endpoint


@pytest.fixture(scope="module")
def batched():
    return _app()


def test_batch_matches_per_class_probes(batched):
    app, endpoint = batched
    session = app.explore(URL)
    for class_iri in app.summary(URL).class_iris():
        session.start_from_schema_summary()
        details = session.class_details(class_iri)
        assert details["top_entities"] == app.extractor.top_entities(
            URL, class_iri, k=HBold.SPOTLIGHT_K
        )


def test_full_walk_costs_one_spotlight_round_trip():
    app, endpoint = _app()
    classes = app.summary(URL).class_iris()
    assert len(classes) > 3
    session = app.explore(URL)
    session.start_from_schema_summary()
    before = endpoint.stats.queries
    for class_iri in classes:
        session.class_details(class_iri)
    assert endpoint.stats.queries - before == 1  # the one GROUP BY batch
    # a second session over the same endpoint reuses the cached batch
    second = app.explore(URL)
    second.start_from_schema_summary()
    before = endpoint.stats.queries
    for class_iri in classes:
        second.class_details(class_iri)
    assert endpoint.stats.queries == before


def test_cache_invalidated_by_graph_mutation():
    app, endpoint = _app()
    session = app.explore(URL)
    session.start_from_schema_summary()
    classes = app.summary(URL).class_iris()
    session.class_details(classes[0])
    before = endpoint.stats.queries
    session.class_details(classes[0])
    assert endpoint.stats.queries == before  # cached
    # any write bumps the generation; the next spotlight re-batches
    from repro.rdf import IRI, Literal, Triple

    endpoint.graph.add(
        Triple(IRI("http://x.example/s"), IRI("http://x.example/p"), Literal(1))
    )
    session.class_details(classes[0])
    assert endpoint.stats.queries == before + 1


def test_aggregate_rejecting_endpoint_falls_back_per_class():
    app, endpoint = _app(profile="legacy-sesame")
    session = app.explore(URL)
    session.start_from_schema_summary()
    classes = app.summary(URL).class_iris()
    details = session.class_details(classes[0])
    # the per-class scan fallback still answers, ranked best-first
    degrees = [count for _iri, count in details["top_entities"]]
    assert degrees == sorted(degrees, reverse=True)
    assert details["top_entities"] == app.extractor.top_entities(
        URL, classes[0], k=HBold.SPOTLIGHT_K
    )


def test_spotlight_cache_is_bounded_in_k():
    """Each *k* caches a whole-dataset batch on the graph; a caller cycling
    through values cannot grow it past ``SPOTLIGHT_CACHE_SIZE``."""
    from repro.core.hbold import _SpotlightCache

    app, endpoint = _app()
    for k in range(1, 2 * _SpotlightCache.SPOTLIGHT_CACHE_SIZE + 1):
        assert app._spotlight_batch(URL, k) is not None
        cache = endpoint.graph.derived_cache("exploration/spotlight", _SpotlightCache)
        assert k in cache and len(cache) <= _SpotlightCache.SPOTLIGHT_CACHE_SIZE
