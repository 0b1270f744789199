"""E4 (§2.1): index extraction across heterogeneous endpoint implementations.

"The Index Extraction is able to deal with the performance issues of the
different implementations of SPARQL endpoints by using pattern strategies."

Same dataset behind five implementation profiles (Virtuoso-like, Fuseki-
like, a pre-1.1 store without aggregates, a 4store-like with a small
result cap, and an overloaded shared host).  Shape to reproduce: every
profile yields the SAME indexes; aggregate-capable endpoints are cheaper;
fallback strategies kick in exactly where capabilities are missing.
"""

from __future__ import annotations

import pytest

from repro.core import IndexExtractor
from repro.datagen import government_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    PROFILES,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)

PROFILE_NAMES = ("virtuoso", "fuseki", "legacy-sesame", "4store", "slow-shared-host")


def _extract_with(profile_name: str):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    url = f"http://{profile_name}.example.org/sparql"
    network.register(
        SparqlEndpoint(
            url,
            government_graph(scale=0.25, seed=99),
            clock,
            profile=profile_name,
            availability=AlwaysAvailable(),
            seed=1,
        )
    )
    extractor = IndexExtractor(SparqlClient(network), page_size=500)
    indexes = extractor.extract(url)
    endpoint = network.get(url)
    return indexes, clock.now_ms, endpoint.stats


@pytest.fixture(scope="module")
def per_profile():
    return {name: _extract_with(name) for name in PROFILE_NAMES}


def test_e4_all_profiles_agree_on_indexes(per_profile, record_table):
    reference, _, _ = per_profile["virtuoso"]
    reference_classes = {(c.iri, c.instance_count) for c in reference.classes}
    reference_links = {
        (l.source, l.property, l.target, l.count) for l in reference.links
    }

    lines = [
        "E4 (§2.1): index extraction with pattern strategies per implementation",
        f"dataset: {reference.class_count} classes, {reference.instance_count} instances",
        "",
        f"{'profile':<18} {'strategy':>10} {'queries':>8} {'rejected':>9} "
        f"{'sim time':>10}",
    ]
    for name in PROFILE_NAMES:
        indexes, elapsed, stats = per_profile[name]
        lines.append(
            f"{name:<18} {indexes.strategy:>10} {stats.queries:>8} "
            f"{stats.rejected:>9} {elapsed / 1000:>8.1f}s"
        )
        assert {(c.iri, c.instance_count) for c in indexes.classes} == reference_classes
        assert {
            (l.source, l.property, l.target, l.count) for l in indexes.links
        } == reference_links
    record_table("e4_index_extraction", "\n".join(lines))


def test_e4_strategy_selection(per_profile):
    assert per_profile["virtuoso"][0].strategy == "aggregate"
    assert per_profile["fuseki"][0].strategy == "aggregate"
    assert per_profile["legacy-sesame"][0].strategy == "scan"  # no aggregates
    assert per_profile["4store"][0].strategy == "scan"


def test_e4_aggregate_cheaper_than_scan(per_profile):
    _, virtuoso_time, virtuoso_stats = per_profile["virtuoso"]
    _, legacy_time, legacy_stats = per_profile["legacy-sesame"]
    assert virtuoso_time < legacy_time
    assert virtuoso_stats.queries < legacy_stats.queries


def test_e4_rejections_only_on_incapable_endpoints(per_profile):
    for name in ("virtuoso", "fuseki"):
        assert per_profile[name][2].rejected == 0
    for name in ("legacy-sesame", "4store"):
        assert per_profile[name][2].rejected > 0
