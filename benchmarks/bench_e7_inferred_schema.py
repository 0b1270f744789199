"""E7 (extension; LODeX lineage): inferred-schema extraction.

The paper's §2 recalls that LODeX provided "a summarization of a LD,
including its inferred schema".  This experiment exercises the
reproduction's inferred mode: instance counts through the
``a/rdfs:subClassOf*`` closure, with a client-side closure fallback on
endpoints that reject property paths.

Shape: inferred counts dominate direct counts on every class, superclasses
without direct instances appear, both strategies agree exactly, and
inference costs more queries/time on legacy endpoints.
"""

from __future__ import annotations

import pytest

from repro.core import IndexExtractor
from repro.datagen import scholarly_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)

URL = "http://scholarly/sparql"


def _network(profile: str):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    network.register(
        SparqlEndpoint(
            URL,
            scholarly_graph(scale=0.1, seed=42),
            clock,
            profile=profile,
            availability=AlwaysAvailable(),
        )
    )
    return network


@pytest.fixture(scope="module")
def extractions():
    out = {}
    for key, profile, infer in (
        ("direct", "virtuoso", False),
        ("inferred-paths", "virtuoso", True),
        ("inferred-closure", "legacy-sesame", True),
    ):
        network = _network(profile)
        extractor = IndexExtractor(SparqlClient(network), infer_types=infer, page_size=500)
        indexes = extractor.extract(URL)
        out[key] = (indexes, network.clock.now_ms)
    return out


def test_e7_inferred_vs_direct(extractions, record_table):
    direct, direct_ms = extractions["direct"]
    inferred, inferred_ms = extractions["inferred-paths"]

    direct_counts = {c.label: c.instance_count for c in direct.classes}
    inferred_counts = {c.label: c.instance_count for c in inferred.classes}

    lines = [
        "E7 (extension): direct vs inferred schema on the Scholarly LD",
        "",
        f"{'class':<22} {'direct':>8} {'inferred':>9}",
    ]
    for label in ("Event", "AcademicEvent", "Document", "Conference", "Person"):
        lines.append(
            f"{label:<22} {direct_counts.get(label, 0):>8} "
            f"{inferred_counts.get(label, 0):>9}"
        )
    lines += [
        "",
        f"classes (direct):   {direct.class_count}",
        f"classes (inferred): {inferred.class_count}",
        f"sim time: direct {direct_ms / 1000:.1f}s, inferred {inferred_ms / 1000:.1f}s",
    ]
    record_table("e7_inferred_schema", "\n".join(lines))

    # every class count is monotone under inference
    for cls in direct.classes:
        assert inferred_counts.get(cls.label, 0) >= cls.instance_count, cls.label
    # the Event hierarchy inflates Event's count
    assert inferred_counts["Event"] > direct_counts["Event"]
    # the dataset's true size is not inflated
    assert inferred.instance_count == direct.instance_count


def test_e7_fallback_agrees_with_paths(extractions):
    via_paths, _ = extractions["inferred-paths"]
    via_closure, _ = extractions["inferred-closure"]
    assert via_closure.strategy == "scan"
    assert {(c.iri, c.instance_count) for c in via_paths.classes} == {
        (c.iri, c.instance_count) for c in via_closure.classes
    }
