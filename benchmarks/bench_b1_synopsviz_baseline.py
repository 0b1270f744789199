"""B1 (§4 related work): H-BOLD vs the rdf:SynopsViz approach.

The paper positions H-BOLD against rdf:SynopsViz: "the hierarchical
charting available are mainly focused on numeric or datetime properties".
This harness quantifies that contrast on the same simulated endpoints:

* **coverage**: the fraction of a dataset SynopsViz-style value charting
  can reach (classes with at least one numeric property) vs H-BOLD's
  schema summary (every instantiated class);
* **cost**: building one HETree (fetch all values of one property) vs one
  Schema Summary (index extraction) in simulated time.
"""

from __future__ import annotations

import pytest

from repro.baselines import build_hetree_r, fetch_property_values
from repro.core import IndexExtractor
from repro.datagen import government_graph, scholarly_graph, trafair_graph
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)

DATASETS = {
    "trafair": lambda: trafair_graph(scale=0.1, seed=4),
    "government": lambda: government_graph(scale=0.15, seed=4),
    "scholarly": lambda: scholarly_graph(scale=0.08, seed=4),
}

_NUMERIC_HINTS = ("value", "count", "number", "quantity", "measure", "score")


def _endpoint_for(name):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    url = f"http://{name}/sparql"
    network.register(
        SparqlEndpoint(url, DATASETS[name](), clock, availability=AlwaysAvailable())
    )
    return network, url


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for name in DATASETS:
        network, url = _endpoint_for(name)
        client = SparqlClient(network)
        extractor = IndexExtractor(client)

        start = network.clock.now_ms
        indexes = extractor.extract(url)
        hbold_ms = network.clock.now_ms - start

        numeric_classes = []
        first_numeric = None
        for cls in indexes.classes:
            numeric_props = [
                p for p in cls.datatype_properties
                if any(h in p.lower() for h in _NUMERIC_HINTS)
            ]
            if numeric_props:
                numeric_classes.append(cls)
                if first_numeric is None:
                    first_numeric = (cls.iri, numeric_props[0])

        hetree_ms = None
        hetree_count = 0
        if first_numeric:
            start = network.clock.now_ms
            values = fetch_property_values(client, url, *first_numeric)
            tree = build_hetree_r(values, leaf_count=9, degree=3)
            hetree_ms = network.clock.now_ms - start
            hetree_count = tree.count

        rows.append(
            {
                "dataset": name,
                "classes": indexes.class_count,
                "numeric_classes": len(numeric_classes),
                "hbold_ms": hbold_ms,
                "hetree_ms": hetree_ms,
                "hetree_values": hetree_count,
            }
        )
    return rows


def test_b1_coverage_contrast(comparison, record_table):
    lines = [
        "B1 (§4): schema-centric H-BOLD vs value-centric SynopsViz charting",
        "",
        f"{'dataset':<12} {'classes':>8} {'chartable*':>11} {'summary cost':>13} "
        f"{'one HETree':>11}",
    ]
    for row in comparison:
        hetree = f"{row['hetree_ms'] / 1000:.1f}s" if row["hetree_ms"] else "n/a"
        lines.append(
            f"{row['dataset']:<12} {row['classes']:>8} {row['numeric_classes']:>11} "
            f"{row['hbold_ms'] / 1000:>11.1f}s {hetree:>11}"
        )
    lines += [
        "",
        "* classes with at least one numeric property -- the only ones a",
        "  SynopsViz-style value hierarchy can chart (§4: 'mainly focused on",
        "  numeric or datetime properties'); H-BOLD summarizes every class.",
    ]
    record_table("b1_synopsviz_baseline", "\n".join(lines))

    for row in comparison:
        # H-BOLD covers every instantiated class; value charting only a subset
        assert row["numeric_classes"] < row["classes"]
        assert row["numeric_classes"] >= 1  # the baseline is still useful


def test_b1_hetree_on_live_values():
    network, url = _endpoint_for("trafair")
    client = SparqlClient(network)
    ns = "http://trafair.example.org/"

    values = fetch_property_values(
        client, url, ns + "Observation", ns + "observedValue"
    )
    tree = build_hetree_r(values, leaf_count=27, degree=3)
    assert tree.depth() == 3
    assert tree.count > 0
