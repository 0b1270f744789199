"""E5 (§2.1 design choice, companion to Po & Malvezzi 2018): which
community detection algorithm should build the Cluster Schema?

Runs Louvain, label propagation, greedy modularity agglomeration and (on
small graphs) Girvan-Newman over Schema Summaries from every generator
family and over synthetic schema graphs of growing size.

Shape to reproduce (the published comparison): Louvain matches or beats
the alternatives on modularity at a fraction of Girvan-Newman's cost,
which is why H-BOLD ships with it.

Runtimes are wall clock, so they are printed (``pytest -s``) and
asserted but never written to the tracked tables, which carry only
counts and modularity.
"""

from __future__ import annotations

import time

import pytest

from repro.community import (
    UndirectedGraph,
    girvan_newman,
    greedy_modularity,
    label_propagation,
    louvain,
    modularity,
)
from repro.core import HBold, summary_to_undirected
from repro.datagen import big_lod_graph, government_graph, scholarly_graph, trafair_graph
from repro.endpoint import AlwaysAvailable, EndpointNetwork, SimulationClock, SparqlEndpoint

ALGORITHMS = {
    "louvain": lambda g: louvain(g, seed=0),
    "label-prop": lambda g: label_propagation(g, seed=0),
    "greedy-cnm": greedy_modularity,
}


def _summary_graph(name: str, graph) -> UndirectedGraph:
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    url = f"http://{name}.example.org/sparql"
    network.register(
        SparqlEndpoint(url, graph, clock, availability=AlwaysAvailable())
    )
    app = HBold(network)
    app.bootstrap_registry([url])
    assert app.index_endpoint(url)
    return summary_to_undirected(app.summary(url))


@pytest.fixture(scope="module")
def schema_graphs():
    return {
        "scholarly": _summary_graph("scholarly", scholarly_graph(scale=0.1, seed=1)),
        "government": _summary_graph("government", government_graph(scale=0.2, seed=1)),
        "trafair": _summary_graph("trafair", trafair_graph(scale=0.1, seed=1)),
        "biglod-60": _summary_graph(
            "biglod60",
            big_lod_graph(class_count=60, group_count=6, instances_per_class=8, seed=1),
        ),
        "biglod-150": _summary_graph(
            "biglod150",
            big_lod_graph(class_count=150, group_count=10, instances_per_class=4, seed=1),
        ),
    }


def test_e5_algorithm_comparison(schema_graphs, record_table):
    lines = [
        "E5: community detection ablation on Schema Summary graphs",
        "",
        f"{'dataset':<12} {'classes':>8} {'algorithm':<12} {'clusters':>9} "
        f"{'modularity':>11}",
    ]
    winners = {}
    for name, graph in schema_graphs.items():
        scores = {}
        for algo_name, algo in ALGORITHMS.items():
            start = time.perf_counter()
            partition = algo(graph)
            elapsed = time.perf_counter() - start
            q = modularity(graph, partition)
            scores[algo_name] = q
            lines.append(
                f"{name:<12} {len(graph):>8} {algo_name:<12} "
                f"{partition.community_count():>9} {q:>11.4f}"
            )
            print(f"{name} {algo_name}: {elapsed * 1000:.1f}ms")
            assert partition.covers(graph.nodes())
        winners[name] = max(scores, key=scores.get)
        lines.append("")
    lines.append(f"best algorithm per dataset: {winners}")
    record_table("e5_community_ablation", "\n".join(lines))

    # Louvain wins or ties (within 5%) everywhere -- the paper's choice.
    for name, graph in schema_graphs.items():
        louvain_q = modularity(graph, ALGORITHMS["louvain"](graph))
        for algo_name, algo in ALGORITHMS.items():
            other_q = modularity(graph, algo(graph))
            assert louvain_q >= other_q - 0.05, (name, algo_name)


def test_e5_girvan_newman_quality_reference(schema_graphs, record_table):
    """GN is the expensive quality reference; Louvain must get close on the
    small schema graphs where GN is feasible."""
    graph = schema_graphs["trafair"]
    start = time.perf_counter()
    gn = girvan_newman(graph)
    gn_time = time.perf_counter() - start
    start = time.perf_counter()
    lv = louvain(graph, seed=0)
    lv_time = time.perf_counter() - start
    gn_q = modularity(graph, gn)
    lv_q = modularity(graph, lv)

    record_table(
        "e5_girvan_newman",
        "\n".join(
            [
                "E5 quality reference: Girvan-Newman vs Louvain (trafair schema)",
                f"girvan-newman: Q={gn_q:.4f}",
                f"louvain:       Q={lv_q:.4f}",
            ]
        ),
    )
    print(f"girvan-newman {gn_time * 1000:.1f}ms, louvain {lv_time * 1000:.1f}ms")
    assert lv_q >= gn_q - 0.1
    assert lv_time < max(gn_time, 1e-4)


def test_e5_scaling_with_class_count(record_table):
    """Louvain runtime stays practical as Schema Summaries grow -- the
    reason on-the-fly clustering was tolerable at all, and server-side
    precomputation still better."""
    lines = ["E5 scaling: Louvain clusters vs schema size", "",
             f"{'classes':>8} {'edges':>7} {'clusters':>9}"]
    previous = 0.0
    for classes in (30, 90, 200):
        graph = _summary_graph(
            f"scale{classes}",
            big_lod_graph(class_count=classes, group_count=max(3, classes // 20),
                          instances_per_class=3, seed=2),
        )
        start = time.perf_counter()
        partition = louvain(graph, seed=0)
        elapsed = time.perf_counter() - start
        lines.append(
            f"{len(graph):>8} {graph.edge_count():>7} {partition.community_count():>9}"
        )
        print(f"{len(graph)} classes: {elapsed * 1000:.1f}ms")
        previous = elapsed
    record_table("e5_scaling", "\n".join(lines))
    assert previous < 5.0  # even 200 classes cluster in well under 5s
