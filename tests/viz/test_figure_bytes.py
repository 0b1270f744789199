"""The figures' exact bytes and the edge bundling's object count.

The SVG documents of Figures 4-7, of the Cluster Schema view and of the
exploration view for the first dataset of the shared ``indexed_app``
fixture are pinned by SHA-256, so a change to rounding, sampling,
straightening or the SVG writer cannot pass unnoticed.  The count pins how the
bundling layout works: coordinates stay floats from control point to path
string, and the only ``Point`` s built are the leaves' positions.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.viz.edge_bundling as edge_bundling_module
import repro.viz.geometry as geometry_module
from repro.viz import render_edge_bundling

FIGURES = {
    "treemap": "c3cb17ae8ab864989e7b26277977cc524a0eb9d56770124d015e2288cea1a46b",
    "sunburst": "cefe42e798f4eda98962389912479849d532d9aad9d05c6556b205d1fa992ef6",
    "circlepack": "a7ad50b93ef569077568284fcde980a022c3c53bf46731a1ab9a037294e96005",
}

#: (beta, focus on the first edge's source class) -> SHA-256 of the document
BUNDLING = {
    (0.0, False): "5b2cbdb465009e1d091cca16e040f6f5d8b3aeba6051d0676ab6bc207c33fbf0",
    (0.0, True): "5bf3c0ccf272998b2afd91966910ce26d0ee7491a784bb88273b83fde07e3952",
    (0.85, False): "efab85c2d376af4c5afaa9ffe5f1aad06f4365a6a8fad3f6bcc69cfaf2c99d40",
    (0.85, True): "1ad7e3f1a46c9c07f54a33fbf476b82e439f8d018e59930a4273ee9506c9f098",
    (1.0, False): "e7909816a1ac2181c41cf64d53aae97bbada115295596e3899f155d932831598",
    (1.0, True): "1abc30bdfae13754eff894bb074f8ee73602a9ede8ba31bbd9f1ec5690a3e654",
}


#: the exploration view after selecting the first class, then after expand_all
EXPLORATION = {
    "selected": "4e0af7d15c3abb23d75c45c99726b10ae7f6434f41b752cde033d4d544cb5936",
    "expanded": "8454bd1f1480eebc346b8eb226328e6ecdd344c0dadbd37bc5450dece2f9d854",
}
CLUSTER_SCHEMA = "a35566e56c06d2887256537380a76fdf1b3ba5f51e158e050ae4484c6d600c1a"


def sha256(document) -> str:
    return hashlib.sha256(document.render().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def dataset(indexed_app, tiny_world):
    return indexed_app, tiny_world.indexable_urls[0]


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_hierarchy_figure_bytes(dataset, figure):
    app, url = dataset
    assert sha256(getattr(app, f"render_{figure}")(url)) == FIGURES[figure]


@pytest.mark.parametrize(
    "beta, focused", sorted(BUNDLING), ids=lambda value: str(value).lower()
)
def test_edge_bundling_bytes(dataset, beta, focused):
    app, url = dataset
    focus = app.edge_bundling_diagram(url).edges[0].source if focused else None
    diagram = app.edge_bundling_diagram(url, focus=focus, beta=beta)
    assert sha256(render_edge_bundling(diagram)) == BUNDLING[(beta, focused)]
    if beta == 0.85:  # the facade's default, as the CLI and the sessions draw it
        assert sha256(app.render_edge_bundling(url, focus=focus)) == BUNDLING[(beta, focused)]


def test_cluster_schema_bytes(dataset):
    app, url = dataset
    assert sha256(app.render_cluster_schema(url)) == CLUSTER_SCHEMA


def test_exploration_bytes(dataset):
    app, url = dataset
    session = app.explore(url)
    session.start_from_cluster_schema()
    session.select_class(session.summary.class_iris()[0])
    assert sha256(app.render_exploration(session)) == EXPLORATION["selected"]
    session.expand_all()
    assert sha256(app.render_exploration(session)) == EXPLORATION["expanded"]


def test_the_layout_builds_no_point_per_sample(dataset, monkeypatch):
    """A ``Point`` per leaf at most, one per interior node at most, and none
    per sample.  Here that bound is 12 leaves + 5 interior nodes = 17, and
    the layout builds the 12 leaves' ``Point`` s only.  One ``Point`` per
    interior node and per sample, the form the columns replaced, built
    12 + 5 + 411 = 428."""
    app, url = dataset
    built = []

    class CountingPoint(geometry_module.Point):
        __slots__ = ()

        def __init__(self, x, y):
            built.append(1)
            super().__init__(x, y)

    monkeypatch.setattr(geometry_module, "Point", CountingPoint)
    monkeypatch.setattr(edge_bundling_module, "Point", CountingPoint)
    diagram = app.edge_bundling_diagram(url)
    count = len(built)
    nodes = sum(1 for _ in app.cluster_hierarchy(url).each())
    samples = sum(len(edge.path) for edge in diagram.edges)
    assert samples > nodes  # the bound is below one Point per sample
    assert count <= nodes, (count, nodes, samples)
