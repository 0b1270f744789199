"""The layout memo's fence: one LRU serves the force views and Figures 4-7.

A figure is laid out once per content (``repro.viz.layout_memo``): a hit
must write the same floats as a cold call, share nothing a caller can
change, and miss whenever anything the layout reads differs.  A refused
argument must leave the memo as it found it.
"""

from __future__ import annotations

import math

import pytest

import repro.viz.edge_bundling as edge_bundling_module
import repro.viz.geometry as geometry_module
from repro.viz import (
    HierarchyNode,
    Rect,
    circlepack_layout,
    edge_bundling_layout,
    force_layout,
    render_edge_bundling,
    sunburst_layout,
    treemap_layout,
)
from repro.viz.layout_memo import LAYOUT_CACHE_SIZE, layout_cache_clear, layout_cache_info
from test_figure_bytes import BUNDLING, FIGURES, sha256


def cluster_tree(values=(10.0, 20.0, 30.0, 40.0, 5.0, 7.0), rename=None) -> HierarchyNode:
    root = HierarchyNode("dataset")
    for c in range(2):
        cluster = root.add_child(HierarchyNode(f"cluster{c}"))
        for k in range(3):
            name = f"class{c}_{k}"
            cluster.add_child(HierarchyNode(rename.get(name, name) if rename else name,
                                            value=values[3 * c + k]))
    return root.sum_values()


EDGES = [("class0_0", "class1_1"), ("class1_2", "class0_0"), ("class0_1", "class0_2")]


def hexed(shape):
    if shape is None:
        return None
    fields = {"Rect": ("x", "y", "width", "height"), "Arc": ("a0", "a1", "r0", "r1"),
              "Circle": ("cx", "cy", "r")}[type(shape).__name__]
    return tuple(getattr(shape, field).hex() for field in fields)


FIGURE_LAYOUTS = {
    "treemap": (lambda root: treemap_layout(root, 960.0, 600.0), "rect"),
    "sunburst": (lambda root: sunburst_layout(root, 300.0), "arc"),
    "circlepack": (lambda root: circlepack_layout(root, 300.0), "circle"),
}


def figure_geometry(figure, root):
    layout, attribute = FIGURE_LAYOUTS[figure]
    layout(root)
    return [hexed(getattr(node, attribute)) for node in root.each()]


def bundling_geometry(diagram):
    leaves = [(leaf.node.name, leaf.angle.hex(), leaf.point.x.hex(), leaf.point.y.hex(),
               leaf.label_anchor) for leaf in diagram.leaves]
    edges = [(edge.source, edge.target, [x.hex() for x in edge.xs], [y.hex() for y in edge.ys],
              dict(edge.data)) for edge in diagram.edges]
    return leaves, edges, dict(diagram.roles), diagram.focus, diagram.radius


def counts():
    info = layout_cache_info()
    return info.misses, info.hits


@pytest.fixture(autouse=True)
def cold_cache():
    layout_cache_clear()
    yield
    layout_cache_clear()


class TestHitEqualsCold:
    @pytest.mark.parametrize("figure", sorted(FIGURE_LAYOUTS))
    def test_a_hit_writes_the_cold_call_s_floats(self, figure):
        cold = figure_geometry(figure, cluster_tree())
        assert counts() == (1, 0)
        warm = figure_geometry(figure, cluster_tree())
        assert counts() == (1, 1)
        assert warm == cold and None not in cold

    def test_an_edge_bundling_hit_builds_the_cold_call_s_diagram(self):
        cold = edge_bundling_layout(cluster_tree(), EDGES, focus="class0_0")
        warm = edge_bundling_layout(cluster_tree(), EDGES, focus="class0_0")
        assert counts() == (1, 1)
        assert bundling_geometry(warm) == bundling_geometry(cold)
        assert warm is not cold and warm.edges[0] is not cold.edges[0]

    def test_the_layout_s_own_nodes_hold_the_diagram_leaves(self):
        root = cluster_tree()
        edge_bundling_layout(cluster_tree(), EDGES)
        diagram = edge_bundling_layout(root, EDGES)
        assert [leaf.node for leaf in diagram.leaves] == root.leaves()


class TestFigureDocuments:
    @pytest.fixture(scope="class")
    def dataset(self, indexed_app, tiny_world):
        return indexed_app, tiny_world.indexable_urls[0]

    def test_pinned_documents_on_a_cleared_and_a_warmed_cache(self, dataset):
        app, url = dataset
        focus = app.edge_bundling_diagram(url).edges[0].source
        for state in ("cleared", "warmed"):
            if state == "cleared":
                layout_cache_clear()
            for figure, digest in FIGURES.items():
                assert sha256(getattr(app, f"render_{figure}")(url)) == digest, (state, figure)
            for (beta, focused), digest in BUNDLING.items():
                diagram = app.edge_bundling_diagram(url, focus=focus if focused else None, beta=beta)
                assert sha256(render_edge_bundling(diagram)) == digest, (state, beta, focused)
        assert layout_cache_info().hits >= len(FIGURES) + len(BUNDLING)

    def test_the_layout_builds_no_point_per_sample_on_a_cleared_cache(self, dataset, monkeypatch):
        """Cold, the bundling builds one ``Point`` per leaf and none per
        interior node or sample; a hit builds none."""
        app, url = dataset
        built = []

        class CountingPoint(geometry_module.Point):
            __slots__ = ()

            def __init__(self, x, y):
                built.append(1)
                super().__init__(x, y)

        root = app.cluster_hierarchy(url)
        monkeypatch.setattr(geometry_module, "Point", CountingPoint)
        monkeypatch.setattr(edge_bundling_module, "Point", CountingPoint)
        layout_cache_clear()
        diagram = app.edge_bundling_diagram(url)
        assert counts() == (1, 0)
        samples = sum(len(edge.xs) for edge in diagram.edges)
        assert len(built) == len(root.leaves()) < samples
        del built[:]
        app.edge_bundling_diagram(url)
        assert counts() == (1, 1) and built == []


class TestAHitSharesNothingMutable:
    def test_mutating_a_diagram_changes_no_later_call(self):
        data = [{"property": f"p{i}", "count": i} for i in range(len(EDGES))]
        first = edge_bundling_layout(cluster_tree(), EDGES, edge_data=data)
        expected = bundling_geometry(first)
        first.edges[0].xs[0] = 12345.0
        first.edges[1].ys.append(1.0)
        first.edges[2].data["count"] = -1
        first.leaves[0].angle = 99.0
        first.leaves.pop()
        first.roles["class0_0"] = "focus"
        second = edge_bundling_layout(cluster_tree(), EDGES, edge_data=data)
        assert counts() == (1, 1)
        assert bundling_geometry(second) == expected
        assert data[2] == {"property": "p2", "count": 2}

    @pytest.mark.parametrize("figure", sorted(FIGURE_LAYOUTS))
    def test_overwriting_a_node_s_shape_changes_no_later_call(self, figure):
        _, attribute = FIGURE_LAYOUTS[figure]
        root = cluster_tree()
        expected = figure_geometry(figure, root)
        for node in root.each():
            setattr(node, attribute, Rect(1.0, 2.0, 3.0, 4.0))
        assert figure_geometry(figure, cluster_tree()) == expected
        assert counts() == (1, 1)

    def test_the_kept_shapes_are_immutable(self):
        root = cluster_tree()
        treemap_layout(root, 100.0, 100.0)
        with pytest.raises(AttributeError):
            root.rect.width = 0.0


class TestTheKeyIsContent:
    @pytest.mark.parametrize("figure", sorted(FIGURE_LAYOUTS))
    def test_one_changed_leaf_value_misses(self, figure):
        base = figure_geometry(figure, cluster_tree())
        changed = figure_geometry(figure, cluster_tree(values=(10.0, 20.0, 31.0, 40.0, 5.0, 7.0)))
        assert counts() == (2, 0)
        assert changed != base

    def test_a_renamed_leaf_misses_the_bundling(self):
        edge_bundling_layout(cluster_tree(), EDGES)
        renamed = edge_bundling_layout(cluster_tree(rename={"class1_2": "klass"}),
                                       [("class0_0", "class1_1"), ("klass", "class0_0")])
        assert counts() == (2, 0)
        assert renamed.leaves[5].node.name == "klass"

    def test_a_rebuilt_tree_with_equal_content_hits_every_layout(self):
        for _ in range(2):
            for figure in FIGURE_LAYOUTS:
                figure_geometry(figure, cluster_tree())
            edge_bundling_layout(cluster_tree(), EDGES)
        assert counts() == (4, 4)

    @pytest.mark.parametrize(
        "figure, change",
        [
            ("treemap", dict(width=961.0)),
            ("treemap", dict(height=601.0)),
            ("treemap", dict(padding=3.0)),
            ("treemap", dict(inner_padding=0.0)),
            ("sunburst", dict(radius=301.0)),
            ("sunburst", dict(start_angle=0.5)),
            ("sunburst", dict(end_angle=6.0)),
            ("sunburst", dict(ring_padding=1.0)),
            ("circlepack", dict(radius=301.0)),
            ("circlepack", dict(padding=0.0)),
            ("bundling", dict(radius=301.0)),
            ("bundling", dict(beta=0.5)),
            ("bundling", dict(samples_per_segment=4)),
            ("bundling", dict(edges=EDGES[:2])),
            ("bundling", dict(edges=EDGES[::-1])),
        ],
        ids=lambda value: value if isinstance(value, str) else ",".join(map(str, value)),
    )
    def test_any_other_argument_misses(self, figure, change):
        base = {
            "treemap": dict(width=960.0, height=600.0),
            "sunburst": dict(radius=300.0),
            "circlepack": dict(radius=300.0),
            "bundling": dict(edges=EDGES),
        }[figure]
        layout = {"treemap": treemap_layout, "sunburst": sunburst_layout,
                  "circlepack": circlepack_layout, "bundling": edge_bundling_layout}[figure]
        layout(cluster_tree(), **base)
        layout(cluster_tree(), **{**base, **change})
        assert counts() == (2, 0)

    def test_focus_and_edge_data_hit_and_apply_as_a_cold_call_would(self):
        data = [{"property": f"p{i}"} for i in range(len(EDGES))]
        edge_bundling_layout(cluster_tree(), EDGES)
        for focus in ("class0_0", "class1_1", None):
            warm = edge_bundling_layout(cluster_tree(), EDGES, focus=focus, edge_data=data)
            layout_cache_clear()
            cold = edge_bundling_layout(cluster_tree(), EDGES, focus=focus, edge_data=data)
            assert counts() == (1, 0)
            assert bundling_geometry(warm) == bundling_geometry(cold)
        assert cold.edges[1].data == {"property": "p1"}
        focused = edge_bundling_layout(cluster_tree(), EDGES, focus="class0_0")
        assert focused.roles == {"class0_0": "focus", "class1_1": "range", "class1_2": "domain"}
        assert counts() == (1, 1)

    def test_an_unknown_focus_is_refused_on_a_hit(self):
        edge_bundling_layout(cluster_tree(), EDGES)
        with pytest.raises(KeyError):
            edge_bundling_layout(cluster_tree(), EDGES, focus="nope")

    def test_one_lru_holds_force_views_and_figures(self):
        assert layout_cache_info().maxsize == LAYOUT_CACHE_SIZE
        force_layout(["a", "b"], [("a", "b")], iterations=5)
        for figure in FIGURE_LAYOUTS:
            figure_geometry(figure, cluster_tree())
        edge_bundling_layout(cluster_tree(), EDGES)
        assert layout_cache_info().currsize == 5
        layout_cache_clear()
        assert layout_cache_info().currsize == 0


HOSTILE = [math.nan, math.inf, -math.inf, 0, -1, True, "4", None]

#: (layout, the argument under test, the call's other arguments)
ARGUMENTS = [
    (treemap_layout, "width", dict(width=100.0, height=100.0)),
    (treemap_layout, "height", dict(width=100.0, height=100.0)),
    (sunburst_layout, "radius", dict(radius=100.0)),
    (circlepack_layout, "radius", dict(radius=100.0)),
    (edge_bundling_layout, "radius", dict(edges=EDGES)),
    (edge_bundling_layout, "samples_per_segment", dict(edges=EDGES)),
    (force_layout, "width", dict(nodes=["a", "b"], edges=[("a", "b")])),
    (force_layout, "height", dict(nodes=["a", "b"], edges=[("a", "b")])),
    (force_layout, "iterations", dict(nodes=["a", "b"], edges=[("a", "b")])),
]


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
@pytest.mark.parametrize(
    "layout, name, arguments", ARGUMENTS,
    ids=[f"{layout.__name__}.{name}" for layout, name, _ in ARGUMENTS],
)
def test_a_hostile_argument_is_refused_before_any_work(layout, name, arguments, value):
    root = cluster_tree()
    before = layout_cache_info()
    with pytest.raises(ValueError, match=name):
        if layout is force_layout:
            layout(**{**arguments, name: value})
        else:
            layout(root, **{**arguments, name: value})
    assert layout_cache_info() == before
    assert all(node.rect is None and node.arc is None and node.circle is None
               for node in root.each())


def test_a_count_is_an_int_and_an_extent_may_be_one():
    with pytest.raises(ValueError, match="iterations"):
        force_layout(["a"], [], iterations=2.0)
    with pytest.raises(ValueError, match="samples_per_segment"):
        edge_bundling_layout(cluster_tree(), EDGES, samples_per_segment=2.0)
    assert layout_cache_info().currsize == 0
    treemap_layout(cluster_tree(), 100, 80)
    edge_bundling_layout(cluster_tree(), EDGES, radius=200, samples_per_segment=1)
    assert list(force_layout(["a"], [], width=10, height=10, iterations=1)) == ["a"]
    assert layout_cache_info().currsize == 3
