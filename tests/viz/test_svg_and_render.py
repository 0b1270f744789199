"""Unit tests for color, SVG generation, force layout and figure renderers."""

import math

import pytest

from repro.viz import (
    CATEGORY10,
    CATEGORY20,
    Color,
    ForceLayout,
    HierarchyNode,
    SvgDocument,
    arc_path,
    categorical_color,
    darken,
    edge_bundling_layout,
    force_layout,
    html_page,
    lighten,
    polyline_path,
    render_circlepack,
    render_edge_bundling,
    render_graph,
    render_sunburst,
    render_treemap,
)


def tree():
    root = HierarchyNode("data")
    for c in range(3):
        cluster = root.add_child(HierarchyNode(f"c{c}"))
        for k in range(3):
            cluster.add_child(HierarchyNode(f"c{c}k{k}", value=float(10 * (k + 1))))
    return root


class TestColor:
    def test_hex_round_trip(self):
        assert Color.from_hex("#1f77b4").to_hex() == "#1f77b4"
        assert Color.from_hex("abc").to_hex() == "#aabbcc"

    def test_bad_hex(self):
        with pytest.raises(ValueError):
            Color.from_hex("#12345")

    def test_channel_bounds(self):
        with pytest.raises(ValueError):
            Color(300, 0, 0)

    def test_lighten_darken(self):
        base = Color.from_hex("#808080")
        assert lighten(base).to_hsl()[2] > base.to_hsl()[2]
        assert darken(base).to_hsl()[2] < base.to_hsl()[2]

    def test_palettes_are_distinct(self):
        assert len(set(CATEGORY10)) == 10
        assert len(set(CATEGORY20)) == 20

    def test_categorical_cycles_with_variation(self):
        assert categorical_color(0) == CATEGORY10[0]
        assert categorical_color(10) != CATEGORY10[0]  # second cycle shifted


class TestSvg:
    def test_minimal_document(self):
        doc = SvgDocument(100, 50)
        text = doc.render()
        assert text.startswith("<?xml")
        assert 'width="100"' in text and 'viewBox="0 0 100 50"' in text

    def test_shapes_render(self):
        doc = SvgDocument(100, 100)
        doc.rect(1, 2, 3, 4, fill="#ff0000")
        doc.circle(10, 10, 5)
        doc.line(0, 0, 10, 10)
        doc.text(5, 5, "hello & <world>")
        text = doc.render()
        assert "<rect" in text and "<circle" in text and "<line" in text
        assert "hello &amp; &lt;world&gt;" in text  # escaping

    def test_attribute_underscore_becomes_dash(self):
        doc = SvgDocument(10, 10)
        doc.rect(0, 0, 5, 5, stroke_width=2)
        assert 'stroke-width="2"' in doc.render()

    def test_group_nesting(self):
        doc = SvgDocument(10, 10)
        group = doc.group(transform="translate(5,5)")
        doc.circle(0, 0, 1, parent=group)
        text = doc.render()
        assert text.index("<g") < text.index("<circle")

    def test_title_tooltip(self):
        doc = SvgDocument(10, 10)
        doc.circle(0, 0, 1, title="tooltip text")
        assert "<title>tooltip text</title>" in doc.render()

    def test_save(self, tmp_path):
        doc = SvgDocument(10, 10)
        path = tmp_path / "out.svg"
        doc.save(str(path))
        assert path.read_text().startswith("<?xml")

    def test_negative_sizes_clamped(self):
        doc = SvgDocument(10, 10)
        doc.rect(0, 0, -5, 5)
        assert 'width="0"' in doc.render()


class TestPaths:
    def test_arc_path_quarter(self):
        d = arc_path(0, 0, 0.0, math.pi / 2, 10, 20)
        assert d.startswith("M ")
        assert d.count("A ") == 2  # outer + inner arc
        assert d.endswith("Z")

    def test_arc_path_wedge_to_center(self):
        d = arc_path(0, 0, 0.0, 1.0, 0.0, 20)
        assert "L 0.000 0.000" in d

    def test_full_ring_is_two_arcs(self):
        d = arc_path(0, 0, 0.0, 2 * math.pi, 10, 20)
        assert d.count("A ") == 4

    def test_polyline(self):
        d = polyline_path([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert d == "M 0.000 0.000 L 1.000 1.000 L 2.000 0.000"

    def test_polyline_empty(self):
        assert polyline_path([], []) == ""

    def test_polyline_writes_what_the_f_string_writes(self):
        values = [-0.0, -4e-4, 4e-4, 0.0005, -0.0005, 2.0005, 1e15 + 0.5, -3.5e9,
                  float("nan"), float("inf"), float("-inf"), 7]
        d = polyline_path(values, values[::-1])
        expected = [f"{x:.3f} {y:.3f}" for x, y in zip(values, values[::-1])]
        assert d == "M " + " L ".join(expected)
        assert d.startswith("M -0.000 ")


class TestForceLayout:
    def test_deterministic(self):
        nodes = list("abcdef")
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
        first = force_layout(nodes, edges, iterations=50)
        second = force_layout(nodes, edges, iterations=50)
        assert first == second

    def test_positions_within_reasonable_bounds(self):
        nodes = [f"n{i}" for i in range(20)]
        edges = [(f"n{i}", f"n{(i + 1) % 20}") for i in range(20)]
        positions = force_layout(nodes, edges, width=800, height=600, iterations=150)
        for point in positions.values():
            assert -400 < point.x < 1200
            assert -300 < point.y < 900

    def test_connected_nodes_closer_than_average(self):
        nodes = [f"n{i}" for i in range(12)]
        edges = [("n0", "n1"), ("n1", "n2"), ("n0", "n2")]
        positions = force_layout(nodes, edges, iterations=200)
        linked = positions["n0"].distance_to(positions["n1"])
        distances = [
            positions[a].distance_to(positions[b])
            for a in nodes
            for b in nodes
            if a < b
        ]
        average = sum(distances) / len(distances)
        assert linked < average

    def test_missing_endpoint_raises(self):
        with pytest.raises(KeyError):
            ForceLayout(["a"], [("a", "ghost")])

    def test_empty_nodes_raises(self):
        with pytest.raises(ValueError):
            ForceLayout([], [])

    def test_alpha_decays(self):
        layout = ForceLayout(["a", "b"], [("a", "b")])
        layout.run(100)
        assert layout.alpha < 1.0


class TestRenderers:
    def test_treemap_svg_contains_all_leaves(self):
        doc = render_treemap(tree())
        text = doc.render()
        assert text.count("<rect") >= 9

    def test_sunburst_svg_has_paths(self):
        doc = render_sunburst(tree())
        assert doc.render().count("<path") >= 12

    def test_circlepack_svg_has_circles(self):
        doc = render_circlepack(tree())
        assert doc.render().count("<circle") >= 13  # 9 leaves + 3 clusters + root

    def test_edge_bundling_render(self):
        root = tree()
        diagram = edge_bundling_layout(
            root, [("c0k0", "c1k1"), ("c2k2", "c0k0")], focus="c0k0"
        )
        text = render_edge_bundling(diagram).render()
        assert text.count("<path") == 2
        assert "font-weight" in text

    def test_graph_render(self):
        doc = render_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], highlight="a")
        text = doc.render()
        assert text.count("<circle") == 3
        assert text.count("<line") == 2

    def test_tooltips_present(self):
        text = render_treemap(tree()).render()
        assert "<title>" in text


class TestHtmlExport:
    def test_page_embeds_figures(self):
        doc = SvgDocument(10, 10)
        page = html_page("Test Page", [("caption one", doc)], intro="Hello.")
        assert "<!DOCTYPE html>" in page
        assert "caption one" in page and "Hello." in page
        assert "<?xml" not in page  # prolog stripped for inline svg

    def test_save(self, tmp_path):
        from repro.viz import save_html_page

        doc = SvgDocument(10, 10)
        target = tmp_path / "page.html"
        save_html_page(str(target), "T", [("c", doc)])
        assert target.read_text().startswith("<!DOCTYPE html>")
