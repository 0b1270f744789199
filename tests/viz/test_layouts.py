"""Unit tests for the four figure layouts: treemap, sunburst, circle pack,
edge bundling -- checking the geometric invariants the paper's figures rely
on."""

import itertools
import math
import random

import pytest

from repro.viz import (
    HierarchyNode,
    Point,
    bspline_points,
    circlepack_layout,
    edge_bundling_layout,
    sunburst_layout,
    treemap_layout,
)
from repro.viz.edge_bundling import _apply_beta
from repro.viz.geometry import bspline_basis, bspline_xy


def cluster_tree(clusters=3, classes_per=4, base_value=10.0) -> HierarchyNode:
    root = HierarchyNode("dataset")
    for c in range(clusters):
        cluster = root.add_child(HierarchyNode(f"cluster{c}"))
        for k in range(classes_per):
            cluster.add_child(
                HierarchyNode(f"class{c}_{k}", value=base_value * (k + 1))
            )
    return root


class TestHierarchy:
    def test_sum_values_aggregates(self):
        root = cluster_tree(2, 3).sum_values()
        assert root.value == sum(child.value for child in root.children)
        assert root.children[0].value == 10 + 20 + 30

    def test_sum_values_default_for_unvalued_leaves(self):
        root = HierarchyNode("r")
        root.add_child(HierarchyNode("a"))
        root.add_child(HierarchyNode("b"))
        root.sum_values()
        assert root.value == 2.0  # each unvalued leaf defaults to 1

    def test_leaves_and_depth(self):
        root = cluster_tree(2, 3)
        assert len(root.leaves()) == 6
        assert root.height() == 2
        assert all(leaf.depth == 2 for leaf in root.leaves())

    def test_path_to_through_lca(self):
        root = cluster_tree(2, 2)
        a = root.find("class0_0")
        b = root.find("class1_1")
        path = a.path_to(b)
        assert path[0] is a and path[-1] is b
        assert root in path  # LCA of different clusters is the root

    def test_path_to_sibling_goes_through_cluster(self):
        root = cluster_tree(2, 2)
        a = root.find("class0_0")
        b = root.find("class0_1")
        path = a.path_to(b)
        assert [n.name for n in path] == ["class0_0", "cluster0", "class0_1"]

    def test_from_dict(self):
        from repro.viz import hierarchy_from_dict

        root = hierarchy_from_dict(
            {"name": "r", "children": [{"name": "x", "value": 3, "extra": 1}]}
        )
        assert root.children[0].value == 3
        assert root.children[0].data["extra"] == 1


class TestTreemap:
    def test_all_nodes_get_rects(self):
        root = cluster_tree().sum_values()
        treemap_layout(root, 800, 600)
        assert all(node.rect is not None for node in root.each())

    def test_children_inside_parent(self):
        root = cluster_tree().sum_values()
        treemap_layout(root, 800, 600, padding=2, inner_padding=1)
        for node in root.each():
            if node.parent is not None:
                assert node.parent.rect.contains_rect(node.rect), node.name

    def test_siblings_do_not_overlap(self):
        root = cluster_tree(4, 5).sum_values()
        treemap_layout(root, 800, 600)
        for node in root.each():
            for a, b in itertools.combinations(node.children, 2):
                assert not a.rect.intersects(b.rect), (a.name, b.name)

    def test_area_proportionality(self):
        """Figure 4's defining property: area proportional to quantity."""
        root = cluster_tree(1, 3).sum_values()
        treemap_layout(root, 600, 600, padding=0, inner_padding=0)
        cluster = root.children[0]
        areas = [leaf.rect.area for leaf in cluster.children]
        values = [leaf.value for leaf in cluster.children]
        for (a1, v1), (a2, v2) in itertools.combinations(zip(areas, values), 2):
            assert a1 / a2 == pytest.approx(v1 / v2, rel=0.01)

    def test_total_leaf_area_fills_rect_without_padding(self):
        root = cluster_tree(2, 2).sum_values()
        treemap_layout(root, 400, 300, padding=0, inner_padding=0)
        leaf_area = sum(leaf.rect.area for leaf in root.leaves())
        assert leaf_area == pytest.approx(400 * 300, rel=0.01)

    def test_aspect_ratios_reasonable(self):
        root = cluster_tree(1, 8).sum_values()
        treemap_layout(root, 600, 400, padding=0, inner_padding=0)
        for leaf in root.leaves():
            if leaf.rect.area > 1:
                ratio = max(
                    leaf.rect.width / leaf.rect.height,
                    leaf.rect.height / leaf.rect.width,
                )
                assert ratio < 8.0, leaf.name

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            treemap_layout(cluster_tree().sum_values(), 0, 100)

    def test_requires_sum_values(self):
        with pytest.raises(ValueError):
            treemap_layout(cluster_tree(), 100, 100)


class TestSunburst:
    def test_root_spans_full_circle(self):
        root = cluster_tree().sum_values()
        sunburst_layout(root, 300)
        assert root.arc.span == pytest.approx(2 * math.pi)

    def test_children_partition_parent_angle(self):
        root = cluster_tree().sum_values()
        sunburst_layout(root, 300)
        for node in root.each():
            if node.children and node.value:
                child_span = sum(child.arc.span for child in node.children)
                assert child_span == pytest.approx(node.arc.span, rel=1e-9)

    def test_angular_proportionality(self):
        root = cluster_tree(1, 4).sum_values()
        sunburst_layout(root, 300)
        cluster = root.children[0]
        for a, b in itertools.combinations(cluster.children, 2):
            assert a.arc.span / b.arc.span == pytest.approx(a.value / b.value, rel=1e-9)

    def test_rings_by_depth(self):
        """Figure 5: clusters on the inner ring, classes on the outer."""
        root = cluster_tree().sum_values()
        sunburst_layout(root, 300)
        cluster_r0 = {c.arc.r0 for c in root.children}
        class_r0 = {leaf.arc.r0 for leaf in root.leaves()}
        assert len(cluster_r0) == 1 and len(class_r0) == 1
        assert cluster_r0.pop() < class_r0.pop()

    def test_children_contiguous_non_overlapping(self):
        root = cluster_tree().sum_values()
        sunburst_layout(root, 300)
        for node in root.each():
            arcs = sorted((c.arc for c in node.children), key=lambda a: a.a0)
            for left, right in zip(arcs, arcs[1:]):
                assert right.a0 == pytest.approx(left.a1, abs=1e-9)

    def test_outer_radius_bounded(self):
        root = cluster_tree().sum_values()
        sunburst_layout(root, 300)
        assert max(node.arc.r1 for node in root.each()) <= 300 + 1e-9


class TestCirclePack:
    def test_all_nodes_get_circles(self):
        root = cluster_tree().sum_values()
        circlepack_layout(root, 300)
        assert all(node.circle is not None for node in root.each())

    def test_children_inside_parent(self):
        """Figure 6: containment represents the hierarchy level."""
        root = cluster_tree(3, 5).sum_values()
        circlepack_layout(root, 300)
        for node in root.each():
            if node.parent is not None:
                assert node.parent.circle.contains_circle(node.circle, epsilon=1e-3), node.name

    def test_siblings_do_not_overlap(self):
        root = cluster_tree(4, 6).sum_values()
        circlepack_layout(root, 300)
        for node in root.each():
            for a, b in itertools.combinations(node.children, 2):
                assert not a.circle.overlaps(b.circle, epsilon=1e-3), (a.name, b.name)

    def test_leaf_area_proportional_to_value(self):
        root = cluster_tree(1, 4).sum_values()
        circlepack_layout(root, 300, padding=0)
        leaves = root.leaves()
        for a, b in itertools.combinations(leaves, 2):
            assert (a.circle.r ** 2) / (b.circle.r ** 2) == pytest.approx(
                a.value / b.value, rel=0.01
            )

    def test_root_radius_matches_request(self):
        root = cluster_tree().sum_values()
        circlepack_layout(root, 250)
        assert root.circle.r == pytest.approx(250)

    def test_singleton_cluster_allowed(self):
        """The paper notes a cluster can contain only one class."""
        root = HierarchyNode("r")
        cluster = root.add_child(HierarchyNode("c"))
        cluster.add_child(HierarchyNode("only", value=5.0))
        root.sum_values()
        circlepack_layout(root, 100)
        assert cluster.circle.contains_circle(cluster.children[0].circle, epsilon=1e-6)


class TestEdgeBundling:
    def build(self):
        root = cluster_tree(3, 3)
        edges = [
            ("class0_0", "class1_1"),
            ("class0_0", "class2_2"),
            ("class1_0", "class0_0"),
            ("class2_0", "class2_1"),
        ]
        return root, edges

    def test_leaves_on_circle(self):
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges, radius=200)
        for leaf in diagram.leaves:
            assert math.hypot(leaf.point.x, leaf.point.y) == pytest.approx(200)

    def test_edges_start_and_end_at_leaf_positions(self):
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges, radius=200, beta=0.8)
        for edge in diagram.edges:
            source = diagram.leaf(edge.source).point
            target = diagram.leaf(edge.target).point
            assert edge.path[0].distance_to(source) < 1e-6
            assert edge.path[-1].distance_to(target) < 1e-6

    def test_beta_zero_is_straight_line(self):
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges, radius=200, beta=0.0)
        for edge in diagram.edges:
            assert edge.length() == pytest.approx(edge.straight_length(), rel=1e-6)

    def test_beta_one_is_longer_than_straight(self):
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges, radius=200, beta=1.0)
        cross_cluster = [e for e in diagram.edges if e.source[5] != e.target[5]]
        assert any(e.length() > e.straight_length() * 1.01 for e in cross_cluster)

    @pytest.mark.parametrize("beta", [0.0, 0.85, 1.0])
    def test_float_sampling_equals_the_point_per_sample_formulation(self, beta):
        """The sampler works on coordinate lists; what it must reproduce,
        float for float, is the textbook form: one basis evaluation and one
        ``Point`` per sample, then Holten's straightening point by point."""

        def spline(p0, p1, p2, p3, t):
            t2 = t * t
            t3 = t2 * t
            b0 = (1 - 3 * t + 3 * t2 - t3) / 6.0
            b1 = (4 - 6 * t2 + 3 * t3) / 6.0
            b2 = (1 + 3 * t + 3 * t2 - 3 * t3) / 6.0
            b3 = t3 / 6.0
            return Point(
                b0 * p0.x + b1 * p1.x + b2 * p2.x + b3 * p3.x,
                b0 * p0.y + b1 * p1.y + b2 * p2.y + b3 * p3.y,
            )

        def reference(control, samples):
            curve = list(control)
            if len(control) > 2:
                padded = [control[0]] * 2 + control + [control[-1]] * 2
                curve = [
                    spline(*padded[i : i + 4], step / samples)
                    for i in range(len(padded) - 3)
                    for step in range(samples)
                ] + [control[-1]]
            assert curve == bspline_points(control, samples)
            if len(curve) < 2 or beta >= 1.0:
                return curve
            start, end, n = curve[0], curve[-1], len(curve) - 1
            out = []
            for index, point in enumerate(curve):
                t = index / n
                straight = Point(
                    start.x + (end.x - start.x) * t, start.y + (end.y - start.y) * t
                )
                out.append(
                    Point(
                        beta * point.x + (1.0 - beta) * straight.x,
                        beta * point.y + (1.0 - beta) * straight.y,
                    )
                )
            return out

        rng = random.Random(7)
        for length, samples in itertools.product(range(7), (1, 5, 8)):
            control = [Point(rng.uniform(-300, 300), rng.uniform(-300, 300)) for _ in range(length)]
            sampled = _apply_beta(*bspline_xy(control, bspline_basis(samples)), beta)
            assert [(p.x.hex(), p.y.hex()) for p in sampled] == [
                (p.x.hex(), p.y.hex()) for p in reference(control, samples)
            ], (length, samples)

    def test_focus_roles_domain_and_range(self):
        """Figure 7's highlighting: incoming -> domain, outgoing -> range."""
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges, focus="class0_0")
        assert diagram.roles["class0_0"] == "focus"
        assert diagram.roles["class1_1"] == "range"   # class0_0 -> class1_1
        assert diagram.roles["class2_2"] == "range"
        assert diagram.roles["class1_0"] == "domain"  # class1_0 -> class0_0

    def test_both_role(self):
        root = cluster_tree(2, 2)
        edges = [("class0_0", "class1_0"), ("class1_0", "class0_0")]
        diagram = edge_bundling_layout(root, edges, focus="class0_0")
        assert diagram.roles["class1_0"] == "both"

    def test_unknown_edge_endpoint_raises(self):
        root, _ = self.build()
        with pytest.raises(KeyError):
            edge_bundling_layout(root, [("nope", "class0_0")])

    def test_bad_beta_rejected(self):
        root, edges = self.build()
        with pytest.raises(ValueError):
            edge_bundling_layout(root, edges, beta=1.5)

    def test_cluster_siblings_adjacent_on_circle(self):
        root, edges = self.build()
        diagram = edge_bundling_layout(root, edges)
        names = [leaf.node.name for leaf in diagram.leaves]
        # pre-order traversal keeps each cluster's classes contiguous
        for c in range(3):
            positions = [i for i, n in enumerate(names) if n.startswith(f"class{c}_")]
            assert positions == list(range(min(positions), max(positions) + 1))
