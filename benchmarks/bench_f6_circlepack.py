"""F6 (Figure 6): Circle Packing visualization of the Cluster Schema.

"the inner circles represent the classes, while the intermediate circles
represent the clusters, an external circle represents the entire dataset.
In some cases, a cluster can contain only one class."

Shape checks: three containment levels, no sibling overlap, class area
proportional to instance count, singleton clusters legal.
"""

from __future__ import annotations

import itertools

import pytest

from repro.viz import circlepack_layout


def test_f6_circlepack_shape(scholarly_app, record_table):
    app, url = scholarly_app
    root = app.cluster_hierarchy(url).sum_values()
    circlepack_layout(root, 300)

    lines = [
        "F6 (Figure 6): circle packing of the Scholarly LD Cluster Schema (r=300)",
        "",
        f"{'cluster':<30} {'classes':>8} {'radius':>8}",
    ]
    for cluster in sorted(root.children, key=lambda c: -c.circle.r):
        lines.append(
            f"{cluster.name:<30} {len(cluster.children):>8} {cluster.circle.r:>8.1f}"
        )
    singleton = [c for c in root.children if len(c.children) == 1]
    lines += ["", f"singleton clusters: {len(singleton)}"]
    record_table("f6_circlepack", "\n".join(lines))

    # dataset circle contains cluster circles contain class circles
    for cluster in root.children:
        assert root.circle.contains_circle(cluster.circle, epsilon=1e-3)
        for leaf in cluster.children:
            assert cluster.circle.contains_circle(leaf.circle, epsilon=1e-3)

    # siblings never overlap
    for node in root.each():
        for a, b in itertools.combinations(node.children, 2):
            assert not a.circle.overlaps(b.circle, epsilon=1e-3)

    # class circle area tracks instance count within each cluster
    for cluster in root.children:
        valued = [leaf for leaf in cluster.children if leaf.value]
        for a, b in itertools.combinations(valued, 2):
            assert (a.circle.r / b.circle.r) ** 2 == pytest.approx(
                a.value / b.value, rel=0.05
            )


def test_f6_singleton_cluster_renders():
    """'In some cases, a cluster can contain only one class.'"""
    from repro.viz import HierarchyNode

    root = HierarchyNode("data")
    lone = root.add_child(HierarchyNode("lonely-cluster"))
    lone.add_child(HierarchyNode("only-class", value=7.0))
    other = root.add_child(HierarchyNode("other"))
    for k in range(3):
        other.add_child(HierarchyNode(f"c{k}", value=3.0))
    root.sum_values()
    circlepack_layout(root, 100)
    assert lone.circle.contains_circle(lone.children[0].circle, epsilon=1e-6)
