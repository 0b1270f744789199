"""F4 (Figure 4): Treemap visualization of the Cluster Schema.

"Each cluster is assigned to a rectangle area ... their classes rectangles
nested inside of it.  When a quantity is assigned to a class, its
rectangle area size is displayed in proportion to that quantity ...  Also,
the area size of the cluster is the total of its classes."

Shape checks: nesting, area proportional to instance counts within each
cluster, and the instance-dominant classes visibly largest.
"""

from __future__ import annotations

import itertools

import pytest

from repro.viz import treemap_layout


def test_f4_treemap_shape(scholarly_app, record_table):
    app, url = scholarly_app
    root = app.cluster_hierarchy(url).sum_values()
    treemap_layout(root, 960, 600)

    lines = [
        "F4 (Figure 4): treemap of the Scholarly LD Cluster Schema (960x600)",
        "",
        f"{'cluster':<30} {'classes':>8} {'instances':>10} {'area':>10}",
    ]
    for cluster in sorted(root.children, key=lambda c: -(c.value or 0)):
        lines.append(
            f"{cluster.name:<30} {len(cluster.children):>8} "
            f"{int(cluster.value):>10} {cluster.rect.area:>10.0f}"
        )
    biggest = max(root.leaves(), key=lambda leaf: leaf.rect.area)
    lines += [
        "",
        f"largest class rectangle: {biggest.name} "
        f"({int(biggest.value)} instances)",
    ]
    record_table("f4_treemap", "\n".join(lines))

    # nesting + no overlap
    for node in root.each():
        if node.parent is not None:
            assert node.parent.rect.contains_rect(node.rect)
        for a, b in itertools.combinations(node.children, 2):
            assert not a.rect.intersects(b.rect)

    # cluster area ~ proportional to cluster instance totals
    clusters = [c for c in root.children if c.value]
    for a, b in itertools.combinations(clusters, 2):
        if a.rect.area > 1 and b.rect.area > 1:
            assert a.rect.area / b.rect.area == pytest.approx(
                a.value / b.value, rel=0.25  # padding distorts small clusters
            )

    # the most populous class is the biggest rectangle (paper: the treemap
    # "highlights the classes with the higher number of instances")
    most_instances = max(root.leaves(), key=lambda leaf: leaf.value)
    assert biggest.value == most_instances.value


def test_f4_equal_split_when_no_quantity():
    """'If no quantity is assigned to a class, then its area is divided
    equally amongst the other classes within its cluster.'"""
    from repro.viz import HierarchyNode

    root = HierarchyNode("data")
    cluster = root.add_child(HierarchyNode("c"))
    for k in range(4):
        cluster.add_child(HierarchyNode(f"class{k}"))  # no values
    root.sum_values()
    treemap_layout(root, 400, 400, padding=0, inner_padding=0)
    areas = [leaf.rect.area for leaf in root.leaves()]
    assert max(areas) - min(areas) < 1e-6
