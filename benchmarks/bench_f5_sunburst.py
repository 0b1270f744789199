"""F5 (Figure 5): Sunburst visualization of the Cluster Schema.

"The inner ring represents the clusters while the outer ring shows the
classes grouped by the clusters."

Shape checks: exactly two populated rings (clusters inner, classes outer),
angular extent proportional to instance counts, classes contained in their
cluster's angular sector.
"""

from __future__ import annotations

import math

import pytest

from repro.viz import sunburst_layout


def test_f5_sunburst_shape(scholarly_app, record_table):
    app, url = scholarly_app
    root = app.cluster_hierarchy(url).sum_values()
    sunburst_layout(root, 300)

    lines = [
        "F5 (Figure 5): sunburst of the Scholarly LD Cluster Schema (r=300)",
        "",
        f"{'cluster':<30} {'classes':>8} {'angular span':>13}",
    ]
    for cluster in sorted(root.children, key=lambda c: -c.arc.span):
        lines.append(
            f"{cluster.name:<30} {len(cluster.children):>8} "
            f"{math.degrees(cluster.arc.span):>12.1f}°"
        )
    record_table("f5_sunburst", "\n".join(lines))

    # two rings: clusters at depth 1, classes at depth 2
    cluster_radii = {(c.arc.r0, c.arc.r1) for c in root.children}
    class_radii = {(leaf.arc.r0, leaf.arc.r1) for leaf in root.leaves()}
    assert len(cluster_radii) == 1
    assert len(class_radii) == 1
    assert cluster_radii.pop()[1] <= class_radii.pop()[0] + 1e-9

    # clusters tile the full circle
    total = sum(c.arc.span for c in root.children)
    assert total == pytest.approx(2 * math.pi)

    # classes grouped by cluster: each class arc inside its cluster's arc
    for cluster in root.children:
        for leaf in cluster.children:
            assert leaf.arc.a0 >= cluster.arc.a0 - 1e-9
            assert leaf.arc.a1 <= cluster.arc.a1 + 1e-9

    # angular proportionality within a cluster
    for cluster in root.children:
        pairs = [(c.arc.span, c.value) for c in cluster.children if c.value]
        for (s1, v1), (s2, v2) in zip(pairs, pairs[1:]):
            assert s1 / s2 == pytest.approx(v1 / v2, rel=1e-6)
