"""Figure renderers: layout + SVG -> the paper's visual artifacts.

Each function takes an already-built hierarchy/graph, runs the matching
layout and returns a complete :class:`SvgDocument` -- the Python analog of
the D3 views in Figures 2 and 4-7.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Sequence, Tuple

from .color import CATEGORY20, categorical_color, darken, lighten
from .edge_bundling import EdgeBundlingDiagram, edge_bundling_layout
from .force_layout import force_layout
from .geometry import Point
from .hierarchy import HierarchyNode
from .circlepack import circlepack_layout
from .sunburst import sunburst_layout
from .svg import SvgDocument, arc_path, polyline_path
from .treemap import treemap_layout

__all__ = [
    "render_treemap",
    "render_sunburst",
    "render_circlepack",
    "render_edge_bundling",
    "render_graph",
    "render_cluster_graph",
]

_ROLE_COLORS = {
    "focus": "#000000",
    "domain": "#d62728",  # red: domain classes of properties into the focus
    "range": "#2ca02c",   # green: range classes of properties out of the focus
    "both": "#9467bd",
}


def render_treemap(
    root: HierarchyNode,
    width: float = 960.0,
    height: float = 600.0,
    label_threshold: float = 28.0,
) -> SvgDocument:
    """Figure 4: treemap of the Cluster Schema, area proportional to value."""
    root.sum_values()
    treemap_layout(root, width, height)
    doc = SvgDocument(width, height, background="#ffffff")

    for index, cluster in enumerate(root.children):
        color = categorical_color(index, CATEGORY20)
        leaf_fill = str(color)
        group = doc.group()
        rect = cluster.rect
        doc.rect(
            rect.x,
            rect.y,
            rect.width,
            rect.height,
            parent=group,
            title=f"{cluster.name}: {int(cluster.value or 0)} instances",
            fill=str(lighten(color, 0.25)),
            stroke=str(darken(color)),
            stroke_width=1.5,
        )
        for leaf in cluster.each():
            if leaf is cluster or not leaf.is_leaf():
                continue
            cell = leaf.rect
            if cell is None or cell.area <= 0:
                continue
            doc.rect(
                cell.x,
                cell.y,
                cell.width,
                cell.height,
                parent=group,
                title=f"{leaf.name}: {int(leaf.value or 0)} instances",
                fill=leaf_fill,
                stroke="#ffffff",
                stroke_width=0.8,
                fill_opacity=0.85,
            )
            if cell.width >= label_threshold and cell.height >= 14.0:
                doc.text(
                    cell.x + 3,
                    cell.y + 12,
                    _short(leaf.name),
                    parent=group,
                    font_size=10,
                    font_family="sans-serif",
                    fill="#ffffff",
                )
    return doc


def render_sunburst(
    root: HierarchyNode, radius: float = 300.0, label_min_span: float = 0.08
) -> SvgDocument:
    """Figure 5: sunburst with clusters on the inner ring, classes outside."""
    root.sum_values()
    sunburst_layout(root, radius)
    size = radius * 2.0 + 20.0
    doc = SvgDocument(size, size, background="#ffffff")
    center = doc.group(transform=f"translate({size / 2:.1f},{size / 2:.1f})")

    for index, cluster in enumerate(root.children):
        color = categorical_color(index, CATEGORY20)
        cluster_fill, class_fill = str(color), str(lighten(color, 0.18))
        for node in cluster.each():
            arc = node.arc
            if arc is None or arc.span <= 1e-12:
                continue
            doc.path(
                arc_path(0.0, 0.0, arc.a0, arc.a1, arc.r0, arc.r1),
                parent=center,
                title=f"{node.name}: {int(node.value or 0)} instances",
                fill=cluster_fill if node is cluster else class_fill,
                stroke="#ffffff",
                stroke_width=1,
            )
            if arc.span >= label_min_span:
                mid = arc.midangle()
                r = (arc.r0 + arc.r1) / 2.0
                doc.text(
                    r * math.sin(mid),
                    -r * math.cos(mid),
                    _short(node.name),
                    parent=center,
                    font_size=9,
                    font_family="sans-serif",
                    text_anchor="middle",
                    fill="#222222",
                )
    return doc


def render_circlepack(root: HierarchyNode, radius: float = 300.0) -> SvgDocument:
    """Figure 6: circle packing, dataset > clusters > classes."""
    root.sum_values()
    circlepack_layout(root, radius)
    size = radius * 2.0 + 20.0
    doc = SvgDocument(size, size, background="#ffffff")
    center = doc.group(transform=f"translate({size / 2:.1f},{size / 2:.1f})")

    # outermost circle: the entire dataset
    doc.circle(
        root.circle.cx,
        root.circle.cy,
        root.circle.r,
        parent=center,
        title=f"{root.name}: {int(root.value or 0)} instances",
        fill="#f0f0f5",
        stroke="#999999",
        stroke_width=1,
    )

    for index, cluster in enumerate(root.children):
        color = categorical_color(index, CATEGORY20)
        leaf_fill = str(color)
        circle = cluster.circle
        doc.circle(
            circle.cx,
            circle.cy,
            circle.r,
            parent=center,
            title=f"{cluster.name}: {int(cluster.value or 0)} instances",
            fill=str(lighten(color, 0.28)),
            stroke=str(darken(color)),
            stroke_width=1,
        )
        for leaf in cluster.leaves():
            if leaf is cluster:
                continue
            inner = leaf.circle
            doc.circle(
                inner.cx,
                inner.cy,
                inner.r,
                parent=center,
                title=f"{leaf.name}: {int(leaf.value or 0)} instances",
                fill=leaf_fill,
                fill_opacity=0.85,
                stroke="#ffffff",
                stroke_width=0.6,
            )
    return doc


def render_edge_bundling(
    diagram: EdgeBundlingDiagram, label: bool = True
) -> SvgDocument:
    """Figure 7: hierarchical edge bundling with domain/range highlighting."""
    margin = 110.0
    size = diagram.radius * 2.0 + margin * 2.0
    doc = SvgDocument(size, size, background="#ffffff")
    center = doc.group(transform=f"translate({size / 2:.1f},{size / 2:.1f})")

    for edge in diagram.edges:
        involved = diagram.focus in (edge.source, edge.target) if diagram.focus else False
        doc.path(
            polyline_path(edge.xs, edge.ys),
            parent=center,
            fill="none",
            stroke="#d62728" if involved else "#8888bb",
            stroke_width=1.6 if involved else 0.7,
            stroke_opacity=0.9 if involved else 0.45,
        )

    for leaf in diagram.leaves:
        role = diagram.roles.get(leaf.node.name)
        color = _ROLE_COLORS.get(role, "#555555")
        doc.circle(
            leaf.point.x, leaf.point.y, 3.5 if role else 2.5,
            parent=center, title=leaf.node.name, fill=color,
        )
        if label:
            offset = diagram.radius + 8.0
            angle = leaf.angle
            x = offset * math.sin(angle)
            y = -offset * math.cos(angle)
            doc.text(
                x,
                y,
                _short(leaf.node.name),
                parent=center,
                font_size=9,
                font_family="sans-serif",
                text_anchor=leaf.label_anchor,
                font_weight="bold" if role == "focus" else "normal",
                fill=color,
            )
    return doc


def render_graph(
    nodes: Sequence[Hashable],
    edges: Sequence[Tuple[Hashable, Hashable]],
    labels: Optional[Dict[Hashable, str]] = None,
    node_sizes: Optional[Dict[Hashable, float]] = None,
    highlight: Optional[Hashable] = None,
    width: float = 900.0,
    height: float = 650.0,
    iterations: int = 200,
) -> SvgDocument:
    """Figure 2-style node-link view via the force layout."""
    positions = force_layout(nodes, edges, width=width, height=height, iterations=iterations)
    doc = SvgDocument(width, height, background="#ffffff")
    labels = labels or {}
    node_sizes = node_sizes or {}

    for source, target in edges:
        a, b = positions[source], positions[target]
        doc.line(a.x, a.y, b.x, b.y, stroke="#bbbbbb", stroke_width=1)

    for node in nodes:
        point = positions[node]
        is_focus = node == highlight
        radius = node_sizes.get(node, 8.0)
        doc.circle(
            point.x,
            point.y,
            radius * (1.3 if is_focus else 1.0),
            title=labels.get(node, str(node)),
            fill="#d62728" if is_focus else "#1f77b4",
            stroke="#ffffff",
            stroke_width=1.5,
        )
        doc.text(
            point.x + radius + 2,
            point.y + 3,
            _short(labels.get(node, str(node))),
            font_size=10,
            font_family="sans-serif",
            fill="#333333",
        )
    return doc


def render_cluster_graph(
    clusters: Sequence[Tuple[Hashable, str, int, int]],
    edges: Sequence[Tuple[Hashable, Hashable, int]],
    width: float = 800.0,
    height: float = 600.0,
    iterations: int = 200,
) -> SvgDocument:
    """Figure 2 step 1: the Cluster Schema as a node-link diagram.

    *clusters* are ``(id, label, class_count, instance_count)`` tuples;
    *edges* are ``(source_id, target_id, weight)``.  Node radius scales
    with the number of classes in the cluster, edge thickness with the
    aggregated connection weight.
    """
    ids = [cluster_id for cluster_id, _, _, _ in clusters]
    if not ids:
        raise ValueError("cluster schema has no clusters to draw")
    positions = force_layout(
        ids,
        [(s, t) for s, t, _ in edges],
        width=width,
        height=height,
        iterations=iterations,
        link_distance=140.0,
        charge=-400.0,
    )
    doc = SvgDocument(width, height, background="#ffffff")

    max_weight = max((w for _, _, w in edges), default=1) or 1
    for source, target, weight in edges:
        a, b = positions[source], positions[target]
        doc.line(
            a.x, a.y, b.x, b.y,
            stroke="#aaaacc",
            stroke_width=1.0 + 4.0 * (weight / max_weight),
            stroke_opacity=0.7,
        )

    max_classes = max((count for _, _, count, _ in clusters), default=1) or 1
    for index, (cluster_id, label, class_count, instance_count) in enumerate(clusters):
        point = positions[cluster_id]
        color = categorical_color(index, CATEGORY20)
        radius = 14.0 + 26.0 * math.sqrt(class_count / max_classes)
        doc.circle(
            point.x, point.y, radius,
            title=f"{label}: {class_count} classes, {instance_count} instances",
            fill=str(lighten(color, 0.1)),
            stroke=str(darken(color)),
            stroke_width=2,
        )
        doc.text(
            point.x, point.y + 4,
            _short(str(label), 16),
            font_size=11,
            font_family="sans-serif",
            font_weight="bold",
            text_anchor="middle",
            fill="#222222",
        )
        doc.text(
            point.x, point.y + radius + 12,
            f"{class_count} classes",
            font_size=9,
            font_family="sans-serif",
            text_anchor="middle",
            fill="#555555",
        )
    return doc


def _short(name: str, limit: int = 22) -> str:
    return name if len(name) <= limit else name[: limit - 1] + "…"
