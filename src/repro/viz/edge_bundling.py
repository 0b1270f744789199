"""Hierarchical edge bundling (Holten 2006) reproducing Figure 7.

Classes sit on an invisible circle grouped by cluster; each property
(edge) is routed along the cluster-hierarchy path between its endpoints
and smoothed with a clamped B-spline; the bundling strength ``beta``
interpolates between the spline through the hierarchy path (beta=1) and a
straight line (beta=0), exactly as in Holten's paper.

The layout also computes the domain/range highlighting of Figure 7: given
a focus class, incoming properties mark their subject class as a
``domain`` neighbour (red in the paper) and outgoing properties mark their
object class as ``range`` (green).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import Point, bspline_basis, bspline_column, polar_to_cartesian
from .hierarchy import HierarchyNode
from .layout_memo import check_layout_arguments, hierarchy_content, memoised, rebuild_hierarchy

__all__ = ["BundledEdge", "RadialLeaf", "edge_bundling_layout", "EdgeBundlingDiagram"]

NodeId = Hashable


class RadialLeaf:
    """A leaf (class) positioned on the layout circle."""

    __slots__ = ("node", "angle", "point", "label_anchor")

    def __init__(self, node: HierarchyNode, angle: float, point: Point):
        self.node = node
        self.angle = angle
        self.point = point
        #: 'start' on the right half of the circle, 'end' on the left
        self.label_anchor = "start" if math.sin(angle) >= 0 else "end"


class BundledEdge:
    """One bundled property edge with its sampled curve as coordinate
    columns: sample ``i`` is ``(xs[i], ys[i])``.  The layout hands out
    ``array('d')`` columns, its own copy to each diagram."""

    __slots__ = ("source", "target", "xs", "ys", "data")

    def __init__(
        self,
        source: str,
        target: str,
        xs: Sequence[float],
        ys: Sequence[float],
        data: Optional[Dict] = None,
    ):
        self.source = source
        self.target = target
        self.xs = xs
        self.ys = ys
        self.data = data or {}

    @property
    def path(self) -> List[Point]:
        """The samples as ``Point`` s, built on each read (the renderer
        reads the columns)."""
        return [Point(x, y) for x, y in zip(self.xs, self.ys)]

    def length(self) -> float:
        path = self.path
        return sum(path[i].distance_to(path[i + 1]) for i in range(len(path) - 1))

    def straight_length(self) -> float:
        path = self.path
        if len(path) < 2:
            return 0.0
        return path[0].distance_to(path[-1])


class EdgeBundlingDiagram:
    """The complete Figure-7 artifact: leaf ring + bundled edges + roles."""

    def __init__(
        self,
        leaves: List[RadialLeaf],
        edges: List[BundledEdge],
        radius: float,
        focus: Optional[str] = None,
        roles: Optional[Dict[str, str]] = None,
    ):
        self.leaves = leaves
        self.edges = edges
        self.radius = radius
        self.focus = focus
        #: class name -> 'focus' | 'domain' | 'range' | 'both'
        self.roles = roles or {}

    def leaf(self, name: str) -> Optional[RadialLeaf]:
        for leaf in self.leaves:
            if leaf.node.name == name:
                return leaf
        return None


def edge_bundling_layout(
    root: HierarchyNode,
    edges: Sequence[Tuple[str, str]],
    radius: float = 300.0,
    beta: float = 0.85,
    focus: Optional[str] = None,
    edge_data: Optional[Sequence[Dict]] = None,
    samples_per_segment: int = 8,
) -> EdgeBundlingDiagram:
    """Compute the hierarchical edge bundling diagram.

    *root* is the cluster hierarchy whose leaves are classes; *edges* are
    (source-leaf-name, target-leaf-name) property edges.  ``beta`` in
    [0, 1] is Holten's bundling strength.  The leaf ring and the curves are
    memoised per content (:mod:`repro.viz.layout_memo`); *focus* and
    *edge_data* are not layout inputs and apply on every call, and every
    call builds its own diagram with its own copies of the curves.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    check_layout_arguments({"radius": radius}, {"samples_per_segment": samples_per_segment})
    nodes = list(root.each())
    edges = tuple([(source, target) for source, target in edges])
    angles, points, curves = memoised(
        _bundle, hierarchy_content(nodes), (root.depth, edges, radius, beta, samples_per_segment)
    )
    leaves = [node for node in nodes if not node.children]
    placed = [RadialLeaf(node, angle, point) for node, angle, point in zip(leaves, angles, points)]
    bundled = [
        BundledEdge(
            source,
            target,
            xs[:],
            ys[:],
            dict(edge_data[index]) if edge_data is not None else {},
        )
        for index, ((source, target), (xs, ys)) in enumerate(zip(edges, curves))
    ]

    # Focus-class domain/range roles (Figure 7's highlighting).
    roles: Dict[str, str] = {}
    if focus is not None:
        if focus not in {leaf.name for leaf in leaves}:
            raise KeyError(f"focus class {focus!r} is not a leaf")
        roles[focus] = "focus"
        for source, target in edges:
            if target == focus and source != focus:
                # property points INTO the focus: the source is a domain class
                _merge_role(roles, source, "domain")
            if source == focus and target != focus:
                # property leaves the focus: the target is a range class
                _merge_role(roles, target, "range")

    return EdgeBundlingDiagram(placed, bundled, radius, focus=focus, roles=roles)


def _bundle(content, depth, edges, radius, beta, samples_per_segment):
    """The leaf angles and ``Point`` s and the edges' curves of a tree with
    *content*, each curve as two ``array('d')`` columns."""
    basis = bspline_basis(samples_per_segment)
    nodes = rebuild_hierarchy(content, depth)
    root = nodes[0]
    leaves = [node for node in nodes if not node.children]

    # 1. Place leaves evenly on the circle, clusters contiguous (leaf order
    #    of the pre-order traversal keeps siblings together).
    angle_step = 2.0 * math.pi / len(leaves)
    angles: List[float] = []
    position: Dict[str, Point] = {}
    by_name: Dict[str, HierarchyNode] = {}
    for index, node in enumerate(leaves):
        angle = index * angle_step
        angles.append(angle)
        if node.name in by_name:
            raise ValueError(f"duplicate leaf name {node.name!r}")
        by_name[node.name] = node
        position[node.name] = polar_to_cartesian(0.0, 0.0, radius, angle)

    # Interior nodes sit at the centroid of their leaves, shrunk toward the
    # center by depth (the deeper the node, the closer to the rim).  Every
    # node's position is kept as two floats (nodes hash by identity).
    height = root.height()
    node_x: Dict[HierarchyNode, float] = {}
    node_y: Dict[HierarchyNode, float] = {}
    for node in nodes:
        if node.is_leaf():
            point = position[node.name]
            node_x[node], node_y[node] = point.x, point.y
            continue
        members = node.leaves()
        cx = sum(position[leaf.name].x for leaf in members) / len(members)
        cy = sum(position[leaf.name].y for leaf in members) / len(members)
        if height > 0:
            shrink = node.depth / (height + 1)
        else:
            shrink = 0.0
        node_x[node], node_y[node] = cx * shrink, cy * shrink

    # 2. Route each edge along the hierarchy path and sample the B-spline.
    curves = []
    for source, target in edges:
        if source not in by_name:
            raise KeyError(f"edge source {source!r} is not a leaf")
        if target not in by_name:
            raise KeyError(f"edge target {target!r} is not a leaf")
        route = by_name[source].path_to(by_name[target])
        xs, ys = _apply_beta(
            bspline_column([node_x[node] for node in route], basis),
            bspline_column([node_y[node] for node in route], basis),
            beta,
        )
        curves.append((array("d", xs), array("d", ys)))
    return tuple(angles), tuple(position[node.name] for node in leaves), tuple(curves)


def _apply_beta(
    xs: List[float], ys: List[float], beta: float
) -> Tuple[List[float], List[float]]:
    """Holten's straightening: P'(t) = beta*P(t) + (1-beta)*lerp(start, end).

    The curve comes in and goes out as coordinate columns.
    """
    if len(xs) < 2 or beta >= 1.0:
        return xs, ys
    start_x, start_y = xs[0], ys[0]
    span_x = xs[-1] - start_x
    span_y = ys[-1] - start_y
    rest = 1.0 - beta
    n = len(xs) - 1
    ts = [index / n for index in range(n + 1)]
    return (
        [beta * x + rest * (start_x + span_x * t) for x, t in zip(xs, ts)],
        [beta * y + rest * (start_y + span_y * t) for y, t in zip(ys, ts)],
    )


def _merge_role(roles: Dict[str, str], name: str, role: str) -> None:
    existing = roles.get(name)
    if existing is None:
        roles[name] = role
    elif existing != role and existing != "focus":
        roles[name] = "both"
