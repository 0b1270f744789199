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
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import Point, bspline_basis, bspline_xy, polar_to_cartesian
from .hierarchy import HierarchyNode

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
    """One bundled property edge with its sampled curve."""

    __slots__ = ("source", "target", "path", "data")

    def __init__(
        self,
        source: str,
        target: str,
        path: List[Point],
        data: Optional[Dict] = None,
    ):
        self.source = source
        self.target = target
        self.path = path
        self.data = data or {}

    def length(self) -> float:
        return sum(
            self.path[i].distance_to(self.path[i + 1]) for i in range(len(self.path) - 1)
        )

    def straight_length(self) -> float:
        if len(self.path) < 2:
            return 0.0
        return self.path[0].distance_to(self.path[-1])


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
    [0, 1] is Holten's bundling strength.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    leaves = root.leaves()
    if not leaves:
        raise ValueError("hierarchy has no leaves to place on the circle")

    # 1. Place leaves evenly on the circle, clusters contiguous (leaf order
    #    of the pre-order traversal keeps siblings together).
    angle_step = 2.0 * math.pi / len(leaves)
    placed: List[RadialLeaf] = []
    position: Dict[str, Point] = {}
    by_name: Dict[str, HierarchyNode] = {}
    for index, node in enumerate(leaves):
        angle = index * angle_step
        point = polar_to_cartesian(0.0, 0.0, radius, angle)
        placed.append(RadialLeaf(node, angle, point))
        if node.name in by_name:
            raise ValueError(f"duplicate leaf name {node.name!r}")
        by_name[node.name] = node
        position[node.name] = point

    # Interior nodes sit at the centroid of their leaves, shrunk toward the
    # center by depth (the deeper the node, the closer to the rim).
    height = root.height()
    interior_position: Dict[int, Point] = {}
    for node in root.each():
        if node.is_leaf():
            interior_position[id(node)] = position[node.name]
            continue
        members = node.leaves()
        cx = sum(position[leaf.name].x for leaf in members) / len(members)
        cy = sum(position[leaf.name].y for leaf in members) / len(members)
        if height > 0:
            shrink = node.depth / (height + 1)
        else:
            shrink = 0.0
        interior_position[id(node)] = Point(cx * shrink, cy * shrink)

    # 2. Route each edge along the hierarchy path and sample the B-spline.
    bundled: List[BundledEdge] = []
    basis = bspline_basis(samples_per_segment)
    for index, (source, target) in enumerate(edges):
        if source not in by_name:
            raise KeyError(f"edge source {source!r} is not a leaf")
        if target not in by_name:
            raise KeyError(f"edge target {target!r} is not a leaf")
        data = dict(edge_data[index]) if edge_data is not None else {}
        control_nodes = by_name[source].path_to(by_name[target])
        control = [interior_position[id(node)] for node in control_nodes]
        path = _apply_beta(*bspline_xy(control, basis), beta)
        bundled.append(BundledEdge(source, target, path, data))

    # 3. Focus-class domain/range roles (Figure 7's highlighting).
    roles: Dict[str, str] = {}
    if focus is not None:
        if focus not in by_name:
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


def _apply_beta(xs: List[float], ys: List[float], beta: float) -> List[Point]:
    """Holten's straightening: P'(t) = beta*P(t) + (1-beta)*lerp(start, end).

    The curve comes in as parallel coordinate lists; the only ``Point`` s
    built are the ones returned.
    """
    if len(xs) < 2 or beta >= 1.0:
        return [Point(x, y) for x, y in zip(xs, ys)]
    start_x, start_y = xs[0], ys[0]
    span_x = xs[-1] - start_x
    span_y = ys[-1] - start_y
    rest = 1.0 - beta
    n = len(xs) - 1
    out: List[Point] = []
    for index in range(n + 1):
        t = index / n
        out.append(
            Point(
                beta * xs[index] + rest * (start_x + span_x * t),
                beta * ys[index] + rest * (start_y + span_y * t),
            )
        )
    return out


def _merge_role(roles: Dict[str, str], name: str, role: str) -> None:
    existing = roles.get(name)
    if existing is None:
        roles[name] = role
    elif existing != role and existing != "focus":
        roles[name] = "both"
