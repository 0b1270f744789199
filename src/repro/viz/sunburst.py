"""Sunburst (radial partition) layout reproducing Figure 5.

The inner ring holds the clusters, the outer ring the classes grouped by
cluster; each node's angular extent is proportional to its value within
its parent's extent, which is exactly d3's partition layout in polar
coordinates.
"""

from __future__ import annotations

import math
from typing import Tuple

from .hierarchy import HierarchyNode
from .layout_memo import check_layout_arguments, hierarchy_content, memoised, rebuild_hierarchy

__all__ = ["sunburst_layout", "Arc"]


class Arc:
    """An annular sector: start/end angle (radians) and inner/outer radius.

    Angles are measured clockwise from 12 o'clock, matching the SVG arc
    helper in :mod:`repro.viz.svg`.
    """

    __slots__ = ("a0", "a1", "r0", "r1")

    def __init__(self, a0: float, a1: float, r0: float, r1: float):
        if a1 < a0:
            raise ValueError(f"arc angles out of order: {a0} > {a1}")
        if r1 < r0 or r0 < 0:
            raise ValueError(f"arc radii out of order: {r0} > {r1}")
        object.__setattr__(self, "a0", float(a0))
        object.__setattr__(self, "a1", float(a1))
        object.__setattr__(self, "r0", float(r0))
        object.__setattr__(self, "r1", float(r1))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Arc is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Arc) and (
            (other.a0, other.a1, other.r0, other.r1)
            == (self.a0, self.a1, self.r0, self.r1)
        )

    def __hash__(self) -> int:
        return hash((Arc, self.a0, self.a1, self.r0, self.r1))

    def __repr__(self) -> str:
        return f"Arc(a0={self.a0:.4f}, a1={self.a1:.4f}, r0={self.r0:g}, r1={self.r1:g})"

    @property
    def span(self) -> float:
        return self.a1 - self.a0

    def midangle(self) -> float:
        return (self.a0 + self.a1) / 2.0

    def area(self) -> float:
        """Exact annular-sector area (for proportionality checks)."""
        return 0.5 * self.span * (self.r1 ** 2 - self.r0 ** 2)


def sunburst_layout(
    root: HierarchyNode,
    radius: float,
    start_angle: float = 0.0,
    end_angle: float = 2.0 * math.pi,
    ring_padding: float = 0.0,
) -> HierarchyNode:
    """Assign an :class:`Arc` to every node of *root* (modified in place).

    Ring thickness divides *radius* evenly across tree height + 1; the root
    occupies the center disc.  ``root.sum_values()`` must have run.  The
    arcs are memoised per content (:mod:`repro.viz.layout_memo`).
    """
    check_layout_arguments({"radius": radius})
    if root.value is None:
        raise ValueError("run sum_values() before the sunburst layout")
    nodes = list(root.each())
    arcs = memoised(
        _sunburst,
        hierarchy_content(nodes),
        (root.depth, radius, start_angle, end_angle, ring_padding),
    )
    for node, arc in zip(nodes, arcs):
        node.arc = arc
    return root


def _sunburst(content, depth, radius, start_angle, end_angle, ring_padding):
    """The pre-order arcs of a tree with *content* (None where a
    zero-valued parent leaves its children unplaced)."""
    nodes = rebuild_hierarchy(content, depth)
    root = nodes[0]
    thickness = radius / (root.height() + 1)
    root.arc = Arc(start_angle, end_angle, 0.0, max(0.0, thickness - ring_padding))
    _partition(root, start_angle, end_angle, thickness, ring_padding)
    return tuple([node.arc for node in nodes])


def _partition(
    node: HierarchyNode,
    a0: float,
    a1: float,
    thickness: float,
    ring_padding: float,
) -> None:
    if node.is_leaf() or not node.value:
        return
    total = sum(child.value or 0.0 for child in node.children)
    if total <= 0:
        # Children with zero total get zero-span arcs at the start angle.
        for child in node.children:
            r0 = thickness * child.depth
            child.arc = Arc(a0, a0, r0, r0 + thickness - ring_padding)
            _partition(child, a0, a0, thickness, ring_padding)
        return
    cursor = a0
    span = a1 - a0
    for child in node.children:
        fraction = (child.value or 0.0) / total
        child_span = span * fraction
        r0 = thickness * child.depth
        child.arc = Arc(
            cursor, cursor + child_span, r0, r0 + max(0.0, thickness - ring_padding)
        )
        _partition(child, cursor, cursor + child_span, thickness, ring_padding)
        cursor += child_span
