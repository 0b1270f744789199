"""Squarified treemap layout (Bruls, Huizing, van Wijk 2000).

Reproduces Figure 4: each cluster is a rectangle whose area is the total
instance count of its classes, with class rectangles nested inside in a
part-to-whole relationship; classes without a quantity split their
cluster's remainder equally (handled upstream by ``sum_values``).
"""

from __future__ import annotations

from typing import List

from .geometry import Rect
from .hierarchy import HierarchyNode
from .layout_memo import check_layout_arguments, hierarchy_content, memoised, rebuild_hierarchy

__all__ = ["treemap_layout"]


def treemap_layout(
    root: HierarchyNode,
    width: float,
    height: float,
    padding: float = 2.0,
    inner_padding: float = 1.0,
) -> HierarchyNode:
    """Assign a :class:`Rect` to every node of *root* (modified in place).

    ``root.sum_values()`` must have run (any node with value None raises).
    ``padding`` insets children inside internal nodes; ``inner_padding``
    separates sibling rectangles.  The rects are memoised per content
    (:mod:`repro.viz.layout_memo`).
    """
    check_layout_arguments({"width": width, "height": height})
    if root.value is None:
        raise ValueError("run sum_values() before the treemap layout")
    nodes = list(root.each())
    rects = memoised(_treemap, hierarchy_content(nodes), (width, height, padding, inner_padding))
    for node, rect in zip(nodes, rects):
        node.rect = rect
    return root


def _treemap(content, width, height, padding, inner_padding):
    """The pre-order rects of a tree with *content*."""
    nodes = rebuild_hierarchy(content)
    nodes[0].rect = Rect(0.0, 0.0, width, height)
    for node in nodes:
        if node.is_leaf():
            continue
        _squarify(node.children, node.rect.inset(padding), inner_padding)
    return tuple([node.rect for node in nodes])


def _squarify(children: List[HierarchyNode], rect: Rect, gap: float) -> None:
    """Lay the children into *rect* with the squarified heuristic."""
    items = [child for child in children if (child.value or 0.0) >= 0.0]
    for child in children:
        if child.value is None:
            raise ValueError(f"node {child.name!r} has no value; run sum_values()")
    total = sum(child.value for child in items)
    if total <= 0 or rect.area <= 0:
        # Give every child a zero-size rect at the origin corner.
        for child in children:
            child.rect = Rect(rect.x, rect.y, 0.0, 0.0)
        return

    scale = rect.area / total
    # Work on a mutable copy of the free area.
    x, y, w, h = rect.x, rect.y, rect.width, rect.height
    queue = sorted(items, key=lambda c: (-(c.value or 0.0), c.name))

    row: List[HierarchyNode] = []
    row_area = 0.0

    def worst(extra: float = 0.0, extra_count: int = 0) -> float:
        """Worst aspect ratio of the current row laid along the short side."""
        side = min(w, h)
        area = row_area + extra
        count = len(row) + extra_count
        if area <= 0 or side <= 0 or count == 0:
            return float("inf")
        thickness = area / side
        worst_ratio = 1.0
        values = [child.value * scale for child in row]
        if extra_count:
            values.append(extra)
        for value in values:
            length = value / thickness if thickness > 0 else 0.0
            if length <= 0:
                return float("inf")
            ratio = max(thickness / length, length / thickness)
            worst_ratio = max(worst_ratio, ratio)
        return worst_ratio

    def flush_row() -> None:
        nonlocal x, y, w, h, row, row_area
        if not row:
            return
        side = min(w, h)
        thickness = row_area / side if side > 0 else 0.0
        offset = 0.0
        horizontal = w <= h  # row spans the full width when the rect is tall
        for child in row:
            value = child.value * scale
            length = value / thickness if thickness > 0 else 0.0
            if horizontal:
                child.rect = _padded_rect(x + offset, y, length, thickness, gap)
            else:
                child.rect = _padded_rect(x, y + offset, thickness, length, gap)
            offset += length
        if horizontal:
            y += thickness
            h -= thickness
        else:
            x += thickness
            w -= thickness
        row = []
        row_area = 0.0

    for child in queue:
        value = child.value * scale
        if row and worst() < worst(extra=value, extra_count=1):
            flush_row()
        row.append(child)
        row_area += value
    flush_row()


def _padded_rect(x: float, y: float, width: float, height: float, gap: float) -> Rect:
    """Shrink a cell by the sibling gap, clamping at zero."""
    half = gap / 2.0
    return Rect(
        x + half,
        y + half,
        max(0.0, width - gap),
        max(0.0, height - gap),
    )
