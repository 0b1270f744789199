"""Circle packing layout reproducing Figure 6.

Inner circles are classes, intermediate circles clusters, the outer circle
the whole dataset.  The sibling-packing routine is the front-chain
algorithm d3-hierarchy uses (Wang et al., "Visualization of large
hierarchical data by circle packing", with d3's refinements), followed by
Welzl smallest-enclosing-circle to size the parent.
"""

from __future__ import annotations

import math
from typing import List

from .geometry import Circle, enclosing_circle
from .hierarchy import HierarchyNode
from .layout_memo import check_layout_arguments, hierarchy_content, memoised, rebuild_hierarchy

__all__ = ["circlepack_layout", "pack_siblings"]


class _PackNode:
    __slots__ = ("circle", "next", "previous", "x", "y", "r")

    def __init__(self, radius: float):
        self.x = 0.0
        self.y = 0.0
        self.r = radius
        self.next: "_PackNode" = self
        self.previous: "_PackNode" = self


def _place(b: "_PackNode", a: "_PackNode", c: "_PackNode") -> None:
    """Place circle c tangent to circles a and b (d3's place())."""
    dx = b.x - a.x
    dy = b.y - a.y
    d2 = dx * dx + dy * dy
    if d2 > 0:
        a2 = (a.r + c.r) ** 2
        b2 = (b.r + c.r) ** 2
        if a2 > b2:
            x = (d2 + b2 - a2) / (2 * d2)
            y = math.sqrt(max(0.0, b2 / d2 - x * x))
            c.x = b.x - x * dx - y * dy
            c.y = b.y - x * dy + y * dx
        else:
            x = (d2 + a2 - b2) / (2 * d2)
            y = math.sqrt(max(0.0, a2 / d2 - x * x))
            c.x = a.x + x * dx - y * dy
            c.y = a.y + x * dy + y * dx
    else:
        c.x = a.x + a.r + c.r
        c.y = a.y


def _intersects(a: "_PackNode", b: "_PackNode") -> bool:
    dr = a.r + b.r - 1e-6
    dx = b.x - a.x
    dy = b.y - a.y
    return dr > 0 and dr * dr > dx * dx + dy * dy


def pack_siblings(radii: List[float]) -> List[Circle]:
    """Pack circles of the given radii around the origin without overlap.

    Returns circles in input order.  This is the d3 ``packSiblings``
    front-chain construction: the first three circles are placed mutually
    tangent, later circles attach to the front chain at the position
    closest to the origin.
    """
    nodes = [_PackNode(r) for r in radii]
    count = len(nodes)
    if count == 0:
        return []
    # place first circle
    a = nodes[0]
    a.x, a.y = 0.0, 0.0
    if count == 1:
        return [Circle(n.x, n.y, n.r) for n in nodes]
    # second circle to the right
    b = nodes[1]
    a.x = -b.r
    b.x = a.r
    b.y = 0.0
    if count == 2:
        return [Circle(n.x, n.y, n.r) for n in nodes]
    # third circle tangent to both
    c = nodes[2]
    _place(b, a, c)

    # initialize the front chain a <-> b <-> c
    a.next = c.previous = b
    b.next = a.previous = c
    c.next = b.previous = a

    index = 3
    while index < count:
        c = nodes[index]
        _place(a, b, c)

        # test for intersections with the front chain
        j = b.next
        k = a.previous
        sj = b.r
        sk = a.r
        collided = False
        while True:
            if sj <= sk:
                if _intersects(j, c):
                    b = j
                    a.next = b
                    b.previous = a
                    collided = True
                    break
                sj += j.r
                j = j.next
            else:
                if _intersects(k, c):
                    a = k
                    a.next = b
                    b.previous = a
                    collided = True
                    break
                sk += k.r
                k = k.previous
            if j is k.next:  # chain exhausted without collision
                break
        if collided:
            continue

        # success: insert c between a and b
        c.previous = a
        c.next = b
        a.next = b.previous = c
        b = c

        # d3 advances the insertion anchor toward the weighted centroid; we
        # choose the chain node closest to the origin, which yields equally
        # compact packs at our scale and is simpler to reason about.
        best = b
        candidate = b.next
        anchor = b
        while candidate is not anchor:
            if math.hypot(candidate.x, candidate.y) < math.hypot(best.x, best.y):
                best = candidate
            candidate = candidate.next
        a = best
        b = a.next
        index += 1

    return [Circle(n.x, n.y, n.r) for n in nodes]


def circlepack_layout(
    root: HierarchyNode,
    radius: float,
    padding: float = 2.0,
) -> HierarchyNode:
    """Assign a :class:`Circle` to every node of *root* (modified in place).

    Leaf radii are sqrt-proportional to their value (area-proportional),
    parents wrap their packed children, and the whole arrangement is scaled
    to fit a circle of the given *radius* centered at the origin.
    ``root.sum_values()`` must have run.  The circles are memoised per
    content (:mod:`repro.viz.layout_memo`).
    """
    check_layout_arguments({"radius": radius})
    if root.value is None:
        raise ValueError("run sum_values() before the circle-pack layout")
    nodes = list(root.each())
    circles = memoised(_circlepack, hierarchy_content(nodes), (radius, padding))
    for node, circle in zip(nodes, circles):
        node.circle = circle
    return root


def _circlepack(content, radius, padding):
    """The pre-order circles of a tree with *content*."""
    nodes = rebuild_hierarchy(content)
    _pack_recursive(nodes[0], padding)
    # the root now has a local circle at the origin with some radius; rescale
    source = nodes[0].circle
    scale = radius / source.r if source.r > 0 else 1.0
    return tuple([
        Circle(node.circle.cx * scale, node.circle.cy * scale, node.circle.r * scale)
        for node in nodes
    ])


def _pack_recursive(node: HierarchyNode, padding: float) -> None:
    if node.is_leaf():
        value = max(0.0, node.value or 0.0)
        node.circle = Circle(0.0, 0.0, math.sqrt(value))
        return

    for child in node.children:
        _pack_recursive(child, padding)

    radii = [child.circle.r + padding for child in node.children]
    placed = pack_siblings(radii)
    # Shift each child subtree to its packed position (minus the padding
    # that was only there to keep siblings apart).
    for child, position in zip(node.children, placed):
        _shift_subtree(child, position.cx, position.cy)
    enclosure = enclosing_circle([child.circle for child in node.children])
    # Re-center children on the parent's own origin.
    for child in node.children:
        _shift_subtree(child, -enclosure.cx, -enclosure.cy)
    node.circle = Circle(0.0, 0.0, enclosure.r + padding)


def _shift_subtree(node: HierarchyNode, dx: float, dy: float) -> None:
    for descendant in node.each():
        circle = descendant.circle
        descendant.circle = Circle(circle.cx + dx, circle.cy + dy, circle.r)
