"""The object kernel of the force layout, kept as the oracle.

This is ``repro.viz.force_layout`` as it stood before the columnar
kernel replaced it: one ``LayoutNode`` object per node, one method per
force.  ``test_force_layout.py`` requires the columnar kernel to produce
the same floats, bit for bit -- the role ``strategy="scan"`` plays for
the SPARQL engine.  Do not optimise it.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.viz.geometry import Point

__all__ = ["ForceLayout", "LayoutNode", "force_layout"]

NodeId = Hashable


class LayoutNode:
    """Mutable simulation state for one node."""

    __slots__ = ("id", "x", "y", "vx", "vy", "weight")

    def __init__(self, node_id: NodeId, x: float, y: float, weight: float = 1.0):
        self.id = node_id
        self.x = x
        self.y = y
        self.vx = 0.0
        self.vy = 0.0
        self.weight = weight

    def position(self) -> Point:
        return Point(self.x, self.y)


class ForceLayout:
    """A d3-force-style simulation over explicit node/edge lists."""

    def __init__(
        self,
        nodes: Sequence[NodeId],
        edges: Sequence[Tuple[NodeId, NodeId]],
        width: float = 800.0,
        height: float = 600.0,
        charge: float = -120.0,
        link_distance: float = 60.0,
        link_strength: float = 0.7,
        velocity_decay: float = 0.6,
        weights: Optional[Dict[NodeId, float]] = None,
    ):
        if not nodes:
            raise ValueError("force layout needs at least one node")
        self.width = width
        self.height = height
        self.charge = charge
        self.link_distance = link_distance
        self.link_strength = link_strength
        self.velocity_decay = velocity_decay

        weights = weights or {}
        self.nodes: List[LayoutNode] = []
        self._index: Dict[NodeId, int] = {}
        for i, node_id in enumerate(nodes):
            # d3's phyllotaxis initial placement: deterministic, no overlap.
            radius = 10.0 * math.sqrt(0.5 + i)
            angle = i * 2.3999632297286533  # golden angle
            self.nodes.append(
                LayoutNode(
                    node_id,
                    width / 2.0 + radius * math.cos(angle),
                    height / 2.0 + radius * math.sin(angle),
                    weight=weights.get(node_id, 1.0),
                )
            )
            self._index[node_id] = i

        self.edges: List[Tuple[int, int]] = []
        self.degree = [0] * len(self.nodes)
        for source, target in edges:
            si = self._index.get(source)
            ti = self._index.get(target)
            if si is None or ti is None:
                raise KeyError(f"edge endpoint missing from node list: {source}->{target}")
            self.edges.append((si, ti))
            self.degree[si] += 1
            self.degree[ti] += 1

        self.alpha = 1.0
        self.alpha_min = 0.001
        self.alpha_decay = 1.0 - self.alpha_min ** (1.0 / 300.0)

    # -- simulation ------------------------------------------------------------

    def step(self) -> None:
        """One tick: apply forces, integrate, decay velocities."""
        self.alpha += (0.0 - self.alpha) * self.alpha_decay

        self._apply_links()
        self._apply_charge()
        self._apply_center()

        for node in self.nodes:
            node.vx *= self.velocity_decay
            node.vy *= self.velocity_decay
            node.x += node.vx
            node.y += node.vy

    def run(self, iterations: int = 300) -> "ForceLayout":
        for _ in range(iterations):
            if self.alpha < self.alpha_min:
                break
            self.step()
        return self

    def _apply_links(self) -> None:
        for si, ti in self.edges:
            source = self.nodes[si]
            target = self.nodes[ti]
            dx = target.x + target.vx - source.x - source.vx
            dy = target.y + target.vy - source.y - source.vy
            distance = math.hypot(dx, dy) or 1e-6
            delta = (distance - self.link_distance) / distance
            delta *= self.alpha * self.link_strength
            # Heavier-degree endpoints move less (d3's bias).
            total = self.degree[si] + self.degree[ti]
            bias = self.degree[si] / total if total else 0.5
            target.vx -= dx * delta * bias
            target.vy -= dy * delta * bias
            source.vx += dx * delta * (1.0 - bias)
            source.vy += dy * delta * (1.0 - bias)

    def _apply_charge(self) -> None:
        # O(n^2) exact repulsion; schema graphs are small (<= ~300 nodes)
        # so the Barnes-Hut tree d3 uses would only add code.
        count = len(self.nodes)
        for i in range(count):
            a = self.nodes[i]
            for j in range(i + 1, count):
                b = self.nodes[j]
                dx = b.x - a.x
                dy = b.y - a.y
                d2 = dx * dx + dy * dy
                if d2 < 1e-9:
                    dx, dy, d2 = 0.1, 0.1, 0.02
                force = self.charge * self.alpha / d2
                fx = dx * force
                fy = dy * force
                a.vx += fx * b.weight
                a.vy += fy * b.weight
                b.vx -= fx * a.weight
                b.vy -= fy * a.weight

    def _apply_center(self) -> None:
        cx = sum(node.x for node in self.nodes) / len(self.nodes)
        cy = sum(node.y for node in self.nodes) / len(self.nodes)
        dx = self.width / 2.0 - cx
        dy = self.height / 2.0 - cy
        for node in self.nodes:
            node.x += dx
            node.y += dy

    # -- results ---------------------------------------------------------------

    def positions(self) -> Dict[NodeId, Point]:
        return {node.id: node.position() for node in self.nodes}

    def bounding_box(self) -> Tuple[float, float, float, float]:
        xs = [node.x for node in self.nodes]
        ys = [node.y for node in self.nodes]
        return min(xs), min(ys), max(xs), max(ys)


def force_layout(
    nodes: Sequence[NodeId],
    edges: Sequence[Tuple[NodeId, NodeId]],
    width: float = 800.0,
    height: float = 600.0,
    iterations: int = 300,
    **options,
) -> Dict[NodeId, Point]:
    """One-shot convenience: build, run, return node positions."""
    layout = ForceLayout(nodes, edges, width=width, height=height, **options)
    layout.run(iterations)
    return layout.positions()
