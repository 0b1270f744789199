"""Force-directed graph layout for Schema Summary / exploration views.

H-BOLD renders the Schema Summary and the step-by-step exploration views
(Figure 2) with D3's force simulation; this module implements the same
physics: many-body repulsion, link springs, centering, and velocity decay,
integrated with the same cooling schedule (alpha decay) d3-force uses.

Deterministic: initial positions come from a seeded phyllotaxis spiral
(d3's default) and there is no randomness afterwards, so
:func:`force_layout` is memoised in :mod:`repro.viz.layout_memo`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence, Tuple

from .geometry import Point
from .layout_memo import (
    LAYOUT_CACHE_SIZE,
    check_layout_arguments,
    layout_cache_clear,
    layout_cache_info,
    memoised,
)

__all__ = [
    "ForceLayout",
    "LAYOUT_CACHE_SIZE",
    "force_layout",
    "layout_cache_info",
    "layout_cache_clear",
]

NodeId = Hashable


class ForceLayout:
    """A d3-force-style simulation over explicit node/edge lists.

    State is columnar: ``x / y / vx / vy`` are parallel float lists in
    node order.  ``tests/viz/reference_force_layout.py`` keeps the
    one-object-per-node kernel this replaced; every float here must equal
    its result, so a change to the order of operations on any one variable
    is a change of output.
    """

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
    ):
        if not nodes:
            raise ValueError("force layout needs at least one node")
        self.width = width
        self.height = height
        self.charge = charge
        self.link_distance = link_distance
        self.link_strength = link_strength
        self.velocity_decay = velocity_decay

        self.ids: List[NodeId] = list(nodes)
        self.x: List[float] = []
        self.y: List[float] = []
        index: Dict[NodeId, int] = {}
        for i, node_id in enumerate(self.ids):
            # d3's phyllotaxis initial placement: deterministic, no overlap.
            radius = 10.0 * math.sqrt(0.5 + i)
            angle = i * 2.3999632297286533  # golden angle
            self.x.append(width / 2.0 + radius * math.cos(angle))
            self.y.append(height / 2.0 + radius * math.sin(angle))
            index[node_id] = i
        self.vx: List[float] = [0.0] * len(self.ids)
        self.vy: List[float] = [0.0] * len(self.ids)

        pairs: List[Tuple[int, int]] = []
        degree = [0] * len(self.ids)
        for source, target in edges:
            si = index.get(source)
            ti = index.get(target)
            if si is None or ti is None:
                raise KeyError(f"edge endpoint missing from node list: {source}->{target}")
            pairs.append((si, ti))
            degree[si] += 1
            degree[ti] += 1
        # Heavier-degree endpoints move less (d3's bias); an edge's two
        # degrees sum to at least 2, so the share is always defined.
        self._links: List[Tuple[int, int, float, float]] = []
        for si, ti in pairs:
            bias = degree[si] / (degree[si] + degree[ti])
            self._links.append((si, ti, bias, 1.0 - bias))

        self.alpha = 1.0
        self.alpha_min = 0.001
        self.alpha_decay = 1.0 - self.alpha_min ** (1.0 / 300.0)

    # -- simulation ------------------------------------------------------------

    def step(self) -> None:
        """One tick: apply forces, integrate, decay velocities."""
        self.alpha += (0.0 - self.alpha) * self.alpha_decay
        alpha = self.alpha
        x, y, vx, vy = self.x, self.y, self.vx, self.vy
        count = len(x)

        # Link springs.
        hypot = math.hypot
        link_distance = self.link_distance
        link_alpha = alpha * self.link_strength
        for si, ti, bias, rest in self._links:
            dx = x[ti] + vx[ti] - x[si] - vx[si]
            dy = y[ti] + vy[ti] - y[si] - vy[si]
            distance = hypot(dx, dy) or 1e-6
            delta = (distance - link_distance) / distance
            delta *= link_alpha
            vx[ti] -= dx * delta * bias
            vy[ti] -= dy * delta * bias
            vx[si] += dx * delta * rest
            vy[si] += dy * delta * rest

        # O(n^2) exact repulsion; schema graphs are small (<= ~300 nodes)
        # so the Barnes-Hut tree d3 uses would only add code.
        strength = self.charge * alpha
        for i in range(count):
            xi = x[i]
            yi = y[i]
            vxi = vx[i]
            vyi = vy[i]
            for j in range(i + 1, count):
                dx = x[j] - xi
                dy = y[j] - yi
                d2 = dx * dx + dy * dy
                if d2 < 1e-9:
                    dx, dy, d2 = 0.1, 0.1, 0.02
                force = strength / d2
                fx = dx * force
                fy = dy * force
                vxi += fx
                vyi += fy
                vx[j] -= fx
                vy[j] -= fy
            vx[i] = vxi
            vy[i] = vyi

        # Re-centre on the canvas, decay velocities, integrate.
        dx = self.width / 2.0 - sum(x) / count
        dy = self.height / 2.0 - sum(y) / count
        decay = self.velocity_decay
        for i in range(count):
            vxi = vx[i] = vx[i] * decay
            vyi = vy[i] = vy[i] * decay
            x[i] = x[i] + dx + vxi
            y[i] = y[i] + dy + vyi

    def run(self, iterations: int = 300) -> "ForceLayout":
        for _ in range(iterations):
            if self.alpha < self.alpha_min:
                break
            self.step()
        return self

    # -- results ---------------------------------------------------------------

    def positions(self) -> Dict[NodeId, Point]:
        return dict(zip(self.ids, map(Point, self.x, self.y)))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        return min(self.x), min(self.y), max(self.x), max(self.y)


def _simulate(content, width, height, iterations, options) -> Tuple[Point, ...]:
    nodes, edges = content
    layout = ForceLayout(nodes, edges, width=width, height=height, **dict(options))
    layout.run(iterations)
    return tuple(map(Point, layout.x, layout.y))


def force_layout(
    nodes: Sequence[NodeId],
    edges: Sequence[Tuple[NodeId, NodeId]],
    width: float = 800.0,
    height: float = 600.0,
    iterations: int = 300,
    **options,
) -> Dict[NodeId, Point]:
    """One-shot convenience: build, run, return node positions.

    The result is memoised (:mod:`repro.viz.layout_memo`) keyed by exactly
    the arguments: node ids and edges in order, canvas size, tick count and
    the :class:`ForceLayout` options.  The Cluster Schema view and the fully
    expanded Schema Summary view are the same graph for every user of a
    dataset, so only the first display simulates.  Every call returns a
    fresh dict over shared immutable :class:`Point` s.
    """
    check_layout_arguments({"width": width, "height": height}, {"iterations": iterations})
    nodes = tuple(nodes)
    points = memoised(
        _simulate,
        (nodes, tuple(map(tuple, edges))),
        (width, height, iterations, tuple(sorted(options.items()))),
    )
    return dict(zip(nodes, points))
