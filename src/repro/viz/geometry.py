"""Plane geometry primitives shared by the layout algorithms.

Everything the treemap/sunburst/circle-pack/edge-bundling layouts need:
points, rectangles, circles, polar conversion, smallest enclosing circles
(Welzl) and uniform B-spline evaluation for bundled edges.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Point",
    "Rect",
    "Circle",
    "polar_to_cartesian",
    "enclosing_circle",
    "bspline_points",
    "bspline_basis",
    "bspline_xy",
]


class Point:
    """An immutable 2-D point with vector arithmetic."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Point is immutable")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and other.x == self.x and other.y == self.y

    def __hash__(self) -> int:
        return hash((Point, self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x:g}, {self.y:g})"

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Rect:
    """An axis-aligned rectangle as (x, y, width, height)."""

    __slots__ = ("x", "y", "width", "height")

    def __init__(self, x: float, y: float, width: float, height: float):
        if width < 0 or height < 0:
            raise ValueError(f"negative rect size {width}x{height}")
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "width", float(width))
        object.__setattr__(self, "height", float(height))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Rect is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and (other.x, other.y, other.width, other.height)
            == (self.x, self.y, self.width, self.height)
        )

    def __hash__(self) -> int:
        return hash((Rect, self.x, self.y, self.width, self.height))

    def __repr__(self) -> str:
        return f"Rect({self.x:g}, {self.y:g}, {self.width:g}, {self.height:g})"

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    def center(self) -> Point:
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains(self, point: Point, epsilon: float = 1e-9) -> bool:
        return (
            self.x - epsilon <= point.x <= self.right + epsilon
            and self.y - epsilon <= point.y <= self.bottom + epsilon
        )

    def contains_rect(self, other: "Rect", epsilon: float = 1e-9) -> bool:
        return (
            other.x >= self.x - epsilon
            and other.y >= self.y - epsilon
            and other.right <= self.right + epsilon
            and other.bottom <= self.bottom + epsilon
        )

    def intersects(self, other: "Rect", epsilon: float = 1e-9) -> bool:
        """True if the *interiors* overlap (shared borders don't count)."""
        return (
            self.x + epsilon < other.right
            and other.x + epsilon < self.right
            and self.y + epsilon < other.bottom
            and other.y + epsilon < self.bottom
        )

    def inset(self, padding: float) -> "Rect":
        """Shrink by *padding* on every side (clamps at zero size)."""
        width = max(0.0, self.width - 2 * padding)
        height = max(0.0, self.height - 2 * padding)
        return Rect(self.x + padding, self.y + padding, width, height)


class Circle:
    """A circle as (cx, cy, r)."""

    __slots__ = ("cx", "cy", "r")

    def __init__(self, cx: float, cy: float, r: float):
        if r < 0:
            raise ValueError(f"negative radius {r}")
        object.__setattr__(self, "cx", float(cx))
        object.__setattr__(self, "cy", float(cy))
        object.__setattr__(self, "r", float(r))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Circle is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Circle) and (other.cx, other.cy, other.r) == (
            self.cx,
            self.cy,
            self.r,
        )

    def __hash__(self) -> int:
        return hash((Circle, self.cx, self.cy, self.r))

    def __repr__(self) -> str:
        return f"Circle({self.cx:g}, {self.cy:g}, {self.r:g})"

    def center(self) -> Point:
        return Point(self.cx, self.cy)

    def contains_circle(self, other: "Circle", epsilon: float = 1e-7) -> bool:
        distance = self.center().distance_to(other.center())
        return distance + other.r <= self.r + epsilon

    def overlaps(self, other: "Circle", epsilon: float = 1e-7) -> bool:
        """True if interiors overlap (tangency does not count)."""
        distance = self.center().distance_to(other.center())
        return distance + epsilon < self.r + other.r


def polar_to_cartesian(cx: float, cy: float, radius: float, angle: float) -> Point:
    """Angle in radians, measured clockwise from 12 o'clock (SVG habit)."""
    return Point(cx + radius * math.sin(angle), cy - radius * math.cos(angle))


# -- smallest enclosing circle (Welzl, move-to-front, expected O(n)) ---------


def enclosing_circle(circles: Sequence[Circle], seed: int = 0) -> Circle:
    """Smallest circle enclosing all *circles* (not just their centers).

    This is d3's ``packEnclose`` problem, solved with the randomized
    incremental algorithm over circles (Welzl's method extended from
    points to disks); the basis-extension logic is a faithful port of
    d3-hierarchy's ``extendBasis``.
    """
    items = list(circles)
    if not items:
        return Circle(0.0, 0.0, 0.0)
    rng = random.Random(seed)
    rng.shuffle(items)

    basis: List[Circle] = []
    enclosed: Optional[Circle] = None
    i = 0
    while i < len(items):
        circle = items[i]
        if enclosed is not None and _encloses_weak(enclosed, circle):
            i += 1
        else:
            basis = _extend_basis(basis, circle)
            enclosed = _circle_from_boundary(basis)
            i = 0
    assert enclosed is not None
    return enclosed


def _encloses_weak(a: Circle, b: Circle) -> bool:
    dr = a.r - b.r + max(a.r, b.r, 1.0) * 1e-9
    return dr >= 0 and dr * dr >= (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2


def _encloses_not(a: Circle, b: Circle) -> bool:
    dr = a.r - b.r
    return dr < 0 or dr * dr < (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2


def _encloses_weak_all(a: Circle, basis: List[Circle]) -> bool:
    return all(_encloses_weak(a, b) for b in basis)


def _extend_basis(basis: List[Circle], p: Circle) -> List[Circle]:
    if _encloses_weak_all(p, basis):
        return [p]
    for b in basis:
        if _encloses_not(p, b) and _encloses_weak_all(_enclose_two(b, p), basis):
            return [b, p]
    for i in range(len(basis) - 1):
        for j in range(i + 1, len(basis)):
            bi, bj = basis[i], basis[j]
            if (
                _encloses_not(_enclose_two(bi, bj), p)
                and _encloses_not(_enclose_two(bi, p), bj)
                and _encloses_not(_enclose_two(bj, p), bi)
                and _encloses_weak_all(_enclose_three(bi, bj, p), basis)
            ):
                return [bi, bj, p]
    raise RuntimeError("enclosing_circle: basis extension failed (degenerate input)")


def _circle_from_boundary(boundary: List[Circle]) -> Circle:
    if not boundary:
        return Circle(0.0, 0.0, 0.0)
    if len(boundary) == 1:
        return boundary[0]
    if len(boundary) == 2:
        return _enclose_two(boundary[0], boundary[1])
    return _enclose_three(boundary[0], boundary[1], boundary[2])


def _enclose_two(a: Circle, b: Circle) -> Circle:
    dx, dy = b.cx - a.cx, b.cy - a.cy
    distance = math.hypot(dx, dy)
    radius = (distance + a.r + b.r) / 2.0
    if radius <= a.r:
        return a
    if radius <= b.r:
        return b
    # Center sits along the line a->b.
    t = (radius - a.r) / distance if distance > 0 else 0.0
    return Circle(a.cx + dx * t, a.cy + dy * t, radius)


def _enclose_three(a: Circle, b: Circle, c: Circle) -> Circle:
    # Solve the Apollonius-like system for the circle tangent externally
    # containing all three (d3's encloseBasis3).
    x1, y1, r1 = a.cx, a.cy, a.r
    x2, y2, r2 = b.cx, b.cy, b.r
    x3, y3, r3 = c.cx, c.cy, c.r
    a2 = 2 * (x1 - x2)
    b2 = 2 * (y1 - y2)
    c2 = 2 * (r2 - r1)
    d2 = x1 * x1 + y1 * y1 - r1 * r1 - x2 * x2 - y2 * y2 + r2 * r2
    a3 = 2 * (x1 - x3)
    b3 = 2 * (y1 - y3)
    c3 = 2 * (r3 - r1)
    d3 = x1 * x1 + y1 * y1 - r1 * r1 - x3 * x3 - y3 * y3 + r3 * r3
    ab = a3 * b2 - a2 * b3
    if abs(ab) < 1e-12:
        # Degenerate (collinear centers) -- fall back to pairwise merge.
        best = _enclose_two(a, b)
        for candidate in (_enclose_two(a, c), _enclose_two(b, c)):
            if candidate.r > best.r:
                best = candidate
        if best.contains_circle(a) and best.contains_circle(b) and best.contains_circle(c):
            return best
        return Circle(
            (x1 + x2 + x3) / 3.0,
            (y1 + y2 + y3) / 3.0,
            max(
                math.hypot(x1 - (x1 + x2 + x3) / 3.0, y1 - (y1 + y2 + y3) / 3.0) + r1,
                math.hypot(x2 - (x1 + x2 + x3) / 3.0, y2 - (y1 + y2 + y3) / 3.0) + r2,
                math.hypot(x3 - (x1 + x2 + x3) / 3.0, y3 - (y1 + y2 + y3) / 3.0) + r3,
            ),
        )
    xa = (d2 * b3 - d3 * b2) / ab * -1
    xb = (b3 * c2 - b2 * c3) / ab
    ya = (a3 * d2 - a2 * d3) / ab
    yb = (a2 * c3 - a3 * c2) / ab
    # r satisfies: (xa + xb*r - x1)^2 + (ya + yb*r - y1)^2 = (r + r1)^2
    A = xb * xb + yb * yb - 1
    B = 2 * (r1 + (xa - x1) * xb + (ya - y1) * yb)
    C = (xa - x1) ** 2 + (ya - y1) ** 2 - r1 * r1
    if abs(A) > 1e-12:
        discriminant = B * B - 4 * A * C
        r = -(B + math.sqrt(max(0.0, discriminant))) / (2 * A)
    else:
        r = -C / B if abs(B) > 1e-12 else 0.0
    return Circle(xa + xb * r, ya + yb * r, r)


# -- B-splines for hierarchical edge bundling -----------------------------------


def bspline_points(
    control: Sequence[Point], samples_per_segment: int = 8
) -> List[Point]:
    """Sample a uniform cubic B-spline through *control* points.

    Endpoints are clamped (tripled control points) so the curve starts and
    ends exactly at the first/last control point, matching how D3 renders
    bundled edges.
    """
    xs, ys = bspline_xy(control, bspline_basis(samples_per_segment))
    return [Point(x, y) for x, y in zip(xs, ys)]


Basis = Tuple[float, float, float, float]


def bspline_basis(samples_per_segment: int) -> List[Basis]:
    """The four cubic B-spline weights at each of a segment's sample steps.

    They depend on the step alone, so a caller sampling many curves (edge
    bundling: one per property) computes this table once.
    """
    table: List[Basis] = []
    for step in range(samples_per_segment):
        t = step / samples_per_segment
        t2 = t * t
        t3 = t2 * t
        table.append(
            (
                (1 - 3 * t + 3 * t2 - t3) / 6.0,
                (4 - 6 * t2 + 3 * t3) / 6.0,
                (1 + 3 * t + 3 * t2 - 3 * t3) / 6.0,
                t3 / 6.0,
            )
        )
    return table


def bspline_xy(
    control: Sequence[Point], basis: Sequence[Basis]
) -> Tuple[List[float], List[float]]:
    """:func:`bspline_points` as parallel coordinate lists, no ``Point`` built.

    Fewer than three control points are returned as they are.
    """
    cx = [point.x for point in control]
    cy = [point.y for point in control]
    if len(control) < 3:
        return cx, cy
    px = [cx[0], cx[0]] + cx + [cx[-1], cx[-1]]
    py = [cy[0], cy[0]] + cy + [cy[-1], cy[-1]]
    xs: List[float] = []
    ys: List[float] = []
    for i in range(len(px) - 3):
        x0, x1, x2, x3 = px[i : i + 4]
        y0, y1, y2, y3 = py[i : i + 4]
        for b0, b1, b2, b3 in basis:
            xs.append(b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3)
            ys.append(b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3)
    xs.append(cx[-1])
    ys.append(cy[-1])
    return xs, ys
