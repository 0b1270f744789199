"""A minimal SVG document builder.

The original H-BOLD presentation layer lets D3 emit SVG in the browser;
here the layouts are computed in Python and serialized to standalone SVG
through this module.  Only the elements the four layouts need are
modelled: rect, circle, path, text, line, group, title (tooltips).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from .geometry import Point, polar_to_cartesian

__all__ = ["SvgElement", "SvgDocument", "arc_path", "polyline_path"]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _format_number(value: float) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


class SvgElement:
    """One SVG element with attributes, children and optional text."""

    def __init__(self, tag: str, **attributes):
        self.tag = tag
        self.attributes: Dict[str, Union[str, float, int]] = dict(attributes)
        self.children: List["SvgElement"] = []
        self.text: Optional[str] = None

    def add(self, child: "SvgElement") -> "SvgElement":
        self.children.append(child)
        return child

    def set(self, name: str, value: Union[str, float, int]) -> "SvgElement":
        self.attributes[name] = value
        return self

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        parts = [pad, "<", self.tag]
        for name, value in self.attributes.items():
            if value is None:
                continue
            # a formatted number cannot hold a character that needs escaping
            if isinstance(value, (int, float)):
                rendered = _format_number(value)
            else:
                rendered = _escape(str(value))
            parts.append(f' {name.replace("_", "-")}="{rendered}"')
        if not self.children and self.text is None:
            parts.append("/>")
            return "".join(parts)
        parts.append(">")
        if self.text is not None:
            parts.append(_escape(self.text))
        if self.children:
            parts.append("\n")
            for child in self.children:
                parts.append(child.render(indent + 1))
                parts.append("\n")
            parts.append(pad)
        parts.append(f"</{self.tag}>")
        return "".join(parts)


class SvgDocument:
    """A top-level ``<svg>`` with convenience constructors per shape."""

    def __init__(self, width: float, height: float, background: Optional[str] = None):
        self.width = width
        self.height = height
        self.root = SvgElement(
            "svg",
            xmlns="http://www.w3.org/2000/svg",
            width=width,
            height=height,
            viewBox=f"0 0 {_format_number(width)} {_format_number(height)}",
        )
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # -- shape helpers -----------------------------------------------------------

    def group(self, transform: Optional[str] = None, **attributes) -> SvgElement:
        group = SvgElement("g", **attributes)
        if transform:
            group.set("transform", transform)
        self.root.add(group)
        return group

    def rect(
        self, x: float, y: float, width: float, height: float, parent=None, **attributes
    ) -> SvgElement:
        element = SvgElement(
            "rect", x=x, y=y, width=max(0.0, width), height=max(0.0, height), **attributes
        )
        (parent or self.root).add(element)
        return element

    def circle(self, cx: float, cy: float, r: float, parent=None, **attributes) -> SvgElement:
        element = SvgElement("circle", cx=cx, cy=cy, r=max(0.0, r), **attributes)
        (parent or self.root).add(element)
        return element

    def line(
        self, x1: float, y1: float, x2: float, y2: float, parent=None, **attributes
    ) -> SvgElement:
        element = SvgElement("line", x1=x1, y1=y1, x2=x2, y2=y2, **attributes)
        (parent or self.root).add(element)
        return element

    def path(self, d: str, parent=None, **attributes) -> SvgElement:
        element = SvgElement("path", d=d, **attributes)
        (parent or self.root).add(element)
        return element

    def text(
        self, x: float, y: float, content: str, parent=None, **attributes
    ) -> SvgElement:
        element = SvgElement("text", x=x, y=y, **attributes)
        element.text = content
        (parent or self.root).add(element)
        return element

    def title(self, element: SvgElement, content: str) -> SvgElement:
        """Attach a ``<title>`` tooltip to *element*."""
        tooltip = SvgElement("title")
        tooltip.text = content
        element.children.insert(0, tooltip)
        return tooltip

    def render(self) -> str:
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + self.root.render() + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


def arc_path(
    cx: float, cy: float, a0: float, a1: float, r0: float, r1: float
) -> str:
    """An annular-sector path (the sunburst cell shape).

    Angles in radians, clockwise from 12 o'clock.  Full rings (span ~2*pi)
    are emitted as two half-arcs because a single SVG arc cannot span 360
    degrees.
    """
    span = a1 - a0
    if span <= 0:
        # Degenerate: a zero-width wedge renders as nothing.
        start = polar_to_cartesian(cx, cy, r1, a0)
        return f"M {start.x:.3f} {start.y:.3f}"
    if span >= 2.0 * math.pi - 1e-9:
        mid = a0 + span / 2.0
        return arc_path(cx, cy, a0, mid, r0, r1) + " " + arc_path(cx, cy, mid, a1, r0, r1)

    large = 1 if span > math.pi else 0
    outer_start = polar_to_cartesian(cx, cy, r1, a0)
    outer_end = polar_to_cartesian(cx, cy, r1, a1)
    parts = [
        f"M {outer_start.x:.3f} {outer_start.y:.3f}",
        f"A {r1:.3f} {r1:.3f} 0 {large} 1 {outer_end.x:.3f} {outer_end.y:.3f}",
    ]
    if r0 > 1e-9:
        inner_end = polar_to_cartesian(cx, cy, r0, a1)
        inner_start = polar_to_cartesian(cx, cy, r0, a0)
        parts.append(f"L {inner_end.x:.3f} {inner_end.y:.3f}")
        parts.append(f"A {r0:.3f} {r0:.3f} 0 {large} 0 {inner_start.x:.3f} {inner_start.y:.3f}")
    else:
        parts.append(f"L {cx:.3f} {cy:.3f}")
    parts.append("Z")
    return " ".join(parts)


def polyline_path(points: Sequence[Point]) -> str:
    """An open path through *points* (bundled edges, graph links)."""
    if not points:
        return ""
    parts = [f"M {points[0].x:.3f} {points[0].y:.3f}"]
    for point in points[1:]:
        parts.append(f"L {point.x:.3f} {point.y:.3f}")
    return " ".join(parts)
