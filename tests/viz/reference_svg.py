"""The element-tree SVG writer, kept as the oracle.

This is ``repro.viz.svg`` as it stood before the draw-time writer replaced
it: every shape is first stored as an ``SvgElement`` holding an attribute
dict, a tooltip is attached afterwards by ``SvgDocument.title``, and
``render`` walks the tree recursively.  ``test_svg_writer.py`` requires the
draw-time writer to produce the same bytes for any document this one can
draw (strings without characters XML forbids, finite numbers).  Do not
optimise it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

__all__ = ["SvgElement", "SvgDocument"]


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
