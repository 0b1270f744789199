"""A minimal SVG writer.

The original H-BOLD presentation layer lets D3 emit SVG in the browser;
here the layouts are computed in Python and written to standalone SVG
through this module.  Only the elements the figures need are written:
rect, circle, path, text, line, group, title (tooltips).  Each element's
markup is formatted once, when it is drawn: a shape call appends the
finished line to its parent's body, and ``render`` only joins the bodies.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Sequence, Union

from .geometry import polar_to_cartesian

__all__ = ["SvgDocument", "SvgGroup", "arc_path", "escape", "polyline_path"]

#: what XML 1.0 forbids in a document: the C0 controls but tab, newline and
#: carriage return, lone surrogates, and the noncharacters U+FFFE and U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def escape(text: str) -> str:
    """*text* as XML character data or an attribute value: ``& < > "``
    become entities and a character XML 1.0 forbids becomes U+FFFD."""
    # str.isprintable() is False for every character XML forbids
    if text.isprintable() and not ("&" in text or "<" in text or ">" in text or '"' in text):
        return text
    return (
        _NOT_XML.sub("\ufffd", text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _number(value, tag: str, name: str) -> str:
    """The text of attribute *name* of a ``<tag>``: an integral float below
    1e15 as an int, any other float to three decimals, an int or a bool by
    ``str``; a value that is not a number is escaped text."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"<{tag}> {name}={value!r}: not a finite number")
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3f}"
    return str(value) if isinstance(value, int) else escape(str(value))


def _attributes(tag: str, attributes) -> str:
    """`` name="value"`` per keyword, in call order: ``_`` in a name is
    written ``-`` and a None value is left out."""
    markup = []
    for name, value in attributes.items():
        if value is not None:
            name = name.replace("_", "-")
            text = escape(value) if type(value) is str else _number(value, tag, name)
            markup.append(f' {name}="{text}"')
    return "".join(markup)


class SvgGroup:
    """A ``<g>`` (or the document's ``<svg>``): its body holds each child's
    finished markup, and the child groups themselves."""

    __slots__ = ("start", "end", "indent", "body")

    def __init__(self, start: str, end: str, indent: str):
        self.start, self.end = start, end  # the tags, the start one without ">"
        self.indent = indent  # the children's
        self.body: List[Union[str, SvgGroup]] = []

    def markup(self) -> str:
        if not self.body:
            return self.start + "/>"
        lines = [line if type(line) is str else line.markup() for line in self.body]
        return f"{self.start}>\n" + "\n".join(lines) + f"\n{self.end}"


class SvgDocument:
    """A top-level ``<svg>`` with one call per shape: a shape is drawn into
    *parent* (a group) or the document, and *title* is its tooltip."""

    def __init__(self, width: float, height: float, background: Optional[str] = None):
        w, h = _number(width, "svg", "width"), _number(height, "svg", "height")
        self.root = SvgGroup(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}"',
            "</svg>",
            "  ",
        )
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    def group(self, transform: Optional[str] = None, parent=None, **attributes) -> SvgGroup:
        parent = parent or self.root
        if transform:
            attributes["transform"] = transform
        pad = parent.indent
        group = SvgGroup(f"{pad}<g{_attributes('g', attributes)}", f"{pad}</g>", pad + "  ")
        parent.body.append(group)
        return group

    def rect(
        self, x: float, y: float, width: float, height: float,
        parent=None, title=None, **attributes,
    ) -> None:
        width, height = max(0.0, width), max(0.0, height)
        geometry = (
            f'x="{_number(x, "rect", "x")}" y="{_number(y, "rect", "y")}" '
            f'width="{_number(width, "rect", "width")}" '
            f'height="{_number(height, "rect", "height")}"'
        )
        self._shape(parent, "rect", geometry, attributes, title)

    def circle(
        self, cx: float, cy: float, r: float, parent=None, title=None, **attributes
    ) -> None:
        geometry = (
            f'cx="{_number(cx, "circle", "cx")}" cy="{_number(cy, "circle", "cy")}" '
            f'r="{_number(max(0.0, r), "circle", "r")}"'
        )
        self._shape(parent, "circle", geometry, attributes, title)

    def line(self, x1: float, y1: float, x2: float, y2: float, parent=None, **attributes) -> None:
        geometry = (
            f'x1="{_number(x1, "line", "x1")}" y1="{_number(y1, "line", "y1")}" '
            f'x2="{_number(x2, "line", "x2")}" y2="{_number(y2, "line", "y2")}"'
        )
        self._shape(parent, "line", geometry, attributes)

    def path(self, d: str, parent=None, title=None, **attributes) -> None:
        self._shape(parent, "path", f'd="{escape(d)}"', attributes, title)

    def text(self, x: float, y: float, content: str, parent=None, **attributes) -> None:
        geometry = f'x="{_number(x, "text", "x")}" y="{_number(y, "text", "y")}"'
        self._shape(parent, "text", geometry, attributes, content=content)

    def _shape(self, parent, tag, geometry, attributes, title=None, content=None) -> None:
        parent = parent or self.root
        pad = parent.indent
        start = f"{pad}<{tag} {geometry}{_attributes(tag, attributes)}"
        if content is not None:
            parent.body.append(f"{start}>{escape(content)}</{tag}>")
        elif title is not None:
            parent.body.append(f"{start}>\n{pad}  <title>{escape(title)}</title>\n{pad}</{tag}>")
        else:
            parent.body.append(start + "/>")

    def render(self) -> str:
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + self.root.markup() + "\n"

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


def polyline_path(xs: Sequence[float], ys: Sequence[float]) -> str:
    """An open path through the points ``(xs[i], ys[i])`` (bundled edges).

    One ``%`` over a format built for this length: ``"%.3f" % v`` is
    ``f"{v:.3f}"``, ``-0.000`` and ``nan`` included.
    """
    n = len(xs)
    if not n:
        return ""
    coordinates = [0.0] * (2 * n)  # x0, y0, x1, y1, ...
    coordinates[::2] = xs
    coordinates[1::2] = ys
    return ("M %.3f %.3f" + " L %.3f %.3f" * (n - 1)) % tuple(coordinates)
