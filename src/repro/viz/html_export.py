"""Standalone HTML export for the rendered figures.

Wraps one or more SVG documents into a single self-contained HTML page
(no JavaScript, no external assets) so the artifacts can be opened in a
browser exactly like the original H-BOLD views -- tooltips come from the
embedded ``<title>`` elements.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .svg import SvgDocument, escape

__all__ = ["html_page", "save_html_page"]

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font-family: sans-serif; margin: 2rem; background: #fafafa; color: #222; }}
  h1 {{ font-size: 1.4rem; }}
  h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
  figure {{ margin: 0 0 2rem 0; border: 1px solid #ddd; background: #fff;
            padding: 1rem; display: inline-block; }}
  figcaption {{ font-size: 0.85rem; color: #666; margin-top: 0.5rem; }}
</style>
</head>
<body>
<h1>{title}</h1>
{body}
</body>
</html>
"""


def html_page(
    title: str, figures: Sequence[Tuple[str, SvgDocument]], intro: Optional[str] = None
) -> str:
    """Build an HTML page embedding ``(caption, svg)`` figures in order, text escaped."""
    sections: List[str] = []
    if intro:
        sections.append(f"<p>{escape(intro)}</p>")
    for caption, document in figures:
        svg_markup = document.render()
        # strip the XML prolog; inline SVG doesn't want it
        if svg_markup.startswith("<?xml"):
            svg_markup = svg_markup.split("?>", 1)[1].lstrip()
        sections.append(
            f"<figure>\n{svg_markup}<figcaption>{escape(caption)}</figcaption>\n</figure>"
        )
    return _TEMPLATE.format(title=escape(title), body="\n".join(sections))


def save_html_page(
    path: str,
    title: str,
    figures: Sequence[Tuple[str, SvgDocument]],
    intro: Optional[str] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html_page(title, figures, intro=intro))
