"""Visualization substrate: the D3 replacement.

Implements the layout algorithms behind the paper's figures --
squarified treemap (Fig. 4), sunburst partition (Fig. 5), circle packing
(Fig. 6), Holten hierarchical edge bundling (Fig. 7) and a d3-force-style
graph layout (Fig. 2) -- plus SVG/HTML writers so every figure can be
regenerated as a standalone artifact.
"""

from .circlepack import circlepack_layout, pack_siblings
from .color import CATEGORY10, CATEGORY20, Color, categorical_color, darken, lighten
from .edge_bundling import (
    BundledEdge,
    EdgeBundlingDiagram,
    RadialLeaf,
    edge_bundling_layout,
)
from .force_layout import ForceLayout, force_layout
from .geometry import Circle, Point, Rect, bspline_points, enclosing_circle
from .hierarchy import HierarchyNode, hierarchy_from_dict
from .html_export import html_page, save_html_page
from .renderers import (
    render_circlepack,
    render_cluster_graph,
    render_edge_bundling,
    render_graph,
    render_sunburst,
    render_treemap,
)
from .sunburst import Arc, sunburst_layout
from .svg import SvgDocument, SvgGroup, arc_path, polyline_path
from .treemap import treemap_layout

__all__ = [
    "Arc",
    "BundledEdge",
    "CATEGORY10",
    "CATEGORY20",
    "Circle",
    "Color",
    "EdgeBundlingDiagram",
    "ForceLayout",
    "HierarchyNode",
    "Point",
    "RadialLeaf",
    "Rect",
    "SvgDocument",
    "SvgGroup",
    "arc_path",
    "bspline_points",
    "categorical_color",
    "circlepack_layout",
    "darken",
    "edge_bundling_layout",
    "enclosing_circle",
    "force_layout",
    "hierarchy_from_dict",
    "html_page",
    "lighten",
    "pack_siblings",
    "polyline_path",
    "render_circlepack",
    "render_cluster_graph",
    "render_edge_bundling",
    "render_graph",
    "render_sunburst",
    "render_treemap",
    "save_html_page",
    "sunburst_layout",
    "treemap_layout",
]
