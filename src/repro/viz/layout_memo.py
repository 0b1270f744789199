"""One memo for every layout in :mod:`repro.viz`.

Each layout here is deterministic: the force view starts from a seeded
phyllotaxis spiral and has no randomness afterwards, and the treemap,
sunburst, circle packing and edge bundling read nothing but the
hierarchy's names, values and shape.  So each is a pure function of its
input's content and its arguments, and each is memoised as one: a view or
a figure is laid out the first time it is displayed and looked up
afterwards (the paper's compute-once-display-instantly, applied to
positions and shapes).

The key is the layout (the module-level function that computes it), the
input's content and the layout's arguments.  A hierarchy's content is its
pre-order ``(name, value, child count)`` per node, read after
``sum_values()``; on a miss the layout runs on a tree rebuilt from that
key, so an entry is a pure function of its key.  Nothing invalidates the
memo because nothing can make an entry wrong: a re-indexed dataset whose
schema changed is a different key.  An entry holds immutable geometry
(``Point``, ``Rect``, ``Arc``, ``Circle``) or columns that every call
copies, so no caller can change what the next one is given.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Mapping, Sequence, Tuple

from .hierarchy import HierarchyNode

__all__ = [
    "LAYOUT_CACHE_SIZE",
    "check_layout_arguments",
    "hierarchy_content",
    "layout_cache_clear",
    "layout_cache_info",
    "memoised",
    "rebuild_hierarchy",
]

#: Sized to the measured working set.  A dataset has two force views (its
#: Cluster Schema and its full Schema Summary) and four figures (treemap,
#: sunburst, circle packing, edge bundling at the facade's defaults), so
#: the 110-endpoint census asks for 220 force views and 440 figures, held
#: as 80 force + 440 figure entries (equal graphs share a key): about
#: 2.1 MB with their keys.  The paper's 610 listed endpoints would need up
#: to 3,660 entries; raise this with the fleet, since a sweep larger than
#: the LRU evicts every view before it recurs.
LAYOUT_CACHE_SIZE = 1024

Content = Tuple[Tuple[str, float, int], ...]


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def memoised(layout, content, arguments):
    """``layout(content, *arguments)``, computed once per key and kept in
    the LRU (``LAYOUT_CACHE_SIZE`` entries)."""
    return layout(content, *arguments)


def hierarchy_content(nodes: Sequence[HierarchyNode]) -> Content:
    """The content key of a tree given as its pre-order *nodes*."""
    return tuple([(node.name, node.value, len(node.children)) for node in nodes])


def rebuild_hierarchy(content: Content, depth: int = 0) -> List[HierarchyNode]:
    """The pre-order nodes of a fresh tree with *content*, its root at
    *depth*."""
    nodes = [HierarchyNode(name, value) for name, value, _ in content]
    nodes[0].depth = depth
    open_parents: List[list] = []  # [node, children still to attach]
    for node, (_, _, count) in zip(nodes, content):
        while open_parents and not open_parents[-1][1]:
            open_parents.pop()
        if open_parents:
            open_parents[-1][0].add_child(node)
            open_parents[-1][1] -= 1
        open_parents.append([node, count])
    return nodes


def check_layout_arguments(
    extents: Mapping[str, object], counts: Mapping[str, object] = {}
) -> None:
    """Refuse a layout argument before any node is written or any key is
    built: an extent must be a finite number > 0 and a count an int >= 1
    (a bool is neither)."""
    for name, value in extents.items():
        number = isinstance(value, (int, float)) and type(value) is not bool
        if not (number and 0 < value < math.inf):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    for name, value in counts.items():
        if not (isinstance(value, int) and type(value) is not bool and value >= 1):
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def layout_cache_info():
    """Hit/miss statistics of the layout LRU (for benchmarks and tests)."""
    return memoised.cache_info()


def layout_cache_clear() -> None:
    """Drop every cached layout, force views and figures alike (for
    benchmarks and tests)."""
    memoised.cache_clear()
