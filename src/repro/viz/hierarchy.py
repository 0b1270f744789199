"""A d3-hierarchy-style tree model feeding the hierarchical layouts.

The Cluster Schema maps naturally onto a two-level hierarchy (dataset ->
clusters -> classes); the treemap, sunburst and circle-pack layouts all
consume :class:`HierarchyNode` trees, mirroring how H-BOLD feeds D3.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["HierarchyNode", "hierarchy_from_dict"]


class HierarchyNode:
    """A tree node with a name, an optional value, payload and children."""

    def __init__(
        self,
        name: str,
        value: Optional[float] = None,
        data: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.value = value  # leaf quantity, or aggregate after sum()
        self.data: Dict[str, Any] = data or {}
        self.children: List["HierarchyNode"] = []
        self.parent: Optional["HierarchyNode"] = None
        self.depth = 0
        # Layout outputs, populated by the layout algorithms:
        self.rect = None        # treemap
        self.arc = None         # sunburst: (a0, a1, r0, r1)
        self.circle = None      # circle packing

    # -- construction ----------------------------------------------------------

    def add_child(self, child: "HierarchyNode") -> "HierarchyNode":
        child.parent = self
        child.depth = self.depth + 1
        child._renumber()
        self.children.append(child)
        return child

    def _renumber(self) -> None:
        for child in self.children:
            child.depth = self.depth + 1
            child._renumber()

    # -- traversal --------------------------------------------------------------

    def is_leaf(self) -> bool:
        return not self.children

    def each(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal, self first."""
        yield self
        for child in self.children:
            yield from child.each()

    def each_after(self) -> Iterator["HierarchyNode"]:
        """Post-order traversal, self last."""
        for child in self.children:
            yield from child.each_after()
        yield self

    def leaves(self) -> List["HierarchyNode"]:
        return [node for node in self.each() if node.is_leaf()]

    def ancestors(self) -> List["HierarchyNode"]:
        """Self up to the root, inclusive."""
        chain = [self]
        node = self
        while node.parent is not None:
            node = node.parent
            chain.append(node)
        return chain

    def path_to(self, other: "HierarchyNode") -> List["HierarchyNode"]:
        """The tree path self -> ... -> LCA -> ... -> other."""
        own = self.ancestors()
        theirs = other.ancestors()
        own_set = {id(node) for node in own}
        lca = None
        for node in theirs:
            if id(node) in own_set:
                lca = node
                break
        if lca is None:
            raise ValueError("nodes are not in the same tree")
        up = []
        for node in own:
            up.append(node)
            if node is lca:
                break
        down = []
        for node in theirs:
            if node is lca:
                break
            down.append(node)
        return up + list(reversed(down))

    def height(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + max(child.height() for child in self.children)

    def find(self, name: str) -> Optional["HierarchyNode"]:
        for node in self.each():
            if node.name == name:
                return node
        return None

    # -- aggregation -------------------------------------------------------------

    def sum_values(self, default_leaf: float = 1.0) -> "HierarchyNode":
        """Bottom-up value aggregation (d3's ``node.sum``).

        Leaves keep their own value (or *default_leaf* when unset,
        implementing the paper's "if no quantity is assigned... divided
        equally" rule); internal nodes become the total of their children.
        """
        for node in self.each_after():
            if node.is_leaf():
                if node.value is None:
                    node.value = default_leaf
            else:
                node.value = sum(child.value for child in node.children)
        return self

    def __repr__(self) -> str:
        return (
            f"<HierarchyNode {self.name!r} value={self.value} "
            f"children={len(self.children)}>"
        )


def hierarchy_from_dict(payload: Dict[str, Any]) -> HierarchyNode:
    """Build a tree from the nested-dict format (``name``/``value``/``children``).

    This is the same JSON shape D3 examples use, so fixtures written for
    the original H-BOLD front end translate directly.
    """
    node = HierarchyNode(
        str(payload.get("name", "")),
        value=payload.get("value"),
        data={k: v for k, v in payload.items() if k not in ("name", "value", "children")},
    )
    for child in payload.get("children", []):
        node.add_child(hierarchy_from_dict(child))
    return node
