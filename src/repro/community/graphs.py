"""Undirected weighted graphs for community detection.

The Schema Summary is a directed pseudograph; community detection (Po &
Malvezzi 2018, the companion work H-BOLD builds on) runs on its undirected
weighted projection: parallel edges sum their weights, direction is
dropped, self-loops are kept (they matter in the modularity formula).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

__all__ = ["UndirectedGraph", "CompactGraph"]

Node = Hashable
Edge = Tuple[Node, Node, float]


class CompactGraph:
    """A dictionary-encoded projection of an :class:`UndirectedGraph`.

    Nodes are interned to dense integers (insertion order), adjacency
    becomes a list of ``(neighbour_index, weight)`` lists and weighted
    degrees are precomputed -- the same encoding trick the RDF layer uses,
    applied to community detection so the inner Louvain loops hash ints
    instead of arbitrary node objects.  Instances are immutable snapshots;
    the owning graph invalidates its cached snapshot on mutation.
    """

    __slots__ = ("nodes", "index", "neighbours", "degrees", "total_weight", "_repr_order")

    def __init__(self, adjacency: Dict[Node, Dict[Node, float]], total_weight: float):
        self._repr_order: Optional[List[int]] = None
        self.nodes: List[Node] = list(adjacency)
        self.index: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        index = self.index
        self.neighbours: List[List[Tuple[int, float]]] = []
        self.degrees: List[float] = []
        for node in self.nodes:
            items = adjacency[node]
            self.neighbours.append([(index[other], w) for other, w in items.items()])
            # Self-loops count twice, matching UndirectedGraph.degree().
            self.degrees.append(sum(items.values()) + items.get(node, 0.0))
        self.total_weight = total_weight

    def __len__(self) -> int:
        return len(self.nodes)

    def repr_order(self) -> List[int]:
        """Node indexes sorted by ``repr`` of their node -- the deterministic
        base visiting order community detection shuffles from.  Cached; a
        fresh copy is returned because callers shuffle it in place."""
        if self._repr_order is None:
            nodes = self.nodes
            self._repr_order = sorted(range(len(nodes)), key=lambda i: repr(nodes[i]))
        return list(self._repr_order)


class UndirectedGraph:
    """An adjacency-map weighted undirected graph with self-loops.

    Node objects only need to be hashable.  Edge weights accumulate when
    the same edge is added twice (pseudograph projection).
    """

    def __init__(self):
        self._adjacency: Dict[Node, Dict[Node, float]] = {}
        self._total_weight = 0.0  # sum of edge weights, self-loops counted once
        self._compact: Optional[CompactGraph] = None

    # -- construction ----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self._compact = None

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u][v] = self._adjacency[u].get(v, 0.0) + weight
        if u != v:
            self._adjacency[v][u] = self._adjacency[v].get(u, 0.0) + weight
        self._total_weight += weight
        self._compact = None

    def remove_edge(self, u: Node, v: Node) -> float:
        """Remove the edge entirely; return its weight (0 if absent)."""
        weight = self._adjacency.get(u, {}).pop(v, 0.0)
        if weight and u != v:
            self._adjacency[v].pop(u, None)
        if weight:
            self._total_weight -= weight
            self._compact = None
        return weight

    # -- dictionary-encoded snapshot -------------------------------------------

    def compact(self) -> CompactGraph:
        """The cached :class:`CompactGraph` snapshot (rebuilt after mutation)."""
        if self._compact is None:
            self._compact = CompactGraph(self._adjacency, self._total_weight)
        return self._compact

    def copy(self) -> "UndirectedGraph":
        out = UndirectedGraph()
        for node in self._adjacency:
            out.add_node(node)
        for u, v, w in self.edges():
            out.add_edge(u, v, w)
        return out

    # -- accessors --------------------------------------------------------------

    def nodes(self) -> List[Node]:
        return list(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def edges(self) -> Iterator[Edge]:
        """Each undirected edge once (u <= v by insertion discipline)."""
        seen: Set[object] = set()
        for u, neighbours in self._adjacency.items():
            for v, weight in neighbours.items():
                key = (u,) if u == v else frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield u, v, weight

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def neighbours(self, node: Node) -> Dict[Node, float]:
        """Mapping neighbour -> accumulated weight (includes self if loop)."""
        return dict(self._adjacency.get(node, {}))

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._adjacency.get(u, {})

    def edge_weight(self, u: Node, v: Node) -> float:
        return self._adjacency.get(u, {}).get(v, 0.0)

    def degree(self, node: Node) -> float:
        """Weighted degree; self-loops count twice (modularity convention)."""
        neighbours = self._adjacency.get(node, {})
        total = sum(neighbours.values())
        loop = neighbours.get(node, 0.0)
        return total + loop

    def total_weight(self) -> float:
        """Sum of edge weights (m in the modularity formula)."""
        return self._total_weight

    def connected_components(self) -> List[Set[Node]]:
        """Connected components as sets of nodes (iterative DFS)."""
        remaining = set(self._adjacency)
        components: List[Set[Node]] = []
        while remaining:
            start = next(iter(remaining))
            stack = [start]
            component: Set[Node] = set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(
                    neighbour
                    for neighbour in self._adjacency[node]
                    if neighbour not in component
                )
            components.append(component)
            remaining -= component
        return components

    def subgraph(self, nodes: Set[Node]) -> "UndirectedGraph":
        out = UndirectedGraph()
        for node in nodes:
            if node in self._adjacency:
                out.add_node(node)
        for u, v, w in self.edges():
            if u in nodes and v in nodes:
                out.add_edge(u, v, w)
        return out

    def __repr__(self) -> str:
        return f"<UndirectedGraph {len(self)} nodes, {self.edge_count()} edges>"
