"""SPARQL 1.1 property paths (the subset schema tools use).

Supported path syntax in the predicate position:

* ``iri`` and ``a``            -- plain links
* ``^path``                    -- inverse
* ``path1 / path2``            -- sequence
* ``path1 | path2``            -- alternative
* ``path*`` / ``path+``        -- reflexive / transitive closure

This enables the "inferred schema" queries of the LODeX lineage, e.g.::

    SELECT ?s WHERE { ?s a/rdfs:subClassOf* ex:Agent }

Path evaluation yields (subject, object) pairs of terms; closures are
computed by BFS from the bound side (or over the whole node universe when
both ends are unbound, per the spec's zero-length-path semantics).  Every
pipeline evaluates a path here, at the term level, and each closure yields
its nodes in the order the BFS met them -- the start node first under
``*`` -- so a path's rows come out in the same order under every hash
seed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from ..rdf.graph import Graph
from ..rdf.terms import IRI, Term

__all__ = [
    "Path",
    "LinkPath",
    "InversePath",
    "SequencePath",
    "AlternativePath",
    "ClosurePath",
    "evaluate_path",
    "is_path",
]


class Path:
    """Base class: structural equality + repr over __slots__."""

    __slots__ = ()

    def _fields(self) -> Tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash((type(self),) + self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({inner})"


class LinkPath(Path):
    """A plain predicate IRI used inside a larger path."""

    __slots__ = ("iri",)

    def __init__(self, iri: IRI):
        self.iri = iri


class InversePath(Path):
    __slots__ = ("inner",)

    def __init__(self, inner: "PathLike"):
        self.inner = inner


class SequencePath(Path):
    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(steps)
        if len(self.steps) < 2:
            raise ValueError("sequence path needs at least two steps")


class AlternativePath(Path):
    __slots__ = ("choices",)

    def __init__(self, choices):
        self.choices = tuple(choices)
        if len(self.choices) < 2:
            raise ValueError("alternative path needs at least two choices")


class ClosurePath(Path):
    """``path*`` (include_zero=True) or ``path+`` (include_zero=False)."""

    __slots__ = ("inner", "include_zero")

    def __init__(self, inner: "PathLike", include_zero: bool):
        self.inner = inner
        self.include_zero = include_zero


PathLike = Union[Path, IRI]


def is_path(value) -> bool:
    return isinstance(value, Path)


def _node_universe(graph: Graph) -> Dict[Term, None]:
    """All subjects and objects -- the domain of zero-length paths -- in
    the order the graph's triples first name them."""
    nodes: Dict[Term, None] = {}
    for triple in graph.triples():
        nodes[triple.subject] = None
        nodes[triple.object] = None
    return nodes


def _step_pairs(
    graph: Graph, path: PathLike, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    """(s, o) pairs for a single-step path with optional bindings."""
    if isinstance(path, IRI):
        for triple in graph.triples(subject, path, obj):
            yield triple.subject, triple.object
        return
    if isinstance(path, LinkPath):
        yield from _step_pairs(graph, path.iri, subject, obj)
        return
    if isinstance(path, InversePath):
        for o, s in _step_pairs(graph, path.inner, obj, subject):
            yield s, o
        return
    if isinstance(path, AlternativePath):
        seen: Set[Tuple[Term, Term]] = set()
        for choice in path.choices:
            for pair in _step_pairs(graph, choice, subject, obj):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return
    if isinstance(path, SequencePath):
        yield from _sequence_pairs(graph, path.steps, subject, obj)
        return
    if isinstance(path, ClosurePath):
        yield from _closure_pairs(graph, path, subject, obj)
        return
    raise TypeError(f"not a path: {path!r}")


def _sequence_pairs(
    graph: Graph, steps, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    first, rest = steps[0], steps[1:]
    if not rest:
        yield from _step_pairs(graph, first, subject, obj)
        return
    seen: Set[Tuple[Term, Term]] = set()
    for s, middle in _step_pairs(graph, first, subject, None):
        for _, o in _sequence_pairs(graph, rest, middle, obj):
            if (s, o) not in seen:
                seen.add((s, o))
                yield s, o


def _closure_pairs(
    graph: Graph, path: ClosurePath, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    inner = path.inner

    def reachable(start: Term, forward: bool) -> Dict[Term, None]:
        """The nodes *inner* steps reach from *start* (towards it when not
        *forward*), in the order the BFS met them; *start* first under
        ``*``."""
        reached: Dict[Term, None] = {start: None} if path.include_zero else {}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if forward:
                steps = (o for _s, o in _step_pairs(graph, inner, node, None))
            else:
                steps = (s for s, _o in _step_pairs(graph, inner, None, node))
            for found in steps:
                if found not in reached:
                    reached[found] = None
                    queue.append(found)
        return reached

    if subject is not None:
        for target in reachable(subject, True):
            if obj is None or obj == target:
                yield subject, target
        return

    if obj is not None:
        for source in reachable(obj, False):
            yield source, obj
        return

    # both unbound: closure from every node in the universe
    for node in _node_universe(graph):
        for target in reachable(node, True):
            yield node, target


def evaluate_path(
    graph: Graph, path: PathLike, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    """All (subject, object) pairs connected by *path* under the bindings."""
    yield from _step_pairs(graph, path, subject, obj)
