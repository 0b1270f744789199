"""Interactive exploration sessions (Figure 2's step-by-step workflow).

A session walks the presentation-layer states:

1. show the Cluster Schema (step 1),
2. select a class inside a cluster -> focused view of that class, its
   connections and attributes (step 2),
3. iteratively expand connections from displayed classes (step 3), with
   the UI reporting "the percentage of the instances represented by the
   graph and the total number of nodes" at every step,
4. until the full Schema Summary is displayed (step 4) -- or start
   directly from the Schema Summary.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .models import ClusterSchema, SchemaEdge, SchemaSummary

__all__ = ["ExplorationSession", "ExplorationStep"]


class ExplorationStep:
    """A snapshot of what the user sees after one interaction."""

    __slots__ = (
        "action",
        "visible_classes",
        "visible_edges",
        "node_count",
        "instance_coverage",
        "focus",
    )

    def __init__(
        self,
        action: str,
        visible_classes: Sequence[str],
        visible_edges: Sequence[SchemaEdge],
        instance_coverage: float,
        focus: Optional[str] = None,
    ):
        self.action = action
        self.visible_classes = list(visible_classes)
        self.visible_edges = list(visible_edges)
        self.node_count = len(self.visible_classes)
        self.instance_coverage = instance_coverage
        self.focus = focus

    def __repr__(self) -> str:
        return (
            f"<ExplorationStep {self.action!r}: {self.node_count} nodes, "
            f"{self.instance_coverage:.1%} of instances>"
        )


class ExplorationSession:
    """Stateful exploration over one dataset's summary + cluster schema.

    ``spotlight`` is an optional live-query hook ``(class_iri) ->
    [(entity_iri, degree), ...]`` -- typically
    :meth:`~repro.core.index_extraction.IndexExtractor.top_entities`
    bound to the session's endpoint.  When present, the class-detail
    panel includes the class's dominant entities; the underlying
    aggregate + ``ORDER BY ... LIMIT k`` query rides the engine's
    columnar aggregate sink (and the endpoint's shared plan cache, so the
    repeated per-class template re-plans nothing).
    """

    def __init__(
        self,
        summary: SchemaSummary,
        cluster_schema: ClusterSchema,
        spotlight: Optional[Callable[[str], List[Tuple[str, int]]]] = None,
    ):
        if cluster_schema.endpoint_url != summary.endpoint_url:
            raise ValueError("summary and cluster schema belong to different endpoints")
        self.summary = summary
        self.cluster_schema = cluster_schema
        self._spotlight = spotlight
        self._visible: Set[str] = set()
        self._focus: Optional[str] = None
        self.history: List[ExplorationStep] = []

    # -- state inspection -----------------------------------------------------------

    @property
    def visible_classes(self) -> List[str]:
        return sorted(self._visible)

    def visible_edges(self) -> List[SchemaEdge]:
        """Arcs with both ends displayed (what the graph view draws)."""
        return [
            edge
            for edge in self.summary.edges
            if edge.source in self._visible and edge.target in self._visible
        ]

    def instance_coverage(self) -> float:
        return self.summary.instance_coverage(self.visible_classes)

    def is_complete(self) -> bool:
        """True when the full Schema Summary is displayed (Figure 2 step 4)."""
        return self._visible == set(self.summary.class_iris())

    def expandable_classes(self) -> List[str]:
        """Visible classes that still have hidden neighbours."""
        out = []
        for iri in sorted(self._visible):
            if any(n not in self._visible for n in self.summary.neighbours(iri)):
                out.append(iri)
        return out

    # -- the Figure 2 interactions -----------------------------------------------------

    def start_from_cluster_schema(self) -> ExplorationStep:
        """Step 1: the Cluster Schema view (no classes displayed yet)."""
        self._visible.clear()
        self._focus = None
        return self._snapshot("view-cluster-schema")

    def select_class(self, class_iri: str) -> ExplorationStep:
        """Step 2: focus on one class -- show it and its direct connections."""
        if class_iri not in self.summary:
            raise KeyError(f"unknown class {class_iri!r}")
        self._focus = class_iri
        self._visible = {class_iri}
        self._visible.update(self.summary.neighbours(class_iri))
        return self._snapshot("select-class", focus=class_iri)

    def expand(self, class_iri: str) -> ExplorationStep:
        """Step 3: expand the connections starting from a displayed class."""
        if class_iri not in self._visible:
            raise ValueError(f"class {class_iri!r} is not displayed; select it first")
        self._visible.update(self.summary.neighbours(class_iri))
        return self._snapshot("expand", focus=class_iri)

    def expand_all(self, max_rounds: int = 1000) -> List[ExplorationStep]:
        """Repeat expansion until the full Schema Summary is shown.

        Classes unreachable from the current view (disconnected schema
        components) are revealed at the end in one final step, mirroring
        the complete Schema Summary visualization.
        """
        steps: List[ExplorationStep] = []
        for _ in range(max_rounds):
            frontier = self.expandable_classes()
            if not frontier:
                break
            steps.append(self.expand(frontier[0]))
        if not self.is_complete():
            self._visible.update(self.summary.class_iris())
            steps.append(self._snapshot("show-schema-summary"))
        return steps

    def start_from_schema_summary(self) -> ExplorationStep:
        """The alternative entry point: the complete class graph at once."""
        self._visible = set(self.summary.class_iris())
        self._focus = None
        return self._snapshot("view-schema-summary")

    def class_details(self, class_iri: str) -> Dict:
        """The attribute/connection panel for a class (Figure 2 steps 2-3)."""
        node = self.summary.node(class_iri)
        incoming = [e for e in self.summary.edges if e.target == class_iri]
        outgoing = [e for e in self.summary.edges if e.source == class_iri]
        details = {
            "iri": node.iri,
            "label": node.label,
            "instance_count": node.instance_count,
            "attributes": list(node.datatype_properties),
            "incoming": [(e.source, e.property, e.count) for e in incoming],
            "outgoing": [(e.property, e.target, e.count) for e in outgoing],
            "cluster": (
                self.cluster_schema.cluster_of(class_iri)
                if self.cluster_schema.covers([class_iri])
                else None
            ),
        }
        if self._spotlight is not None:
            details["top_entities"] = self._spotlight(class_iri)
        return details

    # -- internals -----------------------------------------------------------------

    def _snapshot(self, action: str, focus: Optional[str] = None) -> ExplorationStep:
        step = ExplorationStep(
            action,
            self.visible_classes,
            self.visible_edges(),
            self.instance_coverage(),
            focus=focus or self._focus,
        )
        self.history.append(step)
        return step
