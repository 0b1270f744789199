"""Data models for H-BOLD's pipeline artifacts.

Three artifacts flow through the server layer (§2.1):

* :class:`EndpointIndexes` -- the raw structural/statistical indexes the
  Index Extraction phase pulls from an endpoint (instance count, class
  count, per-class properties and counts, inter-class links),
* :class:`SchemaSummary` -- the pseudograph of instantiated classes,
* :class:`ClusterSchema` -- the community-detection aggregation of the
  Schema Summary.

All three serialize to plain documents for the MongoDB-substitute store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ClassIndex",
    "LinkIndex",
    "EndpointIndexes",
    "SchemaNode",
    "SchemaEdge",
    "SchemaSummary",
    "Cluster",
    "ClusterEdge",
    "ClusterSchema",
]


def _local_name(iri: str) -> str:
    if "#" in iri:
        tail = iri.rsplit("#", 1)[1]
        if tail:
            return tail
    return iri.rstrip("/").rsplit("/", 1)[-1] or iri


class ClassIndex:
    """Index entry for one instantiated class."""

    __slots__ = ("iri", "label", "instance_count", "datatype_properties")

    def __init__(
        self,
        iri: str,
        instance_count: int,
        label: Optional[str] = None,
        datatype_properties: Sequence[str] = (),
    ):
        self.iri = iri
        self.label = label or _local_name(iri)
        self.instance_count = int(instance_count)
        self.datatype_properties = sorted(set(datatype_properties))

    def to_doc(self) -> Dict[str, Any]:
        return {
            "iri": self.iri,
            "label": self.label,
            "instance_count": self.instance_count,
            "datatype_properties": list(self.datatype_properties),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ClassIndex":
        return cls(
            doc["iri"],
            doc["instance_count"],
            label=doc.get("label"),
            datatype_properties=doc.get("datatype_properties", ()),
        )

    def __repr__(self) -> str:
        return f"ClassIndex({self.label!r}, n={self.instance_count})"


class LinkIndex:
    """An object-property link between two classes, with its triple count."""

    __slots__ = ("source", "property", "target", "count")

    def __init__(self, source: str, property: str, target: str, count: int):
        self.source = source
        self.property = property
        self.target = target
        self.count = int(count)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "property": self.property,
            "target": self.target,
            "count": self.count,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "LinkIndex":
        return cls(doc["source"], doc["property"], doc["target"], doc["count"])

    def __repr__(self) -> str:
        return (
            f"LinkIndex({_local_name(self.source)} -{_local_name(self.property)}-> "
            f"{_local_name(self.target)} x{self.count})"
        )


class EndpointIndexes:
    """Everything Index Extraction learns about one endpoint (§2.1).

    "the indexes are the number of instances, the number of classes, the
    list of classes with the respective properties and the number of
    instances belonging to a specific class"
    """

    def __init__(
        self,
        endpoint_url: str,
        instance_count: int,
        classes: Sequence[ClassIndex],
        links: Sequence[LinkIndex],
        extracted_at_ms: float = 0.0,
        strategy: str = "aggregate",
        complete: bool = True,
        inferred: bool = False,
    ):
        self.endpoint_url = endpoint_url
        self.instance_count = int(instance_count)
        # Tuples, not lists: loaded models are shared through the storage
        # layer's read cache, so the sequences must be immutable.
        self.classes = tuple(classes)
        self.links = tuple(links)
        self.extracted_at_ms = float(extracted_at_ms)
        #: which pattern strategy produced the indexes ('aggregate' | 'scan')
        self.strategy = strategy
        #: False when truncation forced an approximate extraction
        self.complete = complete
        #: True when counts include rdfs:subClassOf inference (LODeX-style)
        self.inferred = inferred

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_by_iri(self, iri: str) -> ClassIndex:
        for cls in self.classes:
            if cls.iri == iri:
                return cls
        raise KeyError(iri)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "endpoint_url": self.endpoint_url,
            "instance_count": self.instance_count,
            "class_count": self.class_count,
            "classes": [cls.to_doc() for cls in self.classes],
            "links": [link.to_doc() for link in self.links],
            "extracted_at_ms": self.extracted_at_ms,
            "strategy": self.strategy,
            "complete": self.complete,
            "inferred": self.inferred,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "EndpointIndexes":
        return cls(
            doc["endpoint_url"],
            doc["instance_count"],
            [ClassIndex.from_doc(c) for c in doc["classes"]],
            [LinkIndex.from_doc(l) for l in doc["links"]],
            extracted_at_ms=doc.get("extracted_at_ms", 0.0),
            strategy=doc.get("strategy", "aggregate"),
            complete=doc.get("complete", True),
            inferred=doc.get("inferred", False),
        )

    def __repr__(self) -> str:
        return (
            f"<EndpointIndexes {self.endpoint_url!r}: {self.class_count} classes, "
            f"{self.instance_count} instances, {len(self.links)} links>"
        )


# ---------------------------------------------------------------------------
# Schema Summary
# ---------------------------------------------------------------------------


class SchemaNode:
    """A node of the Schema Summary: one instantiated class."""

    __slots__ = ("iri", "label", "instance_count", "datatype_properties")

    def __init__(
        self,
        iri: str,
        instance_count: int,
        label: Optional[str] = None,
        datatype_properties: Sequence[str] = (),
    ):
        self.iri = iri
        self.label = label or _local_name(iri)
        self.instance_count = int(instance_count)
        self.datatype_properties = sorted(set(datatype_properties))

    def to_doc(self) -> Dict[str, Any]:
        return {
            "iri": self.iri,
            "label": self.label,
            "instance_count": self.instance_count,
            "datatype_properties": list(self.datatype_properties),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SchemaNode":
        return cls(
            doc["iri"],
            doc["instance_count"],
            label=doc.get("label"),
            datatype_properties=doc.get("datatype_properties", ()),
        )

    def __repr__(self) -> str:
        return f"SchemaNode({self.label!r}, n={self.instance_count})"


class SchemaEdge:
    """A directed arc of the pseudograph: property from source to target class."""

    __slots__ = ("source", "property", "target", "count")

    def __init__(self, source: str, property: str, target: str, count: int = 1):
        self.source = source
        self.property = property
        self.target = target
        self.count = int(count)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "property": self.property,
            "target": self.target,
            "count": self.count,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SchemaEdge":
        return cls(doc["source"], doc["property"], doc["target"], doc.get("count", 1))

    def __repr__(self) -> str:
        return (
            f"SchemaEdge({_local_name(self.source)} -{_local_name(self.property)}-> "
            f"{_local_name(self.target)})"
        )


class SchemaSummary:
    """The pseudograph of instantiated classes (Benedetti et al. 2014/15).

    Multiple properties between the same class pair are kept as distinct
    edges (it *is* a pseudograph); self-loops are legal.
    """

    def __init__(
        self,
        endpoint_url: str,
        nodes: Sequence[SchemaNode],
        edges: Sequence[SchemaEdge],
        total_instances: int,
        computed_at_ms: float = 0.0,
    ):
        self.endpoint_url = endpoint_url
        # Tuples, not lists: loaded summaries are shared through the
        # storage layer's model cache, so the sequences must be immutable.
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.total_instances = int(total_instances)
        self.computed_at_ms = float(computed_at_ms)
        self._by_iri = {node.iri: node for node in self.nodes}
        if len(self._by_iri) != len(self.nodes):
            raise ValueError("duplicate class IRI in schema summary")
        # Degrees are read repeatedly by cluster labelling; precompute while
        # validating (nodes/edges are frozen after construction).
        degrees: Dict[str, int] = {}
        for edge in self.edges:
            if edge.source not in self._by_iri or edge.target not in self._by_iri:
                raise ValueError(f"edge {edge!r} references unknown class")
            degrees[edge.source] = degrees.get(edge.source, 0) + 1
            degrees[edge.target] = degrees.get(edge.target, 0) + 1
        self._degrees = degrees
        #: class -> neighbours in first-occurrence order; built by the first
        #: ``neighbours`` call, so indexing does not pay for exploration
        self._adjacency: Optional[Dict[str, Dict[str, None]]] = None

    @classmethod
    def from_indexes(
        cls, indexes: EndpointIndexes, computed_at_ms: float = 0.0
    ) -> "SchemaSummary":
        nodes = [
            SchemaNode(
                c.iri,
                c.instance_count,
                label=c.label,
                datatype_properties=c.datatype_properties,
            )
            for c in indexes.classes
        ]
        known = {node.iri for node in nodes}
        edges = [
            SchemaEdge(link.source, link.property, link.target, link.count)
            for link in indexes.links
            if link.source in known and link.target in known
        ]
        return cls(
            indexes.endpoint_url,
            nodes,
            edges,
            total_instances=indexes.instance_count,
            computed_at_ms=computed_at_ms,
        )

    # -- graph accessors ---------------------------------------------------------

    def node(self, iri: str) -> SchemaNode:
        return self._by_iri[iri]

    def __contains__(self, iri: str) -> bool:
        return iri in self._by_iri

    def class_iris(self) -> List[str]:
        return [node.iri for node in self.nodes]

    def degree(self, iri: str) -> int:
        """In-degree + out-degree counted over property arcs (§2.1 labels)."""
        return self._degrees.get(iri, 0)

    def neighbours(self, iri: str) -> List[str]:
        """Classes one property hop away (either direction), deduplicated,
        in the order the edges first name them."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = {}
            for edge in self.edges:
                if edge.source != edge.target:
                    adjacency.setdefault(edge.source, {})[edge.target] = None
                    adjacency.setdefault(edge.target, {})[edge.source] = None
            self._adjacency = adjacency
        return list(adjacency.get(iri, ()))

    def edges_between(self, left: str, right: str) -> List[SchemaEdge]:
        return [
            e
            for e in self.edges
            if (e.source == left and e.target == right)
            or (e.source == right and e.target == left)
        ]

    def instance_coverage(self, iris: Sequence[str]) -> float:
        """Fraction of instances covered by the classes *iris* (Figure 2's
        "percentage of the instances represented by the graph")."""
        if self.total_instances <= 0:
            return 0.0
        covered = sum(
            self._by_iri[iri].instance_count for iri in iris if iri in self._by_iri
        )
        return covered / self.total_instances

    # -- persistence -------------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        return {
            "endpoint_url": self.endpoint_url,
            "nodes": [node.to_doc() for node in self.nodes],
            "edges": [edge.to_doc() for edge in self.edges],
            "total_instances": self.total_instances,
            "computed_at_ms": self.computed_at_ms,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SchemaSummary":
        return cls(
            doc["endpoint_url"],
            [SchemaNode.from_doc(n) for n in doc["nodes"]],
            [SchemaEdge.from_doc(e) for e in doc["edges"]],
            total_instances=doc["total_instances"],
            computed_at_ms=doc.get("computed_at_ms", 0.0),
        )

    def __repr__(self) -> str:
        return (
            f"<SchemaSummary {self.endpoint_url!r}: {len(self.nodes)} classes, "
            f"{len(self.edges)} arcs>"
        )


# ---------------------------------------------------------------------------
# Cluster Schema
# ---------------------------------------------------------------------------


class Cluster:
    """One cluster of classes in the Cluster Schema."""

    __slots__ = ("cluster_id", "label", "class_iris", "instance_count")

    def __init__(
        self,
        cluster_id: int,
        label: str,
        class_iris: Sequence[str],
        instance_count: int,
    ):
        self.cluster_id = int(cluster_id)
        self.label = label
        self.class_iris = list(class_iris)
        self.instance_count = int(instance_count)

    @property
    def size(self) -> int:
        return len(self.class_iris)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "cluster_id": self.cluster_id,
            "label": self.label,
            "class_iris": list(self.class_iris),
            "instance_count": self.instance_count,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Cluster":
        return cls(
            doc["cluster_id"],
            doc["label"],
            doc["class_iris"],
            doc["instance_count"],
        )

    def __repr__(self) -> str:
        return f"Cluster(#{self.cluster_id} {self.label!r}, {self.size} classes)"


class ClusterEdge:
    """Aggregated connection between two clusters."""

    __slots__ = ("source", "target", "weight")

    def __init__(self, source: int, target: int, weight: int):
        self.source = int(source)
        self.target = int(target)
        self.weight = int(weight)

    def to_doc(self) -> Dict[str, Any]:
        return {"source": self.source, "target": self.target, "weight": self.weight}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ClusterEdge":
        return cls(doc["source"], doc["target"], doc["weight"])


class ClusterSchema:
    """The high-level view: clusters of classes + aggregated connections.

    Clusters never overlap ("the possibility that a node belongs to several
    Clusters is avoided") and each cluster's label comes from its
    highest-degree class (§2.1).
    """

    def __init__(
        self,
        endpoint_url: str,
        clusters: Sequence[Cluster],
        edges: Sequence[ClusterEdge],
        algorithm: str = "louvain",
        modularity: float = 0.0,
        computed_at_ms: float = 0.0,
    ):
        self.endpoint_url = endpoint_url
        # Tuples, not lists: loaded models are shared through the storage
        # layer's read cache, so the sequences must be immutable.
        self.clusters = tuple(clusters)
        self.edges = tuple(edges)
        self.algorithm = algorithm
        self.modularity = float(modularity)
        self.computed_at_ms = float(computed_at_ms)

        seen: Dict[str, int] = {}
        for cluster in self.clusters:
            for iri in cluster.class_iris:
                if iri in seen:
                    raise ValueError(
                        f"class {iri!r} is in clusters {seen[iri]} and {cluster.cluster_id}"
                    )
                seen[iri] = cluster.cluster_id
        self._cluster_of = seen

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def cluster(self, cluster_id: int) -> Cluster:
        for cluster in self.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster
        raise KeyError(cluster_id)

    def cluster_of(self, class_iri: str) -> int:
        return self._cluster_of[class_iri]

    def covers(self, class_iris: Sequence[str]) -> bool:
        return all(iri in self._cluster_of for iri in class_iris)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "endpoint_url": self.endpoint_url,
            "clusters": [cluster.to_doc() for cluster in self.clusters],
            "edges": [edge.to_doc() for edge in self.edges],
            "algorithm": self.algorithm,
            "modularity": self.modularity,
            "computed_at_ms": self.computed_at_ms,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ClusterSchema":
        return cls(
            doc["endpoint_url"],
            [Cluster.from_doc(c) for c in doc["clusters"]],
            [ClusterEdge.from_doc(e) for e in doc["edges"]],
            algorithm=doc.get("algorithm", "louvain"),
            modularity=doc.get("modularity", 0.0),
            computed_at_ms=doc.get("computed_at_ms", 0.0),
        )

    def __repr__(self) -> str:
        return (
            f"<ClusterSchema {self.endpoint_url!r}: {self.cluster_count} clusters, "
            f"algorithm={self.algorithm}>"
        )
