"""Unit tests for the pipeline data models and their persistence round-trips."""

import pytest

from repro.core.models import (
    ClassIndex,
    Cluster,
    ClusterEdge,
    ClusterSchema,
    EndpointIndexes,
    LinkIndex,
    SchemaEdge,
    SchemaNode,
    SchemaSummary,
)

NS = "http://x.example.org/"


def sample_indexes() -> EndpointIndexes:
    classes = [
        ClassIndex(NS + "A", 100, datatype_properties=[NS + "name"]),
        ClassIndex(NS + "B", 50),
        ClassIndex(NS + "C", 10),
    ]
    links = [
        LinkIndex(NS + "A", NS + "p", NS + "B", 80),
        LinkIndex(NS + "B", NS + "q", NS + "C", 5),
        LinkIndex(NS + "A", NS + "r", NS + "A", 3),  # self-loop
    ]
    return EndpointIndexes("http://e/sparql", 160, classes, links, strategy="aggregate")


class TestEndpointIndexes:
    def test_counts(self):
        indexes = sample_indexes()
        assert indexes.class_count == 3
        assert indexes.instance_count == 160

    def test_class_by_iri(self):
        indexes = sample_indexes()
        assert indexes.class_by_iri(NS + "B").instance_count == 50
        with pytest.raises(KeyError):
            indexes.class_by_iri(NS + "Missing")

    def test_doc_round_trip(self):
        indexes = sample_indexes()
        reloaded = EndpointIndexes.from_doc(indexes.to_doc())
        assert reloaded.endpoint_url == indexes.endpoint_url
        assert reloaded.class_count == 3
        assert reloaded.links[0].count == 80
        assert reloaded.strategy == "aggregate"

    def test_label_defaults_to_local_name(self):
        assert ClassIndex("http://x/onto#Person", 5).label == "Person"


class TestSchemaSummary:
    def test_from_indexes(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        assert len(summary.nodes) == 3
        assert len(summary.edges) == 3
        assert summary.total_instances == 160

    def test_from_indexes_drops_dangling_links(self):
        indexes = sample_indexes()
        # model sequences are immutable tuples; build an extended copy
        indexes.links = indexes.links + (LinkIndex(NS + "A", NS + "p", NS + "Ghost", 1),)
        summary = SchemaSummary.from_indexes(indexes)
        assert all(edge.target != NS + "Ghost" for edge in summary.edges)

    def test_degree_counts_both_directions(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        # A: out p->B, out r->A (self loop: +1 out +1 in) = 3 total
        assert summary.degree(NS + "A") == 3
        assert summary.degree(NS + "B") == 2
        assert summary.degree(NS + "C") == 1

    def test_neighbours(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        assert set(summary.neighbours(NS + "B")) == {NS + "A", NS + "C"}
        assert NS + "A" not in summary.neighbours(NS + "A")  # self excluded

    def test_neighbours_keep_the_edge_scan_order(self):
        """``expand_all`` histories depend on this order: first occurrence
        in edge order, either direction, each class once, self excluded --
        what a scan of the edge list per call used to produce."""
        a, b, c, d, e = (NS + name for name in "ABCDE")
        pairs = [
            (c, a), (a, b), (a, a), (a, c),  # C before B; self-loop; C again
            (b, a), (a, b),                  # parallel edges, both directions
            (d, b), (b, c), (c, d), (d, a),
        ]
        summary = SchemaSummary(
            "http://e/sparql",
            [SchemaNode(iri, 1) for iri in (a, b, c, d, e)],
            [SchemaEdge(s, NS + f"p{i}", t, 1) for i, (s, t) in enumerate(pairs)],
            total_instances=5,
        )

        def scan(iri):
            out, seen = [], {iri}
            for source, target in pairs:
                other = target if source == iri else source if target == iri else iri
                if other not in seen:
                    seen.add(other)
                    out.append(other)
            return out

        for iri in (a, b, c, d, e, NS + "unknown"):
            assert summary.neighbours(iri) == scan(iri), iri
        assert summary.neighbours(a) == [c, b, d]
        summary.neighbours(a).append(e)  # the caller's copy, not the index
        assert summary.neighbours(a) == [c, b, d]

    def test_instance_coverage(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        assert summary.instance_coverage([NS + "A"]) == pytest.approx(100 / 160)
        assert summary.instance_coverage(summary.class_iris()) == pytest.approx(1.0)
        assert summary.instance_coverage([]) == 0.0

    def test_duplicate_node_rejected(self):
        nodes = [SchemaNode(NS + "A", 1), SchemaNode(NS + "A", 2)]
        with pytest.raises(ValueError, match="duplicate"):
            SchemaSummary("http://e/", nodes, [], 3)

    def test_edge_to_unknown_class_rejected(self):
        nodes = [SchemaNode(NS + "A", 1)]
        edges = [SchemaEdge(NS + "A", NS + "p", NS + "Ghost")]
        with pytest.raises(ValueError, match="unknown class"):
            SchemaSummary("http://e/", nodes, edges, 1)

    def test_doc_round_trip(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        reloaded = SchemaSummary.from_doc(summary.to_doc())
        assert reloaded.total_instances == summary.total_instances
        assert len(reloaded.edges) == len(summary.edges)
        assert reloaded.node(NS + "A").datatype_properties == [NS + "name"]

    def test_edges_between(self):
        summary = SchemaSummary.from_indexes(sample_indexes())
        assert len(summary.edges_between(NS + "A", NS + "B")) == 1
        assert len(summary.edges_between(NS + "B", NS + "A")) == 1  # symmetric


class TestClusterSchema:
    def build(self) -> ClusterSchema:
        clusters = [
            Cluster(0, "A", [NS + "A", NS + "B"], 150),
            Cluster(1, "C", [NS + "C"], 10),
        ]
        edges = [ClusterEdge(0, 1, 5)]
        return ClusterSchema("http://e/sparql", clusters, edges, modularity=0.4)

    def test_lookup(self):
        schema = self.build()
        assert schema.cluster_count == 2
        assert schema.cluster(1).label == "C"
        assert schema.cluster_of(NS + "B") == 0
        with pytest.raises(KeyError):
            schema.cluster(99)

    def test_overlapping_clusters_rejected(self):
        clusters = [
            Cluster(0, "A", [NS + "A"], 1),
            Cluster(1, "B", [NS + "A"], 1),  # A again!
        ]
        with pytest.raises(ValueError, match="clusters"):
            ClusterSchema("http://e/", clusters, [])

    def test_covers(self):
        schema = self.build()
        assert schema.covers([NS + "A", NS + "C"])
        assert not schema.covers([NS + "Ghost"])

    def test_doc_round_trip(self):
        schema = self.build()
        reloaded = ClusterSchema.from_doc(schema.to_doc())
        assert reloaded.cluster_count == 2
        assert reloaded.modularity == pytest.approx(0.4)
        assert reloaded.edges[0].weight == 5
        assert reloaded.cluster_of(NS + "C") == 1

    def test_singleton_cluster_size(self):
        schema = self.build()
        assert schema.cluster(1).size == 1
