"""Second wave of property-based tests: property paths, availability
models, schema-summary invariants and the multilevel pyramid."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_schema import build_cluster_schema
from repro.core.models import SchemaEdge, SchemaNode, SchemaSummary
from repro.core.multilevel import build_multilevel_hierarchy
from repro.endpoint.availability import MarkovAvailability, availability_ratio
from repro.rdf import Graph, IRI, Triple
from repro.sparql import evaluate

NS = "http://p.example.org/"

# ---------------------------------------------------------------------------
# property paths
# ---------------------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=12)
edge_lists = st.lists(st.tuples(node_ids, node_ids), min_size=1, max_size=30)


def chain_graph(edges):
    graph = Graph()
    link = IRI(NS + "link")
    for u, v in edges:
        graph.add(Triple(IRI(f"{NS}n{u}"), link, IRI(f"{NS}n{v}")))
    return graph


def reachable(edges, start, include_zero):
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    seen = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    if include_zero:
        seen.add(start)
    return seen


class TestPathProperties:
    @given(edge_lists, node_ids)
    @settings(max_examples=60)
    def test_plus_closure_matches_reference_reachability(self, edges, start):
        graph = chain_graph(edges)
        result = evaluate(
            graph,
            f"SELECT ?x WHERE {{ <{NS}n{start}> <{NS}link>+ ?x }}",
        )
        found = {str(row["x"]).rsplit("n", 1)[-1] for row in result}
        expected = {str(n) for n in reachable(edges, start, include_zero=False)}
        assert found == expected

    @given(edge_lists, node_ids)
    @settings(max_examples=60)
    def test_star_is_plus_plus_self(self, edges, start):
        graph = chain_graph(edges)
        plus = {
            str(row["x"])
            for row in evaluate(
                graph, f"SELECT ?x WHERE {{ <{NS}n{start}> <{NS}link>+ ?x }}"
            )
        }
        star = {
            str(row["x"])
            for row in evaluate(
                graph, f"SELECT ?x WHERE {{ <{NS}n{start}> <{NS}link>* ?x }}"
            )
        }
        assert star == plus | {f"{NS}n{start}"}

    @given(edge_lists)
    @settings(max_examples=60)
    def test_inverse_swaps_pairs(self, edges):
        graph = chain_graph(edges)
        forward = {
            (str(r["a"]), str(r["b"]))
            for r in evaluate(graph, f"SELECT ?a ?b WHERE {{ ?a <{NS}link> ?b }}")
        }
        backward = {
            (str(r["b"]), str(r["a"]))
            for r in evaluate(graph, f"SELECT ?a ?b WHERE {{ ?a ^<{NS}link> ?b }}")
        }
        assert forward == backward

    @given(edge_lists)
    @settings(max_examples=40)
    def test_sequence_equals_manual_join(self, edges):
        graph = chain_graph(edges)
        via_path = {
            (str(r["a"]), str(r["c"]))
            for r in evaluate(
                graph, f"SELECT ?a ?c WHERE {{ ?a <{NS}link>/<{NS}link> ?c }}"
            )
        }
        via_join = {
            (str(r["a"]), str(r["c"]))
            for r in evaluate(
                graph,
                f"SELECT ?a ?c WHERE {{ ?a <{NS}link> ?b . ?b <{NS}link> ?c }}",
            )
        }
        assert via_path == via_join


# ---------------------------------------------------------------------------
# availability model
# ---------------------------------------------------------------------------


class TestAvailabilityProperties:
    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.3, max_value=1.0),
        st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=50)
    def test_memoized_trace_is_stable(self, p_fail, p_recover, day):
        model = MarkovAvailability("http://x/", p_fail=p_fail, p_recover=p_recover, seed=1)
        first = model.is_available(day)
        second = model.is_available(day)
        assert first == second

    @given(st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=30)
    def test_low_failure_rate_gives_high_availability(self, p_fail):
        model = MarkovAvailability(
            "http://x/", p_fail=p_fail, p_recover=0.9, seed=2
        )
        ratio = availability_ratio(model, 200)
        # stationary availability = p_recover / (p_fail + p_recover)
        stationary = 0.9 / (p_fail + 0.9)
        assert abs(ratio - stationary) < 0.2


# ---------------------------------------------------------------------------
# schema summary / clusters / multilevel
# ---------------------------------------------------------------------------

summaries = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=500), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
        ),
    )
)


def build_summary(data) -> SchemaSummary:
    n, counts, edges = data
    nodes = [SchemaNode(f"{NS}C{i}", counts[i]) for i in range(n)]
    schema_edges = [
        SchemaEdge(f"{NS}C{u}", f"{NS}p{i}", f"{NS}C{v}")
        for i, (u, v) in enumerate(edges)
    ]
    return SchemaSummary("http://e/", nodes, schema_edges, sum(counts))


class TestSchemaProperties:
    @given(summaries)
    @settings(max_examples=60)
    def test_cluster_schema_partitions_classes(self, data):
        summary = build_summary(data)
        schema = build_cluster_schema(summary)
        covered = [iri for cluster in schema.clusters for iri in cluster.class_iris]
        assert sorted(covered) == sorted(summary.class_iris())

    @given(summaries)
    @settings(max_examples=60)
    def test_cluster_instance_counts_conserved(self, data):
        summary = build_summary(data)
        schema = build_cluster_schema(summary)
        assert sum(c.instance_count for c in schema.clusters) == summary.total_instances

    @given(summaries)
    @settings(max_examples=60)
    def test_coverage_bounds_and_monotonicity(self, data):
        summary = build_summary(data)
        iris = summary.class_iris()
        previous = 0.0
        for k in range(len(iris) + 1):
            coverage = summary.instance_coverage(iris[:k])
            assert 0.0 <= coverage <= 1.0 + 1e-9
            assert coverage >= previous - 1e-9
            previous = coverage

    @given(summaries)
    @settings(max_examples=40)
    def test_multilevel_levels_nested(self, data):
        summary = build_summary(data)
        hierarchy = build_multilevel_hierarchy(summary)
        all_classes = set(summary.class_iris())
        for level in hierarchy.levels:
            seen = set()
            for members in level.groups.values():
                seen.update(members)
            assert seen == all_classes
        sizes = [level.group_count for level in hierarchy.levels]
        assert sizes == sorted(sizes, reverse=True)
