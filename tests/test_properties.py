"""Property-based tests (hypothesis) on core data structures and invariants.

Each property targets an invariant that the rest of the system silently
relies on: index coherence in the triple store, serialization round-trips,
SPARQL algebra laws, the docstore's equality find and its file, layout
geometry and community detection partition validity.
"""

import itertools
import math
import string
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import Partition, UndirectedGraph, louvain, modularity
from repro.docstore import Collection, DocumentStore
from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Triple,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)
from repro.sparql import evaluate
from repro.viz import HierarchyNode, circlepack_layout, sunburst_layout, treemap_layout
from repro.viz.circlepack import pack_siblings
from repro.viz.geometry import Circle, Point, bspline_points, enclosing_circle

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_local = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8)

iris = _local.map(lambda s: IRI(f"http://example.org/{s}"))

plain_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=24,
)

literals = st.one_of(
    plain_text.map(Literal),
    st.integers(min_value=-10**9, max_value=10**9).map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Literal),
    st.booleans().map(Literal),
    st.tuples(plain_text, st.sampled_from(["en", "it", "de"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)

triples = st.builds(
    Triple,
    iris,
    iris,
    st.one_of(iris, literals),
)

triple_lists = st.lists(triples, max_size=40)


def graph_of(triple_list):
    graph = Graph()
    graph.update(triple_list)
    return graph


# ---------------------------------------------------------------------------
# triple store
# ---------------------------------------------------------------------------


class TestGraphProperties:
    @given(triple_lists)
    def test_size_equals_distinct_triples(self, items):
        graph = graph_of(items)
        assert len(graph) == len(set(items))

    @given(triple_lists)
    def test_every_pattern_consistent_with_full_scan(self, items):
        graph = graph_of(items)
        everything = set(graph.triples())
        for triple in list(everything)[:5]:
            for s, p, o in itertools.product(
                (triple.subject, None), (triple.predicate, None), (triple.object, None)
            ):
                via_index = set(graph.triples(s, p, o))
                via_scan = {
                    t
                    for t in everything
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)
                }
                assert via_index == via_scan

    @given(triple_lists)
    def test_remove_then_absent(self, items):
        graph = graph_of(items)
        for triple in items[: len(items) // 2]:
            graph.remove(triple)
            assert triple not in graph
        remaining = set(items[len(items) // 2:]) - set(items[: len(items) // 2])
        for triple in remaining:
            assert triple in graph

    @given(triple_lists)
    def test_count_never_disagrees_with_iteration(self, items):
        graph = graph_of(items)
        subjects = {t.subject for t in items} | {None}
        for subject in list(subjects)[:4]:
            assert graph.count(subject=subject) == len(list(graph.triples(subject=subject)))


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


class TestSerializationProperties:
    @given(triple_lists)
    def test_ntriples_round_trip(self, items):
        unique = list(dict.fromkeys(items))
        text = serialize_ntriples(unique)
        parsed = list(parse_ntriples(text))
        assert parsed == unique

    @given(triple_lists)
    @settings(max_examples=40)
    def test_turtle_round_trip(self, items):
        graph = graph_of(items)
        text = serialize_turtle(graph)
        reparsed = parse_turtle(text)
        assert len(reparsed) == len(graph)
        for triple in graph:
            assert triple in reparsed


# ---------------------------------------------------------------------------
# SPARQL algebra laws
# ---------------------------------------------------------------------------


class TestSparqlProperties:
    @given(triple_lists)
    @settings(max_examples=40)
    def test_distinct_idempotent_and_no_duplicates(self, items):
        graph = graph_of(items)
        result = evaluate(graph, "SELECT DISTINCT ?s ?o WHERE { ?s ?p ?o }")
        keys = [(row["s"], row["o"]) for row in result]
        assert len(keys) == len(set(keys))

    @given(triple_lists, st.integers(min_value=0, max_value=10))
    @settings(max_examples=40)
    def test_limit_truncates(self, items, limit):
        graph = graph_of(items)
        full = evaluate(graph, "SELECT ?s WHERE { ?s ?p ?o }")
        limited = evaluate(graph, f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {limit}")
        assert len(limited) == min(limit, len(full))

    @given(triple_lists)
    @settings(max_examples=40)
    def test_order_by_sorts(self, items):
        graph = graph_of(items)
        result = evaluate(graph, "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        values = [row["s"] for row in result]
        assert values == sorted(values, key=lambda t: t.sort_key())

    @given(triple_lists)
    @settings(max_examples=40)
    def test_count_star_equals_row_count(self, items):
        graph = graph_of(items)
        rows = evaluate(graph, "SELECT ?s WHERE { ?s ?p ?o }")
        counted = evaluate(graph, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        assert counted.scalar_int() == len(rows)

    @given(triple_lists)
    @settings(max_examples=40)
    def test_union_is_concatenation(self, items):
        graph = graph_of(items)
        left = evaluate(graph, "SELECT ?s WHERE { ?s ?p ?o }")
        both = evaluate(
            graph, "SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } }"
        )
        assert len(both) == 2 * len(left)


# ---------------------------------------------------------------------------
# docstore
# ---------------------------------------------------------------------------

scalar_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False),
    st.text(alphabet=string.ascii_lowercase, max_size=6),
    st.booleans(),
    st.none(),
)

flat_docs = st.dictionaries(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5),
    scalar_values,
    max_size=6,
)


def _holding(doc):
    collection = Collection("c")
    collection.put("k", doc)
    return collection


class TestDocstoreProperties:
    @given(flat_docs)
    def test_document_matches_itself_as_filter(self, doc):
        assert _holding(doc).count_documents(dict(doc)) == 1

    @given(flat_docs, flat_docs)
    def test_equality_filter_equivalent_to_predicate(self, doc, query):
        expected = all(
            key in doc and _mongo_eq(doc[key], value) or (value is None and key not in doc)
            for key, value in query.items()
        )
        collection = _holding(doc)
        assert collection.count_documents(query) == int(expected)
        assert (collection.find_one(query) is not None) == expected

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("uvw"), flat_docs),
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_a_flushed_store_reopens_as_it_was(self, puts):
        with tempfile.TemporaryDirectory() as root:
            store = DocumentStore(root)
            for name, key, doc in puts:
                store.collection(name).put(key, doc)
            store.flush()
            reopened = DocumentStore(root)
            for name in "abc":
                assert reopened.collection(name).find() == store.collection(name).find()


def _mongo_eq(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left is right
    return left == right


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

hierarchies = st.lists(
    st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=1, max_size=8),
    min_size=1,
    max_size=6,
)


def build_tree(cluster_values):
    root = HierarchyNode("root")
    for c, values in enumerate(cluster_values):
        cluster = root.add_child(HierarchyNode(f"c{c}"))
        for k, value in enumerate(values):
            cluster.add_child(HierarchyNode(f"c{c}k{k}", value=value))
    return root.sum_values()


class TestLayoutProperties:
    @given(hierarchies)
    @settings(max_examples=40)
    def test_treemap_conserves_area(self, cluster_values):
        root = build_tree(cluster_values)
        treemap_layout(root, 640, 480, padding=0, inner_padding=0)
        leaf_area = sum(leaf.rect.area for leaf in root.leaves())
        assert math.isclose(leaf_area, 640 * 480, rel_tol=1e-6)

    @given(hierarchies)
    @settings(max_examples=40)
    def test_treemap_children_contained_and_disjoint(self, cluster_values):
        root = build_tree(cluster_values)
        treemap_layout(root, 640, 480, padding=1, inner_padding=1)
        for node in root.each():
            if node.parent is not None and node.rect.area > 0:
                assert node.parent.rect.contains_rect(node.rect)
            for a, b in itertools.combinations(node.children, 2):
                assert not a.rect.intersects(b.rect)

    @given(hierarchies)
    @settings(max_examples=40)
    def test_sunburst_partitions_angles(self, cluster_values):
        root = build_tree(cluster_values)
        sunburst_layout(root, 100)
        for node in root.each():
            if node.children and node.value:
                assert math.isclose(
                    sum(child.arc.span for child in node.children),
                    node.arc.span,
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                )

    @given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=25))
    @settings(max_examples=40)
    def test_pack_siblings_no_overlap(self, radii):
        circles = pack_siblings(radii)
        assert len(circles) == len(radii)
        for a, b in itertools.combinations(circles, 2):
            distance = math.hypot(a.cx - b.cx, a.cy - b.cy)
            assert distance >= a.r + b.r - max(a.r, b.r) * 1e-4

    @given(st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=0.1, max_value=20),
        ),
        min_size=1,
        max_size=30,
    ))
    @settings(max_examples=40)
    def test_enclosing_circle_contains_all(self, raw):
        circles = [Circle(x, y, r) for x, y, r in raw]
        enclosure = enclosing_circle(circles)
        for circle in circles:
            assert enclosure.contains_circle(circle, epsilon=1e-4)

    @given(hierarchies)
    @settings(max_examples=30)
    def test_circlepack_containment(self, cluster_values):
        root = build_tree(cluster_values)
        circlepack_layout(root, 100)
        for node in root.each():
            if node.parent is not None:
                assert node.parent.circle.contains_circle(node.circle, epsilon=1e-2)

    @given(st.lists(
        st.tuples(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50)),
        min_size=3, max_size=10,
    ))
    @settings(max_examples=40)
    def test_bspline_clamped_endpoints(self, raw):
        control = [Point(x, y) for x, y in raw]
        curve = bspline_points(control)
        assert curve[0].distance_to(control[0]) < 1e-9
        assert curve[-1].distance_to(control[-1]) < 1e-9


# ---------------------------------------------------------------------------
# community detection
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14)),
    min_size=1,
    max_size=50,
)


class TestCommunityProperties:
    @given(edge_lists)
    @settings(max_examples=50)
    def test_louvain_partition_is_total_and_valid(self, edges):
        graph = UndirectedGraph()
        for u, v in edges:
            graph.add_edge(u, v)
        partition = louvain(graph, seed=1)
        assert partition.covers(graph.nodes())
        assert partition.community_count() >= 1

    @given(edge_lists)
    @settings(max_examples=50)
    def test_modularity_bounded(self, edges):
        graph = UndirectedGraph()
        for u, v in edges:
            graph.add_edge(u, v)
        partition = louvain(graph, seed=1)
        q = modularity(graph, partition)
        assert -1.0 <= q <= 1.0

    @given(edge_lists)
    @settings(max_examples=50)
    def test_louvain_not_worse_than_singletons(self, edges):
        graph = UndirectedGraph()
        for u, v in edges:
            graph.add_edge(u, v)
        found = louvain(graph, seed=1)
        singletons = Partition.singletons(graph.nodes())
        assert modularity(graph, found) >= modularity(graph, singletons) - 1e-9

    @given(st.dictionaries(st.integers(0, 20), st.integers(0, 5), min_size=1, max_size=20))
    def test_partition_equality_invariant_under_relabelling(self, assignment):
        shifted = {node: community + 100 for node, community in assignment.items()}
        assert Partition(assignment) == Partition(shifted)
