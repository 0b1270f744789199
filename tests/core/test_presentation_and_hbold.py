"""Unit tests for the presentation layer timing model and the HBold facade."""

import pytest

from repro.core import HBold
from repro.core.presentation import PresentationLayer
from repro.docstore import DocumentStore
from repro.endpoint import AlwaysAvailable, SparqlEndpoint
from repro.rdf import IRI, RDF, Triple, parse_turtle
from repro.viz.force_layout import layout_cache_clear, layout_cache_info


class TestPresentationTimings:
    def test_precomputed_faster_than_on_the_fly(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        fly = indexed_app.presentation.display_on_the_fly(url)
        pre = indexed_app.presentation.display_precomputed(url)
        assert pre.elapsed_ms < fly.elapsed_ms

    def test_both_paths_agree_on_clusters(self, indexed_app, tiny_world):
        """The re-engineering must not change what the user sees."""
        url = tiny_world.indexable_urls[1]
        fly = indexed_app.presentation.display_on_the_fly(url)
        pre = indexed_app.presentation.display_precomputed(url)
        fly_groups = sorted(sorted(c.class_iris) for c in fly.cluster_schema.clusters)
        pre_groups = sorted(sorted(c.class_iris) for c in pre.cluster_schema.clusters)
        assert fly_groups == pre_groups

    def test_compare_reports_savings(self, indexed_app, tiny_world):
        urls = tiny_world.indexable_urls[:3]
        rows = indexed_app.presentation.compare(urls)
        assert len(rows) == 3
        for row in rows:
            assert 0.0 < row["saving"] < 1.0
            assert row["precomputed_ms"] < row["on_the_fly_ms"]

    def test_missing_artifacts_raise(self, indexed_app):
        with pytest.raises(LookupError):
            indexed_app.presentation.display_precomputed("http://never-indexed/")
        with pytest.raises(LookupError):
            indexed_app.presentation.display_on_the_fly("http://never-indexed/")

    def test_timing_charged_to_simulation_clock(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        before = indexed_app.network.clock.now_ms
        indexed_app.presentation.display_precomputed(url)
        assert indexed_app.network.clock.now_ms > before


class TestHBoldFacade:
    def test_counts_after_bootstrap(self, indexed_app, tiny_world):
        counts = indexed_app.counts()
        assert counts["listed"] >= len(tiny_world.listed_urls)
        assert counts["indexed"] >= 5

    def test_summary_and_cluster_schema_available(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        summary = indexed_app.summary(url)
        schema = indexed_app.cluster_schema(url)
        assert summary.endpoint_url == url
        assert schema.covers(summary.class_iris())

    def test_unindexed_raises_lookup(self, indexed_app):
        with pytest.raises(LookupError):
            indexed_app.summary("http://not-indexed.example.org/")

    def test_explore_full_walk(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        session = indexed_app.explore(url)
        session.start_from_cluster_schema()
        first_class = indexed_app.summary(url).class_iris()[0]
        session.select_class(first_class)
        session.expand_all()
        assert session.is_complete()

    def test_explore_spotlights_top_entities(self, indexed_app, tiny_world):
        """The class-detail panel surfaces the class's dominant entities
        via the live top-k degree query (streaming ORDER BY+LIMIT)."""
        url = tiny_world.indexable_urls[0]
        session = indexed_app.explore(url)
        first_class = indexed_app.summary(url).class_iris()[0]
        session.select_class(first_class)
        details = session.class_details(first_class)
        spotlight = details["top_entities"]
        assert 0 < len(spotlight) <= 5
        degrees = [count for _iri, count in spotlight]
        assert degrees == sorted(degrees, reverse=True)
        assert all(count >= 1 for count in degrees)

    def test_index_endpoint_failure_returns_false(self, indexed_app, tiny_world):
        assert indexed_app.index_endpoint(tiny_world.broken_urls[0]) is False

    def test_render_figures(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        for method in ("render_treemap", "render_sunburst", "render_circlepack"):
            text = getattr(indexed_app, method)(url).render()
            assert "<svg" in text

    def test_render_edge_bundling_with_focus(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        summary = indexed_app.summary(url)
        diagram = indexed_app.edge_bundling_diagram(url)
        assert len(diagram.leaves) == len(summary.nodes)
        focus = diagram.leaves[0].node.name
        focused = indexed_app.edge_bundling_diagram(url, focus=focus)
        assert focused.roles.get(focus) == "focus"
        assert "<svg" in indexed_app.render_edge_bundling(url, focus=focus).render()

    def test_render_exploration_view(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        session = indexed_app.explore(url)
        session.start_from_schema_summary()
        doc = indexed_app.render_exploration(session, iterations=20)
        assert doc.render().count("<circle") == len(session.visible_classes)

    def test_visual_query_end_to_end(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        summary = indexed_app.summary(url)
        focus = summary.class_iris()[0]
        query = indexed_app.visual_query(url, focus)
        result = indexed_app.run_visual_query(url, query)
        assert len(result) == summary.node(focus).instance_count

    def test_cluster_hierarchy_shape(self, indexed_app, tiny_world):
        url = tiny_world.indexable_urls[0]
        root = indexed_app.cluster_hierarchy(url)
        schema = indexed_app.cluster_schema(url)
        assert len(root.children) == schema.cluster_count
        assert len(root.leaves()) == len(indexed_app.summary(url).nodes)

    def test_submit_endpoint_via_facade(self, tiny_world):
        app = HBold(tiny_world.network, store=DocumentStore())
        url = tiny_world.indexable_urls[6]
        result = app.submit_endpoint(url, "someone@example.org")
        assert result.indexed
        assert len(app.outbox) == 1


class TestLayoutsAreComputedOnce:
    """The two canonical views of a dataset -- its Cluster Schema and its
    fully expanded Schema Summary -- are the same graph for every user, so
    a second session simulates nothing.  Counted, not timed."""

    URL = "http://layouts.example.org/sparql"
    DATA = """
        @prefix ex: <http://example.org/> .
        ex:p1 a ex:Paper ; ex:author ex:a1, ex:a2 ; ex:venue ex:v1 .
        ex:p2 a ex:Paper ; ex:author ex:a2 ; ex:venue ex:v1 ; ex:cites ex:p1 .
        ex:a1 a ex:Person ; ex:memberOf ex:o1 .
        ex:a2 a ex:Person ; ex:memberOf ex:o1 .
        ex:o1 a ex:Organisation .
        ex:v1 a ex:Venue ; ex:publisher ex:o1 .
    """

    @staticmethod
    def session_svgs(app, url):
        first_view = app.render_cluster_schema(url).render()
        session = app.explore(url)
        session.start_from_cluster_schema()
        session.select_class(session.summary.class_iris()[0])
        session.expand_all()
        assert session.is_complete()
        return first_view, app.render_exploration(session).render()

    def test_second_session_hits_and_a_reindex_misses(self, network):
        graph = parse_turtle(self.DATA)
        network.register(
            SparqlEndpoint(self.URL, graph, network.clock, availability=AlwaysAvailable())
        )
        app = HBold(network)
        assert app.index_endpoint(self.URL)

        layout_cache_clear()
        first = self.session_svgs(app, self.URL)
        assert (layout_cache_info().misses, layout_cache_info().hits) == (2, 0)
        second = self.session_svgs(app, self.URL)
        assert (layout_cache_info().misses, layout_cache_info().hits) == (2, 2)
        assert second == first

        # changed data, re-indexed: a different graph is a different key
        ex = "http://example.org/"
        graph.add(Triple(IRI(ex + "t1"), RDF.type, IRI(ex + "Topic")))
        graph.add(Triple(IRI(ex + "p1"), IRI(ex + "topic"), IRI(ex + "t1")))
        assert app.index_endpoint(self.URL)
        third = self.session_svgs(app, self.URL)
        assert layout_cache_info().misses > 2
        assert third[1] != first[1]
        assert self.session_svgs(app, self.URL) == third
        layout_cache_clear()
