"""Unit tests for Index Extraction and its pattern strategies."""

import pytest

from repro.core import ExtractionFailed, IndexExtractor
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.endpoint.errors import EndpointTimeout
from repro.endpoint.profiles import EndpointProfile
from repro.rdf import parse_turtle

TTL = """
@prefix ex: <http://example.org/> .

ex:a1 a ex:A ; ex:name "a1" ; ex:rel ex:b1 .
ex:a2 a ex:A ; ex:name "a2" ; ex:rel ex:b1 ; ex:rel ex:b2 .
ex:a3 a ex:A ; ex:name "a3" .
ex:b1 a ex:B ; ex:size 5 .
ex:b2 a ex:B ; ex:size 9 ; ex:backref ex:a1 .
ex:c1 a ex:C .
"""

EX = "http://example.org/"


def build(profile="virtuoso", ttl=TTL, availability=None):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    endpoint = SparqlEndpoint(
        "http://e/sparql",
        parse_turtle(ttl),
        clock,
        profile=profile,
        availability=availability or AlwaysAvailable(),
    )
    network.register(endpoint)
    client = SparqlClient(network)
    return IndexExtractor(client, page_size=100), endpoint


class TestAggregateStrategy:
    def test_extracts_class_counts(self):
        extractor, _ = build()
        indexes = extractor.extract("http://e/sparql")
        counts = {c.iri: c.instance_count for c in indexes.classes}
        assert counts == {EX + "A": 3, EX + "B": 2, EX + "C": 1}
        assert indexes.instance_count == 6
        assert indexes.strategy == "aggregate"
        assert indexes.complete

    def test_datatype_properties(self):
        extractor, _ = build()
        indexes = extractor.extract("http://e/sparql")
        a = indexes.class_by_iri(EX + "A")
        assert a.datatype_properties == [EX + "name"]
        b = indexes.class_by_iri(EX + "B")
        assert b.datatype_properties == [EX + "size"]

    def test_object_links_with_counts(self):
        extractor, _ = build()
        indexes = extractor.extract("http://e/sparql")
        links = {(l.source, l.property, l.target): l.count for l in indexes.links}
        assert links[(EX + "A", EX + "rel", EX + "B")] == 3
        assert links[(EX + "B", EX + "backref", EX + "A")] == 1

    def test_extraction_timestamp_set(self):
        extractor, endpoint = build()
        indexes = extractor.extract("http://e/sparql")
        assert indexes.extracted_at_ms > 0
        assert indexes.extracted_at_ms == endpoint.clock.now_ms


class TestScanFallback:
    def test_no_aggregate_endpoint_falls_back(self):
        extractor, _ = build(profile="legacy-sesame")
        indexes = extractor.extract("http://e/sparql")
        assert indexes.strategy == "scan"
        counts = {c.iri: c.instance_count for c in indexes.classes}
        assert counts == {EX + "A": 3, EX + "B": 2, EX + "C": 1}

    def test_scan_matches_aggregate_results(self):
        aggregate_extractor, _ = build(profile="virtuoso")
        scan_extractor, _ = build(profile="legacy-sesame")
        via_aggregate = aggregate_extractor.extract("http://e/sparql")
        via_scan = scan_extractor.extract("http://e/sparql")
        assert {(c.iri, c.instance_count) for c in via_aggregate.classes} == {
            (c.iri, c.instance_count) for c in via_scan.classes
        }
        assert {(l.source, l.property, l.target, l.count) for l in via_aggregate.links} == {
            (l.source, l.property, l.target, l.count) for l in via_scan.links
        }

    def test_pagination_with_tiny_result_cap(self):
        # 60 instances, endpoint caps results at 10 rows: scan must paginate.
        big_ttl = "@prefix ex: <http://example.org/> .\n" + "\n".join(
            f"ex:x{i} a ex:X ." for i in range(60)
        )
        profile = EndpointProfile("capped", supports_aggregates=False,
                                  max_result_rows=10, jitter=0.0)
        clock = SimulationClock()
        network = EndpointNetwork(clock=clock)
        network.register(
            SparqlEndpoint("http://cap/sparql", parse_turtle(big_ttl), clock, profile=profile)
        )
        extractor = IndexExtractor(SparqlClient(network), page_size=10)
        indexes = extractor.extract("http://cap/sparql")
        assert indexes.class_by_iri(EX + "X").instance_count == 60

    def test_truncated_aggregate_falls_back_to_scan(self):
        # aggregates supported but grouped result is truncated -> scan
        many_classes = "@prefix ex: <http://example.org/> .\n" + "\n".join(
            f"ex:i{i} a ex:T{i % 20} ." for i in range(100)
        )
        profile = EndpointProfile("trunc", supports_aggregates=True,
                                  max_result_rows=5, jitter=0.0)
        clock = SimulationClock()
        network = EndpointNetwork(clock=clock)
        network.register(
            SparqlEndpoint("http://t/sparql", parse_turtle(many_classes), clock,
                           profile=profile)
        )
        extractor = IndexExtractor(SparqlClient(network), page_size=5)
        indexes = extractor.extract("http://t/sparql")
        assert indexes.class_count == 20
        assert indexes.strategy == "scan"


class TestTopEntities:
    """The top-k-by-degree exploration probe (PR 3's ORDER BY+LIMIT shape)."""

    #: out-degrees in TTL: a2 has 4 triples (type, name, rel x2), a1 has 3,
    #: a3 has 2; b2 has 3, b1 has 2; c1 has 1.
    EXPECTED_A = [(EX + "a2", 4), (EX + "a1", 3), (EX + "a3", 2)]

    def test_aggregate_strategy(self):
        extractor, _ = build()
        top = extractor.top_entities("http://e/sparql", EX + "A", k=3)
        assert top == self.EXPECTED_A

    def test_k_truncates(self):
        extractor, _ = build()
        top = extractor.top_entities("http://e/sparql", EX + "A", k=1)
        assert top == self.EXPECTED_A[:1]

    def test_scan_fallback_matches_aggregate(self):
        """Endpoints rejecting aggregates/ORDER BY get the paged fallback."""
        via_aggregate, _ = build(profile="virtuoso")
        for fallback_profile in ("legacy-sesame", "4store"):
            via_scan, _ = build(profile=fallback_profile)
            assert via_scan.top_entities(
                "http://e/sparql", EX + "A", k=3
            ) == via_aggregate.top_entities("http://e/sparql", EX + "A", k=3)

    def test_unknown_class_is_empty(self):
        extractor, _ = build()
        assert extractor.top_entities("http://e/sparql", EX + "Ghost", k=3) == []


class TestFailureModes:
    def test_unavailable_endpoint(self):
        class Down(AlwaysAvailable):
            def is_available(self, day):
                return False

        extractor, _ = build(availability=Down())
        with pytest.raises(ExtractionFailed, match="unavailable"):
            extractor.extract("http://e/sparql")

    def test_empty_endpoint_fails(self):
        extractor, _ = build(ttl="@prefix ex: <http://example.org/> .\nex:x ex:p ex:y .")
        with pytest.raises(ExtractionFailed, match="no instantiated classes"):
            extractor.extract("http://e/sparql")

    def test_too_many_classes_is_incompatible(self):
        ttl = "@prefix ex: <http://example.org/> .\n" + "\n".join(
            f"ex:i{i} a ex:T{i} ." for i in range(30)
        )
        extractor, _ = build(ttl=ttl)
        extractor.max_classes = 10
        with pytest.raises(ExtractionFailed, match="too many classes"):
            extractor.extract("http://e/sparql")

    def test_unknown_url(self):
        extractor, _ = build()
        with pytest.raises(ExtractionFailed):
            extractor.extract("http://ghost/sparql")

    def test_mid_extraction_outage_fails_cleanly(self):
        class DiesAfterFewQueries(AlwaysAvailable):
            def __init__(self):
                self.queries = 0

            def is_available(self, day):
                self.queries += 1
                return self.queries < 4

        extractor, _ = build(availability=DiesAfterFewQueries())
        extractor.client.max_retries = 0
        with pytest.raises(ExtractionFailed):
            extractor.extract("http://e/sparql")


class TestCostAccounting:
    def test_scan_strategy_costs_more_time(self):
        aggregate_extractor, aggregate_endpoint = build(profile="virtuoso")
        aggregate_extractor.extract("http://e/sparql")
        aggregate_cost = aggregate_endpoint.clock.now_ms

        scan_extractor, scan_endpoint = build(profile="legacy-sesame")
        scan_extractor.extract("http://e/sparql")
        scan_cost = scan_endpoint.clock.now_ms
        assert scan_cost > aggregate_cost


# -- set at a time == per class --------------------------------------------------

#: every case the split-by-class has to get right: a subject with two types
#: (m1), a class with no links (Leaf), a class with no literals (Bare), a
#: link to an untyped object (a1 -> ghost), a self-link (a2 -> a2), and more
#: grouped link rows (7) than any one class has (3) so a result cap can sit
#: between the two
HAND_TTL = """
@prefix ex: <http://example.org/> .

ex:a1 a ex:A ; ex:name "a1" ; ex:rel ex:b1 ; ex:rel ex:l1 ; ex:rel ex:ghost .
ex:a2 a ex:A ; ex:name "a2" ; ex:rel ex:b1 ; ex:same ex:a2 ; ex:other ex:b2 .
ex:b1 a ex:B ; ex:size 5 ; ex:back ex:a1 ; ex:toBare ex:r1 .
ex:b2 a ex:B ; ex:size 9 ; ex:back ex:a2 .
ex:m1 a ex:A , ex:B ; ex:name "m1" ; ex:size 1 ; ex:rel ex:b2 .
ex:l1 a ex:Leaf ; ex:tag "leaf" .
ex:r1 a ex:Bare ; ex:up ex:b1 .
"""


class PerClassOnly(IndexExtractor):
    """The ladder below the set-at-a-time rung, run alone: the oracle."""

    def _datatype_properties_all(self, url):
        return None

    def _object_links_all(self, url, known_classes):
        return None


def _hand_graph():
    return parse_turtle(HAND_TTL)


def _datagen_graph(builder):
    from repro import datagen

    return lambda: getattr(datagen, builder)(scale=0.1, seed=3)


GRAPHS = {
    "hand": _hand_graph,
    "government": _datagen_graph("government_graph"),
    "scholarly": _datagen_graph("scholarly_graph"),
    "trafair": _datagen_graph("trafair_graph"),
}


def extract_with(
    extractor_class, graph, profile, page_size=1000, client_class=SparqlClient, **options
):
    """One extraction on a fresh endpoint: ``(doc sans timestamp, stats)``."""
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    endpoint = network.register(
        SparqlEndpoint("http://e/sparql", graph, clock, profile=profile)
    )
    extractor = extractor_class(client_class(network), page_size=page_size, **options)
    doc = extractor.extract("http://e/sparql").to_doc()
    del doc["extracted_at_ms"]
    return doc, endpoint.stats


class TestSetAtATime:
    @pytest.mark.parametrize("infer_types", [False, True])
    @pytest.mark.parametrize(
        "profile", ["virtuoso", "fuseki", "legacy-sesame", "4store", "slow-shared-host"]
    )
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_equals_the_per_class_ladder(self, graph, profile, infer_types):
        """Same stored document -- ``strategy`` and ``complete`` included --
        whichever rung answered."""
        asked_once, _ = extract_with(
            IndexExtractor, GRAPHS[graph](), profile, infer_types=infer_types
        )
        per_class, _ = extract_with(
            PerClassOnly, GRAPHS[graph](), profile, infer_types=infer_types
        )
        assert asked_once == per_class
        assert asked_once["links"] and asked_once["complete"]

    def test_multi_typed_link_targets_keep_the_same_links(self):
        """A class's links come in the engine's result order.  With one
        type per link target (every generated dataset) that is the
        per-class query's order, row for row; a target with several types
        reaches the fold once per type, in an order the engine's hash and
        index joins do not share, so there the guarantee is the links and
        their counts, not their order within the class."""
        ttl = HAND_TTL + "ex:b2 ex:back ex:m1 . ex:a1 ex:rel ex:m1 . ex:l1 ex:see ex:m1 .\n"
        asked_once, _ = extract_with(IndexExtractor, parse_turtle(ttl), "fuseki")
        per_class, _ = extract_with(PerClassOnly, parse_turtle(ttl), "fuseki")

        def by_class(document):
            return sorted(sorted(link.items()) for link in document["links"])

        assert by_class(asked_once) == by_class(per_class)
        assert [l["source"] for l in asked_once["links"]] == [
            l["source"] for l in per_class["links"]
        ]
        assert {**asked_once, "links": None} == {**per_class, "links": None}

    def test_capped_grouped_answer_drops_to_per_class_aggregates(self):
        """Seven grouped link rows under a cap of five: the per-class
        questions (three rows at most) still fit, so nothing is scanned."""
        capped = EndpointProfile("cap5", max_result_rows=5, jitter=0.0)
        doc, stats = extract_with(IndexExtractor, _hand_graph(), capped)
        truth, _ = extract_with(PerClassOnly, _hand_graph(), "fuseki")
        assert doc == truth
        assert doc["strategy"] == "aggregate"
        # the class census fits (4 rows); only the grouped links answer is
        # cut, plus pages of the DISTINCT (class, property) question
        assert stats.truncated >= 1

    def test_cap_below_the_per_class_answers_drops_to_scan(self):
        capped = EndpointProfile("cap2", max_result_rows=2, jitter=0.0)
        doc, _ = extract_with(IndexExtractor, _hand_graph(), capped, page_size=2)
        truth, _ = extract_with(PerClassOnly, _hand_graph(), "fuseki")
        assert doc["strategy"] == "scan" and doc["complete"]

        def link_set(document):
            return sorted(
                (l["source"], l["property"], l["target"], l["count"])
                for l in document["links"]
            )

        assert link_set(doc) == link_set(truth)
        assert doc["classes"] == truth["classes"]

    def test_timeout_on_the_grouped_questions_falls_through(self):
        """A timeout is a verdict on one query: the per-class rung answers,
        ``complete`` stays True and aggregates are still asked for."""

        class GroupedTimesOut(SparqlClient):
            def select(self, url, text):
                if "?s a ?c ." in text:
                    raise EndpointTimeout("grouped question timed out", url=url)
                return super().select(url, text)

        doc, _ = extract_with(
            IndexExtractor, _hand_graph(), "virtuoso", client_class=GroupedTimesOut
        )
        truth, _ = extract_with(PerClassOnly, _hand_graph(), "virtuoso")
        assert doc == truth
        assert doc["complete"] and doc["strategy"] == "aggregate"

    @pytest.mark.parametrize("classes", [12, 28])
    def test_capable_endpoint_costs_four_queries(self, classes):
        """Work count, not wall clock: liveness probe, class census, one
        (class, property) question, one grouped links question -- whatever
        the class count (the per-class ladder sends 2 + 2 per class)."""
        ttl = "@prefix ex: <http://example.org/> .\n" + "\n".join(
            f'ex:i{i} a ex:T{i} ; ex:name "n{i}" ; ex:next ex:i{(i + 1) % classes} .'
            for i in range(classes)
        )
        doc, stats = extract_with(IndexExtractor, parse_turtle(ttl), "virtuoso")
        assert doc["class_count"] == len(doc["links"]) == classes
        assert stats.queries == 4
        _, per_class = extract_with(PerClassOnly, parse_turtle(ttl), "virtuoso")
        assert per_class.queries == 2 + 2 * classes

    @pytest.mark.parametrize("profile", ["legacy-sesame", "4store"])
    def test_no_aggregate_endpoint_is_rejected_once(self, profile):
        """The class census learns the endpoint has no aggregates; no other
        is sent -- not the grouped links question, not one per class."""
        doc, stats = extract_with(IndexExtractor, _hand_graph(), profile)
        assert stats.rejected == 1
        assert doc["strategy"] == "scan" and doc["complete"]


class TestReindexingBuildsNothing:
    """The engine half of the same pipeline: the scheduler re-indexes
    unchanged endpoints, and a second pass over an unchanged graph finds
    every join's build table in the graph's probe cache."""

    @pytest.mark.parametrize("profile", ["virtuoso", "legacy-sesame"])
    def test_second_pass_builds_no_probe_table_until_a_write(self, profile):
        from repro.core import HBold
        from repro.datagen import government_graph
        from repro.rdf import IRI, Triple

        graph = government_graph(scale=0.1, seed=3)
        clock = SimulationClock()
        network = EndpointNetwork(clock=clock)
        endpoint = network.register(
            SparqlEndpoint("http://e/sparql", graph, clock, profile=profile)
        )
        app = HBold(network)
        app.bootstrap_registry([endpoint.url])
        info = endpoint._engine.probe_cache_info

        assert app.index_endpoint(endpoint.url)
        first = info()
        assert first["misses"] > 0
        stored = app.storage.load_indexes(endpoint.url).to_doc()

        assert app.index_endpoint(endpoint.url)
        assert info()["misses"] == first["misses"]
        assert info()["hits"] > first["hits"]
        again = app.storage.load_indexes(endpoint.url).to_doc()
        assert {**again, "extracted_at_ms": 0} == {**stored, "extracted_at_ms": 0}

        graph.add(Triple(IRI(EX + "new"), IRI(EX + "p"), IRI(EX + "new")))
        assert app.index_endpoint(endpoint.url)
        assert info()["misses"] > first["misses"]
