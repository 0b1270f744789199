"""A timeout on the last rung of an extraction ladder: kept, or fatal.

On a per-class last rung -- the datatype-property pages and the link scan
-- a timeout keeps the rows already read, and the extraction is stored as
incomplete.  On any other last rung -- the class scan, the subclass
closure, the direct-instance total -- it fails the extraction.

Each row names the questions that time out: a text containing every
marker of one tuple raises :class:`EndpointTimeout` before it is sent (the
style of ``GroupedTimesOut`` in ``test_index_extraction.py``).  A last
rung times out on its second page, after the first was read; a top rung
above it times out outright, so the walk reaches the last rung.
"""

from __future__ import annotations

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
from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.namespaces import RDF

EX = "http://example.org/"
URL = "http://e/sparql"
C = EX + "C"
#: subjects of C, each with its own literal property and its own link to
#: the first subject: every per-class question about C has K rows
K = 5
#: rows per page: the second page of a K-row question exists
PAGE = 2


def _graph() -> Graph:
    g = Graph()
    first = IRI(f"{EX}s0")
    for i in range(K):
        subject = IRI(f"{EX}s{i}")
        g.add(Triple(subject, RDF.type, IRI(C)))
        g.add(Triple(subject, IRI(f"{EX}p{i}"), Literal("v")))
        g.add(Triple(subject, IRI(f"{EX}link{i}"), first))
    return g


def _extract(profile: str, infer_types: bool, markers):
    class TimesOut(SparqlClient):
        def select(self, url, text):
            if any(all(marker in text for marker in tuple_) for tuple_ in markers):
                raise EndpointTimeout("question timed out", url=url)
            return super().select(url, text)

    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    network.register(
        SparqlEndpoint(URL, _graph(), clock, profile=profile, availability=AlwaysAvailable())
    )
    extractor = IndexExtractor(TimesOut(network), page_size=PAGE, infer_types=infer_types)
    return extractor.extract(URL)


SECOND_PAGE = f"OFFSET {PAGE}"

#: (case, profile, infer_types, the questions that time out)
KEPT = [
    # the whole-dataset (class, property) question, then C's property pages
    ("per-class-properties", "virtuoso", False,
     [("?s a ?c .", "isLiteral"), (f"<{C}>", "isLiteral", SECOND_PAGE)]),
    # no aggregates: C's links come from the link scan alone
    ("per-class-link-scan", "4store", False,
     [(f"<{C}>", "?o a ?target", SECOND_PAGE)]),
]

FATAL = [
    ("class-scan-distinct-classes", "4store", False, [("SELECT DISTINCT ?class",)]),
    ("class-scan-count", "4store", False,
     [(f"SELECT ?s WHERE {{ ?s a <{C}> }}", SECOND_PAGE)]),
    ("closure-axioms", "4store", True, [("SELECT ?sub ?super",)]),
    ("direct-total", "virtuoso", True,
     [("COUNT(DISTINCT ?s)",), ("SELECT DISTINCT ?s WHERE { ?s a ?c }", SECOND_PAGE)]),
]


@pytest.mark.parametrize("case,profile,infer_types,markers", KEPT, ids=[r[0] for r in KEPT])
def test_a_per_class_last_rung_keeps_the_rows_read(case, profile, infer_types, markers):
    indexes = _extract(profile, infer_types, markers)
    assert not indexes.complete, case
    assert indexes.class_by_iri(C).instance_count == K
    properties = indexes.class_by_iri(C).datatype_properties
    links = sum(link.count for link in indexes.links)
    every_property = {f"{EX}p{i}" for i in range(K)}
    if case == "per-class-properties":
        assert len(properties) == PAGE and set(properties) <= every_property
        assert links == K and indexes.strategy == "aggregate"
    else:
        assert sorted(properties) == sorted(every_property)
        assert links == PAGE and indexes.strategy == "scan"


@pytest.mark.parametrize("case,profile,infer_types,markers", FATAL, ids=[r[0] for r in FATAL])
def test_any_other_last_rung_fails_the_extraction(case, profile, infer_types, markers):
    with pytest.raises(ExtractionFailed, match="EndpointTimeout"):
        _extract(profile, infer_types, markers)
