"""The pagination safety valve (``IndexExtractor.max_pages``) is observable.

Every paged question stops after ``max_pages`` pages.  When it stops there
with the last page full, rows may remain, and an extraction that stored
what it got as exact would store an undercount.  A full last page at the
limit cannot be told apart from a cut, so it counts as one; a short last
page is a complete answer, whatever page it arrives on.

The table: answers of K rows, paged two at a time with at most two pages
-- under the limit (1), an exact fit with a short last page (3), an exact
fit with a full last page (4), one page over (5) -- against every caller
of the pager.
"""

from __future__ import annotations

import pytest

from repro.core import IndexExtractor
from repro.core.index_extraction import _Pages, _Walk
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.namespaces import RDF

EX = "http://example.org/"
URL = "http://e/sparql"
C = EX + "C"

#: (case, K rows per paged question, the valve closed)
SCENARIOS = [
    ("under", 1, False),
    ("exact-fit-short-last-page", 3, False),
    ("exact-fit-full-last-page", 4, True),
    ("one-page-over", 5, True),
]


def _graph(k: int) -> Graph:
    """K subjects of one class C, each with its own literal property and
    its own link to the first subject (typed C): every paged question the
    extractor asks about C has K rows."""
    g = Graph()
    first = IRI(f"{EX}s0")
    for i in range(k):
        subject = IRI(f"{EX}s{i}")
        g.add(Triple(subject, RDF.type, IRI(C)))
        g.add(Triple(subject, IRI(f"{EX}p{i}"), Literal("v")))
        g.add(Triple(subject, IRI(f"{EX}link{i}"), first))
    return g


def _extractor(k: int, page_size: int = 2, max_pages: int = 2, infer_types=False):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    # 4store: no aggregates, no property paths -- every index is paged
    network.register(
        SparqlEndpoint(URL, _graph(k), clock, profile="4store", availability=AlwaysAvailable())
    )
    return IndexExtractor(
        SparqlClient(network), page_size=page_size, max_pages=max_pages,
        infer_types=infer_types,
    )


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
def test_the_pager_reports_the_cut(case, k, cut):
    pages = _Pages(_extractor(k), URL, f"SELECT ?s WHERE {{ ?s a <{C}> }}", paged=True)
    rows = sum(len(page.rows) for page in pages)
    assert (rows, pages.cut) == (min(k, 4), cut), case


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
def test_count_by_scan(case, k, cut):
    walk = _Walk()
    total = _extractor(k)._tally(URL, walk, f"SELECT ?s WHERE {{ ?s a <{C}> }}")
    complete = walk.complete
    assert (total, complete) == (min(k, 4), not cut), case


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
@pytest.mark.parametrize("infer_types", (False, True), ids=("direct", "inferred"))
def test_class_counts_by_scan_mark_the_extraction(case, k, cut, infer_types):
    """The class scan (direct) and the inferred closure plus the
    direct-instance total (inferred) count through the pager: a cut count
    is stored as incomplete, never as exact."""
    indexes = _extractor(k, infer_types=infer_types).extract(URL)
    assert indexes.strategy == "scan"
    assert indexes.complete is (not cut), case
    assert indexes.class_by_iri(C).instance_count == min(k, 4)
    assert indexes.instance_count == min(k, 4)


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
def test_datatype_properties(case, k, cut):
    walk = _Walk()  # no set-at-a-time answer for properties; links answered (none)
    datatype_props, _links = _extractor(k)._per_class(URL, walk, [C], {C}, None, {})
    properties, complete = datatype_props[C], walk.complete
    assert complete is (not cut), case
    assert len(properties) == min(k, 4)


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
def test_object_links_by_scan(case, k, cut):
    walk = _Walk()  # properties answered (none); links by the scan alone
    walk.no_aggregates = True
    _props, links = _extractor(k)._per_class(URL, walk, [C], {C}, {}, None)
    strategy, complete = "scan" if walk.scanned else "aggregate", walk.complete
    assert (strategy, complete) == ("scan", not cut), case
    assert sum(link.count for link in links) == min(k, 4)


@pytest.mark.parametrize("case,k,cut", SCENARIOS)
def test_datatype_properties_all_is_none_only_when_cut(case, k, cut):
    """The whole-dataset question falls back to the per-class ones only
    when the valve closed -- not on a complete answer that happens to fill
    its last page's slot with a short page."""
    extractor = _extractor(k)
    properties_ladder, _links_ladder = extractor._set_at_a_time({C})
    answer = extractor._climb(URL, _Walk(), properties_ladder)
    if cut:
        assert answer is None, case
    else:
        assert answer == {C: sorted(f"{EX}p{i}" for i in range(k))}, case


def test_a_cut_count_is_not_stored_as_exact():
    """One class of 50 typed subjects read ten at a time, two pages at
    most: 20 of them counted, and the extraction says it is incomplete."""
    indexes = _extractor(50, page_size=10, max_pages=2).extract(URL)
    assert indexes.strategy == "scan"
    assert indexes.class_by_iri(C).instance_count == 20
    assert not indexes.complete
