"""The extractor's count parameters are refused at the door, by name.

``top_entities`` / ``top_entities_all`` take ``k`` (an int >= 0) and
``IndexExtractor`` takes ``page_size``, ``max_pages`` and ``max_classes``
(each an int >= 1); a bool is not an int here.  Before these were checked,
``k=-1`` was sent as ``LIMIT -1``, refused by the endpoint (and counted in
its ``rejected``), and the scan fallback returned ``ranked[:-1]`` -- every
entity but the last -- while ``page_size=0`` stored none of a class's
datatype properties as a complete extraction.  A refusal sends no query.
"""

from __future__ import annotations

import pytest

from repro.core import ExtractionFailed, HBold, IndexExtractor
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.rdf import Literal, parse_turtle
from repro.sparql.results import SelectResult

URL = "http://e/sparql"
EX = "http://example.org/"
TTL = """
@prefix ex: <http://example.org/> .

ex:a1 a ex:A ; ex:name "a1" ; ex:rel ex:b1 .
ex:a2 a ex:A ; ex:name "a2" ; ex:rel ex:b1 ; ex:rel ex:b2 .
ex:a3 a ex:A ; ex:name "a3" .
ex:b1 a ex:B ; ex:size 5 .
"""

#: values no count parameter takes: (id, value)
NOT_INTS = [("float", 2.5), ("integral-float", 3.0), ("true", True), ("false", False),
            ("none", None), ("text", "3")]


def _endpoint(profile: str):
    clock = SimulationClock()
    network = EndpointNetwork(clock=clock)
    endpoint = SparqlEndpoint(
        URL, parse_turtle(TTL), clock, profile=profile, availability=AlwaysAvailable()
    )
    network.register(endpoint)
    return SparqlClient(network), endpoint


K_DOORS = [("minus-one", -1), ("minus-five", -5), *NOT_INTS]


@pytest.mark.parametrize("profile", ("virtuoso", "legacy-sesame"))
@pytest.mark.parametrize("value", [v for _i, v in K_DOORS], ids=[i for i, _v in K_DOORS])
def test_a_bad_k_is_refused_before_any_query(profile, value):
    client, endpoint = _endpoint(profile)
    extractor = IndexExtractor(client)
    for call in (
        lambda: extractor.top_entities(URL, EX + "A", k=value),
        lambda: extractor.top_entities_all(URL, k=value),
    ):
        with pytest.raises(ValueError, match=r"^k must be an int >= 0"):
            call()
    assert (endpoint.stats.queries, endpoint.stats.rejected) == (0, 0)


@pytest.mark.parametrize("profile", ("virtuoso", "legacy-sesame"))
def test_k_zero_and_up_are_answered(profile):
    client, _endpoint_ = _endpoint(profile)
    extractor = IndexExtractor(client)
    ranked = [(EX + "a2", 4), (EX + "a1", 3), (EX + "a3", 2)]
    for k in (0, 1, 3, 10):
        assert extractor.top_entities(URL, EX + "A", k=k) == ranked[:k]
    if profile == "virtuoso":  # legacy-sesame rejects the batched aggregate
        assert extractor.top_entities_all(URL, k=0) == {EX + "A": [], EX + "B": []}
        assert extractor.top_entities_all(URL, k=2)[EX + "A"] == ranked[:2]


COUNT_DOORS = [("zero", 0), ("minus-five", -5), *NOT_INTS]


@pytest.mark.parametrize("parameter", ("page_size", "max_pages", "max_classes"))
@pytest.mark.parametrize("value", [v for _i, v in COUNT_DOORS], ids=[i for i, _v in COUNT_DOORS])
def test_a_bad_count_parameter_is_refused_by_name(parameter, value):
    client, endpoint = _endpoint("virtuoso")
    with pytest.raises(ValueError, match=rf"^{parameter} must be an int >= 1"):
        IndexExtractor(client, **{parameter: value})
    assert endpoint.stats.queries == 0


@pytest.mark.parametrize("profile", ("virtuoso", "legacy-sesame"))
def test_the_smallest_counts_still_extract_everything(profile):
    """``page_size=1`` pages every question a row at a time; the stored
    indexes equal the default extractor's."""
    client, _endpoint_ = _endpoint(profile)
    small = IndexExtractor(client, page_size=1, max_pages=200, max_classes=2).extract(URL)
    client, _endpoint_ = _endpoint(profile)
    default = IndexExtractor(client).extract(URL)
    assert small.complete and default.complete
    assert [(c.iri, c.instance_count, list(c.datatype_properties)) for c in small.classes] == [
        (c.iri, c.instance_count, list(c.datatype_properties)) for c in default.classes
    ]
    assert sorted((l.source, l.property, l.target, l.count) for l in small.links) == sorted(
        (l.source, l.property, l.target, l.count) for l in default.links
    )


# -- a COUNT cell is a non-negative integer ----------------------------------------

#: COUNT cells the one count reader refuses: (id, lexical form).  Parsed
#: with ``int(float(...))``, "NaN" / "abc" raised ValueError out of
#: ``extract``, "INF" / "1e400" OverflowError, and "-3" / "2.5" were stored
#: as -3 / 2 with ``complete=True``.
BAD_CELLS = [("nan", "NaN"), ("text", "abc"), ("inf", "INF"), ("huge", "1e400"),
             ("negative", "-3"), ("fraction", "2.5")]

#: each public caller of the count reader: (id, the question whose ``n``
#: cell is swapped, the call)
COUNT_CALLERS = [
    ("extract", "GROUP BY ?class", lambda extractor: extractor.extract(URL)),
    ("top_entities", "ORDER BY DESC(?n)",
     lambda extractor: extractor.top_entities(URL, EX + "A", k=3)),
    ("top_entities_all", "GROUP BY ?c ?s", lambda extractor: extractor.top_entities_all(URL)),
]


class CellSwap(SparqlClient):
    """Answers the question containing *marker* with every ``n`` cell
    replaced by a literal of *lexical*."""

    def __init__(self, network, marker: str, lexical: str):
        super().__init__(network)
        self.marker, self.lexical = marker, lexical

    def select(self, url, text):
        result = super().select(url, text)
        if self.marker not in text:
            return result
        rows = [{**row, "n": Literal(self.lexical)} for row in result.rows]
        return SelectResult(result.variables, rows, result.truncated)


def _swapped(marker: str, lexical: str) -> IndexExtractor:
    client, _endpoint_ = _endpoint("virtuoso")
    return IndexExtractor(CellSwap(client.network, marker, lexical))


@pytest.mark.parametrize("caller,marker,call", COUNT_CALLERS, ids=[c[0] for c in COUNT_CALLERS])
@pytest.mark.parametrize("lexical", [v for _i, v in BAD_CELLS], ids=[i for i, _v in BAD_CELLS])
def test_a_malformed_count_cell_fails_naming_the_question(caller, marker, call, lexical):
    with pytest.raises(ExtractionFailed) as failure:
        call(_swapped(marker, lexical))
    assert repr(lexical) in failure.value.reason and marker in failure.value.reason


def test_an_integer_count_cell_is_read():
    indexes = _swapped("GROUP BY ?class", "7").extract(URL)
    assert [c.instance_count for c in indexes.classes] == [7, 7]
    assert indexes.instance_count == 14 and indexes.complete
    top = _swapped("ORDER BY DESC(?n)", "7").top_entities(URL, EX + "A", k=3)
    assert sorted(top) == [(EX + "a1", 7), (EX + "a2", 7), (EX + "a3", 7)]
    spotlight = _swapped("GROUP BY ?c ?s", "7").top_entities_all(URL, k=3)
    assert spotlight[EX + "A"] == [(EX + "a1", 7), (EX + "a2", 7), (EX + "a3", 7)]


@pytest.mark.parametrize("lexical", [v for _i, v in BAD_CELLS], ids=[i for i, _v in BAD_CELLS])
def test_the_spotlight_panel_stays_usable_on_a_malformed_count(lexical):
    client, _endpoint_ = _endpoint("virtuoso")
    app = HBold(client.network)
    app.bootstrap_registry([URL])
    assert app.index_endpoint(URL)
    app.extractor.client = CellSwap(client.network, "GROUP BY ?c ?s", lexical)
    session = app.explore(URL)
    session.start_from_schema_summary()
    assert session.class_details(EX + "A")["top_entities"] == []
