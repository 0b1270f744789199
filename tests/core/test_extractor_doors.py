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

from repro.core import IndexExtractor
from repro.endpoint import (
    AlwaysAvailable,
    EndpointNetwork,
    SimulationClock,
    SparqlClient,
    SparqlEndpoint,
)
from repro.rdf import parse_turtle

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
