"""HboldStorage's read cache stays coherent with the store it reads.

A facade caches each loaded model beside the stored document it was
decoded from; a write through another facade, or straight to the
collection, is what the next load returns.  Each test runs for the three
cached artifacts: indexes, Schema Summaries and Cluster Schemas.
"""

import pytest

from repro.core import HboldStorage, build_cluster_schema
from repro.core.models import (
    ClassIndex, ClusterSchema, EndpointIndexes, LinkIndex, SchemaSummary,
)
from repro.docstore import DocumentStore

URL = "http://e/sparql"
NS = "http://x.example.org/"


def _indexes(total: int) -> EndpointIndexes:
    return EndpointIndexes(
        URL, total, [ClassIndex(NS + "A", total - 1), ClassIndex(NS + "B", 1)],
        [LinkIndex(NS + "A", NS + "ab", NS + "B", 1)],
    )


def _summary(total: int) -> SchemaSummary:
    return SchemaSummary.from_indexes(_indexes(total))


def _cluster_schema(total: int) -> ClusterSchema:
    built = build_cluster_schema(_summary(total))
    return ClusterSchema(URL, built.clusters, built.edges, computed_at_ms=total)


class Kind:
    """One cached artifact: its collection, its facade calls, a model of
    *total* instances and the total a loaded model reports."""

    def __init__(self, collection, save, load, make, total):
        self.collection, self._save, self._load = collection, save, load
        self.make, self.total = make, total

    def save(self, storage, model):
        getattr(storage, self._save)(model)

    def load(self, storage):
        return getattr(storage, self._load)(URL)

    def put(self, storage, model):
        getattr(storage, self.collection).put(URL, model.to_doc())


KINDS = {
    "indexes": Kind("indexes", "save_indexes", "load_indexes", _indexes,
                    lambda model: model.instance_count),
    "summaries": Kind("summaries", "save_summary", "load_summary", _summary,
                      lambda model: model.total_instances),
    "clusters": Kind("clusters", "save_cluster_schema", "load_cluster_schema",
                     _cluster_schema, lambda model: model.computed_at_ms),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request) -> Kind:
    return KINDS[request.param]


def test_a_save_through_another_facade_is_what_the_next_load_returns(kind):
    store = DocumentStore()
    first, second = HboldStorage(store), HboldStorage(store)
    kind.save(first, kind.make(10))
    assert kind.total(kind.load(first)) == 10
    assert kind.total(kind.load(second)) == 10
    kind.save(second, kind.make(20))
    assert kind.total(kind.load(first)) == 20
    kind.save(first, kind.make(30))
    assert kind.total(kind.load(second)) == 30


def test_a_load_after_a_miss_sees_a_later_save_by_another_facade(kind):
    store = DocumentStore()
    reader, writer = HboldStorage(store), HboldStorage(store)
    assert kind.load(reader) is None
    kind.save(writer, kind.make(10))
    assert kind.total(kind.load(reader)) == 10


def test_a_put_straight_to_the_collection_misses_the_cache(kind):
    storage = HboldStorage(DocumentStore())
    kind.save(storage, kind.make(10))
    cached = kind.load(storage)
    assert kind.load(storage) is cached
    kind.put(storage, kind.make(40))
    assert kind.total(kind.load(storage)) == 40


def test_a_load_after_a_save_returns_the_saved_object(kind):
    storage = HboldStorage(DocumentStore())
    model = kind.make(10)
    kind.save(storage, model)
    assert kind.load(storage) is model
    assert kind.load(storage) is model
