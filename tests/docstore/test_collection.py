"""A collection is an insertion-ordered dict of documents keyed by ``_id``."""

import collections
import enum

import pytest

from repro.docstore import Collection, DocumentError, DocumentStore


@pytest.fixture()
def endpoints() -> Collection:
    collection = Collection("endpoints")
    for url, status, classes in (
        ("http://a/sparql", "indexed", 12),
        ("http://b/sparql", "broken", 0),
        ("http://c/sparql", "indexed", 77),
    ):
        collection.put(url, {"url": url, "status": status, "classes": classes})
    return collection


class TestGetPut:
    def test_the_key_is_the_id(self, endpoints):
        assert endpoints.get("http://b/sparql")["_id"] == "http://b/sparql"
        endpoints.put("k", {"_id": "not the key", "v": 1})
        assert endpoints.get("k") == {"_id": "k", "v": 1}
        assert endpoints.get("missing") is None

    def test_put_stores_a_copy(self):
        things = Collection("things")
        source = {"k": [1, {"n": 2}]}
        stored = things.put("x", source)
        source["k"][1]["n"] = 3
        source["k"].append(4)
        assert things.get("x") is stored and stored == {"k": [1, {"n": 2}], "_id": "x"}

    def test_get_is_the_stored_object_until_the_next_put(self, endpoints):
        first = endpoints.get("http://a/sparql")
        assert endpoints.get("http://a/sparql") is first
        endpoints.put("http://a/sparql", dict(first))
        assert endpoints.get("http://a/sparql") is not first

    def test_a_replaced_document_keeps_its_place(self, endpoints):
        endpoints.put("http://a/sparql", {"url": "http://a/sparql", "fresh": 1})
        endpoints.put("http://d/sparql", {"url": "http://d/sparql"})
        assert [d["_id"] for d in endpoints.find()] == [
            "http://a/sparql", "http://b/sparql", "http://c/sparql", "http://d/sparql",
        ]
        assert endpoints.get("http://a/sparql") == {
            "url": "http://a/sparql", "fresh": 1, "_id": "http://a/sparql",
        }
        assert len(endpoints) == 4

    def test_a_tuple_is_stored_as_a_list(self):
        things = Collection("things")
        assert things.put("x", {"t": (1, (2, 3))})["t"] == [1, [2, 3]]

    @pytest.mark.parametrize("key", [7, None, b"k", ("k",), 1.5],
                             ids=["int", "None", "bytes", "tuple", "float"])
    def test_the_key_must_be_a_string(self, key):
        things = Collection("things")
        with pytest.raises(DocumentError, match="_id must be a string"):
            things.put(key, {"v": 1})
        assert len(things) == 0

    def test_a_refused_document_leaves_the_collection_as_it_was(self, endpoints):
        before = endpoints.get("http://a/sparql")
        with pytest.raises(DocumentError):
            endpoints.put("http://a/sparql", {"bad": object()})
        assert endpoints.get("http://a/sparql") is before and len(endpoints) == 3


class _Flag(enum.IntEnum):
    ON = 1


_Pair = collections.namedtuple("_Pair", "left right")


class _Names(list):
    pass


@pytest.mark.parametrize(
    "value, stored, kind",
    [
        (collections.OrderedDict([("b", 1), ("a", 2)]), {"b": 1, "a": 2}, dict),
        (collections.defaultdict(list, {"a": [1]}), {"a": [1]}, dict),
        (_Pair(1, (2,)), [1, [2]], list),
        (_Names(["x", "y"]), ["x", "y"], list),
        (_Flag.ON, 1, int),
    ],
    ids=["OrderedDict", "defaultdict", "namedtuple", "list-subclass", "IntEnum"],
)
def test_a_subclass_is_accepted_and_stored_as_what_the_file_holds(value, stored, kind):
    """A subclass of a document type is valid; a container comes back as
    the plain type a reopened store would hold."""
    document = Collection("things").put("x", {"v": value})
    assert document["v"] == stored and isinstance(document["v"], kind)
    if kind is not int:
        assert type(document["v"]) is kind


DOC = {
    "url": "http://lod.example.org/sparql",
    "status": "indexed",
    "classes": 42,
    "score": 3.5,
    "active": True,
    "tags": ["gov", "mobility"],
    "summary": {"nodes": 42, "edges": [{"p": "knows", "n": 7}]},
    "optional": None,
}


@pytest.mark.parametrize(
    "query, matched",
    [
        ({}, True),
        ({"status": "indexed"}, True),
        ({"status": "broken"}, False),
        ({"status": "indexed", "classes": 42}, True),
        ({"status": "indexed", "classes": 41}, False),
        ({"classes": 42.0}, True),
        ({"score": 3}, False),
        ({"classes": "42"}, False),
        ({"active": True}, True),
        ({"active": 1}, False),
        ({"active": 1.0}, False),
        ({"classes": True}, False),
        ({"nonexistent": None}, True),
        ({"optional": None}, True),
        ({"status": None}, False),
        ({"optional": False}, False),
        ({"tags": ["gov", "mobility"]}, True),
        ({"tags": ["mobility", "gov"]}, False),
        ({"tags": "gov"}, False),
        ({"summary": {"edges": [{"n": 7, "p": "knows"}], "nodes": 42}}, True),
        ({"summary": {"nodes": 42}}, False),
        ({"_id": "d"}, True),
        ({"_id": "e"}, False),
    ],
    ids=[
        "empty-query", "simple-match", "simple-mismatch", "multiple-keys-are-and",
        "one-key-of-two-differs", "numeric-cross-type", "float-is-not-truncated",
        "string-is-not-a-number", "bool-equals-bool", "bool-not-equal-to-one",
        "bool-not-equal-to-one-point-zero", "number-not-equal-to-true",
        "null-matches-missing-field", "null-matches-null", "null-does-not-match-a-value",
        "false-does-not-match-null", "array-exact", "array-order-matters",
        "an-element-is-not-the-array", "nested-document-whole",
        "nested-document-is-not-a-subset", "id-match", "id-mismatch",
    ],
)
def test_equality(query, matched):
    """A field of the query matches by equality of the whole value; find,
    find_one and count_documents agree on what matches."""
    collection = Collection("c")
    collection.put("d", DOC)
    expected = [dict(DOC, _id="d")] if matched else []
    assert collection.find(query) == expected
    assert collection.find_one(query) == (expected[0] if matched else None)
    assert collection.count_documents(query) == len(expected)


class TestFind:
    def test_find_all_in_order(self, endpoints):
        assert [d["classes"] for d in endpoints.find()] == [12, 0, 77]
        assert endpoints.find({}) == endpoints.find()

    def test_every_field_must_be_equal(self, endpoints):
        assert len(endpoints.find({"status": "indexed"})) == 2
        assert endpoints.find({"status": "indexed", "classes": 0}) == []
        assert endpoints.find_one({"status": "broken"})["url"] == "http://b/sparql"
        assert endpoints.find_one({"_id": "http://c/sparql"})["classes"] == 77

    def test_none_matches_a_missing_field(self, endpoints):
        assert len(endpoints.find({"last_error": None})) == 3

    def test_find_one_miss(self, endpoints):
        assert endpoints.find_one({"url": "http://nope/"}) is None

    def test_count_documents(self, endpoints):
        assert endpoints.count_documents() == 3
        assert endpoints.count_documents({"status": "indexed"}) == 2

    def test_found_documents_are_copies(self, endpoints):
        doc = endpoints.find_one({"url": "http://a/sparql"})
        doc["status"] = "mutated"
        doc.pop("_id")
        assert endpoints.get("http://a/sparql")["status"] == "indexed"
        assert endpoints.find()[0]["_id"] == "http://a/sparql"


def test_a_store_creates_collections_on_first_use():
    store = DocumentStore()
    things = store.collection("things")
    assert store.collection("things") is things and len(things) == 0


def test_collections_are_independent():
    store = DocumentStore()
    store.collection("summaries").put("u", {"n": 1})
    store.collection("clusters").put("u", {"n": 2})
    assert store.collection("summaries").get("u")["n"] == 1
    assert store.collection("clusters").get("u")["n"] == 2
    assert store.collection("indexes").get("u") is None
