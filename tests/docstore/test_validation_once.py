"""The docstore checks a document once, and names the path only on failure.

``validate_document`` walks a valid document without building a path and
walks a failing one a second time to say where; an upsert that inserts
validates once.  The message of every failure is the one the single
path-carrying walk (kept below as the reference) has always produced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import collection as collection_module
from repro.docstore import DocumentStore
from repro.docstore.documents import DocumentError, ObjectId, validate_document

_ATOMS = (str, int, float, bool, type(None), ObjectId)


def _reference(document, _path=""):
    """The validator as it was: one walk, an f-string path per value."""
    if not isinstance(document, dict):
        raise DocumentError(f"document{_path or ''} must be a dict, got {type(document).__name__}")
    for key, value in document.items():
        if not isinstance(key, str):
            raise DocumentError(f"key {key!r} at {_path or '<root>'} is not a string")
        if key.startswith("$"):
            raise DocumentError(f"key {key!r} at {_path or '<root>'} may not start with '$'")
        _reference_value(value, f"{_path}.{key}" if _path else key)


def _reference_value(value, path):
    if isinstance(value, _ATOMS):
        return
    if isinstance(value, dict):
        _reference(value, path)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _reference_value(item, f"{path}[{index}]")
    else:
        raise DocumentError(f"unsupported value {type(value).__name__} at {path}")


def _outcome(check, document):
    try:
        check(document)
    except DocumentError as error:
        return str(error)
    return None


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"$gt": 1}, "key '$gt' at a.b[1].c may not start with '$'"),
        ({7: "x"}, "key 7 at a.b[1].c is not a string"),
        ({"d": {1, 2}}, "unsupported value set at a.b[1].c.d"),
    ],
)
def test_a_fault_three_levels_down_is_named_as_before(fault, message):
    document = {"ok": [1, 2.5, None, True], "a": {"b": ["fine", {"c": fault}]}, "z": object()}
    with pytest.raises(DocumentError) as raised:
        validate_document(document)
    assert str(raised.value) == message == _outcome(_reference, document)


def test_the_root_faults_are_named_as_before():
    for document in ([], {"$set": 1}, {1: "x"}, {"a": object()}, {"a": ({"b": b"raw"},)}):
        assert _outcome(validate_document, document) == _outcome(_reference, document) is not None


_keys = st.one_of(st.sampled_from(["a", "b", "$c", "", "d.e"]), st.integers(0, 2))
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=3), st.builds(ObjectId),
    st.builds(set), st.binary(max_size=2), st.builds(object),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(document=st.one_of(st.dictionaries(_keys, _values, max_size=4), _values))
def test_same_verdict_and_message_as_the_reference(document):
    assert _outcome(validate_document, document) == _outcome(_reference, document)


def test_a_stored_document_is_validated_once(monkeypatch):
    calls = []

    def counting(document):
        calls.append(document)
        validate_document(document)

    monkeypatch.setattr(collection_module, "validate_document", counting)
    things = DocumentStore()["db"]["things"]
    things.replace_one({"url": "u"}, {"url": "u", "n": [1, {"m": 2}]}, upsert=True)  # inserts
    things.replace_one({"url": "u"}, {"url": "u", "n": []}, upsert=True)  # replaces
    things.insert_one({"url": "v"})
    things.insert_many([{"url": "w"}, {"url": "x"}])
    assert len(calls) == 5 and things.count_documents({}) == 4
    # the check still runs on the upsert's insert branch
    with pytest.raises(DocumentError, match=r"unsupported value set at n\[0\]"):
        things.replace_one({"url": "new"}, {"url": "new", "n": [{1}]}, upsert=True)
    assert things.count_documents({}) == 4
