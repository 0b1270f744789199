"""The docstore checks a document in the walk that copies it, and names
the path only on failure.

``checked_copy`` walks a valid document once, copying as it goes, with no
path built; it walks a failing one a second time to say where.  The
message of every failure is the one the single path-carrying walk (kept
below as the reference) has always produced.
"""

from __future__ import annotations

import collections
import datetime
import decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import Collection, documents
from repro.docstore.documents import DocumentError, checked_copy

_ATOMS = (str, int, float, bool, type(None))


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


def _plain(value):
    """What a copy must equal: the document with every tuple a list."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


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
        checked_copy(document)
    assert str(raised.value) == message == _outcome(_reference, document)


FAULTS = [
    ([], "document must be a dict, got list"),
    ("x", "document must be a dict, got str"),
    (None, "document must be a dict, got NoneType"),
    ((("a", 1),), "document must be a dict, got tuple"),
    ({1: "x"}, "key 1 at <root> is not a string"),
    ({None: 1}, "key None at <root> is not a string"),
    ({("a",): 1}, "key ('a',) at <root> is not a string"),
    ({b"k": 1}, "key b'k' at <root> is not a string"),
    ({"$set": 1}, "key '$set' at <root> may not start with '$'"),
    ({"a": {"$in": []}}, "key '$in' at a may not start with '$'"),
    ({"a": [{"$x": 1}]}, "key '$x' at a[0] may not start with '$'"),
    ({"a": {2: "x"}}, "key 2 at a is not a string"),
    ({"a": object()}, "unsupported value object at a"),
    ({"a": {1, 2}}, "unsupported value set at a"),
    ({"a": frozenset()}, "unsupported value frozenset at a"),
    ({"a": b"raw"}, "unsupported value bytes at a"),
    ({"a": bytearray(b"raw")}, "unsupported value bytearray at a"),
    ({"a": 1j}, "unsupported value complex at a"),
    ({"a": decimal.Decimal("1.5")}, "unsupported value Decimal at a"),
    ({"a": datetime.date(2020, 3, 30)}, "unsupported value date at a"),
    ({"a": range(2)}, "unsupported value range at a"),
    ({"a": collections.UserDict()}, "unsupported value UserDict at a"),
    ({"a": [1, [2, object()]]}, "unsupported value object at a[1][1]"),
    ({"a": ({"b": b"raw"},)}, "unsupported value bytes at a[0].b"),
    ({"a": {"b": {"c": {"d": set()}}}}, "unsupported value set at a.b.c.d"),
    ({"a.b": set()}, "unsupported value set at a.b"),
    ({"": set()}, "unsupported value set at "),
    ({"ok": 1, "$bad": object()}, "key '$bad' at <root> may not start with '$'"),
    ({"x": object(), "$bad": 1}, "unsupported value object at x"),
]


@pytest.mark.parametrize("document, message", FAULTS, ids=[m for _, m in FAULTS])
def test_each_fault_is_named(document, message):
    """The message names the first fault in document order, as the
    reference does."""
    with pytest.raises(DocumentError) as raised:
        checked_copy(document)
    assert str(raised.value) == message == _outcome(_reference, document)


@pytest.mark.parametrize(
    "document",
    [
        {},
        {"s": "", "i": 0, "f": -0.0, "t": True, "n": None},
        {"big": 2 ** 100, "inf": float("inf"), "tiny": 5e-324},
        {"": "an empty key", "a.b": "a dotted key", "a$": "a dollar not first"},
        {"unicode é 漢": "🙂", "nul": "\x00"},
        {"deep": {"a": {"b": {"c": {"d": [[[{}]]]}}}}},
        {"list": [1, "a", None, True, 1.5, [], {}], "tuple": (1, (2,))},
        {"_id": "a caller's id", "nested": {"_id": 7}},
    ],
    ids=["empty", "atoms", "number-edges", "key-shapes", "unicode", "deep", "containers", "ids"],
)
def test_a_valid_document_is_copied_equal_and_unshared(document):
    copy = checked_copy(document)
    assert _outcome(_reference, document) is None
    assert copy == _plain(document)

    def containers(value):
        if isinstance(value, dict):
            yield value
            for item in value.values():
                yield from containers(item)
        elif isinstance(value, (list, tuple)):
            yield value
            for item in value:
                yield from containers(item)

    originals = {id(container) for container in containers(document)}
    assert not originals & {id(container) for container in containers(copy)}


def test_the_root_faults_are_named_as_before():
    for document in ([], {"$set": 1}, {1: "x"}, {"a": object()}, {"a": ({"b": b"raw"},)}):
        assert _outcome(checked_copy, document) == _outcome(_reference, document) is not None


_keys = st.one_of(st.sampled_from(["a", "b", "$c", "", "d.e"]), st.integers(0, 2))
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=3), st.builds(set), st.binary(max_size=2), st.builds(object),
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
    verdict = _outcome(_reference, document)
    assert _outcome(checked_copy, document) == verdict
    if verdict is None:
        assert checked_copy(document) == _plain(document)


def test_a_put_walks_the_document_once(monkeypatch):
    walked = []
    copy_dict = documents._copy_dict

    def counting(document):
        walked.append(document)
        return copy_dict(document)

    def no_second_walk(document, path):
        raise AssertionError("a valid document was walked for a path")

    monkeypatch.setattr(documents, "_copy_dict", counting)
    monkeypatch.setattr(documents, "_raise_naming_the_path", no_second_walk)
    things = Collection("things")
    things.put("u", {"url": "u", "n": [1, {"m": 2}], "o": {"p": {}}})
    assert len(walked) == 4  # the root, {"m": 2}, {"p": {}} and {}: each once
    things.put("u", {"url": "u", "n": []})  # a replace walks once too
    assert len(walked) == 5 and len(things) == 1
