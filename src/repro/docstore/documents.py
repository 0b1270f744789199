"""Document model for the embedded store: ObjectIds and validation.

The paper's server layer persists Schema Summaries and Cluster Schemas in
MongoDB.  This package is a faithful stand-in: documents are plain dicts
with an ``_id`` key, ids are monotonic ``ObjectId`` values, and documents
must be JSON-serializable so the persistence layer can write JSON-lines.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict

__all__ = ["ObjectId", "validate_document", "DocumentError", "deep_copy_document"]


class DocumentError(ValueError):
    """A document failed validation (non-JSON value, bad key, ...)."""


class ObjectId:
    """A compact unique document id.

    Real ObjectIds embed a timestamp and machine id; for a deterministic
    simulation we only need uniqueness and a stable string form, so the id
    is a process-wide counter rendered as a zero-padded hex string.
    """

    __slots__ = ("value",)

    _counter = itertools.count(1)

    def __init__(self, value: str = None):
        if value is None:
            value = format(next(ObjectId._counter), "024x")
        if not isinstance(value, str) or len(value) != 24:
            raise DocumentError(f"ObjectId must be a 24-char string, got {value!r}")
        try:
            int(value, 16)
        except ValueError as exc:
            raise DocumentError(f"ObjectId must be hex, got {value!r}") from exc
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ObjectId is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ObjectId) and other.value == self.value

    def __lt__(self, other: "ObjectId") -> bool:
        if not isinstance(other, ObjectId):
            return NotImplemented
        return self.value < other.value

    def __hash__(self) -> int:
        return hash((ObjectId, self.value))

    def __repr__(self) -> str:
        return f"ObjectId({self.value!r})"

    def __str__(self) -> str:
        return self.value


_ATOMS = (str, int, float, bool, type(None), ObjectId)


def validate_document(document: Dict[str, Any], _path: str = "") -> None:
    """Ensure *document* only holds JSON-compatible values (plus ObjectId).

    Raises :class:`DocumentError` naming the offending path, which is what
    you want when a deeply nested summary fails to persist.  A valid
    document -- nearly every one -- is walked once with no path built; only
    a document that failed that walk is walked again to name the place.
    """
    if not _is_valid_document(document):
        _raise_naming_the_path(document, _path)


def _is_valid_document(document: Any) -> bool:
    if not isinstance(document, dict):
        return False
    for key, value in document.items():
        if not isinstance(key, str) or key.startswith("$"):
            return False
        if not _is_valid_value(value):
            return False
    return True


def _is_valid_value(value: Any) -> bool:
    if isinstance(value, _ATOMS):
        return True
    if isinstance(value, dict):
        return _is_valid_document(value)
    if isinstance(value, (list, tuple)):
        return all(map(_is_valid_value, value))
    return False


def _raise_naming_the_path(document: Any, _path: str) -> None:
    """The walk of :func:`_is_valid_document`, carrying the path it needs
    to say where the first fault is."""
    if not isinstance(document, dict):
        raise DocumentError(f"document{_path or ''} must be a dict, got {type(document).__name__}")
    for key, value in document.items():
        if not isinstance(key, str):
            raise DocumentError(f"key {key!r} at {_path or '<root>'} is not a string")
        if key.startswith("$"):
            raise DocumentError(f"key {key!r} at {_path or '<root>'} may not start with '$'")
        path = f"{_path}.{key}" if _path else key
        _raise_for_value(value, path)


def _raise_for_value(value: Any, path: str) -> None:
    if isinstance(value, _ATOMS):
        return
    if isinstance(value, dict):
        _raise_naming_the_path(value, path)
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _raise_for_value(item, f"{path}[{index}]")
        return
    raise DocumentError(f"unsupported value {type(value).__name__} at {path}")


def deep_copy_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """A structural deep copy that preserves ObjectId instances.

    The store hands out copies so callers can't mutate stored state behind
    its back (the classic shared-dict bug class in embedded stores).
    """
    return _copy_value(document)


def _copy_value(value: Any) -> Any:
    # Exact-type checks first: document values are overwhelmingly plain
    # atoms and plain containers, and `is` beats isinstance on this very
    # hot path.
    cls = value.__class__
    if cls is str or cls is int or cls is float or cls is bool:
        return value
    if cls is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if cls is list or cls is tuple:
        return [_copy_value(item) for item in value]
    # Subclasses (OrderedDict, namedtuple, ...) pass validation via
    # isinstance, so they must be copied here too or the isolation
    # guarantee breaks.
    if isinstance(value, dict):
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy_value(item) for item in value]
    return value  # atoms (incl. ObjectId) are immutable


def document_to_jsonable(document: Dict[str, Any]) -> Dict[str, Any]:
    """Encode a document for JSON-lines persistence (ObjectId -> tagged dict)."""

    def encode(value: Any) -> Any:
        if isinstance(value, ObjectId):
            return {"$oid": value.value}
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [encode(item) for item in value]
        return value

    return encode(document)


def document_from_jsonable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Decode a persisted JSON document (tagged dicts -> ObjectId)."""

    def decode(value: Any) -> Any:
        if isinstance(value, dict):
            if set(value.keys()) == {"$oid"}:
                return ObjectId(value["$oid"])
            return {key: decode(item) for key, item in value.items()}
        if isinstance(value, list):
            return [decode(item) for item in value]
        return value

    return decode(payload)


def dumps_document(document: Dict[str, Any]) -> str:
    """One-line JSON encoding used by the persistence layer."""
    return json.dumps(document_to_jsonable(document), sort_keys=True, separators=(",", ":"))


def loads_document(text: str) -> Dict[str, Any]:
    return document_from_jsonable(json.loads(text))
