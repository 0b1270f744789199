"""Documents: JSON-shaped dicts, checked and copied in one walk.

A stored document holds only what the persistence record can carry:
string keys (none starting with ``$``), str / int / float / bool / None
atoms, dicts and lists (a tuple is stored as a list).  The store keeps a
copy of what it is given, so a caller cannot change a stored document
behind its back.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["DocumentError", "checked_copy"]


class DocumentError(ValueError):
    """A document failed validation (non-JSON value, bad key, ...)."""


_ATOMS = (str, int, float, bool, type(None))


class _Invalid(Exception):
    """Raised inside the copy walk; the caller re-walks to name the place."""


def checked_copy(document: Any) -> Dict[str, Any]:
    """Copy *document*, checking it on the way.

    A valid document -- nearly every one -- is walked once with no path
    built; only a document that failed that walk is walked again, to raise
    a :class:`DocumentError` naming the first faulty path.
    """
    if isinstance(document, dict):
        try:
            return _copy_dict(document)
        except _Invalid:
            pass
    _raise_naming_the_path(document, "")
    raise AssertionError("unreachable: the path walk found no fault")


def _copy_dict(document: Dict[Any, Any]) -> Dict[str, Any]:
    copied = {}
    for key, value in document.items():
        if not isinstance(key, str) or key.startswith("$"):
            raise _Invalid
        copied[key] = _copy_value(value)
    return copied


def _copy_value(value: Any) -> Any:
    # Exact-type checks first: document values are overwhelmingly plain
    # atoms and plain containers, and `is` beats isinstance on this path.
    cls = value.__class__
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    if cls is dict:
        return _copy_dict(value)
    if cls is list or cls is tuple:
        return [_copy_value(item) for item in value]
    # Subclasses (OrderedDict, namedtuple, an int enum, ...) are valid too,
    # and are copied into the plain types the record codec writes.
    if isinstance(value, dict):
        return _copy_dict(value)
    if isinstance(value, (list, tuple)):
        return [_copy_value(item) for item in value]
    if isinstance(value, _ATOMS):
        return value
    raise _Invalid


def _raise_naming_the_path(document: Any, _path: str) -> None:
    """The walk of :func:`_copy_dict`, carrying the path it needs to say
    where the first fault is."""
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
