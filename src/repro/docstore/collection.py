"""Collections: documents keyed by ``_id``, in insertion order.

``_id`` is the key the caller chooses -- for H-BOLD, the endpoint URL the
document is about -- so a write is a whole-document ``put`` under a key
and a read is a ``get`` by it.  ``find`` / ``find_one`` /
``count_documents`` take equality-only queries (every field of the query
equal in the document; ``{}`` matches all).  Equality is Python's, except
that a bool equals only a bool: ``{"active": 1}`` does not match
``{"active": True}``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .documents import DocumentError, checked_copy

__all__ = ["Collection"]


class Collection:
    """An insertion-ordered dict of documents keyed by ``_id``."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[str, Dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:
        return f"<Collection {self.name!r} with {len(self)} documents>"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored document under *key*, not a copy: never mutate it.

        Every :meth:`put` stores a new object, so holding on to the one
        returned here and comparing it (``is``) with a later ``get`` says
        whether the key was written since.
        """
        return self._documents.get(key)

    def put(self, key: str, document: Dict[str, Any]) -> Dict[str, Any]:
        """Store a checked copy of *document* under *key* (its ``_id``);
        returns the stored object.  A replaced document keeps its place in
        the order."""
        if not isinstance(key, str):
            raise DocumentError(f"_id must be a string, got {type(key).__name__}")
        stored = checked_copy(document)
        stored["_id"] = key
        self._documents[key] = stored
        return stored

    def documents(self):
        """The stored documents in order (not copies)."""
        return self._documents.values()

    def _matching(self, query: Optional[Dict[str, Any]]):
        items = (query or {}).items()
        return (
            document for document in self._documents.values()
            if all(_equal(document.get(field), value) for field, value in items)
        )

    def find(self, query: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """Copies of the documents equal to *query* on every field, in order."""
        return [checked_copy(document) for document in self._matching(query)]

    def find_one(self, query: Optional[Dict[str, Any]] = None) -> Optional[Dict[str, Any]]:
        for document in self._matching(query):
            return checked_copy(document)
        return None

    def count_documents(self, query: Optional[Dict[str, Any]] = None) -> int:
        return sum(1 for _ in self._matching(query))


def _equal(stored: Any, wanted: Any) -> bool:
    # True == 1 in Python; a stored flag never equals a count.
    if (stored.__class__ is bool) is not (wanted.__class__ is bool):
        return False
    return stored == wanted
