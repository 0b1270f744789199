"""Collections: the CRUD surface of the embedded document store.

API mirrors pymongo where the H-BOLD server layer needs it:
``insert_one/insert_many``, ``find/find_one`` (with sort/limit/skip and
projections), ``replace_one``, ``update_one/update_many`` (``$set``,
``$unset``, ``$inc``, ``$push``), ``delete_one/delete_many``,
``count_documents``, ``distinct`` and ``create_index`` with unique-key
enforcement.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .documents import (
    DocumentError,
    ObjectId,
    deep_copy_document,
    validate_document,
)
from .indexes import Index
from .query import _MISSING, QuerySyntaxError, matches, resolve_path

__all__ = ["Collection", "InsertResult", "UpdateResult", "DeleteResult", "DuplicateKeyError"]


class DuplicateKeyError(DocumentError):
    """Insert/update violated a unique index."""


class InsertResult:
    __slots__ = ("inserted_ids",)

    def __init__(self, inserted_ids: List[ObjectId]):
        self.inserted_ids = inserted_ids

    @property
    def inserted_id(self) -> ObjectId:
        return self.inserted_ids[0]


class UpdateResult:
    __slots__ = ("matched_count", "modified_count", "upserted_id")

    def __init__(self, matched: int, modified: int, upserted_id: Optional[ObjectId] = None):
        self.matched_count = matched
        self.modified_count = modified
        self.upserted_id = upserted_id


class DeleteResult:
    __slots__ = ("deleted_count",)

    def __init__(self, deleted: int):
        self.deleted_count = deleted


class Collection:
    """An ordered set of documents keyed by ``_id`` with secondary indexes."""

    def __init__(self, name: str):
        if not name or "$" in name:
            raise ValueError(f"bad collection name {name!r}")
        self.name = name
        self._documents: Dict[ObjectId, Dict[str, Any]] = {}
        self._insertion_order: List[ObjectId] = []
        self._indexes: Dict[str, Index] = {}
        #: bumped on every mutation; used by persistence for dirty tracking
        self.revision = 0
        #: optional zero-argument callback invoked after every mutation
        #: (read-through caches above the store subscribe to this)
        self.on_change = None

    def __len__(self) -> int:
        return len(self._documents)

    def _bump(self) -> None:
        self.revision += 1
        callback = self.on_change
        if callback is not None:
            callback()

    def __repr__(self) -> str:
        return f"<Collection {self.name!r} with {len(self)} documents>"

    # -- indexes -------------------------------------------------------------

    def create_index(self, field: str, unique: bool = False) -> str:
        """Create (or fetch) a secondary index on a dotted *field* path."""
        index_name = f"{field}_1"
        existing = self._indexes.get(index_name)
        if existing is not None:
            if existing.unique != unique:
                raise ValueError(
                    f"index {index_name} already exists with unique={existing.unique}"
                )
            return index_name
        index = Index(field, unique=unique)
        for oid in self._insertion_order:
            index.add(oid, self._documents[oid])
        self._indexes[index_name] = index
        return index_name

    # -- inserts ---------------------------------------------------------------

    def insert_one(self, document: Dict[str, Any]) -> InsertResult:
        return InsertResult([self._insert(document)])

    def insert_many(self, documents: Iterable[Dict[str, Any]]) -> InsertResult:
        inserted = [self._insert(document) for document in documents]
        return InsertResult(inserted)

    def _insert(self, document: Dict[str, Any]) -> ObjectId:
        validate_document(document)
        return self._store(document)

    def _store(self, document: Dict[str, Any]) -> ObjectId:
        """Store a copy of *document*, which the caller has validated."""
        stored = deep_copy_document(document)
        oid = stored.get("_id", _MISSING)
        if oid is _MISSING or oid is None:
            oid = ObjectId()
            stored["_id"] = oid
        elif not isinstance(oid, ObjectId):
            # Allow caller-chosen string/int ids like Mongo does.
            if not isinstance(oid, (str, int)):
                raise DocumentError(f"unsupported _id type {type(oid).__name__}")
        if oid in self._documents:
            raise DuplicateKeyError(f"duplicate _id {oid!r} in {self.name}")
        for index in self._indexes.values():
            index.check_unique(oid, stored)
        self._documents[oid] = stored
        self._insertion_order.append(oid)
        for index in self._indexes.values():
            index.add(oid, stored)
        self._bump()
        return oid

    # -- queries ---------------------------------------------------------------

    def _candidates(self, query: Dict[str, Any]) -> Iterable[ObjectId]:
        """Use an equality-compatible index when one covers a filter key."""
        for key, spec in query.items():
            if key.startswith("$") or isinstance(spec, dict):
                continue
            index = self._indexes.get(f"{key}_1")
            if index is not None:
                return index.lookup(spec)
        return self._insertion_order

    def find(
        self,
        query: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: int = 0,
        skip: int = 0,
    ) -> List[Dict[str, Any]]:
        """Return matching documents (copies), Mongo-style options included."""
        query = query or {}
        out: List[Dict[str, Any]] = []
        for oid in self._candidates(query):
            document = self._documents.get(oid)
            if document is not None and matches(document, query):
                out.append(document)

        if sort:
            for field, direction in reversed(sort):
                if direction not in (1, -1):
                    raise ValueError(f"sort direction must be 1 or -1, got {direction}")
                out.sort(
                    key=lambda d: _sort_key(resolve_path(d, field)),
                    reverse=direction == -1,
                )
        if skip:
            out = out[skip:]
        if limit:
            out = out[:limit]
        return [self._project(document, projection) for document in out]

    def find_one(
        self,
        query: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
    ) -> Optional[Dict[str, Any]]:
        results = self.find(query, projection=projection, sort=sort, limit=1)
        return results[0] if results else None

    @staticmethod
    def _project(
        document: Dict[str, Any], projection: Optional[Dict[str, int]]
    ) -> Dict[str, Any]:
        copied = deep_copy_document(document)
        if not projection:
            return copied
        include = {field for field, flag in projection.items() if flag}
        exclude = {field for field, flag in projection.items() if not flag}
        if include and exclude - {"_id"}:
            raise QuerySyntaxError("cannot mix inclusion and exclusion projections")
        if include:
            kept = {field: copied[field] for field in include if field in copied}
            if "_id" not in exclude and "_id" in copied:
                kept["_id"] = copied["_id"]
            return kept
        for field in exclude:
            copied.pop(field, None)
        return copied

    def count_documents(self, query: Optional[Dict[str, Any]] = None) -> int:
        query = query or {}
        if not query:
            return len(self._documents)
        return sum(
            1
            for oid in self._candidates(query)
            if (doc := self._documents.get(oid)) is not None and matches(doc, query)
        )

    def distinct(self, field: str, query: Optional[Dict[str, Any]] = None) -> List[Any]:
        values: List[Any] = []
        seen: List[Any] = []  # values may be unhashable (dicts/lists)
        for document in self.find(query or {}):
            value = resolve_path(document, field)
            if value is _MISSING:
                continue
            candidates = value if isinstance(value, list) else [value]
            for candidate in candidates:
                if candidate not in seen:
                    seen.append(candidate)
                    values.append(candidate)
        return values

    # -- updates ---------------------------------------------------------------

    def replace_one(
        self,
        query: Dict[str, Any],
        replacement: Dict[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        validate_document(replacement)
        for oid in list(self._candidates(query)):
            document = self._documents.get(oid)
            if document is None or not matches(document, query):
                continue
            stored = deep_copy_document(replacement)
            stored["_id"] = document["_id"]
            self._reindex(oid, document, stored)
            self._documents[oid] = stored
            self._bump()
            return UpdateResult(1, 1)
        if upsert:
            upserted = self._store(replacement)  # validated above
            return UpdateResult(0, 0, upserted_id=upserted)
        return UpdateResult(0, 0)

    def update_one(
        self, query: Dict[str, Any], update: Dict[str, Any], upsert: bool = False
    ) -> UpdateResult:
        return self._update(query, update, multi=False, upsert=upsert)

    def update_many(self, query: Dict[str, Any], update: Dict[str, Any]) -> UpdateResult:
        return self._update(query, update, multi=True, upsert=False)

    def _update(
        self, query: Dict[str, Any], update: Dict[str, Any], multi: bool, upsert: bool
    ) -> UpdateResult:
        if not update or not all(k.startswith("$") for k in update):
            raise QuerySyntaxError("updates must use operators like $set")
        matched = 0
        modified = 0
        for oid in list(self._candidates(query)):
            document = self._documents.get(oid)
            if document is None or not matches(document, query):
                continue
            matched += 1
            updated = deep_copy_document(document)
            if _apply_update(updated, update):
                validate_document(updated)
                self._reindex(oid, document, updated)
                self._documents[oid] = updated
                modified += 1
                self._bump()
            if not multi:
                break
        if matched == 0 and upsert:
            seed: Dict[str, Any] = {}
            for key, value in query.items():
                if not key.startswith("$") and not isinstance(value, dict):
                    seed[key] = value
            _apply_update(seed, update)
            upserted = self._insert(seed)
            return UpdateResult(0, 0, upserted_id=upserted)
        return UpdateResult(matched, modified)

    def _reindex(self, oid, old: Dict[str, Any], new: Dict[str, Any]) -> None:
        for index in self._indexes.values():
            index.remove(oid, old)
        try:
            for index in self._indexes.values():
                index.check_unique(oid, new)
        except DocumentError:
            for index in self._indexes.values():  # restore before failing
                index.add(oid, old)
            raise
        for index in self._indexes.values():
            index.add(oid, new)

    # -- deletes ---------------------------------------------------------------

    def delete_one(self, query: Dict[str, Any]) -> DeleteResult:
        return self._delete(query, multi=False)

    def delete_many(self, query: Optional[Dict[str, Any]] = None) -> DeleteResult:
        return self._delete(query or {}, multi=True)

    def _delete(self, query: Dict[str, Any], multi: bool) -> DeleteResult:
        victims: List[ObjectId] = []
        for oid in self._candidates(query):
            document = self._documents.get(oid)
            if document is not None and matches(document, query):
                victims.append(oid)
                if not multi:
                    break
        for oid in victims:
            document = self._documents.pop(oid)
            self._insertion_order.remove(oid)
            for index in self._indexes.values():
                index.remove(oid, document)
        if victims:
            self._bump()
        return DeleteResult(len(victims))

    # -- bulk access for persistence -------------------------------------------

    def all_documents(self) -> Iterator[Dict[str, Any]]:
        """Stored documents in insertion order (copies)."""
        for oid in self._insertion_order:
            yield deep_copy_document(self._documents[oid])


def _sort_key(value: Any) -> Tuple:
    """Total order across the heterogeneous values Mongo sorting allows."""
    if value is _MISSING or value is None:
        return (0, "")
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, ObjectId):
        return (4, value.value)
    if isinstance(value, list):
        return (5, str(value))
    return (6, str(value))


def _apply_update(document: Dict[str, Any], update: Dict[str, Any]) -> bool:
    """Apply update operators in place; return True if anything changed."""
    changed = False
    for operator, spec in update.items():
        if not isinstance(spec, dict):
            raise QuerySyntaxError(f"{operator} needs a field document")
        if operator == "$set":
            for path, value in spec.items():
                if _set_path(document, path, value):
                    changed = True
        elif operator == "$unset":
            for path in spec:
                if _unset_path(document, path):
                    changed = True
        elif operator == "$inc":
            for path, amount in spec.items():
                current = resolve_path(document, path)
                if current is _MISSING:
                    current = 0
                if not isinstance(current, (int, float)) or isinstance(current, bool):
                    raise QuerySyntaxError(f"$inc target {path!r} is not numeric")
                _set_path(document, path, current + amount)
                changed = True
        elif operator == "$push":
            for path, value in spec.items():
                current = resolve_path(document, path)
                if current is _MISSING:
                    _set_path(document, path, [value])
                elif isinstance(current, list):
                    current.append(value)
                else:
                    raise QuerySyntaxError(f"$push target {path!r} is not an array")
                changed = True
        else:
            raise QuerySyntaxError(f"unknown update operator {operator!r}")
    return changed


def _set_path(document: Dict[str, Any], path: str, value: Any) -> bool:
    segments = path.split(".")
    current = document
    for segment in segments[:-1]:
        if isinstance(current, list):
            current = current[int(segment)]
        else:
            current = current.setdefault(segment, {})
        if not isinstance(current, (dict, list)):
            raise QuerySyntaxError(f"cannot descend into {segment!r} on path {path!r}")
    leaf = segments[-1]
    if isinstance(current, list):
        index = int(leaf)
        if current[index] == value:
            return False
        current[index] = value
        return True
    if current.get(leaf, _MISSING) == value:
        return False
    current[leaf] = value
    return True


def _unset_path(document: Dict[str, Any], path: str) -> bool:
    segments = path.split(".")
    current = document
    for segment in segments[:-1]:
        if isinstance(current, dict):
            if segment not in current:
                return False
            current = current[segment]
        elif isinstance(current, list):
            current = current[int(segment)]
        else:
            return False
    if isinstance(current, dict) and segments[-1] in current:
        del current[segments[-1]]
        return True
    return False
