"""Server-side storage for H-BOLD artifacts (the §3.2 re-engineering).

The 2018 demo computed the Cluster Schema on-the-fly in the browser; the
re-engineered server computes it once after extraction and stores it in
MongoDB so "both the Schema Summary and Cluster Schema can be visualized
by directly querying the DB".  :class:`HboldStorage` is that surface over
our embedded document store.

Collections, each keyed by endpoint URL:

* ``endpoints``   -- registry records (url, title, status, extraction dates)
* ``indexes``     -- raw :class:`EndpointIndexes` documents
* ``summaries``   -- :class:`SchemaSummary` documents
* ``clusters``    -- :class:`ClusterSchema` documents
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..docstore.database import DocumentStore
from .models import ClusterSchema, EndpointIndexes, SchemaSummary

__all__ = ["HboldStorage"]


class HboldStorage:
    """Typed persistence facade over the document store.

    Every document is keyed by its endpoint URL.  Loaded models are cached
    per URL beside the stored document they were decoded from; an entry is
    a hit only while the collection still holds that very object.  Every
    ``put`` stores a new object, so a write through another facade, or
    straight to the collection, turns the entry into a miss -- no hook
    needed.  The decoded models are frozen by convention, so handing out
    the same object is safe and skips the decode on the presentation hot
    path.
    """

    def __init__(self, store: Optional[DocumentStore] = None):
        self.store = store or DocumentStore()
        self.endpoints = self.store.collection("endpoints")
        self.indexes = self.store.collection("indexes")
        self.summaries = self.store.collection("summaries")
        self.clusters = self.store.collection("clusters")
        #: collection name -> url -> (stored document, model decoded from it)
        self._models: Dict[str, Dict[str, tuple]] = {
            "indexes": {}, "summaries": {}, "clusters": {},
        }

    def _save(self, collection, model) -> None:
        stored = collection.put(model.endpoint_url, model.to_doc())
        # Write-through: the saved model is what a load would decode.
        self._models[collection.name][model.endpoint_url] = (stored, model)

    def _load(self, collection, url: str, decode):
        cache = self._models[collection.name]
        document = collection.get(url)
        entry = cache.get(url)
        if entry is not None and entry[0] is document:
            return entry[1]
        model = None if document is None else decode(document)
        cache[url] = (document, model)
        return model

    # -- registry records --------------------------------------------------------

    def upsert_endpoint(self, url: str, **fields: Any) -> Dict[str, Any]:
        """Create or update the registry record for *url*; returns it."""
        existing = self.endpoints.get(url)
        if existing is None:
            record: Dict[str, Any] = {
                "url": url,
                "title": fields.pop("title", url),
                "status": fields.pop("status", "listed"),
                "source": fields.pop("source", "manual"),
                "last_success_day": None,
                "last_attempt_day": None,
                "last_error": None,
            }
        else:
            record = dict(existing)
        record.update(fields)
        self.endpoints.put(url, record)
        return record

    def endpoint_record(self, url: str) -> Optional[Dict[str, Any]]:
        return self.endpoints.find_one({"_id": url})

    def list_endpoints(self, status: Optional[str] = None) -> List[Dict[str, Any]]:
        query = {} if status is None else {"status": status}
        return sorted(self.endpoints.find(query), key=lambda record: record["url"])

    def endpoint_count(self, status: Optional[str] = None) -> int:
        return self.endpoints.count_documents(None if status is None else {"status": status})

    # -- artifacts ----------------------------------------------------------------

    def save_indexes(self, indexes: EndpointIndexes) -> None:
        self._save(self.indexes, indexes)

    def load_indexes(self, url: str) -> Optional[EndpointIndexes]:
        return self._load(self.indexes, url, EndpointIndexes.from_doc)

    def save_summary(self, summary: SchemaSummary) -> None:
        self._save(self.summaries, summary)

    def load_summary(self, url: str) -> Optional[SchemaSummary]:
        return self._load(self.summaries, url, SchemaSummary.from_doc)

    def save_cluster_schema(self, schema: ClusterSchema) -> None:
        self._save(self.clusters, schema)

    def load_cluster_schema(self, url: str) -> Optional[ClusterSchema]:
        return self._load(self.clusters, url, ClusterSchema.from_doc)

    # -- bookkeeping ---------------------------------------------------------------

    def record_extraction_success(self, url: str, day: int) -> None:
        self.upsert_endpoint(
            url,
            status="indexed",
            last_success_day=day,
            last_attempt_day=day,
            last_error=None,
        )

    def record_extraction_failure(self, url: str, day: int, error: str) -> None:
        record = self.endpoint_record(url) or self.upsert_endpoint(url)
        status = "broken" if record.get("last_success_day") is None else "stale"
        self.upsert_endpoint(
            url, status=status, last_attempt_day=day, last_error=error
        )

    def indexed_urls(self) -> List[str]:
        return [record["url"] for record in self.list_endpoints(status="indexed")]

    def flush(self) -> None:
        self.store.flush()
