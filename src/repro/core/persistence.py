"""Server-side storage for H-BOLD artifacts (the §3.2 re-engineering).

The 2018 demo computed the Cluster Schema on-the-fly in the browser; the
re-engineered server computes it once after extraction and stores it in
MongoDB so "both the Schema Summary and Cluster Schema can be visualized
by directly querying the DB".  :class:`HboldStorage` is that MongoDB
surface over our embedded document store.

Collections:

* ``endpoints``   -- registry records (url, title, status, extraction dates)
* ``indexes``     -- raw :class:`EndpointIndexes` documents
* ``summaries``   -- :class:`SchemaSummary` documents
* ``clusters``    -- :class:`ClusterSchema` documents
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional

from ..docstore.database import Database, DocumentStore
from .models import ClusterSchema, EndpointIndexes, SchemaSummary

__all__ = ["HboldStorage"]


class HboldStorage:
    """Typed persistence facade over the document store."""

    def __init__(self, store: Optional[DocumentStore] = None, db_name: str = "hbold"):
        self.store = store or DocumentStore()
        self.db: Database = self.store.database(db_name)
        self.endpoints = self.db.collection("endpoints")
        self.indexes = self.db.collection("indexes")
        self.summaries = self.db.collection("summaries")
        self.clusters = self.db.collection("clusters")
        for collection in (self.endpoints, self.indexes, self.summaries, self.clusters):
            collection.create_index("endpoint_url", unique=collection is not self.endpoints)
        self.endpoints.create_index("url", unique=True)
        # Read-through model caches keyed by url.  Any mutation of the
        # backing collection (including out-of-band writes straight to the
        # docstore) fires its ``on_change`` hook and drops the whole cache
        # for that collection; the typed save_* paths repopulate their key
        # write-through.  The decoded models are frozen by convention, so
        # handing out the same object is safe and skips the document
        # deep-copy + decode on the presentation hot path.
        self._model_cache: Dict[str, Dict[str, Any]] = {
            "indexes": {},
            "summaries": {},
            "clusters": {},
        }
        #: set while one of this facade's typed save_* methods writes; this
        #: facade then invalidates exactly its own key (write-through) while
        #: other subscribers on the same collection still get notified.
        self._own_write = False
        self._subscribe(self.indexes, self._model_cache["indexes"])
        self._subscribe(self.summaries, self._model_cache["summaries"])
        self._subscribe(self.clusters, self._model_cache["clusters"])

    def _subscribe(self, collection, cache: Dict[str, Any]) -> None:
        """Chain a cache-clearing hook onto the collection's change hook.

        Chaining (instead of assigning) keeps other facades over the same
        DocumentStore working: every subscriber still hears every change.
        The hook holds this facade weakly: the collection it hangs on is
        the facade's own, and a strong reference back would make the
        facade, its caches and every model in them a reference cycle that
        only the cyclic collector frees.
        """
        previous = collection.on_change
        facade = weakref.ref(self)

        def hook():
            owner = facade()
            if owner is None or not owner._own_write:
                cache.clear()
            if previous is not None:
                previous()

        collection.on_change = hook

    def _cached_model(self, cache_name: str, collection, url: str, decode):
        cache = self._model_cache[cache_name]
        if url in cache:
            return cache[url]
        doc = collection.find_one({"endpoint_url": url})
        model = decode(doc) if doc else None
        cache[url] = model
        return model

    def _replace_quietly(self, collection, url: str, doc: Dict[str, Any]) -> None:
        """Replace *url*'s doc without clearing this facade's own cache.

        The typed save path invalidates exactly its own cache key (the
        write-through in each ``save_*``); other subscribers to the
        collection's change hook are still notified.
        """
        self._own_write = True
        try:
            collection.replace_one({"endpoint_url": url}, doc, upsert=True)
        finally:
            self._own_write = False

    # -- registry records --------------------------------------------------------

    def upsert_endpoint(self, url: str, **fields: Any) -> Dict[str, Any]:
        """Create or update the registry record for *url*; returns it."""
        existing = self.endpoints.find_one({"url": url})
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
            record.update(fields)
            self.endpoints.insert_one(record)
            return record
        updates = {f"{key}": value for key, value in fields.items()}
        if updates:
            self.endpoints.update_one({"url": url}, {"$set": updates})
        return self.endpoints.find_one({"url": url})

    def endpoint_record(self, url: str) -> Optional[Dict[str, Any]]:
        return self.endpoints.find_one({"url": url})

    def list_endpoints(self, status: Optional[str] = None) -> List[Dict[str, Any]]:
        query: Dict[str, Any] = {}
        if status is not None:
            query["status"] = status
        return self.endpoints.find(query, sort=[("url", 1)])

    def endpoint_count(self, status: Optional[str] = None) -> int:
        if status is None:
            return self.endpoints.count_documents()
        return self.endpoints.count_documents({"status": status})

    # -- artifacts ----------------------------------------------------------------

    def save_indexes(self, indexes: EndpointIndexes) -> None:
        self._replace_quietly(self.indexes, indexes.endpoint_url, indexes.to_doc())
        # Write-through: the saved model is what a load would decode.
        self._model_cache["indexes"][indexes.endpoint_url] = indexes

    def load_indexes(self, url: str) -> Optional[EndpointIndexes]:
        return self._cached_model("indexes", self.indexes, url, EndpointIndexes.from_doc)

    def save_summary(self, summary: SchemaSummary) -> None:
        self._replace_quietly(self.summaries, summary.endpoint_url, summary.to_doc())
        self._model_cache["summaries"][summary.endpoint_url] = summary

    def load_summary(self, url: str) -> Optional[SchemaSummary]:
        return self._cached_model("summaries", self.summaries, url, SchemaSummary.from_doc)

    def save_cluster_schema(self, schema: ClusterSchema) -> None:
        self._replace_quietly(self.clusters, schema.endpoint_url, schema.to_doc())
        self._model_cache["clusters"][schema.endpoint_url] = schema

    def load_cluster_schema(self, url: str) -> Optional[ClusterSchema]:
        return self._cached_model("clusters", self.clusters, url, ClusterSchema.from_doc)

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
