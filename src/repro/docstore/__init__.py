"""Embedded document store: the MongoDB substitute for the H-BOLD server.

The paper stores Schema Summaries and Cluster Schemas in MongoDB so the
presentation layer can answer from the DB instead of recomputing (§3.2).
What H-BOLD stores is a registry record and three artifacts per endpoint
URL, so a collection here is a dict keyed by that URL (``get`` / ``put``,
plus equality-only ``find``), and a store persists as one record file
replaced whole on every flush.
"""

from .collection import Collection
from .database import STORE_FILE, DocumentStore, PersistenceError
from .documents import DocumentError

__all__ = [
    "Collection",
    "DocumentError",
    "DocumentStore",
    "PersistenceError",
    "STORE_FILE",
]
