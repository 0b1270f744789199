"""The generation-keyed query result cache.

The plan cache (PR 3) memoizes *compiled plans* per graph; this is its
missing sibling for *results*: a bounded LRU keyed on ``(query text,
Graph.generation)``.  Invalidation costs nothing -- a mutation bumps the
graph's generation, every entry tagged with the old generation stops
matching, and stale entries are dropped lazily on their next lookup.
Because the generation counter bumps **only on actual content change**
(the PR 5 contract: duplicate adds, absent removes and all-duplicate
batches are no-ops), a duplicate-heavy ingest cannot evict still-valid
results.

The serving tier consults this cache before dispatching to the endpoint;
a hit serves the stored result object for a flat cache-service charge
instead of the full endpoint execution.  Results are treated as
immutable -- every layer that touches ``SelectResult``/``AskResult``
reads them only -- so hits return the stored object without copying.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..endpoint.errors import check_count, check_duration

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of query results, invalidated by ``Graph.generation``.

    One entry per query text, tagged with the generation it was computed
    at.  ``get`` with a newer generation drops the stale entry (counted
    as an *invalidation*, distinct from a capacity *eviction*) and
    reports a miss.
    """

    __slots__ = ("capacity", "min_service_ms", "_entries", "hits", "misses",
                 "evictions", "invalidations", "skipped_cheap")

    def __init__(self, capacity: int = 256, min_service_ms: float = 0.0):
        # a NaN or infinite capacity would never evict, a fractional one
        # would round up
        check_count("capacity", capacity)
        check_duration("min_service_ms", min_service_ms)
        self.capacity = capacity
        #: admission floor: results cheaper than this are not worth a slot
        #: (a hit would cost about as much as recomputing them)
        self.min_service_ms = min_service_ms
        #: query text -> (generation, result), in LRU order (oldest first)
        self._entries: "OrderedDict[str, Tuple[int, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.skipped_cheap = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, text: str, generation: int) -> Optional[object]:
        """The cached result for *text* at *generation*, or None.

        A stale entry (older generation) is dropped on sight: it can never
        become *fresh* again, so keeping it would only displace live
        entries from the LRU window.
        """
        entry = self._entries.get(text)
        if entry is None:
            self.misses += 1
            return None
        cached_generation, result = entry
        if cached_generation != generation:
            del self._entries[text]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(text)
        self.hits += 1
        return result

    def put(
        self,
        text: str,
        generation: int,
        result: object,
        service_ms: Optional[float] = None,
    ) -> None:
        """Store *result* for *text* computed at *generation*.

        When the caller passes the measured *service_ms*, results cheaper
        than ``min_service_ms`` are skipped (counted in ``skipped_cheap``):
        caching them cannot beat recomputation, and admitting them would
        evict entries whose recomputation is actually expensive.
        """
        if service_ms is not None and service_ms < self.min_service_ms:
            self.skipped_cheap += 1
            return
        if text in self._entries:
            del self._entries[text]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[text] = (generation, result)

    def clear(self) -> None:
        self._entries.clear()

    def info(self) -> Dict[str, int]:
        """Counter snapshot (the shape ``QueryServer.status`` publishes)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "skipped_cheap": self.skipped_cheap,
        }

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
