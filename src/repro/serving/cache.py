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

from .scheduler import check_count, check_duration

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of query results, invalidated by ``Graph.generation``.

    One entry per query text, tagged with the generation it was computed
    at.  ``get`` with a newer generation drops the stale entry (counted
    as an *invalidation*, distinct from a capacity *eviction*) and
    reports a miss.
    """

    __slots__ = ("capacity", "min_service_ms", "keep_stale", "tenant_share",
                 "_entries", "_tenant_stats", "hits", "misses", "evictions",
                 "invalidations", "skipped_cheap", "quota_evictions")

    def __init__(
        self,
        capacity: int = 256,
        min_service_ms: float = 0.0,
        keep_stale: bool = False,
        tenant_share: float = 1.0,
    ):
        # a NaN or infinite capacity would never evict, a fractional one
        # would round up
        check_count("capacity", capacity)
        check_duration("min_service_ms", min_service_ms)
        if not 0.0 < tenant_share <= 1.0:
            raise ValueError(
                f"tenant_share must be in (0, 1], got {tenant_share}"
            )
        self.capacity = capacity
        #: admission floor: results cheaper than this are not worth a slot
        #: (a hit would cost about as much as recomputing them)
        self.min_service_ms = min_service_ms
        #: retain generation-stale entries for :meth:`get_stale` instead of
        #: dropping them on sight -- the degradation ladder's food supply
        self.keep_stale = keep_stale
        #: the fraction of capacity any single tenant may occupy; 1.0
        #: disables the quota (a tenant can fill the whole cache)
        self.tenant_share = tenant_share
        #: query text -> (generation, result, owner tenant), in LRU order
        #: (oldest first)
        self._entries: "OrderedDict[str, Tuple[int, object, Optional[str]]]" = OrderedDict()
        #: tenant -> {"hits": .., "evictions": ..}; populated lazily so
        #: tenant-unaware callers see no change in :meth:`info`
        self._tenant_stats: Dict[str, Dict[str, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.skipped_cheap = 0
        self.quota_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tenant_quota(self) -> int:
        """Max entries one tenant may own (at least one slot)."""
        return max(1, int(self.capacity * self.tenant_share))

    def _stats(self, tenant: str) -> Dict[str, int]:
        stats = self._tenant_stats.get(tenant)
        if stats is None:
            stats = self._tenant_stats[tenant] = {"hits": 0, "evictions": 0}
        return stats

    def _owned_keys(self, tenant: str):
        """The tenant's entries, oldest first (the global LRU order is the
        within-tenant LRU order: a subsequence of an ordered dict)."""
        return [
            text for text, entry in self._entries.items() if entry[2] == tenant
        ]

    def get(
        self, text: str, generation: int, tenant: Optional[str] = None
    ) -> Optional[object]:
        """The cached result for *text* at *generation*, or None.

        A stale entry (older generation) is normally dropped on sight: it
        can never become *fresh* again, so keeping it would only displace
        live entries from the LRU window.  With ``keep_stale`` it stays
        put (still a miss here) so :meth:`get_stale` can serve it as
        degraded data when the endpoint is unreachable.
        """
        entry = self._entries.get(text)
        if entry is None:
            self.misses += 1
            return None
        cached_generation, result, _owner = entry
        if cached_generation != generation:
            if not self.keep_stale:
                del self._entries[text]
                self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(text)
        self.hits += 1
        if tenant is not None:
            self._stats(tenant)["hits"] += 1
        return result

    def get_stale(self, text: str) -> Optional[object]:
        """The stored result for *text* at *any* generation, or None.

        The degradation read: freshness is already lost (the endpoint is
        down and retries are exhausted), so the last result this cache
        ever saw for the query is strictly better than an error page.
        Does not touch the hit/miss counters -- callers account the serve
        as a *degraded* outcome, not a cache hit.
        """
        entry = self._entries.get(text)
        if entry is None:
            return None
        self._entries.move_to_end(text)
        return entry[1]

    def put(
        self,
        text: str,
        generation: int,
        result: object,
        service_ms: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> None:
        """Store *result* for *text* computed at *generation*.

        When the caller passes the measured *service_ms*, results cheaper
        than ``min_service_ms`` are skipped (counted in ``skipped_cheap``):
        caching them cannot beat recomputation, and admitting them would
        evict entries whose recomputation is actually expensive.

        With a *tenant* and a ``tenant_share`` below 1.0, a tenant at its
        quota evicts its **own** least-recent entry first -- one tenant's
        burst can never push another tenant's entries out of the cache.
        """
        if service_ms is not None and service_ms < self.min_service_ms:
            self.skipped_cheap += 1
            return
        if text in self._entries:
            del self._entries[text]
        else:
            if tenant is not None and self.tenant_share < 1.0:
                owned = self._owned_keys(tenant)
                if len(owned) >= self.tenant_quota:
                    del self._entries[owned[0]]
                    self.quota_evictions += 1
                    self._stats(tenant)["evictions"] += 1
            if len(self._entries) >= self.capacity:
                _evicted, (_, _, owner) = self._entries.popitem(last=False)
                self.evictions += 1
                if owner is not None:
                    self._stats(owner)["evictions"] += 1
        self._entries[text] = (generation, result, tenant)

    def clear(self) -> None:
        self._entries.clear()

    def tenant_info(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant counters: hits by the tenant's requests, evictions of
        the tenant's entries (quota and capacity alike), current size."""
        sizes: Dict[str, int] = {}
        for _, _, owner in self._entries.values():
            if owner is not None:
                sizes[owner] = sizes.get(owner, 0) + 1
        out: Dict[str, Dict[str, int]] = {}
        for tenant in sorted(set(self._tenant_stats) | set(sizes)):
            stats = self._tenant_stats.get(tenant, {"hits": 0, "evictions": 0})
            out[tenant] = {
                "hits": stats["hits"],
                "evictions": stats["evictions"],
                "size": sizes.get(tenant, 0),
            }
        return out

    def info(self) -> Dict[str, int]:
        """Counter snapshot (the shape ``QueryServer.status`` publishes)."""
        info: Dict[str, object] = {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "skipped_cheap": self.skipped_cheap,
        }
        tenants = self.tenant_info()
        if tenants:
            info["quota_evictions"] = self.quota_evictions
            info["tenants"] = tenants
        return info

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
