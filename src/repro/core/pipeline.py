"""The server pipeline (§2.1): Index Extraction -> Schema Summary ->
Cluster Schema -> MongoDB, for one endpoint.

The paper has one such pipeline and three doors into it: the bulk
indexer (``HBold.index_endpoint`` / ``update_all``), manual insertion
(§3.4, ``EndpointRegistry.submit``) and the daily scheduler (§3.1,
``UpdateScheduler.run_day``).  :func:`index_endpoint` is that pipeline;
the doors decide *which* endpoints run and what to do with the outcome,
never *how* one is indexed.  Every rule is stated here, once:

* **compute, then store** -- the three artifacts are written only after
  all three exist, so a run that fails in any stage leaves the previous
  run's documents untouched;
* **§3.2's shortcut** -- "if the Schema Summary does not change then the
  Cluster Schema will not change neither": the stored Cluster Schema is
  kept (not recomputed, not rewritten, ``computed_at_ms`` unmoved) when
  the fresh summary is structurally identical to the stored one *and*
  the stored schema was made by the caller's algorithm;
* **a failure is an outcome** -- an :class:`ExtractionFailed` or any
  other exception is recorded on the registry record
  (``record_extraction_failure``) and returned, never raised, so one
  endpoint cannot take down a batch or strand a submitter's address.
"""

from __future__ import annotations

from typing import Optional

from .cluster_schema import build_cluster_schema
from .diff import diff_summaries
from .index_extraction import ExtractionFailed, IndexExtractor
from .models import EndpointIndexes, SchemaSummary
from .persistence import HboldStorage

__all__ = ["IndexOutcome", "index_endpoint"]


class IndexOutcome:
    """What one pipeline run did for one endpoint."""

    __slots__ = ("url", "indexes", "reclustered", "error")

    def __init__(
        self,
        url: str,
        indexes: Optional[EndpointIndexes] = None,
        reclustered: bool = False,
        error: Optional[str] = None,
    ):
        self.url = url
        #: the fresh extraction; None when the run failed
        self.indexes = indexes
        #: False when §3.2 kept the stored Cluster Schema (or the run failed)
        self.reclustered = reclustered
        #: the reason written to the registry record; None on success
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


def index_endpoint(
    storage: HboldStorage,
    extractor: IndexExtractor,
    url: str,
    cluster_algorithm: str = "louvain",
) -> IndexOutcome:
    """Run the full server pipeline for *url*; never raises."""
    clock = extractor.client.network.clock
    try:
        indexes = extractor.extract(url)
        summary = SchemaSummary.from_indexes(indexes, computed_at_ms=clock.now_ms)
        stored = storage.load_cluster_schema(url)
        previous = None
        if stored is not None and stored.algorithm == cluster_algorithm:
            previous = storage.load_summary(url)
        reclustered = (
            previous is None
            or not diff_summaries(previous, summary).is_unchanged()
        )
        if reclustered:
            schema = build_cluster_schema(
                summary, algorithm=cluster_algorithm, computed_at_ms=clock.now_ms
            )
        storage.save_indexes(indexes)
        storage.save_summary(summary)
        if reclustered:
            storage.save_cluster_schema(schema)
        storage.record_extraction_success(url, clock.today)
    except Exception as exc:
        # Not only extraction: a bug in summarise, cluster or store must
        # not kill the caller's batch, and must leave a diagnostic trail.
        modelled = isinstance(exc, ExtractionFailed)
        reason = exc.reason if modelled else f"{type(exc).__name__}: {exc}"
        storage.record_extraction_failure(url, clock.today, reason)
        return IndexOutcome(url, error=reason)
    return IndexOutcome(url, indexes, reclustered)
