"""Endpoint registry: the dataset list users pick from, plus manual
insertion with e-mail notification (§3.4).

The registry wraps the storage layer's ``endpoints`` collection with the
workflows the paper describes: listing datasets, submitting a new endpoint
URL with an e-mail address, running the (possibly slow) extraction, mailing
the outcome and deleting the address.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .index_extraction import IndexExtractor
from .notifications import EmailOutbox
from .persistence import HboldStorage
from .pipeline import index_endpoint

__all__ = ["EndpointRegistry", "SubmissionResult"]


class SubmissionResult:
    """Outcome of a manual endpoint submission."""

    __slots__ = ("url", "accepted", "indexed", "message")

    def __init__(self, url: str, accepted: bool, indexed: bool, message: str):
        self.url = url
        self.accepted = accepted
        self.indexed = indexed
        self.message = message

    def __repr__(self) -> str:
        state = "indexed" if self.indexed else ("accepted" if self.accepted else "rejected")
        return f"<SubmissionResult {self.url!r}: {state}>"


class EndpointRegistry:
    """Dataset list management over :class:`HboldStorage`."""

    def __init__(
        self,
        storage: HboldStorage,
        extractor: IndexExtractor,
        outbox: Optional[EmailOutbox] = None,
        cluster_algorithm: str = "louvain",
    ):
        self.storage = storage
        self.extractor = extractor
        # NB: an empty outbox is falsy (it has __len__), so test identity.
        self.outbox = outbox if outbox is not None else EmailOutbox()
        self.cluster_algorithm = cluster_algorithm
        #: submitted e-mail addresses pending notification, keyed by URL.
        #: This is the ONLY place an address ever lives, and entries are
        #: deleted in `_notify` right after sending.
        self._pending_addresses: Dict[str, str] = {}

    # -- dataset list -------------------------------------------------------------

    def listed_count(self) -> int:
        return self.storage.endpoint_count()

    def indexed_count(self) -> int:
        return self.storage.endpoint_count(status="indexed")

    def dataset_list(self) -> List[Dict]:
        """What the presentation layer shows: indexed datasets first."""
        records = self.storage.list_endpoints()
        return sorted(
            records,
            key=lambda r: (0 if r.get("status") == "indexed" else 1, r["url"]),
        )

    def add_listed(self, url: str, source: str = "registry", title: str = "") -> None:
        """Add a URL to the list without extracting (bulk registry import)."""
        self.storage.upsert_endpoint(url, source=source, title=title or url)

    # -- manual insertion (§3.4) --------------------------------------------------

    def submit(self, url: str, email: str) -> SubmissionResult:
        """The §3.4 workflow: upload URL, run the server pipeline
        (:mod:`.pipeline`), notify, delete address.

        Whatever the pipeline's outcome -- indexed, endpoint down, a bug
        in any stage -- the submitter is mailed and the address deleted.
        Re-submitting an unchanged dataset keeps its stored Cluster Schema
        (§3.2: ``computed_at_ms`` does not move)."""
        url = url.strip()
        if not url.startswith(("http://", "https://")):
            return SubmissionResult(url, False, False, "invalid URL")
        if self.storage.endpoint_record(url) is not None and (
            self.storage.endpoint_record(url).get("status") == "indexed"
        ):
            return SubmissionResult(url, False, True, "already indexed")

        self.storage.upsert_endpoint(url, source="manual")
        self._pending_addresses[url] = email
        outcome = index_endpoint(
            self.storage, self.extractor, url, self.cluster_algorithm
        )
        if outcome.ok:
            message = (
                f"indexed {outcome.indexes.class_count} classes / "
                f"{outcome.indexes.instance_count} instances"
            )
        else:
            message = outcome.error
        self._notify(url, outcome.ok, message)
        return SubmissionResult(url, True, outcome.ok, message)

    def _notify(self, url: str, indexed: bool, message: str) -> None:
        address = self._pending_addresses.pop(url, None)  # delete the address
        if address is None:
            return
        subject = (
            "H-BOLD: your dataset is now available"
            if indexed
            else "H-BOLD: extraction failed"
        )
        body = (
            f"The index extraction for {url} "
            + ("completed successfully. " if indexed else "did not complete. ")
            + message
        )
        try:
            self.outbox.send(
                address,
                subject,
                body,
                sent_at_ms=self.extractor.client.network.clock.now_ms,
            )
        except ValueError:
            pass  # a bad address must not fail the pipeline

    def pending_address_count(self) -> int:
        """How many personal addresses the system currently holds."""
        return len(self._pending_addresses)
