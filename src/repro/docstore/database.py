"""DocumentStore: named collections, persisted as one record file.

:meth:`DocumentStore.flush` writes every document of every collection to
``<persist_dir>/documents.rec`` in the durability layer's record framing
(``u32 length | u32 crc32 | payload``, `rdf/durability/format.py`)::

    ["<collection>", {document}]      one record per document, in order
    <n>                               last record: the document count

and installs the file with the durability layer's atomic write (temp file,
fsync, ``os.replace``), so a reader sees the whole previous flush or the
whole new one.  Reopening checks every CRC, every record's shape and the
count -- a file cut on a record boundary is short of its count record --
and refuses anything else with :class:`PersistenceError`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ..rdf.durability import FormatError, atomic_write
from ..rdf.durability.format import dumps, loads, pack_record, scan_records
from .collection import Collection
from .documents import DocumentError

__all__ = ["DocumentStore", "PersistenceError", "STORE_FILE"]

STORE_FILE = "documents.rec"


class PersistenceError(RuntimeError):
    """The store file exists but is not a whole, intact flush."""


class DocumentStore:
    """Named collections, created on first use.

    With ``persist_dir`` the constructor reopens what the last
    :meth:`flush` wrote there (an absent directory or file is an empty
    store); without it :meth:`flush` is a no-op.
    """

    def __init__(self, persist_dir: Optional[str] = None):
        self.persist_dir = persist_dir
        self._collections: Dict[str, Collection] = {}
        if persist_dir:
            self._reopen(os.path.join(persist_dir, STORE_FILE))

    def collection(self, name: str) -> Collection:
        existing = self._collections.get(name)
        if existing is None:
            existing = self._collections[name] = Collection(name)
        return existing

    def __repr__(self) -> str:
        return f"<DocumentStore collections={sorted(self._collections)}>"

    def flush(self) -> None:
        """Atomically replace the store file with every collection's
        documents (no-op without ``persist_dir``)."""
        if not self.persist_dir:
            return
        os.makedirs(self.persist_dir, exist_ok=True)
        records = [
            pack_record(dumps([name, document]))
            for name, collection in self._collections.items()
            for document in collection.documents()
        ]
        records.append(pack_record(dumps(len(records))))
        atomic_write(os.path.join(self.persist_dir, STORE_FILE),
                     [b"".join(records)], None, "docstore-write")
        for name in os.listdir(self.persist_dir):  # a crashed flush's temp file
            if name.startswith(f".{STORE_FILE}.") and name.endswith(".tmp"):
                os.unlink(os.path.join(self.persist_dir, name))

    def _reopen(self, path: str) -> None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        payloads, end, fault = scan_records(data)
        if fault is not None:
            raise PersistenceError(f"{path}: record {len(payloads)} at byte {end}: {fault}")
        if not payloads:
            raise PersistenceError(f"{path}: no count record")
        number = len(payloads) - 1
        try:
            count = loads(payloads[-1])
            if type(count) is not int or count != number:
                raise PersistenceError(
                    f"{path}: record {number}: the count record should say "
                    f"{number}, not {count!r}")
            for number, payload in enumerate(payloads[:-1]):
                entry = loads(payload)
                if not (isinstance(entry, list) and len(entry) == 2
                        and isinstance(entry[0], str) and isinstance(entry[1], dict)):
                    raise PersistenceError(
                        f"{path}: record {number} is not a [collection, document] pair")
                name, document = entry
                self.collection(name).put(document.get("_id"), document)
        except (FormatError, DocumentError) as exc:
            raise PersistenceError(f"{path}: record {number}: {exc}") from exc
