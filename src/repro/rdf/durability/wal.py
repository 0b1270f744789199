"""The append-only write-ahead log of term-level mutations.

Each record is a `format.py`-framed JSON payload: ``["add", s, p, o]``,
``["remove", s, p, o]`` (terms encoded per :func:`format.encode_term`), or
``["clear"]``.  Logging *terms* rather than IDs makes replay independent
of dictionary ID assignment -- a replayed ``add`` re-interns through the
normal path, so double-replay is naturally idempotent and a WAL can even
be replayed onto a store whose free-list history differs.

Write-ahead discipline: `store.py`'s journal emits the record (and flushes
it) *before* the in-memory mutation applies.  A crash inside the append
therefore loses at most the in-flight record, never a mutation the caller
was told succeeded.

The append path exposes the same crash boundaries as the snapshot writers:
``wal-append:before`` (nothing written), ``wal-append:partial`` (a torn
record -- strict prefix of the frame is on disk), ``wal-append:after``
(record fully flushed).  ``records_appended`` increments only once the
bytes are durable, which the recovery harness uses as its writer-side
oracle of the durable prefix.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Tuple

from ..terms import Term
from .crash import CrashInjector, boundary
from .format import FormatError, decode_term, dumps, encode_term, loads, pack_record, scan_records

__all__ = ["WalReplayError", "WriteAheadLog", "read_wal_records"]


class WalReplayError(RuntimeError):
    """A WAL record inside the valid region is corrupt (not a torn tail)."""


class WriteAheadLog:
    """Appender for one WAL segment file."""

    __slots__ = ("path", "injector", "records_appended", "_handle", "offset")

    def __init__(
        self,
        path: str,
        injector: Optional[CrashInjector] = None,
        offset: Optional[int] = None,
    ):
        self.path = path
        self.injector = injector
        self.records_appended = 0
        self._handle = open(path, "ab")
        if offset is not None and self._handle.tell() != offset:
            # recovery truncated a torn tail before reopening
            self._handle.truncate(offset)
            self._handle.seek(offset)
        self.offset = self._handle.tell()

    def append(self, op: str, *terms: Term) -> None:
        """Durably append one mutation record (torn-write boundaries inside)."""
        payload: List[Any] = [op]
        payload.extend(encode_term(term) for term in terms)
        record = pack_record(dumps(payload))
        handle = self._handle
        boundary(self.injector, "wal-append:before")
        half = len(record) // 2
        handle.write(record[:half])
        handle.flush()
        boundary(self.injector, "wal-append:partial")
        handle.write(record[half:])
        handle.flush()
        self.offset += len(record)
        self.records_appended += 1
        boundary(self.injector, "wal-append:after")

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WriteAheadLog {self.path} +{self.records_appended}>"


def read_wal_records(
    path: str, offset: int = 0
) -> Tuple[List[List[Any]], int, Optional[str]]:
    """Decode WAL ops from *path* starting at byte *offset*.

    Returns ``(ops, valid_end, reason)``: ``ops`` are decoded payloads like
    ``["add", Term, Term, Term]``; ``valid_end`` is the offset just past the
    last intact record; ``reason`` follows :func:`format.scan_records`
    (``None`` clean, ``torn-*`` crash tail, ``bad-checksum`` corruption).
    A missing file reads as empty -- a store saved and never mutated may
    have an empty segment.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], offset, None
    payloads, valid_end, reason = scan_records(data, offset)
    ops: List[List[Any]] = []
    for payload in payloads:
        try:
            decoded = loads(payload)
            if not isinstance(decoded, list) or not decoded:
                raise FormatError(f"payload {decoded!r} is not an op")
            op = [decoded[0]]
            op.extend(decode_term(item) for item in decoded[1:])
        except FormatError as exc:
            raise WalReplayError(f"malformed WAL record in {path}: {exc}") from exc
        ops.append(op)
    return ops, valid_end, reason
