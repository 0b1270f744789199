"""Columnar shard snapshots and term-dictionary snapshots.

Shard snapshot layout (all little-endian)::

    magic "RSHD" | u16 version | u32 termdict-epoch | u64 rows
    | 3 x (u64 column-bytes, u32 column-crc32)      # s, p, o columns
    | s column | p column | o column

Each column is the raw bytes of an ``array('q')`` holding one component of
the shard's (s, p, o) rows, sorted ascending -- the run
:meth:`Shard.columns` caches, written as it is, so snapshot bytes are a
pure function of shard content.  Columns (not row tuples) keep the hot load
path a single ``array.frombytes`` per component and let a reader verify
checksums without materializing any Python tuples.

The term-dictionary snapshot is a *chain of immutable segments*, each a
record stream (`format.py` framing): record 0 is a JSON header ``{"epoch",
"next_id", "free", "terms"}`` -- the table's whole allocation state at that
commit -- followed by one record per ~4096 terms carrying ``[[id,
refcount, term], ...]`` batches.  The first segment of a chain holds every
term; each later one holds only the rows that moved since the segment
before it.  A reader applies them in order: a later row replaces an earlier
one with the same ID, and an ID on the last header's ``free`` list is
absent.  Batching keeps record count (and per-record checksum overhead)
low without building one giant JSON document.

Writers stage to a temp file and ``os.replace`` onto the final name --
snapshot files therefore never exist in a half-written state under their
real names; a crash mid-write leaves only a stray temp file, which the
manifest never references.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import zlib
from array import array
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from ..dictionary import TermDict
from .crash import CrashInjector, CrashPoint, boundary
from .format import decode_term, dumps, encode_term, loads, pack_record, scan_records

__all__ = [
    "SnapshotError",
    "atomic_write",
    "read_shard_columns",
    "read_termdict_snapshot",
    "write_shard_snapshot",
    "write_termdict_snapshot",
]

SHARD_MAGIC = b"RSHD"
SHARD_VERSION = 1
_SHARD_HEADER = struct.Struct("<4sHIQ")  # magic, version, epoch, rows
_COLUMN_META = struct.Struct("<QI")  # byte length, crc32
TERM_BATCH = 4096


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupt, or from the wrong epoch."""


def atomic_write(
    path: str,
    chunks: Iterable[bytes],
    injector: Optional[CrashInjector],
    op: str,
) -> None:
    """Write *chunks* to *path* via temp + fsync + ``os.replace``.

    Crash boundaries: ``{op}:before`` (nothing written), ``{op}:partial``
    (temp holds a strict prefix), ``{op}:staged`` (temp complete, not yet
    renamed), ``{op}:after`` (file installed).
    """
    directory = os.path.dirname(path) or "."
    boundary(injector, f"{op}:before")
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            first = True
            for chunk in chunks:
                if first:
                    # model a torn write: crash here leaves a partial temp
                    half = len(chunk) // 2
                    handle.write(chunk[:half])
                    handle.flush()
                    boundary(injector, f"{op}:partial")
                    handle.write(chunk[half:])
                    first = False
                else:
                    handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        boundary(injector, f"{op}:staged")
        os.replace(tmp_path, path)
    except Exception as exc:
        if not isinstance(exc, CrashPoint) and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    boundary(injector, f"{op}:after")


# -- shard snapshots ---------------------------------------------------------


def write_shard_snapshot(
    path: str,
    columns: Tuple[array, array, array],
    epoch: int,
    injector: Optional[CrashInjector] = None,
) -> Tuple[int, int]:
    """Write an (s, p, o)-sorted run of ID *columns*; return (rows, checksum).

    *columns* is what :meth:`Shard.columns` returns (the caller owns the
    order).  The returned checksum (crc32 over the three column byte runs)
    is what the manifest records for the file.
    """
    blobs = [col.tobytes() for col in columns]
    header = _SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, epoch, len(columns[0]))
    meta = b"".join(
        _COLUMN_META.pack(len(blob), zlib.crc32(blob)) for blob in blobs
    )
    checksum = 0
    for blob in blobs:
        checksum = zlib.crc32(blob, checksum)
    atomic_write(path, [header + meta] + blobs, injector, "snapshot-write")
    return len(columns[0]), checksum


def read_shard_columns(
    path: str,
    expected_epoch: Optional[int] = None,
    expected_checksum: Optional[int] = None,
) -> Tuple[array, array, array]:
    """Read and checksum-verify a shard snapshot's (s, p, o) columns.

    The file is memory-mapped and columns are sliced out of the map -- the
    checksum pass touches each page once and ``array.frombytes`` is the
    only copy.  Falls back to a plain read for empty files (mmap rejects
    length 0) or if mapping fails.
    """
    try:
        with open(path, "rb") as handle:
            try:
                # closed by refcounting once the last column view dies
                data = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            except (ValueError, OSError):
                data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read shard snapshot {path}: {exc}") from exc
    if len(data) < _SHARD_HEADER.size + 3 * _COLUMN_META.size:
        raise SnapshotError(f"shard snapshot {path} truncated header")
    magic, version, epoch, rows = _SHARD_HEADER.unpack_from(data, 0)
    if magic != SHARD_MAGIC:
        raise SnapshotError(f"shard snapshot {path} bad magic {magic!r}")
    if version != SHARD_VERSION:
        raise SnapshotError(f"shard snapshot {path} version {version} unsupported")
    if expected_epoch is not None and epoch != expected_epoch:
        raise SnapshotError(
            f"shard snapshot {path} is epoch {epoch}, expected {expected_epoch}"
        )
    metas = []
    pos = _SHARD_HEADER.size
    for _ in range(3):
        metas.append(_COLUMN_META.unpack_from(data, pos))
        pos += _COLUMN_META.size
    columns: List[array] = []
    combined = 0
    for length, crc in metas:
        blob = data[pos : pos + length]
        if len(blob) != length:
            raise SnapshotError(f"shard snapshot {path} truncated column")
        if zlib.crc32(blob) != crc:
            raise SnapshotError(f"shard snapshot {path} column checksum mismatch")
        combined = zlib.crc32(blob, combined)
        col = array("q")
        col.frombytes(blob)
        columns.append(col)
        pos += length
    if any(len(col) != rows for col in columns):
        raise SnapshotError(f"shard snapshot {path} row-count mismatch")
    if expected_checksum is not None and combined != expected_checksum:
        raise SnapshotError(
            f"shard snapshot {path} does not match its manifest checksum"
        )
    return columns[0], columns[1], columns[2]


# -- term-dictionary snapshots ----------------------------------------------


def write_termdict_snapshot(
    path: str,
    term_dict: TermDict,
    injector: Optional[CrashInjector] = None,
    ids: Optional[Collection[int]] = None,
) -> Tuple[int, int]:
    """Write one segment of *term_dict* to *path*; return (rows, checksum).

    With *ids* None the segment holds every term (the base of a chain);
    otherwise only the current rows of those IDs (the ones among them that
    are still interned), which makes it a delta on top of the chain so
    far.  Either way the header carries the table's full allocation state.
    """
    header = dumps(
        {
            "epoch": term_dict.epoch,
            "next_id": term_dict._next_id,
            # in stack order: the next encode() pops the last one, and the
            # recovered table has to hand out the same IDs as this one
            "free": term_dict._free,
            "terms": len(term_dict),
        }
    )
    chunks = [pack_record(header)]
    rows = 0
    batch: List[list] = []
    for term_id, refcount, term in term_dict.snapshot_items(ids):
        batch.append([term_id, refcount, encode_term(term)])
        if len(batch) >= TERM_BATCH:
            chunks.append(pack_record(dumps(batch)))
            rows += len(batch)
            batch = []
    if batch:
        chunks.append(pack_record(dumps(batch)))
        rows += len(batch)
    checksum = 0
    for chunk in chunks:
        checksum = zlib.crc32(chunk, checksum)
    atomic_write(path, chunks, injector, "termdict-write")
    return rows, checksum


def read_termdict_snapshot(
    segments: Sequence[Tuple[str, Optional[int], Optional[int]]],
) -> TermDict:
    """Rebuild a :class:`TermDict` from its chain of segment files.

    *segments* lists ``(path, expected_epoch, expected_checksum)`` base
    first; None skips that check.  Terms are decoded once, after the chain
    is folded, so a row a later segment replaces costs a dict store.

    The folded chain must describe one ID space, or the table would hand
    out a live ID twice: the last header's ``free`` IDs are distinct and
    below its ``next_id`` (one may name an earlier segment's row -- a delta
    frees it), every remaining row ID is below ``next_id``, rows and free
    IDs account for every ID below it, and no term has two rows.
    """
    rows: Dict[int, list] = {}
    header: dict = {}
    for path, expected_epoch, expected_checksum in segments:
        header = _read_termdict_segment(path, expected_epoch, expected_checksum, rows)
    last = segments[-1][0]
    next_id, free, terms = header.get("next_id"), header.get("free"), header.get("terms")
    if type(next_id) is not int or type(free) is not list or type(terms) is not int:
        raise SnapshotError(
            f"termdict snapshot {last} header names no ID space: "
            f"next_id {next_id!r}, free {free!r}, terms {terms!r}"
        )
    if not _ids_below(free, next_id) or len(set(free)) != len(free):
        raise SnapshotError(
            f"termdict snapshot {last} frees IDs outside [0, {next_id}) or twice: {free}"
        )
    for term_id in free:
        rows.pop(term_id, None)
    if not _ids_below(rows, next_id):
        raise SnapshotError(f"termdict snapshot {last} has a row ID outside [0, {next_id})")
    if len(rows) != terms:
        raise SnapshotError(
            f"termdict snapshot {last} yields {len(rows)} terms, header says {terms}"
        )
    if len(rows) + len(free) != next_id:
        raise SnapshotError(
            f"termdict snapshot {last}: {len(rows)} rows and {len(free)} free IDs "
            f"do not account for next_id {next_id}"
        )
    try:
        # popped, so the JSON rows are let go of as the terms are built
        items = [
            (term_id, refcount, decode_term(encoded))
            for term_id, refcount, encoded in map(rows.pop, sorted(rows))
        ]
    except ValueError as exc:  # a row that is not a triple, or a FormatError
        raise SnapshotError(f"termdict snapshot {last}: {exc}") from exc
    table = TermDict.restore(iter(items), next_id, free, header["epoch"])
    if len(table) != len(items):
        raise SnapshotError(f"termdict snapshot {last} holds a term under two IDs")
    return table


def _ids_below(ids: Collection, bound: int) -> bool:
    """Every member of *ids* is an ``int`` in ``[0, bound)``."""
    return not ids or (
        set(map(type, ids)) == {int} and min(ids) >= 0 and max(ids) < bound
    )


def _read_termdict_segment(
    path: str,
    expected_epoch: Optional[int],
    expected_checksum: Optional[int],
    rows: Dict[int, list],
) -> dict:
    """Fold one segment's ``[id, refcount, encoded term]`` rows into *rows*
    by ID (later wins) and return its header."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read termdict snapshot {path}: {exc}") from exc
    if expected_checksum is not None and zlib.crc32(data) != expected_checksum:
        raise SnapshotError(
            f"termdict snapshot {path} does not match its manifest checksum"
        )
    payloads, _, reason = scan_records(data)
    if reason is not None or not payloads:
        raise SnapshotError(
            f"termdict snapshot {path} corrupt ({reason or 'empty'})"
        )
    try:
        header = loads(payloads[0])
        epoch = header["epoch"]
        for payload in payloads[1:]:
            for row in loads(payload):
                rows[row[0]] = row
    except (LookupError, TypeError, ValueError) as exc:  # FormatError is a ValueError
        raise SnapshotError(f"termdict snapshot {path} malformed: {exc!r}") from exc
    if expected_epoch is not None and epoch != expected_epoch:
        raise SnapshotError(
            f"termdict snapshot {path} is epoch {epoch}, expected {expected_epoch}"
        )
    return header
