"""Durable storage for the dictionary-encoded triple store.

The package gives :class:`~repro.rdf.graph.Graph` and
:class:`~repro.rdf.sharding.ShardedTripleStore` a crash-safe on-disk form:

* per-shard **columnar snapshots** -- the sorted (s, p, o) ID rows of one
  shard as three ``array('q')`` columns behind a checksummed header
  (`snapshot.py`),
* a **term-dictionary snapshot**, a chain of immutable segments -- a base
  holding the full intern table, then the rows each later commit moved --
  every one carrying the free list and next ID, so ID assignment after
  recovery matches the live process (`snapshot.py`),
* an append-only **write-ahead log** of term-level mutations in
  length-prefixed, CRC-checksummed records; a torn tail is detected and
  truncated on replay (`wal.py`, `format.py`),
* a **manifest** binding {termdict segments, shard snapshot files, WAL
  offset, ``Graph.generation``, content digest -- a set hash, so the sum of
  the digests it records per shard file} together, swapped atomically with
  write-temp + ``os.replace`` -- the same contract as
  ``docstore/persistence.py`` (`manifest.py`),
* a deterministic **crash-point injector** in the style of
  ``serving/faults.py`` so recovery is provable, not hoped-for
  (`crash.py`).

The commit rule is single-pointer: a store state is durable exactly when
(a) the manifest referencing its snapshot files has been swapped in, plus
(b) whatever fully-flushed prefix of the current WAL segment exists on
disk.  Every other file is garbage until the manifest points at it and
prunable the moment the manifest stops pointing at it.  A commit writes
what changed -- the shards written to since the last one, the dictionary
rows that moved -- and points at the rest again.

`store.py` orchestrates save / load / recovery and exposes the lazy
per-shard loader (cold shards do not pay index memory until touched, and a
checkpoint does not touch them).
"""

from .crash import CrashInjector, CrashPoint
from .format import FormatError, decode_term, encode_term
from .manifest import ManifestError, read_manifest, write_manifest
from .paths import store_files
from .store import (
    DurabilityError,
    Journal,
    LazyShard,
    attach_journal,
    content_digest,
    load_graph,
    replay_wal,
    save_graph,
)
from .wal import WalReplayError, WriteAheadLog, read_wal_records

__all__ = [
    "CrashInjector",
    "CrashPoint",
    "DurabilityError",
    "FormatError",
    "Journal",
    "LazyShard",
    "ManifestError",
    "WalReplayError",
    "WriteAheadLog",
    "attach_journal",
    "content_digest",
    "decode_term",
    "encode_term",
    "load_graph",
    "read_manifest",
    "read_wal_records",
    "replay_wal",
    "save_graph",
    "store_files",
    "write_manifest",
]
