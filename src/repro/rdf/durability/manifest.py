"""The catalog manifest: the durable store's single commit pointer.

A manifest is a small JSON document binding together everything one
recovery needs::

    {
      "version": 2,
      "identifier": "...",          # graph identifier (or null)
      "sharded": true, "shards": 4,
      "epoch": 3,                   # commit counter; names the files it writes
      "generation": 117,            # Graph.generation at snapshot time
      "size": 20412,                # triple count at snapshot time
      "digest": "sha256-sum:...",   # content digest: the sum of the shards'
      "termdict": {                 # the term dictionary's segment chain
        "file": ..., "epoch": 1, "rows": N, "bytes": b, "checksum": c,
                                    # ^ the base: a segment holding every term
        "deltas": [{"file": ..., "epoch": 2, "rows": n, "bytes": b,
                    "checksum": c}, ...],   # rows that moved, oldest first
        "terms": N, "next_id": ...  # of the table the whole chain yields
      },
      "shard_files": [{"file": ..., "epoch": 2, "triples": n,
                       "checksum": c, "digest": "sha256-sum:..."}, ...],
      "wal": {"file": ..., "offset": 0}
    }

Every file entry carries the ``epoch`` of the commit that wrote it -- the
number in its name and in its header -- because a commit writes only what
changed: a shard nobody wrote to and the chain's earlier segments are
carried from older commits by naming them again.

The swap rule (the contract of ``snapshot.atomic_write``, which the
docstore's flush uses too): write the new manifest to a temp file in the
same directory, flush + fsync, then ``os.replace`` onto
``manifest.json``.  ``os.replace`` is atomic on POSIX, so a reader
observes either the old manifest or the new one -- never a mix, never a
partial file.  Everything else in the directory is garbage
until a manifest points at it, which is what makes crash recovery a pure
function of (manifest, WAL prefix).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from .crash import CrashInjector, CrashPoint, boundary
from .paths import manifest_path

__all__ = ["MANIFEST_VERSION", "ManifestError", "read_manifest", "write_manifest"]

MANIFEST_VERSION = 2

_SEGMENT = {"file": str, "epoch": int, "rows": int, "bytes": int, "checksum": int}
_LAYOUT = {
    "sharded": bool, "shards": int, "epoch": int, "generation": int,
    "size": int, "digest": str, "termdict": dict, "shard_files": list,
    "wal": dict,
}
_TERMDICT = {**_SEGMENT, "deltas": list, "terms": int, "next_id": int}
_SHARD_FILE = {"file": str, "epoch": int, "triples": int, "checksum": int,
               "digest": str}
_WAL = {"file": str, "offset": int}


class ManifestError(RuntimeError):
    """Missing, unreadable, or structurally invalid manifest."""


def write_manifest(
    root: str, doc: Dict, injector: Optional[CrashInjector] = None
) -> None:
    """Atomically install *doc* as the store's manifest (temp + replace)."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    boundary(injector, "manifest-swap:before")
    fd, tmp_path = tempfile.mkstemp(
        prefix=".manifest.", suffix=".tmp", dir=root, text=False
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        boundary(injector, "manifest-swap:staged")
        os.replace(tmp_path, manifest_path(root))
    except Exception as exc:
        # A real I/O failure cleans up its temp file; an injected crash
        # (the process "died") must leave it behind, exactly as a kill
        # would -- recovery has to tolerate stray temp files.
        if not isinstance(exc, CrashPoint) and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    boundary(injector, "manifest-swap:after")


def read_manifest(root: str) -> Dict:
    """Load and structurally validate the manifest under *root*."""
    path = manifest_path(root)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ManifestError(f"no manifest at {path}") from None
    except (OSError, ValueError) as exc:  # bad JSON, or bytes that are not UTF-8
        raise ManifestError(f"unreadable manifest at {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest at {path} is not an object")
    if doc.get("version") != MANIFEST_VERSION:
        raise ManifestError(
            f"manifest version {doc.get('version')} unsupported "
            f"(expected {MANIFEST_VERSION})"
        )
    _check(doc, _LAYOUT, path, "manifest")
    _check(doc["termdict"], _TERMDICT, path, "termdict")
    for entry in doc["termdict"]["deltas"]:
        _check(entry, _SEGMENT, path, "termdict delta")
    for entry in doc["shard_files"]:
        _check(entry, _SHARD_FILE, path, "shard file entry")
    _check(doc["wal"], _WAL, path, "wal")
    if doc["shards"] < 1 or (not doc["sharded"] and doc["shards"] != 1):
        raise ManifestError(
            f"manifest at {path}: a {'sharded' if doc['sharded'] else 'plain'} "
            f"layout cannot hold {doc['shards']} shards"
        )
    if len(doc["shard_files"]) != doc["shards"] or doc["size"] != sum(
        entry["triples"] for entry in doc["shard_files"]
    ):
        raise ManifestError(
            f"manifest at {path}: shard file entries do not add up to "
            f"{doc['shards']} shards / {doc['size']} triples"
        )
    return doc


def _check(obj, layout: Dict[str, type], path: str, what: str) -> None:
    """Recovery indexes the manifest freely, so its shape is checked once."""
    if not isinstance(obj, dict):
        raise ManifestError(f"manifest at {path}: {what} is not an object")
    wrong = [
        key for key, kind in layout.items() if not isinstance(obj.get(key), kind)
    ]
    if wrong:
        raise ManifestError(
            f"manifest at {path}: {what} keys missing or mistyped: {wrong}"
        )
