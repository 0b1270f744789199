"""Centralized file layout for a durable store directory.

Every filename the durability layer reads or writes is minted here (the
ExportBlock_3 ``store/paths.py`` idiom): one module owns the layout, so
pruning, recovery and tests never re-derive name patterns ad hoc.

A store directory looks like::

    <root>/
        manifest.json              # the single commit pointer (epoch 3)
        termdict-000001.snap       # TermDict base segment: every term
        termdict-000003.snap       # ... and the rows that moved in commit 3
        shard-000-000001.snap      # shard 0 columns, unwritten since commit 1
        shard-001-000003.snap      # shard 1 columns, rewritten by commit 3
        wal-000003.log             # mutations since the epoch-3 commit

Epochs are monotonically increasing commit numbers, and a file carries the
epoch of the commit that wrote it.  Files of several epochs live side by
side *by design*: a commit writes only what changed and names the rest
again.  Garbage is whatever the manifest -- the only commit pointer -- does
not name (superseded files a crash kept from being pruned, files of a save
that died before its swap); :func:`orphan_files` identifies it for cleanup.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List

__all__ = [
    "MANIFEST",
    "manifest_path",
    "orphan_files",
    "shard_file",
    "store_files",
    "termdict_file",
    "termdict_segments",
    "wal_file",
]

MANIFEST = "manifest.json"

_STORE_FILE = re.compile(
    r"^(?:termdict-\d{6}\.snap|shard-\d{3}-\d{6}\.snap|wal-\d{6}\.log)$"
)


def manifest_path(root: str) -> str:
    return os.path.join(root, MANIFEST)


def termdict_file(epoch: int) -> str:
    return f"termdict-{epoch:06d}.snap"


def shard_file(index: int, epoch: int) -> str:
    return f"shard-{index:03d}-{epoch:06d}.snap"


def wal_file(epoch: int) -> str:
    return f"wal-{epoch:06d}.log"


def store_files(root: str) -> List[str]:
    """All durability-layer filenames present under *root*, sorted."""
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if _STORE_FILE.match(name))


def referenced_files(manifest: Dict) -> List[str]:
    """The filenames the manifest pins as live."""
    names = [manifest["wal"]["file"]]
    names.extend(entry["file"] for entry in termdict_segments(manifest))
    names.extend(entry["file"] for entry in manifest["shard_files"])
    return names


def termdict_segments(manifest: Dict) -> List[Dict]:
    """The term dictionary's segment entries, base first."""
    termdict = manifest["termdict"]
    return [termdict, *termdict["deltas"]]


def orphan_files(root: str, manifest: Dict) -> List[str]:
    """Store files under *root* the manifest does not reference."""
    live = set(referenced_files(manifest))
    return [name for name in store_files(root) if name not in live]
