"""Hostile bytes: no damaged file loads as different content.

One seeded sweep over a small store that has everything an incremental
checkpoint produces -- shard files of two epochs (three carried, one
rewritten), a two-segment term-dictionary chain, a WAL tail -- damaging one
file at a time: a bit flip at each of a set of offsets covering the fixed
headers, the column metadata, the column bodies, record framing and JSON
text, and a truncation at each.  ``load_graph(verify=True)``, eager and
lazy, must then either raise one of the four durability errors or return a
store whose ``content_digest`` is the original's -- a flip in dead bytes --
or, for the two files that decide how much of the log is replayed, that of
a durable prefix (a torn WAL tail is a crash's signature, not damage).
Never another exception type, never other content.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Triple,
    attach_journal,
    content_digest,
    load_graph,
)
from repro.rdf.durability import (
    DurabilityError,
    ManifestError,
    WalReplayError,
    read_manifest,
)
from repro.rdf.durability.paths import MANIFEST, store_files
from repro.rdf.durability.snapshot import SnapshotError

EX = "http://ex.org/"
SEED = 20211
DRAWN = 12  # offsets drawn per file, on top of the structural ones
REFUSALS = (ManifestError, SnapshotError, DurabilityError, WalReplayError)
#: the shard header is 18 bytes (magic, version, epoch @6, rows @10), the
#: column metadata the next 36; a termdict / WAL record is framed by 8
STRUCTURAL = (0, 3, 4, 6, 10, 17, 18, 26, 30, 42, 53, 54, 55, 7, 8, 9, 64)


def _triple(i: int, j: int) -> Triple:
    return Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{j}"), Literal(f"v{i}.{j}"))


TAIL = [("add", _triple(90, 0)), ("add", _triple(91, 1)), ("remove", _triple(2, 2)),
        ("add", _triple(92, 2))]


def _base() -> Graph:
    graph = Graph(identifier="hostile", shards=4)
    graph.add_many(_triple(i, j) for i in range(24) for j in range(4))
    return graph


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """(root, digests of the durable prefixes -- the last is the whole)."""
    root = str(tmp_path_factory.mktemp("hostile") / "store")
    graph = _base()
    graph.save(root)
    journal = attach_journal(graph, root)
    for i in range(6):
        graph.add(Triple(IRI(f"{EX}hot"), IRI(f"{EX}tag"), Literal(i)))
    manifest = journal.checkpoint()
    prefixes = [content_digest(graph)]
    for kind, triple in TAIL:
        assert graph.add(triple) if kind == "add" else graph.remove(triple)
        prefixes.append(content_digest(graph))
    journal.close()
    # the shape the sweep is about
    assert sorted(entry["epoch"] for entry in manifest["shard_files"]) == [1, 1, 1, 2]
    assert len(manifest["termdict"]["deltas"]) == 1
    assert len(set(prefixes)) == len(prefixes)
    assert content_digest(load_graph(root, lazy=False, verify=True)) == prefixes[-1]
    return root, prefixes


def _offsets(name: str, size: int) -> list:
    rng = random.Random(f"{SEED}:{name}")
    drawn = {rng.randrange(size) for _ in range(DRAWN)} if size else set()
    return sorted(offset for offset in drawn.union(STRUCTURAL, (size - 1, size // 2))
                  if 0 <= offset < size)


def _damaged_copy(root: str, scratch: str, name: str, kind: str, offset: int) -> str:
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(root, scratch)
    path = os.path.join(scratch, name)
    with open(path, "r+b") as handle:
        if kind == "truncate":
            handle.truncate(offset)
        else:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << (offset % 8))]))
    return scratch


def _outcome(root: str, lazy: bool):
    """The digest the damaged store loads as, or the refusal's type."""
    try:
        graph = load_graph(root, lazy=lazy, verify=True)
        return content_digest(graph)  # hydrates, so a lazy shard checks itself
    except REFUSALS as refusal:
        return type(refusal)


@pytest.mark.parametrize("lazy", (False, True), ids=("eager", "lazy"))
def test_a_damaged_file_is_refused_or_harmless(store, tmp_path, lazy):
    root, prefixes = store
    manifest = read_manifest(root)
    replay_deciders = {MANIFEST, manifest["wal"]["file"]}
    names = [MANIFEST, *store_files(root)]
    assert len(names) == 1 + 4 + 2 + 1
    cases = refused = 0
    for name in names:
        size = os.path.getsize(os.path.join(root, name))
        allowed = set(prefixes) if name in replay_deciders else {prefixes[-1]}
        for offset in _offsets(name, size):
            for kind in ("flip", "truncate"):
                scratch = _damaged_copy(root, str(tmp_path / "case"), name, kind, offset)
                outcome = _outcome(scratch, lazy)  # another exception type propagates
                cases += 1
                refused += outcome in REFUSALS
                assert outcome in REFUSALS or outcome in allowed, (
                    f"{kind} at {offset} of {name} loaded as other content"
                )
    assert cases > 300 and refused > cases // 2


#: the single cases this sweep absorbed, as named rows: (file prefix, kind,
#: offset, the refusal and what it says)
NAMED_ROWS = [
    ("shard-", "flip", 6, SnapshotError, "epoch"),            # the header's epoch field
    ("shard-", "flip", 60, SnapshotError, "checksum"),        # a column body byte
    ("shard-", "flip", 30, SnapshotError, "truncated|checksum"),  # a column's recorded length
    ("shard-", "truncate", 10, SnapshotError, "truncated header"),
    ("termdict-", "flip", 2, SnapshotError, "manifest checksum"),  # record framing
    ("termdict-", "truncate", 40, SnapshotError, "manifest checksum"),
    ("wal-", "flip", 10, WalReplayError, "checksum"),         # mid-stream, not a torn tail
    (MANIFEST, "truncate", 40, ManifestError, "unreadable"),
]


@pytest.mark.parametrize("prefix, kind, offset, refusal, says", NAMED_ROWS)
def test_named_rows(store, tmp_path, prefix, kind, offset, refusal, says):
    root, _ = store
    for name in [MANIFEST, *store_files(root)]:
        if not name.startswith(prefix):
            continue
        scratch = _damaged_copy(root, str(tmp_path / "case"), name, kind, offset)
        with pytest.raises(refusal, match=says):
            load_graph(scratch, lazy=False, verify=True)


def test_a_torn_wal_tail_loads_as_a_durable_prefix(store, tmp_path):
    root, prefixes = store
    wal = read_manifest(root)["wal"]["file"]
    size = os.path.getsize(os.path.join(root, wal))
    seen = set()
    for cut in range(size + 1):
        scratch = _damaged_copy(root, str(tmp_path / "case"), wal, "truncate", cut)
        seen.add(prefixes.index(_outcome(scratch, lazy=False)))
    assert seen == set(range(len(prefixes)))  # every prefix, nothing else
