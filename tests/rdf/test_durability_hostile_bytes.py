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

Checksums cannot catch bytes that were written well and say something
impossible, so the term-dictionary chain's ID space is checked on its own:
a table of CRC-correct chains whose header and rows contradict each other,
each refused with ``SnapshotError``.
"""

from __future__ import annotations

import os
import random
import shutil
import zlib

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
    write_manifest,
)
from repro.rdf.durability.format import dumps, encode_term, loads, pack_record, scan_records
from repro.rdf.durability.paths import MANIFEST, store_files
from repro.rdf.durability.snapshot import SnapshotError, read_termdict_snapshot

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


#: manifests whose fields all have their types but whose layout contradicts
#: itself, as named rows: (case, the fields rewritten).  Before they were
#: refused the first loaded a plain graph whose ``len()`` was 40 over the 16
#: triples of its first shard file (with ``verify=True`` too: only that file
#: was read); with no shards a sharded load raised ``ValueError`` and an
#: unverified plain one ``IndexError``.
LAYOUTS = [
    ("a plain layout over three shard files", {"sharded": False}),
    ("a sharded layout of no shards", {"shards": 0, "shard_files": [], "size": 0}),
    ("a plain layout of no shards",
     {"sharded": False, "shards": 0, "shard_files": [], "size": 0}),
]


@pytest.mark.parametrize("verify", (False, True), ids=("unverified", "verified"))
@pytest.mark.parametrize("lazy", (False, True), ids=("eager", "lazy"))
@pytest.mark.parametrize("fields", [case[1] for case in LAYOUTS], ids=[case[0] for case in LAYOUTS])
def test_a_manifest_whose_layout_contradicts_itself_is_refused(tmp_path, fields, lazy, verify):
    root = str(tmp_path / "store")
    graph = Graph(identifier="layout", shards=3)
    graph.add_many(_triple(i, j) for i in range(10) for j in range(4))
    graph.save(root)
    manifest = read_manifest(root)
    manifest.update(fields)
    write_manifest(root, manifest)
    with pytest.raises(ManifestError, match="layout cannot hold"):
        load_graph(root, lazy=lazy, verify=verify)


def test_a_torn_wal_tail_loads_as_a_durable_prefix(store, tmp_path):
    root, prefixes = store
    wal = read_manifest(root)["wal"]["file"]
    size = os.path.getsize(os.path.join(root, wal))
    seen = set()
    for cut in range(size + 1):
        scratch = _damaged_copy(root, str(tmp_path / "case"), wal, "truncate", cut)
        seen.add(prefixes.index(_outcome(scratch, lazy=False)))
    assert seen == set(range(len(prefixes)))  # every prefix, nothing else


def _rows(ids, term=None):
    """``[id, refcount, term]`` rows; each holds ``<t{id}>`` unless *term*."""
    return [[i, 1, encode_term(term or IRI(f"{EX}t{i}"))] for i in ids]


def _header(next_id, free, terms):
    return {"next_id": next_id, "free": free, "terms": terms}


#: term-dictionary chains whose every byte checks out but whose ID space
#: contradicts itself: (case, segments as (header, rows), what the refusal
#: says).  Before they were refused each one loaded -- a free ID past
#: ``next_id`` or listed twice was then handed out twice, a term under two
#: IDs decoded from both -- or raised ``TypeError`` / ``KeyError``.
CONTRADICTIONS = [
    ("a free ID past next_id", [(_header(7, [9], 7), _rows(range(7)))], "frees"),
    ("a negative free ID", [(_header(8, [-1], 7), _rows(range(7)))], "frees"),
    ("an ID freed twice", [(_header(9, [7, 7], 7), _rows(range(7)))], "frees"),
    ("a row ID past next_id", [(_header(2, [], 2), _rows([0, 7]))], "row ID outside"),
    ("a negative row ID", [(_header(2, [], 2), _rows([-1, 0]))], "row ID outside"),
    ("a row ID that is no integer",
     [(_header(2, [], 2), _rows([0]) + _rows(["1"], IRI(f"{EX}t1")))], "row ID outside"),
    ("a term under two IDs",
     [(_header(2, [], 2), _rows([0]) + _rows([1], IRI(f"{EX}t0")))], "two IDs"),
    # what the rows and free list account for bounds what a load allocates
    ("IDs neither a row nor free", [(_header(10 ** 12, [], 7), _rows(range(7)))],
     "account for"),
    ("a header without a free list", [({"next_id": 7, "terms": 7}, _rows(range(7)))],
     "no ID space"),
    ("a delta frees an ID past next_id",
     [(_header(3, [], 3), _rows(range(3))), (_header(3, [1, 5], 2), [])], "frees"),
]


def _chain(tmp_path, segments):
    """Write *segments* as termdict files with correct record and file
    checksums; the reader's ``(path, epoch, checksum)`` list."""
    chain = []
    for epoch, (header, rows) in enumerate(segments, 1):
        blob = pack_record(dumps({"epoch": epoch, **header})) + pack_record(dumps(rows))
        path = str(tmp_path / f"termdict-{epoch}.snap")
        with open(path, "wb") as handle:
            handle.write(blob)
        chain.append((path, epoch, zlib.crc32(blob)))
    return chain


@pytest.mark.parametrize(
    "segments, says", [case[1:] for case in CONTRADICTIONS],
    ids=[case[0] for case in CONTRADICTIONS],
)
def test_a_termdict_that_contradicts_its_id_space_is_refused(tmp_path, segments, says):
    with pytest.raises(SnapshotError, match=says):
        read_termdict_snapshot(_chain(tmp_path, segments))


def test_a_delta_may_free_a_base_row(tmp_path):
    table = read_termdict_snapshot(_chain(tmp_path, [
        (_header(3, [], 3), _rows(range(3))), (_header(3, [1], 2), []),
    ]))
    assert [term_id for term_id, _, _ in table.snapshot_items()] == [0, 2]
    assert table.encode(Literal("fresh")) == 1
    assert list(table.kinds) == [IRI.KIND, Literal.KIND, IRI.KIND]


def test_a_free_id_past_next_id_is_refused_through_load_graph(tmp_path):
    """The public door: a saved store's termdict header rewritten to free
    ID 9 of a 7-ID table, the manifest's checksum and size fixed to match.
    It used to load, and the next encodes returned 9, 7, 8, 9, ..."""
    root = str(tmp_path / "store")
    graph = Graph()
    graph.add_many([
        Triple(IRI(f"{EX}s0"), IRI(f"{EX}p"), Literal("a")),
        Triple(IRI(f"{EX}s0"), IRI(f"{EX}q"), Literal("b")),
        Triple(IRI(f"{EX}s1"), IRI(f"{EX}p"), Literal("c")),
    ])
    graph.save(root)
    manifest = read_manifest(root)
    entry = manifest["termdict"]
    path = os.path.join(root, entry["file"])
    with open(path, "rb") as handle:
        header, *batches = scan_records(handle.read())[0]
    header = loads(header)
    assert (header["next_id"], header["free"]) == (7, [])
    header["free"] = [9]
    blob = b"".join(map(pack_record, [dumps(header), *batches]))
    with open(path, "wb") as handle:
        handle.write(blob)
    entry["checksum"], entry["bytes"] = zlib.crc32(blob), len(blob)
    write_manifest(root, manifest)
    with pytest.raises(SnapshotError, match="frees"):
        load_graph(root, lazy=False, verify=True)
