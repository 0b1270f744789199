"""Unit tests for the durability layer: formats, snapshots, WAL, facade.

The crash-recovery sweep lives in ``test_durability_recovery.py``; the
hypothesis property suite in ``test_durability_properties.py``.  This file
pins the building blocks: record framing and torn/corrupt classification,
columnar shard snapshots, term-dictionary round-trips (including free-list
state), manifest swap semantics, lazy shard hydration, and the
``Graph.save`` / ``Graph.load`` facade including generation/derived-cache
behaviour across recovery.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.rdf import (
    BNode,
    Graph,
    IRI,
    Literal,
    ShardedTripleStore,
    Triple,
    attach_journal,
    content_digest,
    load_graph,
    save_graph,
)
from repro.rdf.dictionary import TermDict
from repro.rdf.sharding import sorted_columns
from repro.rdf.durability import (
    DurabilityError,
    LazyShard,
    read_manifest,
    replay_wal,
)
from repro.rdf.durability.format import decode_term, encode_term, pack_record, scan_records
from repro.rdf.durability.manifest import ManifestError, write_manifest
from repro.rdf.durability.paths import orphan_files, shard_file, store_files, termdict_file, wal_file
from repro.rdf.durability.snapshot import (
    SnapshotError,
    read_shard_columns,
    read_termdict_snapshot,
    write_shard_snapshot,
    write_termdict_snapshot,
)
from repro.rdf.durability.wal import WalReplayError, WriteAheadLog, read_wal_records

EX = "http://ex.org/"


def _triple(i: int, j: int) -> Triple:
    return Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{j}"), Literal(f"v{i}.{j}"))


def _world(shards=4, n=12, preds=3) -> Graph:
    g = Graph(identifier="world", shards=shards) if shards else Graph(identifier="world")
    g.add_many_terms(
        (t.subject, t.predicate, t.object)
        for t in (_triple(i, j) for i in range(n) for j in range(preds))
    )
    return g


# -- record framing ----------------------------------------------------------


class TestRecordFraming:
    def test_roundtrip(self):
        blobs = [b"alpha", b"", b"x" * 1000]
        stream = b"".join(pack_record(b) for b in blobs)
        payloads, end, reason = scan_records(stream)
        assert payloads == blobs
        assert end == len(stream)
        assert reason is None

    @pytest.mark.parametrize("cut", [1, 4, 7, 9, 12])
    def test_torn_tail_detected(self, cut):
        stream = pack_record(b"keep") + pack_record(b"torn!")
        keep_len = len(pack_record(b"keep"))
        torn = stream[: keep_len + cut]
        payloads, end, reason = scan_records(torn)
        assert payloads == [b"keep"]
        assert end == keep_len
        assert reason in ("torn-header", "torn-payload")

    def test_bad_checksum_distinguished_from_torn(self):
        stream = bytearray(pack_record(b"aaaa") + pack_record(b"bbbb"))
        stream[-1] ^= 0xFF  # flip a payload byte of the *complete* last record
        payloads, end, reason = scan_records(bytes(stream))
        assert payloads == [b"aaaa"]
        assert reason == "bad-checksum"

    def test_term_codec_roundtrip(self):
        terms = [
            IRI(f"{EX}node"),
            BNode("b42"),
            Literal("plain"),
            Literal("chat", language="fr"),
            Literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        ]
        for term in terms:
            assert decode_term(encode_term(term)) == term


# -- shard snapshots ---------------------------------------------------------


class TestShardSnapshots:
    def test_columns_roundtrip_sorted(self, tmp_path):
        path = str(tmp_path / shard_file(0, 1))
        rows = [(3, 1, 2), (1, 2, 3), (1, 1, 9)]
        count, checksum = write_shard_snapshot(path, sorted_columns(rows), epoch=1)
        assert count == 3
        s, p, o = read_shard_columns(path, expected_epoch=1, expected_checksum=checksum)
        assert list(zip(s, p, o)) == sorted(rows)

    # a flipped byte and a wrong epoch are rows of the sweep in
    # test_durability_hostile_bytes.py (NAMED_ROWS)

    def test_manifest_checksum_binding(self, tmp_path):
        path = str(tmp_path / shard_file(0, 1))
        _, checksum = write_shard_snapshot(path, sorted_columns([(1, 2, 3)]), epoch=1)
        with pytest.raises(SnapshotError, match="manifest checksum"):
            read_shard_columns(path, expected_checksum=checksum ^ 0xDEAD)

    def test_empty_shard(self, tmp_path):
        path = str(tmp_path / shard_file(0, 1))
        count, checksum = write_shard_snapshot(path, sorted_columns([]), epoch=1)
        assert count == 0
        s, p, o = read_shard_columns(path, expected_checksum=checksum)
        assert len(s) == len(p) == len(o) == 0


# -- term-dictionary snapshots ----------------------------------------------


class TestTermDictSnapshots:
    def test_roundtrip_with_free_list(self, tmp_path):
        d = TermDict()
        ids = [d.encode(IRI(f"{EX}t{i}")) for i in range(10)]
        for i in ids:
            d.incref(i)
        d.decref(ids[3])  # frees the entry -> free list
        d.decref(ids[7])
        d.epoch = 5
        path = str(tmp_path / termdict_file(5))
        terms, checksum = write_termdict_snapshot(path, d)
        assert terms == len(d) == 8
        back = read_termdict_snapshot([(path, 5, checksum)])
        assert len(back) == len(d)
        assert back.epoch == 5
        assert back._next_id == d._next_id
        assert sorted(back._free) == sorted(d._free)
        for term, term_id in d.items():
            assert back.lookup(term) == term_id
            assert back.refcount(term_id) == d.refcount(term_id)
        # freed IDs are reused identically after restore
        assert back.encode(IRI(f"{EX}fresh")) == d.encode(IRI(f"{EX}fresh"))

    def test_corrupt_record_rejected(self, tmp_path):
        d = TermDict()
        for i in range(300):
            d.incref(d.encode(IRI(f"{EX}t{i}")))
        path = str(tmp_path / termdict_file(1))
        write_termdict_snapshot(path, d)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SnapshotError):
            read_termdict_snapshot([(path, None, None)])


# -- WAL ---------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / wal_file(1))
        wal = WriteAheadLog(path)
        t = _triple(1, 1)
        wal.append("add", t.subject, t.predicate, t.object)
        wal.append("remove", t.subject, t.predicate, t.object)
        wal.append("clear")
        wal.close()
        ops, end, reason = read_wal_records(path)
        assert reason is None
        assert [op[0] for op in ops] == ["add", "remove", "clear"]
        assert ops[0][1:] == [t.subject, t.predicate, t.object]
        assert end == os.path.getsize(path)

    def test_truncated_tail_reads_clean_prefix(self, tmp_path):
        path = str(tmp_path / wal_file(1))
        wal = WriteAheadLog(path)
        for i in range(4):
            t = _triple(i, 0)
            wal.append("add", t.subject, t.predicate, t.object)
        wal.close()
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])  # tear the last record
        ops, end, reason = read_wal_records(path)
        assert len(ops) == 3
        assert reason == "torn-payload"
        assert end < len(blob)

    def test_bad_checksum_mid_stream_raises_on_replay(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        save_graph(g, root)
        journal = attach_journal(g, root)
        for i in range(5):
            g.add(_triple(50 + i, 0))
        journal.close()
        manifest = read_manifest(root)
        wal_path = os.path.join(root, manifest["wal"]["file"])
        blob = bytearray(open(wal_path, "rb").read())
        blob[10] ^= 0x01  # corrupt the first record's payload
        open(wal_path, "wb").write(bytes(blob))
        with pytest.raises(WalReplayError, match="checksum"):
            load_graph(root, lazy=False, verify=True)

    def test_missing_wal_reads_empty(self, tmp_path):
        ops, end, reason = read_wal_records(str(tmp_path / "nope.log"))
        assert ops == [] and reason is None

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / wal_file(1))
        wal = WriteAheadLog(path)
        t = _triple(0, 0)
        wal.append("add", t.subject, t.predicate, t.object)
        wal.close()
        wal = WriteAheadLog(path)
        t2 = _triple(1, 0)
        wal.append("add", t2.subject, t2.predicate, t2.object)
        wal.close()
        ops, _, reason = read_wal_records(path)
        assert len(ops) == 2 and reason is None


# -- manifest ----------------------------------------------------------------


class TestManifest:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            read_manifest(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            read_manifest(str(tmp_path))

    def test_swap_leaves_no_temp_files(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        save_graph(g, root)
        assert [n for n in os.listdir(root) if n.endswith(".tmp")] == []

    def test_save_prunes_previous_epoch(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        first = save_graph(g, root)
        g.add(_triple(90, 0))
        owner = g.shard_index(g.lookup_id(_triple(90, 0).subject))
        manifest = save_graph(g, root)
        assert manifest["epoch"] == 2
        old = [entry["file"] for entry in first["shard_files"]]
        new = [entry["file"] for entry in manifest["shard_files"]]
        # the one shard written to got a new file and lost its old one; the
        # other is the same file, named again
        assert new[owner] == shard_file(owner, 2) and new[1 - owner] == old[1 - owner]
        # the dictionary kept its base and gained the rows that moved
        assert manifest["termdict"]["file"] == first["termdict"]["file"]
        assert [d["file"] for d in manifest["termdict"]["deltas"]] == [termdict_file(2)]
        assert set(store_files(root)) == {
            new[0], new[1], termdict_file(1), termdict_file(2), wal_file(2),
        }
        assert orphan_files(root, manifest) == []

    def test_version_gate(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=1)
        manifest = save_graph(g, root)
        manifest["version"] = 99
        write_manifest(root, manifest)
        with pytest.raises(ManifestError, match="version"):
            read_manifest(root)


# -- lazy shards -------------------------------------------------------------


class TestLazyShards:
    def test_cold_shards_stay_cold_for_counts(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=4, n=40)
        save_graph(g, root)
        lazy = load_graph(root, lazy=True)
        assert all(not s.hydrated for s in lazy.shards)
        assert len(lazy) == len(g)
        assert lazy.shard_sizes() == g.shard_sizes()
        assert lazy.parallel_factor() == g.parallel_factor()
        # none of the above touched an index
        assert all(not s.hydrated for s in lazy.shards)

    def test_subject_bound_read_hydrates_one_shard(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=4, n=40)
        save_graph(g, root)
        lazy = load_graph(root, lazy=True)
        subject = IRI(f"{EX}s7")
        expected = set(g.triples(subject=subject))
        assert set(lazy.triples(subject=subject)) == expected
        assert sum(1 for s in lazy.shards if s.hydrated) == 1

    def test_unbound_scan_hydrates_all_and_matches(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=4, n=25)
        save_graph(g, root)
        lazy = load_graph(root, lazy=True)
        assert list(lazy.triples_ids()) == list(g.triples_ids())
        assert all(s.hydrated for s in lazy.shards)

    def test_write_to_cold_shard_hydrates_and_merges(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=4, n=16)
        save_graph(g, root)
        lazy = load_graph(root, lazy=True)
        extra = _triple(500, 1)
        assert lazy.add(extra)
        assert extra in lazy
        assert content_digest(lazy) != content_digest(g)
        assert lazy.remove(extra)
        assert content_digest(lazy) == content_digest(g)

    def test_lazy_shard_size_row_mismatch_detected(self, tmp_path):
        path = str(tmp_path / shard_file(0, 1))
        write_shard_snapshot(path, sorted_columns([(1, 2, 3), (4, 5, 6)]), epoch=1)
        shard = LazyShard(lambda: read_shard_columns(path), size=3)
        with pytest.raises(DurabilityError, match="manifest says 3"):
            shard.spo


# -- facade / recovery semantics --------------------------------------------


class TestSaveLoadFacade:
    @pytest.mark.parametrize("shards", [None, 1, 4])
    def test_roundtrip_digest_and_type(self, tmp_path, shards):
        root = str(tmp_path)
        g = _world(shards=shards)
        g.save(root)
        back = Graph.load(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(g)
        if shards is None:
            assert type(back) is Graph
        else:
            assert isinstance(back, ShardedTripleStore)
            assert back.num_shards == g.num_shards

    def test_wal_tail_replayed_and_idempotent(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        g.add(_triple(70, 0))
        g.remove(_triple(1, 1))
        journal.close()
        back = load_graph(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(g)
        # ... and equals the same content re-ingested from scratch: fresh
        # dictionary, reversed insertion order, so different term IDs
        rebuilt = Graph(identifier="world", shards=2)
        rebuilt.add_many_terms(
            reversed([(t.subject, t.predicate, t.object) for t in g.triples()])
        )
        assert content_digest(back) == content_digest(rebuilt)
        digest, generation = content_digest(back), back.generation
        applied, reason = replay_wal(back, root)
        assert applied == 0 and reason is None
        assert content_digest(back) == digest
        assert back.generation == generation

    def test_generation_and_derived_cache_consistency(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        g.add(_triple(71, 0))
        journal.close()
        back = load_graph(root, lazy=False, verify=True)
        # recovered generation reflects the replayed changes on top of the
        # manifest's snapshot generation, so caches keyed on (generation)
        # built *after* recovery stay valid until the next actual change
        cache = back.derived_cache("probe", dict)
        cache[back.generation] = "artifact"
        assert not back.add(_triple(71, 0))  # duplicate: no-op, no bump
        assert back.generation in cache
        assert back.add(_triple(72, 0))  # real change: bump invalidates
        assert back.generation not in cache

    def test_checkpoint_folds_and_rotates(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        for i in range(6):
            g.add(_triple(80 + i, 0))
        manifest = journal.checkpoint()
        assert manifest["epoch"] == 2
        assert journal.records_appended == 0  # fresh segment
        g.add(_triple(99, 0))
        assert journal.records_appended == 1
        journal.close()
        back = load_graph(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(g)

    def test_double_attach_rejected(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        with pytest.raises(DurabilityError, match="already"):
            attach_journal(g, root)
        journal.close()

    def test_copy_does_not_carry_journal(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        clone = g.copy()
        assert clone._wal is None
        clone.add(_triple(60, 0))  # must not log to g's WAL
        assert journal.records_appended == 0
        journal.close()

    def test_clear_logged_and_replayed(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=2)
        g.save(root)
        journal = attach_journal(g, root)
        g.clear()
        g.add(_triple(1, 1))
        journal.close()
        back = load_graph(root, lazy=False, verify=True)
        assert len(back) == 1
        assert content_digest(back) == content_digest(g)

    def test_digest_mismatch_refused(self, tmp_path):
        root = str(tmp_path)
        g = _world(shards=1)
        manifest = g.save(root)
        manifest["digest"] = "sha256:" + "0" * 64
        write_manifest(root, manifest)
        with pytest.raises(DurabilityError, match="digest"):
            load_graph(root, lazy=False, verify=True)
