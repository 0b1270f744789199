"""A checkpoint costs what changed -- stated as counts.

``save_graph`` / ``Journal.checkpoint`` write a snapshot file only for the
shards written to since the commit the directory holds, and one
term-dictionary segment with the rows that moved; everything else is named
again.  What can be counted is counted here, by listing the store
directory before and after (name -> inode, size, mtime): files written,
rows in the segment, bytes, shards hydrated.  The fences around the
carried files -- a remembered entry is only honoured if it *is* the
committed one, a delta segment only goes on top of the chain the live
dictionary descends from -- each get the scenario that would break them.

The interleavings are ``test_durability_machine.py``'s; hostile bytes are
``test_durability_hostile_bytes.py``'s.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Triple,
    attach_journal,
    content_digest,
    load_graph,
    save_graph,
)
from repro.rdf.durability import (
    CrashInjector,
    CrashPoint,
    DurabilityError,
    ManifestError,
    read_manifest,
    write_manifest,
)
from repro.rdf.durability.paths import (
    MANIFEST,
    orphan_files,
    shard_file,
    termdict_file,
    termdict_segments,
    wal_file,
)
from repro.rdf.durability.snapshot import _read_termdict_segment

EX = "http://ex.org/"
SHARDS = 4


def _triple(i: int, j: int) -> Triple:
    return Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{j}"), Literal(f"v{i}.{j}"))


def _world(shards=SHARDS, n=40, preds=4) -> Graph:
    """*n* subjects of *preds* triples each.  With four predicates a subject
    and its literals take five IDs, so subjects land on all four shards."""
    graph = Graph(identifier="world", shards=shards)
    graph.add_many(_triple(i, j) for i in range(n) for j in range(preds))
    if shards:
        assert all(graph.shard_sizes())
    return graph


def _dir_state(root: str) -> dict:
    state = {}
    for name in os.listdir(root):
        info = os.stat(os.path.join(root, name))
        state[name] = (info.st_ino, info.st_size, info.st_mtime_ns)
    return state


def _written(before: dict, after: dict) -> set:
    return {name for name, state in after.items() if before.get(name) != state}


def _owner(graph: Graph, subject: IRI) -> int:
    return graph.shard_index(graph.lookup_id(subject))


def _table(term_dict):
    return list(term_dict.snapshot_items()), term_dict._next_id, term_dict._free


def _chain_rows(root: str, manifest: dict, index: int) -> list:
    """The IDs whose rows segment *index* of the chain holds."""
    segment = termdict_segments(manifest)[index]
    rows: dict = {}
    _read_termdict_segment(
        os.path.join(root, segment["file"]), segment["epoch"], segment["checksum"], rows
    )
    assert len(rows) == segment["rows"]
    return sorted(rows)


# -- work as counts ------------------------------------------------------------


class TestWorkAsCounts:
    def test_adds_on_one_subject_write_one_shard_one_segment(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        graph.save(root)
        journal = attach_journal(graph, root)
        hot, tag = IRI(f"{EX}hot"), IRI(f"{EX}tag")
        k = 25
        for i in range(k):
            assert graph.add(Triple(hot, tag, Literal(i)))
        owner = _owner(graph, hot)
        before = _dir_state(root)
        manifest = journal.checkpoint()
        journal.close()
        written = _written(before, _dir_state(root))

        # one shard file, one termdict segment, one WAL, one manifest
        assert written == {
            shard_file(owner, 2), termdict_file(2), wal_file(2), MANIFEST,
        }
        assert [entry["epoch"] for entry in manifest["shard_files"]] == [
            2 if index == owner else 1 for index in range(SHARDS)
        ]
        # the segment's rows: the k objects, their subject, their predicate
        delta, = manifest["termdict"]["deltas"]
        assert delta["rows"] == k + 2
        ids = {graph.lookup_id(term) for term in [hot, tag, *map(Literal, range(k))]}
        assert _chain_rows(root, manifest, 1) == sorted(ids)
        # bytes written <= the dirty shard's file + the segment + the manifest
        sizes = {name: os.path.getsize(os.path.join(root, name)) for name in written}
        assert sizes[termdict_file(2)] == delta["bytes"]
        assert sizes[wal_file(2)] == 0
        rows = manifest["shard_files"][owner]["triples"]
        assert sizes[shard_file(owner, 2)] == 54 + 3 * 8 * rows  # header + columns
        assert sum(sizes.values()) < sum(
            os.path.getsize(os.path.join(root, name)) for name in os.listdir(root)
        ) / 2
        assert orphan_files(root, manifest) == []
        back = load_graph(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(graph)
        assert _table(back.dictionary) == _table(graph.dictionary)

    def test_checkpoint_with_no_write_writes_no_snapshot(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        first = graph.save(root)
        journal = attach_journal(graph, root)
        assert not graph.add(_triple(0, 0))  # duplicate: nothing to fold
        before = _dir_state(root)
        manifest = journal.checkpoint()
        journal.close()
        assert _written(before, _dir_state(root)) == {wal_file(2), MANIFEST}
        assert manifest["shard_files"] == first["shard_files"]
        assert manifest["termdict"] == first["termdict"]
        assert manifest["digest"] == first["digest"]
        assert orphan_files(root, manifest) == []

    def test_checkpoint_after_lazy_load_hydrates_the_written_shard_only(self, tmp_path):
        root = str(tmp_path)
        _world().save(root)
        graph = load_graph(root, lazy=True)
        journal = attach_journal(graph, root)
        extra = _triple(500, 1)
        assert graph.add(extra)
        owner = _owner(graph, extra.subject)
        before = _dir_state(root)
        journal.checkpoint()
        journal.close()
        assert [shard.hydrated for shard in graph.shards] == [
            index == owner for index in range(SHARDS)
        ]
        assert _written(before, _dir_state(root)) == {
            shard_file(owner, 2), termdict_file(2), wal_file(2), MANIFEST,
        }
        model = _world()
        model.add(extra)
        assert content_digest(load_graph(root, lazy=False, verify=True)) == content_digest(model)

    def test_plain_graph_is_one_pseudo_shard_always_rewritten(self, tmp_path):
        root = str(tmp_path)
        graph = _world(shards=None)
        graph.save(root)
        before = _dir_state(root)
        manifest = graph.save(root)
        assert _written(before, _dir_state(root)) == {
            shard_file(0, 2), termdict_file(2), wal_file(2), MANIFEST,
        }
        # nothing moved, so the segment is a header: allocation state, no rows
        assert [d["rows"] for d in manifest["termdict"]["deltas"]] == [0]
        assert content_digest(load_graph(root, verify=True)) == content_digest(graph)

    def test_readding_a_stores_own_triples_changes_nothing(self, tmp_path):
        """A bulk write that adds nothing keeps every shard's sorted run and
        snapshot entry, so the next checkpoint writes no ``.snap``."""
        root = str(tmp_path)
        _world().save(root)
        graph = load_graph(root, lazy=False)
        runs = [shard._columns for shard in graph.shards]
        assert all(run is not None for run in runs)
        generation = graph.generation
        journal = attach_journal(graph, root)
        triples = list(graph.triples())
        assert graph.add_many(triples) == 0
        assert graph.add_many_terms((t.subject, t.predicate, t.object) for t in triples) == 0
        assert all(shard._columns is run for shard, run in zip(graph.shards, runs))
        assert graph.generation == generation
        assert journal.records_appended == 0
        before = _dir_state(root)
        journal.checkpoint()
        journal.close()
        assert _written(before, _dir_state(root)) == {wal_file(2), MANIFEST}

    def test_bulk_write_dirties_the_shards_it_adds_to_only(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        graph.save(root)
        runs = [shard.columns() for shard in graph.shards]
        new = _triple(900, 0)
        owner = graph.shard_index(graph.dictionary.encode(new.subject))
        # a run of duplicates, then one new triple
        assert graph.add_many([_triple(0, 0), _triple(1, 1), new]) == 1
        expected = [index != owner for index in range(SHARDS)]
        assert [shard._columns is run for shard, run in zip(graph.shards, runs)] == expected
        assert [shard._snapshot is not None for shard in graph.shards] == expected
        assert sorted(zip(*graph.shards[owner].columns())) == sorted(
            graph.shards[owner].triples_ids()
        )
        manifest = graph.save(root)
        assert [entry["epoch"] == 1 for entry in manifest["shard_files"]] == expected
        assert content_digest(load_graph(root, lazy=False, verify=True)) == content_digest(graph)


# -- the term dictionary is a chain of segments ------------------------------


class TestTermDictChain:
    def test_later_row_wins_and_freed_ids_are_absent(self, tmp_path):
        root = str(tmp_path)
        graph = _world(n=6)
        graph.save(root)
        journal = attach_journal(graph, root)
        # free two IDs (in this order), reuse one for another term
        graph.remove(_triple(4, 1))
        graph.remove(_triple(1, 0))
        freed = list(graph.dictionary._free)
        assert len(freed) == 2 and freed != sorted(freed)
        journal.checkpoint()
        back = load_graph(root, lazy=False, verify=True)
        assert _table(back.dictionary) == _table(graph.dictionary)
        # ... and the recovered table hands out the same IDs as the live one
        fresh = Literal("fresh")
        assert back.dictionary.encode(fresh) == graph.dictionary.encode(fresh) == freed[-1]
        graph.add(Triple(IRI(f"{EX}s1"), IRI(f"{EX}p0"), fresh))
        manifest = journal.checkpoint()
        journal.close()
        assert len(manifest["termdict"]["deltas"]) == 2
        back = load_graph(root, lazy=False, verify=True)
        assert _table(back.dictionary) == _table(graph.dictionary)
        assert back.dictionary.decode(freed[-1]) == fresh
        assert content_digest(back) == content_digest(graph)

    def test_a_recycled_id_under_an_unchanged_id_row_is_in_the_segment(self, tmp_path):
        """The one row that moves without any triple diff showing it (found
        by ``test_durability_machine.py``): remove (s, p, T), let U take T's
        freed ID, add (s, p, U) -- the shard holds the same ID row as before."""
        root = str(tmp_path)
        graph = _world(n=6)
        graph.save(root)
        journal = attach_journal(graph, root)
        victim = _triple(3, 0)
        recycled = graph.lookup_id(victim.object)
        run = list(zip(*graph.shards[_owner(graph, victim.subject)].columns()))
        graph.remove(victim)
        other = Literal("takes the freed ID")
        graph.add(Triple(victim.subject, victim.predicate, other))
        assert graph.lookup_id(other) == recycled
        assert list(zip(*graph.shards[_owner(graph, victim.subject)].columns())) == run
        manifest = journal.checkpoint()
        journal.close()
        assert _chain_rows(root, manifest, 1) == [recycled]
        back = load_graph(root, lazy=False, verify=True)
        assert back.dictionary.decode(recycled) == other
        assert content_digest(back) == content_digest(graph)
        assert _table(back.dictionary) == _table(graph.dictionary)
        assert graph.dictionary.recycled == set()  # a commit starts it over

    def test_a_write_undone_before_the_commit_still_moves_the_allocation_state(self, tmp_path):
        root = str(tmp_path)
        graph = _world(n=6)
        first = graph.save(root)
        journal = attach_journal(graph, root)
        passing = _triple(70, 0)
        graph.add(passing)
        owner = _owner(graph, passing.subject)
        graph.remove(passing)
        manifest = journal.checkpoint()
        journal.close()
        # same content, so same checksum and digest -- in a new file, because
        # the shard was written to; and no row moved, but two IDs were freed
        old, new = first["shard_files"][owner], manifest["shard_files"][owner]
        assert (new["epoch"], new["checksum"], new["digest"]) == (2, old["checksum"], old["digest"])
        assert [delta["rows"] for delta in manifest["termdict"]["deltas"]] == [0]
        assert len(graph.dictionary._free) == 2
        back = load_graph(root, lazy=False, verify=True)
        assert _table(back.dictionary) == _table(graph.dictionary)

    def test_chain_is_replaced_once_its_deltas_weigh_as_much_as_its_base(self, tmp_path):
        root = str(tmp_path)
        graph = _world(n=4)
        graph.save(root)
        journal = attach_journal(graph, root)
        epochs_with_full_segment = []
        for step in range(24):
            graph.add(_triple(100 + step, 0))
            manifest = journal.checkpoint()
            chain = manifest["termdict"]
            weight = sum(delta["bytes"] for delta in chain["deltas"])
            if not chain["deltas"]:
                epochs_with_full_segment.append(manifest["epoch"])
                assert chain["rows"] == chain["terms"] == len(graph.dictionary)
            else:
                # only the newest delta may take the chain past its base
                assert weight - chain["deltas"][-1]["bytes"] < chain["bytes"]
            assert orphan_files(root, manifest) == []
            back = load_graph(root, lazy=False, verify=True)
            assert _table(back.dictionary) == _table(graph.dictionary)
        journal.close()
        assert len(epochs_with_full_segment) >= 2  # it compacted, more than once

    def test_full_segment_when_there_is_nothing_to_diff_against(self, tmp_path):
        root, other = str(tmp_path / "a"), str(tmp_path / "b")
        _world(n=5).save(other)  # another store's commit lives there
        graph = _world()
        graph.save(root)
        graph.add(_triple(700, 0))
        # another root: none of its files are this graph's
        manifest = graph.save(other)
        assert manifest["epoch"] == 2 and manifest["termdict"]["deltas"] == []
        assert all(entry["epoch"] == 2 for entry in manifest["shard_files"])
        assert orphan_files(other, manifest) == []
        # back to the first root: its files are not the ones remembered now
        manifest = graph.save(root)
        assert manifest["epoch"] == 2 and manifest["termdict"]["deltas"] == []
        assert all(entry["epoch"] == 2 for entry in manifest["shard_files"])
        # clear() starts a new dictionary: its IDs mean nothing to the chain
        graph.clear()
        graph.add(_triple(1, 1))
        manifest = graph.save(root)
        assert manifest["termdict"]["deltas"] == [] and manifest["termdict"]["rows"] == 3
        assert all(entry["epoch"] == 3 for entry in manifest["shard_files"])
        for store in (root, other):
            load_graph(store, lazy=False, verify=True)
        assert content_digest(load_graph(root, lazy=False)) == content_digest(graph)

    def test_an_equal_entry_in_the_committed_manifest_is_the_same_file(self, tmp_path):
        """The fence is equality with the committed entry, not a root's name:
        a first save elsewhere mints epoch-1 entries equal to ours for the
        shards it found unchanged, and those files do hold that content."""
        root, other = str(tmp_path / "a"), str(tmp_path / "b")
        graph = _world()
        first = graph.save(root)
        extra = _triple(700, 0)
        graph.add(extra)
        owner = _owner(graph, extra.subject)
        elsewhere = graph.save(other)
        assert [a == b for a, b in zip(first["shard_files"], elsewhere["shard_files"])] == [
            index != owner for index in range(SHARDS)
        ]
        manifest = graph.save(root)
        assert [entry["epoch"] for entry in manifest["shard_files"]] == [
            2 if index == owner else 1 for index in range(SHARDS)
        ]
        assert manifest["termdict"]["deltas"] == []  # the chain there is not ours
        assert content_digest(load_graph(root, lazy=False, verify=True)) == content_digest(graph)

    def test_unreadable_committed_shard_file_means_a_full_segment(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        first = graph.save(root)
        extra = _triple(700, 0)
        graph.add(extra)
        owner = _owner(graph, extra.subject)
        path = os.path.join(root, first["shard_files"][owner]["file"])
        with open(path, "r+b") as handle:
            handle.truncate(30)
        manifest = graph.save(root)
        assert manifest["termdict"]["deltas"] == []
        assert manifest["termdict"]["file"] == termdict_file(2)
        assert content_digest(load_graph(root, lazy=False, verify=True)) == content_digest(graph)

    def test_a_copy_that_went_its_own_way_does_not_append_to_our_chain(self, tmp_path):
        """Two descendants of one commit: the second to checkpoint finds a
        chain its dictionary does not descend from.  IDs 'freed and reused'
        differ between the two, so a delta on that chain would rename terms."""
        root = str(tmp_path)
        graph = _world(n=8)
        graph.save(root)
        fork = graph.copy()
        victim = _triple(3, 0)
        for store, label in ((graph, "ours"), (fork, "theirs")):
            store.remove(victim)
            store.add(Triple(victim.subject, victim.predicate, Literal(label)))
        assert graph.lookup_id(Literal("ours")) == fork.lookup_id(Literal("theirs"))
        graph.save(root)
        manifest = fork.save(root)
        assert manifest["termdict"]["deltas"] == []  # a full segment
        back = load_graph(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(fork)
        assert _table(back.dictionary) == _table(fork.dictionary)

    def test_a_failed_write_interns_nothing_for_the_next_segment(self, tmp_path):
        """Until PR 23 a write whose journal append failed left its terms
        interned with refcount 0, and this test pinned that the next delta
        segment carried the orphan's row.  The writers now log before they
        intern, so there is no such row to carry."""
        root = str(tmp_path)
        graph = _world()
        graph.save(root)
        journal = attach_journal(graph, root, injector=CrashInjector(crash_at=0))
        orphan = Literal("never stored")
        terms = graph.term_count()
        with pytest.raises(CrashPoint):
            graph.add(Triple(IRI(f"{EX}s0"), IRI(f"{EX}p0"), orphan))
        assert graph.lookup_id(orphan) is None and graph.term_count() == terms
        journal.wal.injector = None
        later = _triple(800, 0)
        graph.add(later)
        manifest = journal.checkpoint()
        journal.close()
        assert _chain_rows(root, manifest, 1) == sorted(
            graph.lookup_id(term) for term in (later.subject, later.predicate, later.object)
        )
        back = load_graph(root, lazy=False, verify=True)
        assert _table(back.dictionary) == _table(graph.dictionary)


# -- same checks, none weaker --------------------------------------------------


class TestTheChecksThatRemain:
    def test_content_digest_reads_no_stored_value(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        graph.save(root)
        digest = content_digest(graph)
        shard = graph.shards[2]
        shard._snapshot = dict(shard._snapshot, digest="sha256-sum:" + "0" * 64)
        assert content_digest(graph) == digest
        # ... the tampered entry is not the committed one, so the shard is
        # rewritten (and digested again) rather than carried
        manifest = graph.save(root)
        assert [entry["epoch"] for entry in manifest["shard_files"]] == [1, 1, 2, 1]
        assert manifest["digest"] == digest
        assert manifest["shard_files"][2]["digest"] != "sha256-sum:" + "0" * 64
        load_graph(root, lazy=False, verify=True)

    def test_a_wrong_manifest_entry_digest_fails_the_load(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        manifest = graph.save(root)
        honest = manifest["shard_files"][1]["digest"]
        other = manifest["shard_files"][2]["digest"]
        # consistent with the manifest's sum, wrong for both shards
        manifest["shard_files"][1]["digest"] = other
        manifest["shard_files"][2]["digest"] = honest
        write_manifest(root, manifest)
        with pytest.raises(DurabilityError, match=shard_file(1, 1)):
            load_graph(root, lazy=False, verify=True)
        # entry and sum disagree
        manifest["shard_files"][2]["digest"] = other
        write_manifest(root, manifest)
        with pytest.raises(DurabilityError, match="add up"):
            load_graph(root, lazy=False, verify=True)

    def test_lazy_verify_returns_cold_and_each_shard_checks_itself(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        manifest = graph.save(root)
        lazy = load_graph(root, lazy=True, verify=True)
        assert not any(shard.hydrated for shard in lazy.shards)
        assert content_digest(lazy) == content_digest(graph)
        assert all(shard.hydrated for shard in lazy.shards)

        manifest["shard_files"][1]["digest"], manifest["shard_files"][2]["digest"] = (
            manifest["shard_files"][2]["digest"], manifest["shard_files"][1]["digest"],
        )
        write_manifest(root, manifest)
        lazy = load_graph(root, lazy=True, verify=True)
        assert not any(shard.hydrated for shard in lazy.shards)
        sane = next(s for s in graph.subjects() if _owner(graph, s) == 0)
        bad = next(s for s in graph.subjects() if _owner(graph, s) == 1)
        assert set(lazy.triples(subject=sane)) == set(graph.triples(subject=sane))
        for _ in range(2):  # it stays refused, it does not count as hydrated
            with pytest.raises(DurabilityError, match=shard_file(1, 1)):
                list(lazy.triples(subject=bad))
            assert not lazy.shards[1].hydrated
        # defaults unchanged: a lazy load does not verify unless asked
        list(load_graph(root, lazy=True).triples(subject=bad))

    def test_a_shard_file_of_the_wrong_epoch_is_refused(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        manifest = graph.save(root)
        manifest["shard_files"][0]["epoch"] = 7
        write_manifest(root, manifest)
        with pytest.raises(Exception, match="epoch 1, expected 7"):
            load_graph(root, lazy=False)

    def test_version_one_manifest_is_refused(self, tmp_path):
        root = str(tmp_path)
        manifest = _world().save(root)
        manifest["version"] = 1
        manifest["termdict"] = {
            key: manifest["termdict"][key] for key in ("file", "terms", "next_id", "checksum")
        }
        with open(os.path.join(root, MANIFEST), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ManifestError, match="version 1 unsupported"):
            load_graph(root)
        # ... and save_graph starts the directory over rather than read it
        fresh = _world(n=4).save(root)
        assert fresh["version"] == 2 and fresh["epoch"] == 1
        assert orphan_files(root, fresh) == []

    def test_a_save_that_died_before_its_swap_left_nothing_to_carry(self, tmp_path):
        root = str(tmp_path)
        graph = _world()
        graph.save(root)
        extra = _triple(600, 2)
        graph.add(extra)
        owner = _owner(graph, extra.subject)
        staged = CrashInjector(p_crash=1.0, ops=("manifest-swap:staged",))
        with pytest.raises(CrashPoint):
            save_graph(graph, root, injector=staged)
        # the epoch-2 files exist, the commit does not: nothing remembers them
        assert os.path.exists(os.path.join(root, shard_file(owner, 2)))
        assert graph.shards[owner]._snapshot is None
        assert graph.dictionary.snapshot == read_manifest(root)["termdict"]
        graph.add(_triple(601, 2))
        manifest = graph.save(root)
        assert manifest["epoch"] == 2
        assert orphan_files(root, manifest) == []
        back = load_graph(root, lazy=False, verify=True)
        assert content_digest(back) == content_digest(graph)
        assert _table(back.dictionary) == _table(graph.dictionary)
