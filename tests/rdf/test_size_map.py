"""A subject's triple count is kept with SPO, through every writer.

Every :class:`Shard` keeps ``sizes`` (subject ID -> its triple count)
beside its indexes, so ``scan_runs`` and ``count_ids(s)`` read a count
instead of summing leaf lengths.  That is only sound while every writer
moves the count in the step that moves SPO.  This machine interleaves them
all -- add, a duplicate add, remove, an absent remove, ``add_many_terms``
with duplicates and from a generator that raises midway,
``remove_pattern``, ``clear``, ``copy`` (then either side written on its
own), ``+=``, save then eager load, and WAL replay with a torn tail -- on
a plain graph and on a three-shard store, and after every step checks
each shard's map against the index it mirrors: the same key set, each
value the subject's leaf lengths summed, no zero, and the values adding
up to the shard's size (and over the shards, to ``len(graph)``).
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.rdf import Graph, IRI, Literal, Triple, attach_journal, load_graph, save_graph
from repro.rdf.durability import read_manifest

EX = "http://ex.org/"


def _triple(s: int, p: int, o: int) -> Triple:
    obj = IRI(f"{EX}n{o}") if o % 2 else Literal(o)
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), obj)


subjects = st.integers(min_value=0, max_value=4)
triples = st.builds(
    _triple, subjects, st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=5)
)
batches = st.lists(triples, min_size=1, max_size=8)


def assert_counts_mirror_spo(graph: Graph) -> None:
    for shard in graph.shards:
        spo = shard.spo
        assert shard.sizes == {s: sum(map(len, inner.values())) for s, inner in spo.items()}
        assert 0 not in shard.sizes.values()
        assert sum(shard.sizes.values()) == len(shard)
    assert sum(map(len, graph.shards)) == len(graph)


class _Midway(Exception):
    pass


class SizeMap(RuleBasedStateMachine):
    #: the shard count the machine's graph starts with (None: a plain graph)
    SHARDS = None

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.saves = 0
        self.graph = Graph(shards=self.SHARDS)
        #: a copy taken earlier, written to on its own
        self.other = None
        self.journal = None
        self.root = None

    def teardown(self):
        if self.journal is not None:
            self.journal.close()
        self.tmp.cleanup()

    def _fresh_root(self) -> str:
        self.saves += 1
        return os.path.join(self.tmp.name, f"store{self.saves}")

    # -- writes ------------------------------------------------------------------

    @rule(triple=triples)
    def add(self, triple):
        self.graph.add(triple)

    @precondition(lambda self: len(self.graph))
    @rule(data=st.data())
    def add_a_duplicate(self, data):
        triple = data.draw(st.sampled_from(sorted(self.graph.triples(), key=str)))
        assert not self.graph.add(triple)

    @rule(triple=triples)
    def remove(self, triple):  # present or absent, as drawn
        self.graph.remove(triple)

    @precondition(lambda self: len(self.graph))
    @rule(data=st.data())
    def remove_one_present(self, data):
        triple = data.draw(st.sampled_from(sorted(self.graph.triples(), key=str)))
        assert self.graph.remove(triple)

    @rule(s=subjects)
    def remove_an_absent_triple(self, s):
        assert not self.graph.remove(_triple(s, 9, 0))

    @rule(batch=batches, repeats=st.integers(min_value=0, max_value=8))
    def add_many_terms_with_duplicates(self, batch, repeats):
        rows = batch + batch[:repeats] + list(self.graph.triples())[:repeats]
        self.graph.add_many_terms((t.subject, t.predicate, t.object) for t in rows)

    @rule(batch=batches, at=st.integers(min_value=0, max_value=8))
    def add_many_terms_from_a_generator_that_raises(self, batch, at):
        def rows():
            for triple in batch[:at]:
                yield triple.subject, triple.predicate, triple.object
            raise _Midway()

        with pytest.raises(_Midway):
            self.graph.add_many_terms(rows())
        assert all(triple in self.graph for triple in batch[:at])

    @rule(s=subjects)
    def remove_pattern(self, s):
        self.graph.remove_pattern(subject=IRI(f"{EX}n{s}"))

    @rule()
    def clear(self):
        self.graph.clear()

    @rule(batch=batches)
    def iadd(self, batch):
        other = Graph()
        other.add_many(batch)
        self.graph += other

    # -- copies --------------------------------------------------------------------

    @rule()
    def copy(self):
        self.other = self.graph.copy()

    @precondition(lambda self: self.other is not None)
    @rule(triple=triples, add=st.booleans())
    def write_the_copy(self, triple, add):
        (self.other.add if add else self.other.remove)(triple)

    @precondition(lambda self: self.other is not None and self.journal is None)
    @rule()
    def swap_with_the_copy(self):
        self.graph, self.other = self.other, self.graph

    # -- durability ----------------------------------------------------------------

    @precondition(lambda self: self.journal is None)
    @rule()
    def save_then_eager_load(self):
        root = self._fresh_root()
        save_graph(self.graph, root)
        self.graph = load_graph(root, lazy=False, verify=True)

    @precondition(lambda self: self.journal is None)
    @rule()
    def attach(self):
        self.root = self._fresh_root()
        save_graph(self.graph, self.root)
        self.journal = attach_journal(self.graph, self.root)

    @precondition(lambda self: self.journal is not None)
    @rule(tear=st.integers(min_value=0, max_value=12))
    def replay_the_wal(self, tear):
        """Close the journal, cut *tear* bytes off the WAL's last record
        (none: an intact tail) and recover."""
        self.journal.close()
        self.journal = None
        wal = read_manifest(self.root)["wal"]
        path = os.path.join(self.root, wal["file"])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(wal["offset"], size - tear))
        self.graph = load_graph(self.root, lazy=False, verify=True)

    # -- the invariant -------------------------------------------------------------

    @invariant()
    def every_count_is_its_subjects_triples(self):
        assert_counts_mirror_spo(self.graph)
        if self.other is not None:
            assert_counts_mirror_spo(self.other)


class ShardedSizeMap(SizeMap):
    SHARDS = 3


TestSizeMap = SizeMap.TestCase
TestSizeMap.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
TestShardedSizeMap = ShardedSizeMap.TestCase
TestShardedSizeMap.settings = TestSizeMap.settings


def test_each_shard_keeps_its_subjects_counts():
    """A sharded store keeps the map per shard, each equal to its own
    leaf sums; ``count_ids(s)`` reads the owning shard's count, and the
    spanning ``scan_runs`` still declines."""
    store = Graph(shards=2)
    store.add_many(_triple(s, p, o) for s in range(5) for p in range(2) for o in range(3))
    store.remove(_triple(0, 0, 0))
    store.remove_pattern(subject=IRI(f"{EX}n1"))
    for graph in (store, store.copy()):
        assert_counts_mirror_spo(graph)
        assert all(shard.sizes for shard in graph.shards)
    subject = store.lookup_id(IRI(f"{EX}n2"))
    assert store.shard_of(subject).sizes[subject] == 6
    assert store.count_ids(subject) == 6 and store.scan_runs(None, None, None) is None
