"""The durable store as a state machine: every door, interleaved.

``test_durability_recovery.py`` sweeps one scripted lifecycle; this file
lets hypothesis interleave the whole surface -- every mutation door of
:class:`Graph`, journal attach / checkpoint / close, writes made with no
journal attached, a save to a second root, carrying on with a loaded graph
(eager or lazy: the replayed-tail case) or with a ``copy()``, and a crash
at a drawn boundary inside a checkpoint after which *the same process*
carries on and checkpoints again -- against a model that is two Python
sets: the live triples, and the triples a recovery must return (the last
commit plus the journaled changes since, replayed as set operations).

What must hold after every step is what keeps an incremental checkpoint
honest: recovery returns exactly the durable model (``verify=True``, so
every carried file still matches its entry), and after each commit the
recovered term dictionary *is* the live one (rows, next ID, free list in
order), nothing is orphaned, and a shard file was rewritten iff a triple of
that shard came or went since the commit before.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from refusing_segment import RefusingSegment
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
from repro.rdf.durability import CrashInjector, CrashPoint
from repro.rdf.durability.paths import orphan_files

EX = "http://ex.org/"


def _triple(s: int, p: int, o: int) -> Triple:
    # odd objects are IRIs that also occur as subjects: terms are shared
    # across positions and shards, so refcounts and freed IDs interleave
    obj = IRI(f"{EX}n{o}") if o % 2 else Literal(o)
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), obj)


subjects = st.integers(min_value=0, max_value=4)
triples = st.builds(
    _triple, subjects, st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=5),
)
batches = st.lists(triples, min_size=1, max_size=6)


#: every kind of boundary a checkpoint crosses (the WAL's own are the
#: recovery sweep's business: a write that crashes never returns here)
CHECKPOINT_BOUNDARIES = [
    f"{op}:{at}"
    for op in ("snapshot-write", "termdict-write")
    for at in ("before", "partial", "staged", "after")
] + [
    "wal-create:before", "wal-create:after",
    "manifest-swap:before", "manifest-swap:staged", "manifest-swap:after",
    "prune:file",
]


def _table(term_dict):
    return list(term_dict.snapshot_items()), term_dict._next_id, term_dict._free


def _model_digest(content) -> str:
    model = Graph()
    model.add_many(content)
    return content_digest(model)


class DurableStore(RuleBasedStateMachine):
    @initialize(shards=st.sampled_from((None, 1, 2, 4)), base=st.lists(triples, max_size=10))
    def start(self, shards, base):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = os.path.join(self.tmp.name, "main")
        self.other = os.path.join(self.tmp.name, "other")
        self.shards = shards
        self.graph = Graph(identifier="machine", shards=shards)
        self.graph.add_many(base)
        self.journal = None
        self.live = set(base)
        self.other_durable = None
        #: shards a triple entered or left since the last commit to the main
        #: root; None once that stopped being predictable from the ops alone
        self.touched = self._all_shards()
        #: the live graph did something a replay of the log would not
        self.unjournaled = False
        self._committed(save_graph(self.graph, self.root))

    def teardown(self):
        if hasattr(self, "tmp"):
            self._close()
            self.tmp.cleanup()

    # -- the model -------------------------------------------------------------

    def _all_shards(self) -> set:
        return set(range(self.shards or 1))

    def _owners(self, changed) -> set:
        if not self.shards:
            return {0} if changed else set()
        graph = self.graph
        return {graph.shard_index(graph.lookup_id(t.subject)) for t in changed}

    def _wrote(self, added=(), removed=(), owners=()):
        """The graph just gained *added* and lost *removed* (both real)."""
        added, removed = set(added), set(removed)
        self.live = (self.live | added) - removed
        if added or removed:
            if self.touched is not None:
                self.touched |= set(owners)
            if self.journal is not None:
                self.durable = (self.durable | added) - removed
            else:
                self.unjournaled = True

    def _add(self, batch, door):
        new = set(batch) - self.live
        assert door(batch) == len(new)
        self._wrote(added=new, owners=self._owners(new))

    def _remove(self, batch, door):
        gone = set(batch) & self.live
        owners = self._owners(gone)
        assert door(batch) == len(gone)
        self._wrote(removed=gone, owners=owners)

    def _committed(self, manifest):
        """A save / checkpoint to the main root returned *manifest*."""
        rewritten = {
            index for index, entry in enumerate(manifest["shard_files"])
            if entry["epoch"] == manifest["epoch"]
        }
        if not self.shards:
            assert rewritten == {0}  # a plain Graph is always rewritten
        elif self.touched is not None:
            assert rewritten == self.touched
        assert orphan_files(self.root, manifest) == []
        self.durable = set(self.live)
        self.touched = set()
        self.unjournaled = False
        back = load_graph(self.root, lazy=False, verify=True)
        assert _table(back.dictionary) == _table(self.graph.dictionary)

    def _close(self):
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # -- every mutation door -----------------------------------------------------

    @rule(triple=triples)
    def add(self, triple):
        self._add([triple], lambda batch: int(self.graph.add(batch[0])))

    @rule(triple=triples)
    def add_triple(self, triple):
        self._add([triple], lambda batch: int(self.graph.add_triple(
            triple.subject, triple.predicate, triple.object)))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def add_a_duplicate(self, data):
        triple = data.draw(st.sampled_from(sorted(self.live, key=str)))
        generation = self.graph.generation
        self._add([triple], lambda batch: int(self.graph.add(batch[0])))
        assert self.graph.generation == generation

    @rule(batch=batches)
    def add_many(self, batch):
        self._add(batch, self.graph.add_many)

    @rule(batch=batches)
    def add_many_terms(self, batch):
        self._add(batch, lambda b: self.graph.add_many_terms(
            (t.subject, t.predicate, t.object) for t in b))

    @rule(batch=batches)
    def update(self, batch):
        self._add(batch, self.graph.update)

    @rule(batch=batches)
    def iadd(self, batch):
        other = Graph()
        other.add_many(batch)

        def door(_):
            before = len(self.graph)
            self.graph += other
            return len(self.graph) - before

        self._add(batch, door)

    @rule(triple=triples)
    def remove(self, triple):  # present or absent, as drawn
        self._remove([triple], lambda batch: int(self.graph.remove(batch[0])))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove_one_present(self, data):
        triple = data.draw(st.sampled_from(sorted(self.live, key=str)))
        self._remove([triple], lambda batch: int(self.graph.remove(batch[0])))

    @rule(s=subjects)
    def remove_pattern(self, s):
        subject = IRI(f"{EX}n{s}")
        star = [t for t in self.live if t.subject == subject]
        self._remove(star, lambda _: self.graph.remove_pattern(subject=subject))

    @rule()
    def clear(self):
        self.graph.clear()
        self._cleared()

    def _cleared(self):
        gone = set(self.live)
        self._wrote(removed=gone)
        if self.journal is not None and gone:
            self.durable = set()  # logged as a clear, not as its removes
        # clear() swaps in fresh shards, which remember no snapshot -- even
        # when there was nothing to clear, which the log does not record
        self.touched = self._all_shards()
        if not gone:
            self.unjournaled = True

    # -- journal and commits -------------------------------------------------------

    @precondition(lambda self: self.journal is None)
    @rule()
    def attach(self):
        self.journal = attach_journal(self.graph, self.root)

    @precondition(lambda self: self.journal is not None)
    @rule()
    def checkpoint(self):
        self._committed(self.journal.checkpoint())

    @precondition(lambda self: self.journal is not None)
    @rule()
    def close(self):
        self._close()

    @precondition(lambda self: self.journal is None)
    @rule()
    def save(self):  # what un-journaled writes need to become durable
        self._committed(save_graph(self.graph, self.root))

    @rule()
    def save_to_a_second_root(self):
        save_graph(self.graph, self.other)
        self.other_durable = set(self.live)
        # every shard now remembers an entry of the other root, which the
        # main root honours only where it happens to hold the equal file
        self.touched = None

    @precondition(lambda self: self.journal is not None)
    @rule(where=st.sampled_from(CHECKPOINT_BOUNDARIES), seed=st.integers(0, 7),
          again=st.booleans())
    def crash_inside_a_checkpoint_and_carry_on(self, where, seed, again):
        # each boundary of that kind is the crash with probability 1/2, so
        # the second shard file is reached as well as the first
        self.journal.injector = CrashInjector(seed=seed, p_crash=0.5, ops=(where,))
        try:
            manifest = self.journal.checkpoint()
        except CrashPoint as crash:
            # past the swap the commit stands, whatever was left undone
            if crash.op == "manifest-swap:after" or crash.op.startswith("prune"):
                self.durable = set(self.live)
                self.unjournaled = False
            # ... and by the time it prunes, the shards remember their files
            if crash.op.startswith("prune"):
                self.touched = set()
            # the journal's segment may be the superseded one: reopen it
            # the way a restarted process would, but keep the live graph
            self._close()
            self.journal = attach_journal(self.graph, self.root)
            if again:
                self._committed(self.journal.checkpoint())
        else:  # this checkpoint had no such boundary, or the coin said no
            self.journal.injector = self.journal.wal.injector = None
            self._committed(manifest)

    @precondition(lambda self: self.journal is not None)
    @rule(batch=batches, allow=st.integers(0, 2),
          door=st.sampled_from(("add", "add_many", "add_many_terms", "remove", "clear")))
    def the_append_fails(self, batch, allow, door):
        """The segment takes *allow* more records, then refuses (a full
        disk; the process lives).  What was logged is in -- live and
        durable -- and the write that was refused left nothing behind: the
        invariants compare ``len``, the triples, and at the next commit the
        whole dictionary table with a recovery's."""
        graph, real = self.graph, self.journal.wal
        if door == "clear":
            logs = [None] if self.live else []
        elif door == "remove":
            logs = list(dict.fromkeys(t for t in batch if t in self.live))
        else:
            logs = list(dict.fromkeys(t for t in batch if t not in self.live))
        owners = self._owners(logs) if door == "remove" else ()
        terms = ((t.subject, t.predicate, t.object) for t in batch)
        self.journal.wal = RefusingSegment(real, allow)
        try:
            if door == "clear":
                graph.clear()
            elif door == "add_many":
                graph.add_many(batch)
            elif door == "add_many_terms":
                graph.add_many_terms(terms)
            else:
                for triple in batch:
                    getattr(graph, door)(triple)
        except OSError:
            assert len(logs) > allow
            logs = logs[:allow]
        else:
            assert len(logs) <= allow
        finally:
            self.journal.wal = real
        if door == "clear":
            if logs or not self.live:  # it went through (an empty clear() logs nothing)
                self._cleared()
        elif door == "remove":
            self._wrote(removed=logs, owners=owners)
        else:
            self._wrote(added=logs, owners=self._owners(logs))

    # -- carrying on with another object ------------------------------------------

    @rule(lazy=st.booleans())
    def carry_on_with_the_loaded_graph(self, lazy):
        self._close()
        self.graph = load_graph(self.root, lazy=lazy)
        self.live = set(self.durable)
        # the replayed tail touches what the journaled writes touched -- in
        # the same ID space, unless un-journaled writes shifted the live IDs
        if self.unjournaled:
            self.touched = None
        self.unjournaled = False

    @rule()
    def carry_on_with_a_copy(self):
        self._close()
        self.graph = self.graph.copy()

    # -- what must hold after every step ---------------------------------------------

    @invariant()
    def recovery_returns_the_durable_model(self):
        for root, model in ((self.root, self.durable), (self.other, self.other_durable)):
            if model is None:
                continue
            back = load_graph(root, lazy=False, verify=True)
            assert set(back.triples()) == model
            assert content_digest(back) == _model_digest(model)
            assert len(back) == len(model)

    @invariant()
    def the_live_graph_is_the_live_model(self):
        assert len(self.graph) == len(self.live)
        # "the dictionary never holds stale entries": not a term of a
        # removed triple, not one interned for a write that was refused
        assert set(self.graph.dictionary.terms()) == {term for t in self.live for term in t}
        # looking inside a cold shard would hydrate it, and a checkpoint
        # must be able to find it cold
        if not self.shards or all(shard.hydrated for shard in self.graph.shards):
            assert set(self.graph.triples()) == self.live


DurableStore.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDurableStore = DurableStore.TestCase
