"""Subject-hash-partitioned storage: N shards under one :class:`Graph` facade.

A :class:`ShardedTripleStore` is a :class:`~repro.rdf.graph.Graph` whose
triples are partitioned into ``N`` shards by **subject ID modulo N** over
the single shared :class:`~repro.rdf.dictionary.TermDict`.  Each shard
owns its own ID-space SPO/POS/OSP permutation indexes holding exactly the
triples whose subject hashes to it, which is the classic
subject-partitioning rule: a subject's whole forward star lives in one
shard, so subject-bound lookups never fan out while predicate/object
scans split ``1/N`` per shard.

A shard is a unit of **storage**, not of execution: it is what the
durability layer snapshots, rewrites when dirty and loads lazily.  The
shards are the only storage (the inherited global indexes stay empty; a
write lands in exactly one shard), and the store answers the SPARQL
engine through the read interface a plain :class:`Graph` offers:

* subject-bound requests (``triples_ids(s, ...)``, point lookups,
  ``__contains__``, ``objects(subject, predicate)``, ``value``, the
  evaluator's per-row index-nested-loop probes) go straight to the owning
  shard -- same O(1) dict walks, one hop deeper;
* unbound-subject scans (:meth:`ShardedTripleStore.triples_ids`, and
  through it ``scan_columns`` and every probe-table build) come back as
  the ordered merge of per-shard runs sorted by the ``(s, p, o)`` ID
  triple -- the one place that merge is written.  The whole-graph pattern
  in ``scan_columns`` merges the shards' cached runs (:meth:`Shard.columns`)
  instead, so it reads a cold lazily loaded shard off its snapshot without
  building its indexes;
* ``scan_runs`` declines (no single index holds a spanning scan's keys:
  each shard has its own), so COUNT / DISTINCT sinks expand rows here;
* whole-index views (``spo_ids``/``pos_ids``/``osp_ids``) materialize a
  merged read-only snapshot on demand; they exist for tests and
  debugging, the hot paths never call them on a sharded graph.

**Merge determinism rule.**  Each shard's matches are sorted into a run
by the ``(s, p, o)`` ID triple; the merged stream is the ordered merge of
those runs, i.e. ascending ``(s, p, o)`` order overall.  Subjects
partition disjointly, so this canonical order is *independent of the
shard count*: ``Graph(shards=1)`` and ``Graph(shards=8)`` feed the SPARQL
pipelines byte-identical row streams, which is what pins query results
(including row order) across shard counts.  Subject-bound reads inherit
the same invariance for free: all writes for one subject land in its one
shard in global write order, so the shard-local dict and set iteration
orders are a pure function of the write sequence, never of ``N``.  A
plain ``Graph()`` scans in index-dict order instead, so sharded and
unsharded stores agree on result *multisets* but not necessarily on the
order of unordered queries.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ._leaf import IdIndex, copy_index, discard_ids, insert_ids, leaf_add
from .graph import Graph, column_batches
from .namespaces import RDF, RDFS
from .terms import IRI, Term, Triple

__all__ = ["ShardedTripleStore", "Shard", "sorted_columns"]


def sorted_columns(rows: Iterable[Tuple[int, int, int]]) -> Tuple:
    """ID *rows* as an (s, p, o)-sorted run of three ``array('q')`` columns.

    The one layout shared by the batch-scan pipeline and the durability
    snapshots: a shard's cached run is written to disk as it is.
    """
    rows = sorted(rows)
    if rows:
        s_col, p_col, o_col = zip(*rows)
    else:
        s_col = p_col = o_col = ()
    return array("q", s_col), array("q", p_col), array("q", o_col)


class Shard:
    """One partition: its own SPO/POS/OSP indexes over shared term IDs."""

    __slots__ = ("spo", "pos", "osp", "size", "_columns", "_snapshot")

    #: overridden by :class:`repro.rdf.durability.LazyShard`, whose indexes
    #: build from a snapshot file on first touch; memory accounting checks
    #: this to avoid forcing cold shards resident
    hydrated = True

    def __init__(self):
        self.spo: IdIndex = {}
        self.pos: IdIndex = {}
        self.osp: IdIndex = {}
        self.size = 0
        #: the shard's full sorted run as three ``array('q')`` columns
        #: ((s, p, o)-sorted, same layout the durability snapshots use).
        #: Built on demand by :meth:`columns`, dropped on any mutation;
        #: snapshot loads seed it directly so load -> scan copies nothing.
        self._columns: Optional[Tuple] = None
        #: the manifest entry (``file``, ``epoch``, ``triples``,
        #: ``checksum``, ``digest``) of the durable snapshot file that holds
        #: exactly this shard's content, or None.  Set by
        #: :mod:`repro.rdf.durability` once a commit names the file, dropped
        #: wherever ``_columns`` is dropped; a checkpoint rewrites only the
        #: shards without one.
        self._snapshot: Optional[dict] = None

    def columns(self) -> Tuple:
        """The shard's (s, p, o)-sorted run as ``(s_col, p_col, o_col)``.

        What a snapshot stores and a whole-graph scan merges: identical
        content to ``sorted(self.triples_ids())``, held as three parallel
        ``array('q')`` columns.  Cached until the shard mutates; treat the
        arrays as immutable (every invalidation replaces, never edits).
        """
        cols = self._columns
        if cols is None:
            cols = self._columns = sorted_columns(self.triples_ids())
        return cols

    def insert(self, s: int, p: int, o: int) -> None:
        """Insert an ID triple the owning store already deduplicated."""
        insert_ids(self.spo, self.pos, self.osp, s, p, o)
        self.size += 1
        self._columns = self._snapshot = None

    def discard(self, s: int, p: int, o: int) -> None:
        """Remove an ID triple the owning store verified was present."""
        self._columns = self._snapshot = None
        discard_ids(self.spo, self.pos, self.osp, s, p, o)
        self.size -= 1

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """This shard's ID triples matching the (wildcard) pattern.

        Same index-selection logic as :meth:`Graph.triples_ids`, over the
        shard-local indexes only.  Shard-spanning consumers sort each
        shard's output into a run before merging, so iteration order here
        is only observable for subject-bound patterns -- where it is a
        pure function of the write sequence (see the module's merge
        determinism rule).
        """
        if s is not None:
            by_predicate = self.spo.get(s)
            if not by_predicate:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if not objects:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            for pred, objects in by_predicate.items():
                if o is not None:
                    if o in objects:
                        yield (s, pred, o)
                    continue
                for obj in objects:
                    yield (s, pred, obj)
            return

        if p is not None:
            by_object = self.pos.get(p)
            if not by_object:
                return
            if o is not None:
                for subj in by_object.get(o, ()):
                    yield (subj, p, o)
                return
            for obj, subjects in by_object.items():
                for subj in subjects:
                    yield (subj, p, obj)
            return

        if o is not None:
            by_subject = self.osp.get(o)
            if not by_subject:
                return
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield (subj, pred, o)
            return

        for subj, by_predicate in self.spo.items():
            for pred, objects in by_predicate.items():
                for obj in objects:
                    yield (subj, pred, obj)

    def copy(self) -> "Shard":
        out = Shard()
        out.spo = copy_index(self.spo)
        out.pos = copy_index(self.pos)
        out.osp = copy_index(self.osp)
        out.size = self.size
        # the cached run is immutable-by-contract, so sharing it is safe:
        # either shard's next mutation replaces its own reference.  The
        # snapshot entry describes content, which the clone has too.
        out._columns = self._columns
        out._snapshot = self._snapshot
        return out

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<Shard {self.size} triples, {len(self.spo)} subjects>"


class ShardedTripleStore(Graph):
    """A :class:`Graph` partitioned into subject-hash shards.

    Constructed directly or through the facade ``Graph(shards=N)``.  The
    full :class:`Graph` API behaves identically; the shards are the only
    storage (single-copy layout) and every accessor routes: subject-bound
    reads hit the owning shard, unbound scans merge sorted per-shard runs.
    """

    #: duck-typing flag the SPARQL layer dispatches on (no import cycle)
    is_sharded = True

    def __init__(self, identifier: Optional[str] = None, shards: int = 4):
        if type(shards) is not int or shards < 1:
            raise ValueError(f"shards must be an int >= 1, got {shards!r}")
        super().__init__(identifier)
        self._shards = tuple(Shard() for _ in range(shards))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: Graph, shards: int, identifier: Optional[str] = None
    ) -> "ShardedTripleStore":
        """A sharded copy of *graph* (re-encoded, so shard assignment is a
        pure function of the source's triple iteration order -- identical
        for every shard count)."""
        out = cls(identifier=identifier or graph.identifier, shards=shards)
        out.add_many_terms(
            (triple.subject, triple.predicate, triple.object)
            for triple in graph.triples()
        )
        return out

    # -- shard topology -------------------------------------------------------

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self._shards

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_index(self, subject_id: int) -> int:
        """The shard owning *subject_id* (subject-hash partition rule)."""
        return subject_id % len(self._shards)

    def shard_of(self, subject_id: int) -> Shard:
        return self._shards[subject_id % len(self._shards)]

    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(shard.size for shard in self._shards)

    # -- mutation (single-copy: the owning shard is the only index) -----------

    def _insert_ids(self, s: int, p: int, o: int) -> None:
        self._shards[s % len(self._shards)].insert(s, p, o)

    def _discard_ids(self, s: int, p: int, o: int) -> None:
        self._shards[s % len(self._shards)].discard(s, p, o)

    def add_many_terms(self, spo_terms: Iterable[Tuple[Term, IRI, Term]]) -> int:
        """Bulk load writing each triple to its one owning shard only.

        Bulk input is overwhelmingly ``(s, p)``-major (``Graph.triples()``
        iterates SPO, generators emit a subject's star contiguously with
        its predicates grouped), so the shard route, the subject's SPO
        bucket and its refcount resolve once per subject *run*, and the
        POS bucket once per predicate run -- not once per triple.  A
        non-contiguous repeat just re-resolves; correctness never depends
        on the input order.
        """
        d = self._dict
        encode = d.encode
        # Inline the intern-hit path: bulk loads re-see almost every term
        # (a dataset has far fewer distinct terms than term occurrences),
        # so the common case is one dict probe, not a method call.
        lookup = d._term_to_id.get
        refcount = d._refcount
        shards = self._shards
        n_shards = len(shards)
        wal = self._wal
        added = 0
        last_s: Optional[int] = None
        last_p: Optional[int] = None
        shard: Optional[Shard] = None
        spo = pos = osp = by_predicate = by_object = None
        # Per-run accumulators flushed on run change: the subject's and
        # predicate's refcounts and the owning shard's size move once per
        # run instead of once per triple.
        subject_run_refs = predicate_run_refs = shard_run_size = 0
        try:
            for s_term, p_term, o_term in spo_terms:
                # An unknown term looks up as None, which is no key of any
                # index and no member of any leaf.
                s = lookup(s_term)
                p = lookup(p_term)
                o = lookup(o_term)
                if s != last_s or s is None:
                    if predicate_run_refs:
                        refcount[last_p] += predicate_run_refs
                        predicate_run_refs = 0
                    if subject_run_refs:
                        refcount[last_s] += subject_run_refs
                        subject_run_refs = 0
                    if shard_run_size:
                        shard.size += shard_run_size
                        shard_run_size = 0
                    last_s = s
                    last_p = by_predicate = None
                    if s is not None:
                        shard = shards[s % n_shards]
                        spo, pos, osp = shard.spo, shard.pos, shard.osp
                        by_predicate = spo.get(s)
                objects = None if by_predicate is None else by_predicate.get(p)
                if objects is not None and o in objects:
                    continue
                # Logged before the dictionary or a shard learns anything: a
                # failed append leaves the store as the last triple left it.
                if wal is not None:
                    wal.log_add(s_term, p_term, o_term)
                if s is None:
                    s = last_s = encode(s_term)
                    shard = shards[s % n_shards]
                    spo, pos, osp = shard.spo, shard.pos, shard.osp
                if p is None:
                    p = encode(p_term)
                if o is None:
                    o = encode(o_term)
                if not shard_run_size:
                    # bulk writes bypass Shard.insert, so the shard's derived
                    # state drops here: at the first triple of the subject run
                    # that is actually new, never for a run of duplicates
                    shard._columns = shard._snapshot = None
                if p != last_p:
                    if predicate_run_refs:
                        refcount[last_p] += predicate_run_refs
                        predicate_run_refs = 0
                    last_p = p
                    by_object = pos.get(p)
                    if by_object is None:
                        by_object = pos[p] = {}
                if by_predicate is None:
                    by_predicate = spo[s] = {}
                leaf_add(by_predicate, p, o)
                leaf_add(by_object, o, s)
                by_subject = osp.get(o)
                if by_subject is None:
                    by_subject = osp[o] = {}
                leaf_add(by_subject, s, p)
                subject_run_refs += 1
                predicate_run_refs += 1
                shard_run_size += 1
                refcount[o] += 1
                added += 1
        finally:
            if predicate_run_refs:
                refcount[last_p] += predicate_run_refs
            if subject_run_refs:
                refcount[last_s] += subject_run_refs
            if shard_run_size:
                shard.size += shard_run_size
            self._size += added
            if added:
                self._generation += 1
        return added

    def clear(self) -> None:
        super().clear()
        self._shards = tuple(Shard() for _ in range(len(self._shards)))

    def copy(self) -> "ShardedTripleStore":
        """A structural clone sharing no mutable state with the original."""
        out = ShardedTripleStore(identifier=self.identifier, shards=len(self._shards))
        out._dict = self._dict.copy()
        out._size = self._size
        out._shards = tuple(shard.copy() for shard in self._shards)
        return out

    # -- routed read views ----------------------------------------------------

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Routed scan primitive: owning shard, or a sorted fan-out merge.

        Subject-bound patterns read the one owning shard directly (its
        iteration order is shard-count-invariant).  Unbound-subject
        patterns span shards, so each shard's matches are sorted into a
        run and the runs merge in ascending ``(s, p, o)`` order -- the
        canonical stream every spanning read of the engine consumes.
        """
        if s is not None:
            yield from self._shards[s % len(self._shards)].triples_ids(s, p, o)
            return
        shards = self._shards
        if len(shards) == 1:
            yield from sorted(shards[0].triples_ids(None, p, o))
            return
        runs = [sorted(shard.triples_ids(None, p, o)) for shard in shards]
        yield from heapq.merge(*runs)

    def scan_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        want: Tuple[bool, bool, bool],
        batch_size: int,
        limit: Optional[int] = None,
    ) -> Iterator[List]:
        """:meth:`Graph.scan_columns` over the routed ``triples_ids``, same
        rows in the same order.  The whole-graph pattern merges the shards'
        cached sorted runs (:meth:`Shard.columns`) instead: a cold shard of
        a lazily loaded store serves its run off the snapshot without
        building its indexes."""
        if s is not None or p is not None or o is not None:
            return super().scan_columns(s, p, o, want, batch_size, limit)
        runs = [zip(*shard.columns()) for shard in self._shards]
        return column_batches(heapq.merge(*runs), want, batch_size, limit)

    def _scan_view(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        """No single index holds a spanning scan's rows -- each shard has its
        own -- so ``scan_columns`` transposes the routed ``triples_ids``
        whatever is wanted, and ``scan_runs`` declines."""
        return None

    def count_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        """Pattern cardinality from shard-local index sizes (no fan-out
        materialization: counting sums per-shard dict/set lengths)."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None:
            shard = self._shards[s % len(self._shards)]
            if p is not None and o is None:
                return len(shard.spo.get(s, {}).get(p, ()))
            if p is None and o is None:
                return sum(len(v) for v in shard.spo.get(s, {}).values())
            return sum(1 for _ in shard.triples_ids(s, p, o))
        if p is not None and o is not None:
            return sum(
                len(shard.pos.get(p, {}).get(o, ())) for shard in self._shards
            )
        if p is not None:
            return sum(
                sum(len(v) for v in shard.pos.get(p, {}).values())
                for shard in self._shards
            )
        return sum(
            sum(len(v) for v in shard.osp.get(o, {}).values())
            for shard in self._shards
        )

    def __contains__(self, triple: Triple) -> bool:
        d = self._dict
        s = d.lookup(triple.subject)
        p = d.lookup(triple.predicate)
        o = d.lookup(triple.object)
        if s is None or p is None or o is None:
            return False
        shard = self._shards[s % len(self._shards)]
        return o in shard.spo.get(s, {}).get(p, ())

    def node_ids(self) -> Set[int]:
        """IDs occurring as subject or object -- the property-path universe.

        Built in ascending-ID insertion order so the resulting set's
        iteration order (which the full-closure path scan observes) is a
        pure function of the ID set, independent of the shard count.
        """
        seen: Set[int] = set()
        for shard in self._shards:
            seen.update(shard.spo)
            seen.update(shard.osp)
        out: Set[int] = set()
        for term_id in sorted(seen):
            out.add(term_id)
        return out

    def is_node_id(self, term_id: int) -> bool:
        if term_id in self._shards[term_id % len(self._shards)].spo:
            return True
        return any(term_id in shard.osp for shard in self._shards)

    # -- whole-index snapshots (tests/debugging; hot paths route instead) ----

    def spo_ids(self) -> IdIndex:
        """Merged SPO view: a fresh dict mapping each subject to its owning
        shard's (live) inner index.  Subjects partition disjointly, so the
        merge is shallow and O(subjects).  Read-only by contract; iteration
        order is shard-major, *not* shard-count-invariant -- canonical
        streams come from :meth:`triples_ids`.
        """
        merged: IdIndex = {}
        for shard in self._shards:
            merged.update(shard.spo)
        return merged

    def pos_ids(self) -> IdIndex:
        """Merged POS snapshot (deep-merged: predicates span shards).
        O(size) to build; exists for inspection, not hot paths."""
        return self._merged_index("pos")

    def osp_ids(self) -> IdIndex:
        """Merged OSP snapshot (deep-merged: objects span shards).
        O(size) to build; exists for inspection, not hot paths."""
        return self._merged_index("osp")

    def _merged_index(self, name: str) -> IdIndex:
        merged: IdIndex = {}
        for shard in self._shards:
            for key, by_mid in getattr(shard, name).items():
                dst = merged.get(key)
                if dst is None:
                    dst = merged[key] = {}
                for mid, leaves in by_mid.items():
                    bucket = dst.get(mid)
                    if bucket is None:
                        # copy: the snapshot must never alias shard-owned
                        # sets it might later extend with another shard's
                        dst[mid] = set(leaves)
                    else:
                        bucket.update(leaves)
        return merged

    # -- routed convenience accessors -----------------------------------------

    def subjects(self, predicate: Optional[IRI] = None, obj: Optional[Term] = None):
        """Distinct subjects of ``(?, predicate, obj)``; the bound-bound
        fast path fans out over shard POS indexes in ascending-ID order
        (shard-count-invariant)."""
        if predicate is not None and obj is not None:
            p = self._dict.lookup(predicate)
            o = self._dict.lookup(obj)
            if p is None or o is None:
                return
            decode = self._dict.decode
            subject_ids: list = []
            for shard in self._shards:
                subject_ids.extend(shard.pos.get(p, {}).get(o, ()))
            for s in sorted(subject_ids):
                yield decode(s)
            return
        yield from super().subjects(predicate, obj)

    def objects(self, subject: Optional[Term] = None, predicate: Optional[IRI] = None):
        """Distinct objects of ``(subject, predicate, ?)``; the bound-bound
        fast path is a single owning-shard lookup."""
        if subject is not None and predicate is not None:
            s = self._dict.lookup(subject)
            p = self._dict.lookup(predicate)
            if s is None or p is None:
                return
            decode = self._dict.decode
            shard = self._shards[s % len(self._shards)]
            for o in shard.spo.get(s, {}).get(p, ()):
                yield decode(o)
            return
        yield from super().objects(subject, predicate)

    def classes(self) -> Set[Term]:
        p = self._dict.lookup(RDF.type)
        if p is None:
            return set()
        decode = self._dict.decode
        return {
            decode(o) for shard in self._shards for o in shard.pos.get(p, {})
        }

    def instances_of(self, cls: Term) -> Set[Term]:
        p = self._dict.lookup(RDF.type)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return set()
        decode = self._dict.decode
        return {
            decode(s)
            for shard in self._shards
            for s in shard.pos.get(p, {}).get(o, ())
        }

    def class_count(self, cls: Term) -> int:
        p = self._dict.lookup(RDF.type)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return 0
        return sum(len(shard.pos.get(p, {}).get(o, ())) for shard in self._shards)

    def subclasses(self, cls: Term) -> Set[Term]:
        p = self._dict.lookup(RDFS.subClassOf)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return set()
        decode = self._dict.decode
        return {
            decode(s)
            for shard in self._shards
            for s in shard.pos.get(p, {}).get(o, ())
        }

    def __repr__(self) -> str:
        name = self.identifier or "anonymous"
        return (
            f"<ShardedTripleStore {name!r} with {self._size} triples "
            f"over {len(self._shards)} shards>"
        )
