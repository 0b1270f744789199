"""An indexed, in-memory, dictionary-encoded RDF triple store.

This is the storage substrate under every simulated SPARQL endpoint.  Every
term is interned to an integer ID through a :class:`~repro.rdf.dictionary.TermDict`
and the three permutation indexes (SPO, POS, OSP) are dict -> dict -> leaf
structures over those integers (a leaf is a 1-tuple or a set, written only
through :mod:`repro.rdf._leaf`), so that any triple pattern with at least one
bound position is answered without a full scan and every hash operation on
the hot path is an integer hash -- the same design as classical hexastores
reduced to the three orderings a single-variable-join workload needs, plus
the dictionary encoding production stores layer underneath.

The indexes live in shards (:class:`Shard`), the one storage unit: a
shard holds SPO/POS/OSP over the IDs of the triples whose subjects it
owns, each subject's triple count, and the derived state durability keeps
(its sorted run and the snapshot file that holds it).  A plain ``Graph``
is exactly one shard; :class:`~repro.rdf.sharding.ShardedTripleStore` is
N of them and changes only the order of a read that spans shards.

Two API surfaces coexist:

* the **term-level** API (``add``, ``remove``, ``triples``, ``subjects``,
  ...) speaks :class:`~repro.rdf.terms.Triple` objects and is what parsers,
  generators and tests use;
* the **ID-level** API (``lookup_id``, ``decode_id``, ``triples_ids``,
  ``scan_rows``, ``count_ids``, the ``*_ids`` index accessors) is
  consumed by the SPARQL hash-join pipeline, its columnar executor and the
  property-path closures, which decode back to terms only at the result
  boundary.

The store is deliberately *not* thread-safe: the simulation layers are
single-threaded and the paper's server pipeline is batch-oriented.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ._leaf import IdIndex, copy_index, discard_ids, insert_ids, leaf_add
from .dictionary import TermDict
from .namespaces import RDF, RDFS
from .terms import BNode, IRI, Literal, Term, Triple, _unchecked_triple

__all__ = ["Graph", "Shard", "sorted_columns"]

_SubjectLike = Union[IRI, BNode]
TriplePattern = Tuple[Optional[Term], Optional[IRI], Optional[Term]]


def cut_rows(
    triples: Iterator[Tuple[int, int, int]], want: Tuple[bool, bool, bool]
) -> Iterator[Tuple]:
    """*triples* cut to the positions whose ``want`` flag is true, in
    (s, p, o) order (``()`` per triple when none is)."""
    picks = [position for position, wanted in enumerate(want) if wanted]
    if len(picks) == 3:
        return triples
    if picks == [0, 2]:
        return map(itemgetter(0, 2), triples)
    # a slice keeps a single position a 1-tuple
    return map(itemgetter(slice(picks[0], picks[-1] + 1) if picks else slice(0)), triples)


def sorted_columns(rows: Iterable[Tuple[int, int, int]]) -> Tuple:
    """ID *rows* as an (s, p, o)-sorted run of three ``array('q')`` columns.

    The one layout shared by the whole-graph scan of a sharded store and
    the durability snapshots: a shard's cached run is written to disk as
    it is.
    """
    rows = sorted(rows)
    if rows:
        s_col, p_col, o_col = zip(*rows)
    else:
        s_col = p_col = o_col = ()
    return array("q", s_col), array("q", p_col), array("q", o_col)


class Shard:
    """The storage unit: SPO/POS/OSP indexes over shared term IDs, and each
    subject's triple count, for the triples whose subjects it owns."""

    __slots__ = ("spo", "pos", "osp", "sizes", "size", "_columns", "_snapshot")

    #: overridden by :class:`repro.rdf.durability.LazyShard`, whose SPO and
    #: subject sizes build from a snapshot file on first touch (and POS /
    #: OSP on their first read); reading it forces no shard resident
    hydrated = True

    def __init__(self):
        self.spo: IdIndex = {}
        self.pos: IdIndex = {}
        self.osp: IdIndex = {}
        #: subject ID -> its triple count, written in the step that writes
        #: SPO (a key leaves with the subject's last triple), so
        #: ``count_ids(s)`` and ``scan_runs`` read a count, not leaf sums
        self.sizes: Dict[int, int] = {}
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

        What a snapshot stores and a sharded whole-graph scan merges:
        identical content to ``sorted(self.triples_ids())``, held as three
        parallel ``array('q')`` columns.  Cached until the shard mutates;
        treat the arrays as immutable (every invalidation replaces, never
        edits).
        """
        cols = self._columns
        if cols is None:
            cols = self._columns = sorted_columns(self.triples_ids())
        return cols

    def insert(self, s: int, p: int, o: int) -> None:
        """Insert an ID triple the owning store already deduplicated."""
        insert_ids(self.spo, self.pos, self.osp, s, p, o)
        sizes = self.sizes
        sizes[s] = sizes.get(s, 0) + 1
        self.size += 1
        self._columns = self._snapshot = None

    def discard(self, s: int, p: int, o: int) -> None:
        """Remove an ID triple the owning store verified was present."""
        self._columns = self._snapshot = None
        discard_ids(self.spo, self.pos, self.osp, s, p, o)
        if s in self.spo:
            self.sizes[s] -= 1
        else:
            del self.sizes[s]
        self.size -= 1

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """This shard's ID triples matching the (possibly wildcard) pattern,
        in index order.

        ``None`` in a position is a wildcard.  The most selective index for
        the bound positions is used: SPO when the subject is bound (or
        nothing is), POS when the predicate is, OSP for the object alone.
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
        out.sizes = dict(self.sizes)
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


class Graph:
    """A set of triples with dictionary-encoded SPO/POS/OSP indexes, kept in
    one :class:`Shard`.

    >>> g = Graph()
    >>> from repro.rdf.terms import IRI, Literal
    >>> s, p = IRI("http://ex.org/s"), IRI("http://ex.org/p")
    >>> _ = g.add(Triple(s, p, Literal("x")))
    >>> len(g)
    1

    ``Graph(shards=N)`` is the sharding facade: it constructs a
    :class:`~repro.rdf.sharding.ShardedTripleStore` (a Graph subclass)
    whose triples are partitioned into N subject-hash shards.  Every
    method here that routes by subject or visits every shard serves both;
    the subclass overrides only the order of a read spanning its shards.
    Every call site that takes a ``Graph`` accepts either.
    """

    #: overridden by :class:`~repro.rdf.sharding.ShardedTripleStore`;
    #: the SPARQL layer dispatches on this without importing it
    is_sharded = False

    def __new__(cls, identifier: Optional[str] = None, shards: Optional[int] = None):
        if cls is Graph and shards is not None:
            from .sharding import ShardedTripleStore

            # type(obj).__init__ runs next, so the subclass sees `shards`.
            return super().__new__(ShardedTripleStore)
        return super().__new__(cls)

    def __init__(self, identifier: Optional[str] = None, shards: Optional[int] = None):
        self.identifier = identifier
        self._dict = TermDict()
        #: the storage; a subject's triples all live in ``shard_of(s)``
        self._shards: Tuple[Shard, ...] = (Shard(),)
        self._size = 0
        self._generation = 0
        self._derived: Dict[str, object] = {}
        #: attached durability journal (:class:`repro.rdf.durability.Journal`)
        #: or None; when set, content-changing mutations write-ahead-log a
        #: record before applying.  Never carried by ``copy()``.
        self._wal = None

    def derived_cache(self, name: str, factory):
        """Home for caches *derived* from this graph's content.

        Consumers (e.g. the SPARQL compiled-plan cache) call this with a
        stable *name* and a zero-argument *factory*; the first call creates
        the cache, every later call — from any consumer naming the same
        key — returns the same object, so transient consumers (short-lived
        query engines, exploration sessions) share one cache per graph
        instead of each warming their own.

        The graph never invalidates these caches itself: consumers embed
        ``generation`` in their entries and validate on lookup (see the
        property below), which keeps this layer free of any knowledge
        about what is being cached.  ``copy()`` does not carry caches over
        (the clone is independently mutable) and ``clear()`` relies on the
        generation bump.
        """
        cache = self._derived.get(name)
        if cache is None:
            cache = self._derived[name] = factory()
        return cache

    @property
    def generation(self) -> int:
        """Mutation counter: bumps only when the triple set actually changes.

        Cache keys derived from this graph's content (compiled query plans,
        cardinality estimates) embed the generation and compare it on reuse;
        a bump invalidates every derived artifact at once without the graph
        having to know who is caching what.  No-op writes -- a duplicate
        ``add``, removing an absent triple, an all-duplicate ``add_many`` --
        leave the content untouched and therefore do *not* bump, so
        duplicate-heavy loads cannot evict still-valid plans or
        ``derived_cache`` entries.
        """
        return self._generation

    # -- shard topology --------------------------------------------------------

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The storage units, one for a plain graph."""
        return self._shards

    def shard_of(self, subject_id: int) -> Shard:
        """The shard owning *subject_id* (subject-hash partition rule)."""
        return self._shards[subject_id % len(self._shards)]

    # -- dictionary access ---------------------------------------------------

    @property
    def dictionary(self) -> TermDict:
        """The intern table.  Read-only from the caller's perspective."""
        return self._dict

    def lookup_id(self, term: Term) -> Optional[int]:
        """The ID of *term*, or None when it occurs in no triple."""
        return self._dict.lookup(term)

    def decode_id(self, term_id: int) -> Term:
        """The term behind *term_id* (KeyError for stale IDs)."""
        return self._dict.decode(term_id)

    def term_count(self) -> int:
        """How many distinct terms the dictionary currently holds."""
        return len(self._dict)

    # -- ID-level index views (do not mutate) --------------------------------
    # A plain graph's views, like its spanning scans below, read its one
    # shard in write order; ShardedTripleStore overrides them with merges.

    def spo_ids(self) -> IdIndex:
        return self._shards[0].spo

    def pos_ids(self) -> IdIndex:
        return self._shards[0].pos

    def osp_ids(self) -> IdIndex:
        return self._shards[0].osp

    def is_node_id(self, term_id: int) -> bool:
        """Does *term_id* occur as a subject or object (path universe)?"""
        if term_id in self.shard_of(term_id).spo:
            return True
        return any(term_id in shard.osp for shard in self._shards)

    def is_node_term(self, term: Term) -> bool:
        """Does *term* occur as a subject or object (path universe)?"""
        term_id = self._dict.lookup(term)
        return term_id is not None and self.is_node_id(term_id)

    # -- mutation ------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert *triple*; return True if it was not already present."""
        if triple in self:
            return False
        # Log before the dictionary or an index learns anything: a failed
        # append leaves the store exactly as it was.
        if self._wal is not None:
            self._wal.log_add(triple.subject, triple.predicate, triple.object)
        d = self._dict
        s = d.encode(triple.subject)
        p = d.encode(triple.predicate)
        o = d.encode(triple.object)
        self._generation += 1
        self.shard_of(s).insert(s, p, o)
        d.incref(s)
        d.incref(p)
        d.incref(o)
        self._size += 1
        return True

    def add_triple(self, subject: _SubjectLike, predicate: IRI, obj: Term) -> bool:
        """Convenience: build and insert a :class:`Triple`."""
        return self.add(Triple(subject, predicate, obj))

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Bulk-load *triples*; return how many were new."""
        return self.add_many_terms(
            (triple.subject, triple.predicate, triple.object) for triple in triples
        )

    def add_many_terms(self, spo_terms: Iterable[Tuple[Term, IRI, Term]]) -> int:
        """Bulk-load ``(subject, predicate, object)`` term tuples; return
        how many were new.

        The fast path for generators, parsers and graph copies: one tight
        loop with the dictionary and the indexes bound to locals, no
        per-triple method dispatch or :class:`Triple` wrappers.  Positions
        are not type-checked; callers own the triple validity (generators
        and parsers construct well-typed terms).

        Bulk input is overwhelmingly ``(s, p)``-major (``Graph.triples()``
        iterates SPO, generators emit a subject's star contiguously with
        its predicates grouped), so the owning shard, the subject's SPO
        bucket, its triple count and its refcount resolve once per subject
        *run* (POS and OSP at the run's first new triple, so a run of
        duplicates reads neither), and the POS bucket once per predicate
        run -- not once per triple.  A non-contiguous repeat just
        re-resolves; correctness never depends on the input order.
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
        spo = pos = osp = sizes = by_predicate = by_object = None
        # Per-run accumulators flushed on run change: the subject's
        # refcount, triple count and shard size and the predicate's
        # refcount move once per run instead of once per triple.
        subject_run = predicate_run = 0
        try:
            for s_term, p_term, o_term in spo_terms:
                # An unknown term looks up as None, which is no key of any
                # index and no member of any leaf.
                s = lookup(s_term)
                p = lookup(p_term)
                o = lookup(o_term)
                if s != last_s or s is None:
                    if predicate_run:
                        refcount[last_p] += predicate_run
                        predicate_run = 0
                    if subject_run:
                        refcount[last_s] += subject_run
                        sizes[last_s] = sizes.get(last_s, 0) + subject_run
                        shard.size += subject_run
                        subject_run = 0
                    last_s = s
                    last_p = by_predicate = None
                    if s is not None:
                        shard = shards[s % n_shards]
                        spo, sizes = shard.spo, shard.sizes
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
                    spo, sizes = shard.spo, shard.sizes
                if p is None:
                    p = encode(p_term)
                if o is None:
                    o = encode(o_term)
                if not subject_run:
                    # bulk writes bypass Shard.insert, so the shard's derived
                    # state drops here, and POS and OSP are resolved here (a
                    # loaded shard builds them on that read): at the first
                    # triple of the subject run that is actually new, never
                    # for a run of duplicates
                    shard._columns = shard._snapshot = None
                    pos, osp = shard.pos, shard.osp
                if p != last_p:
                    if predicate_run:
                        refcount[last_p] += predicate_run
                        predicate_run = 0
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
                subject_run += 1
                predicate_run += 1
                refcount[o] += 1
                added += 1
        finally:
            if predicate_run:
                refcount[last_p] += predicate_run
            if subject_run:
                refcount[last_s] += subject_run
                sizes[last_s] = sizes.get(last_s, 0) + subject_run
                shard.size += subject_run
            self._size += added
            if added:
                self._generation += 1
        return added

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return how many were new."""
        return self.add_many(triples)

    def remove(self, triple: Triple) -> bool:
        """Remove *triple*; return True if it was present."""
        if triple not in self:
            return False
        if self._wal is not None:
            self._wal.log_remove(triple.subject, triple.predicate, triple.object)
        d = self._dict
        s = d.lookup(triple.subject)
        p = d.lookup(triple.predicate)
        o = d.lookup(triple.object)
        self._generation += 1
        self.shard_of(s).discard(s, p, o)
        d.decref(s)
        d.decref(p)
        d.decref(o)
        self._size -= 1
        return True

    def remove_pattern(self, subject=None, predicate=None, obj=None) -> int:
        """Remove every triple matching the pattern; return removal count."""
        victims = list(self.triples(subject, predicate, obj))
        for triple in victims:
            self.remove(triple)
        return len(victims)

    def clear(self) -> None:
        if self._size or len(self._dict):
            if self._wal is not None:
                self._wal.log_clear()
            self._generation += 1
        self._dict = TermDict()
        self._shards = tuple(Shard() for _ in self._shards)
        self._size = 0

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        d = self._dict
        s = d.lookup(triple.subject)
        p = d.lookup(triple.predicate)
        o = d.lookup(triple.object)
        if s is None or p is None or o is None:
            return False
        return o in self.shard_of(s).spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Iterate ID triples matching the (possibly wildcard) ID pattern.

        ``None`` in a position is a wildcard.  A subject-bound pattern
        reads its owning shard, any other the one shard in write order
        (:meth:`Shard.triples_ids`).  This is the scan primitive under the
        SPARQL hash-join pipeline.
        """
        shard = self._shards[0] if s is None else self.shard_of(s)
        return shard.triples_ids(s, p, o)

    def scan_rows(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        want: Tuple[bool, bool, bool],
    ) -> Iterator[Tuple]:
        """The rows of ``triples_ids(s, p, o)`` cut to the positions whose
        ``want`` flag is true (:func:`cut_rows`): same rows, same order.

        The index is read only as deep as the last wanted position: a
        level below it contributes its *sizes* (a subject's triple count
        is kept beside SPO, so ``?s ?p ?o`` wanting only ``?s`` reads no
        object leaf), a level above it is repeated over the runs it heads
        (the leading unbound level's are :meth:`scan_runs`).  With all
        three wanted the rows are ``triples_ids`` -- per-run repeats lose
        to that on short runs.  The rows are pulled lazily; a consumer
        bounds the read with ``islice``.  This is the scan primitive of
        the SPARQL columnar sinks.
        """
        view = None if all(want) else self._scan_view(s, p, o)
        if view is None:
            return cut_rows(self.triples_ids(s, p, o), want)
        order, keys, inners = view
        runs = self.scan_runs(s, p, o)

        def leaves():
            return chain.from_iterable(map(dict.values, inners))

        # One independent C-level iterator over the index per wanted level,
        # zipped in lockstep.  The leading unbound level is its runs
        # repeated; a bound first level is its one key on every row.
        columns: List[Optional[Iterator]] = [None, None, None]
        if runs is not None and want[runs[0]]:
            columns[runs[0]] = chain.from_iterable(map(repeat, runs[1], runs[2]))
        if want[order[0]] and columns[order[0]] is None:
            columns[order[0]] = repeat(keys[0], self.count_ids(s, p, o))
        if want[order[1]] and columns[order[1]] is None:
            columns[order[1]] = chain.from_iterable(
                map(repeat, chain.from_iterable(inners), map(len, leaves()))
            )
        if want[order[2]]:
            columns[order[2]] = chain.from_iterable(leaves())
        wanted = [column for column in columns if column is not None]
        if not wanted:
            return repeat((), self.count_ids(s, p, o))
        return zip(*wanted)

    def scan_runs(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        """``(position, keys, sizes)``: ``triples_ids(s, p, o)`` as runs of
        the first unbound level of the index ``scan_rows`` walks -- its
        triple position, its keys in scan order and the matching triples
        each heads, both lazy (a subject's size is looked up in the count
        its shard keeps, any other key's is a leaf length).  No key heads
        zero triples (removes drop emptied inner dicts), so the keys are
        that position's values in first-seen order.  None without such a
        level (``s ? o``, ``s p o``, a bound second level) or a single
        index order (a spanning scan of a sharded store).
        """
        view = self._scan_view(s, p, o)
        if view is None or (s, p, o).count(None) == 1:  # two bound levels
            return None
        order, keys, inners = view
        if s is None and p is None and o is None:
            return order[0], keys, map(self._shards[0].sizes.__getitem__, keys)
        (inner,) = inners
        return order[1], inner, map(len, inner.values())

    def _scan_view(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        """``(order, keys, inners)``: the index ``triples_ids`` walks for
        this pattern, cut down to its matches -- *inners* the second-level
        dicts of the first-level *keys*, *order* the triple position of
        each index level.  None when the bound positions are no prefix of
        that index (``s ? o`` and ``s p o``: one subject's rows at most).
        """
        shard = self._shards[0]
        if s is not None or (p is None and o is None):
            order, index, first, second, third = (0, 1, 2), shard.spo, s, p, o
        elif p is not None:
            order, index, first, second, third = (1, 2, 0), shard.pos, p, o, None
        else:
            order, index, first, second, third = (2, 0, 1), shard.osp, o, None, None
        if third is not None:
            return None
        if first is None:
            return order, index, index.values()
        inner = index.get(first) or {}
        if second is not None:
            leaf = inner.get(second)
            inner = {second: leaf} if leaf else {}
        return order, (first,), (inner,)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the (possibly wildcard) pattern.

        ``None`` in a position is a wildcard.  Terms not interned in the
        dictionary cannot match anything, so those patterns return empty
        without touching an index.
        """
        lookup = self._dict.lookup
        s = p = o = None
        if subject is not None:
            s = lookup(subject)
            if s is None:
                return
        if predicate is not None:
            p = lookup(predicate)
            if p is None:
                return
        if obj is not None:
            o = lookup(obj)
            if o is None:
                return
        decode = self._dict.decode
        for s_id, p_id, o_id in self.triples_ids(s, p, o):
            yield _unchecked_triple(decode(s_id), decode(p_id), decode(o_id))

    def count_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        """Count ID triples matching the pattern without materializing them:
        a subject-bound pattern asks its owning shard, any other sums the
        shards' index sizes."""
        if s is not None:
            shard = self.shard_of(s)
            if p is None and o is None:
                return shard.sizes.get(s, 0)
            if o is None:
                return len(shard.spo.get(s, {}).get(p, ()))
            return sum(1 for _ in shard.triples_ids(s, p, o))
        if p is None and o is None:
            return self._size
        if o is None:
            return sum(
                sum(map(len, shard.pos.get(p, {}).values())) for shard in self._shards
            )
        if p is not None:
            return sum(len(shard.pos.get(p, {}).get(o, ())) for shard in self._shards)
        return sum(sum(map(len, shard.osp.get(o, {}).values())) for shard in self._shards)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Count triples matching the pattern without materializing them."""
        lookup = self._dict.lookup
        s = p = o = None
        if subject is not None:
            s = lookup(subject)
            if s is None:
                return 0
        if predicate is not None:
            p = lookup(predicate)
            if p is None:
                return 0
        if obj is not None:
            o = lookup(obj)
            if o is None:
                return 0
        return self.count_ids(s, p, o)

    # -- convenience accessors -------------------------------------------

    def subjects(self, predicate: Optional[IRI] = None, obj: Optional[Term] = None):
        """Distinct subjects of triples matching ``(?, predicate, obj)``."""
        decode = self._dict.decode
        if predicate is not None and obj is not None:
            p = self._dict.lookup(predicate)
            o = self._dict.lookup(obj)
            if p is None or o is None:
                return
            for s in self._shards[0].pos.get(p, {}).get(o, ()):
                yield decode(s)
            return
        seen = set()
        for triple in self.triples(None, predicate, obj):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self, subject: Optional[Term] = None, obj: Optional[Term] = None):
        """Distinct predicates of triples matching ``(subject, ?, obj)``."""
        seen = set()
        for triple in self.triples(subject, None, obj):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def objects(self, subject: Optional[Term] = None, predicate: Optional[IRI] = None):
        """Distinct objects of triples matching ``(subject, predicate, ?)``."""
        decode = self._dict.decode
        if subject is not None and predicate is not None:
            s = self._dict.lookup(subject)
            p = self._dict.lookup(predicate)
            if s is None or p is None:
                return
            for o in self.shard_of(s).spo.get(s, {}).get(p, ()):
                yield decode(o)
            return
        seen = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(
        self, subject: Optional[Term] = None, predicate: Optional[IRI] = None
    ) -> Optional[Term]:
        """The first object of ``(subject, predicate, ?)``, or None."""
        for obj in self.objects(subject, predicate):
            return obj
        return None

    # -- schema-level helpers used by index extraction ---------------------

    def _leaves(self, predicate: IRI, obj: Term) -> List:
        """Every shard's POS leaf of ``(?, predicate, obj)``: its subject IDs."""
        p = self._dict.lookup(predicate)
        o = self._dict.lookup(obj)
        if p is None or o is None:
            return []
        return [shard.pos.get(p, {}).get(o, ()) for shard in self._shards]

    def classes(self) -> Set[Term]:
        """Distinct instantiated classes (objects of ``rdf:type``)."""
        p = self._dict.lookup(RDF.type)
        if p is None:
            return set()
        decode = self._dict.decode
        return {decode(o) for shard in self._shards for o in shard.pos.get(p, {})}

    def instances_of(self, cls: Term) -> Set[Term]:
        """Subjects typed as *cls*."""
        decode = self._dict.decode
        return {decode(s) for leaf in self._leaves(RDF.type, cls) for s in leaf}

    def class_count(self, cls: Term) -> int:
        return sum(map(len, self._leaves(RDF.type, cls)))

    def subclasses(self, cls: Term) -> Set[Term]:
        """Direct rdfs:subClassOf children of *cls*."""
        decode = self._dict.decode
        return {decode(s) for leaf in self._leaves(RDFS.subClassOf, cls) for s in leaf}

    def label(self, subject: Term) -> Optional[str]:
        """The rdfs:label of *subject* if present, as a plain string."""
        value = self.value(subject, RDFS.label)
        if isinstance(value, Literal):
            return value.lexical
        return None

    # -- durability facade -----------------------------------------------

    def save(self, root: str, injector=None) -> dict:
        """Commit a durable snapshot of this graph under *root*.

        A columnar snapshot file per shard + term-dictionary segments +
        a fresh write-ahead-log segment, committed by an atomic manifest
        swap; what *root*'s last commit of this graph already holds
        unchanged is not written again.  Returns the manifest.  See
        :mod:`repro.rdf.durability`.
        """
        from .durability import save_graph

        return save_graph(self, root, injector=injector)

    @classmethod
    def load(
        cls,
        root: str,
        lazy: Optional[bool] = None,
        verify: Optional[bool] = None,
    ) -> "Graph":
        """Recover a graph from the durable store at *root*.

        Returns a :class:`Graph` or
        :class:`~repro.rdf.sharding.ShardedTripleStore` per the manifest.
        ``lazy`` defers per-shard index builds to first touch (default for
        sharded stores); ``verify`` checks each shard's content digest
        against the manifest -- before WAL replay, or for a lazy shard
        before it serves a row (default for eager loads).
        """
        from .durability import load_graph

        return load_graph(root, lazy=lazy, verify=verify)

    # -- set-algebra -----------------------------------------------------

    def __iadd__(self, other: "Graph") -> "Graph":
        self.update(other)
        return self

    def copy(self) -> "Graph":
        """A structural clone sharing no mutable state with the original."""
        out = type(self)(identifier=self.identifier)
        out._dict = self._dict.copy()
        out._shards = tuple(shard.copy() for shard in self._shards)
        out._size = self._size
        return out

    def __repr__(self) -> str:
        name = self.identifier or "anonymous"
        over = f" over {len(self._shards)} shards" if self.is_sharded else ""
        return f"<{type(self).__name__} {name!r} with {self._size} triples{over}>"
