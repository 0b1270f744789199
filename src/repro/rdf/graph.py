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

Two API surfaces coexist:

* the **term-level** API (``add``, ``remove``, ``triples``, ``subjects``,
  ...) speaks :class:`~repro.rdf.terms.Triple` objects and is what parsers,
  generators and tests use;
* the **ID-level** API (``lookup_id``, ``decode_id``, ``triples_ids``,
  ``scan_columns``, ``count_ids``, the ``*_ids`` index accessors) is
  consumed by the SPARQL hash-join pipeline, its columnar executor and the
  property-path closures, which decode back to terms only at the result
  boundary.

The store is deliberately *not* thread-safe: the simulation layers are
single-threaded and the paper's server pipeline is batch-oriented.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ._leaf import IdIndex, copy_index, discard_ids, insert_ids, leaf_add
from .dictionary import TermDict
from .namespaces import RDF, RDFS
from .terms import BNode, IRI, Literal, Term, Triple, _unchecked_triple

__all__ = ["Graph"]

_SubjectLike = Union[IRI, BNode]
TriplePattern = Tuple[Optional[Term], Optional[IRI], Optional[Term]]


class Graph:
    """A set of triples with dictionary-encoded SPO/POS/OSP indexes.

    >>> g = Graph()
    >>> from repro.rdf.terms import IRI, Literal
    >>> s, p = IRI("http://ex.org/s"), IRI("http://ex.org/p")
    >>> _ = g.add(Triple(s, p, Literal("x")))
    >>> len(g)
    1

    ``Graph(shards=N)`` is the sharding facade: it constructs a
    :class:`~repro.rdf.sharding.ShardedTripleStore` (a Graph subclass)
    whose triples are additionally partitioned into N subject-hash
    shards for the partition-parallel SPARQL scan path.  Every call
    site that takes a ``Graph`` accepts either.
    """

    #: overridden by :class:`~repro.rdf.sharding.ShardedTripleStore`;
    #: the SPARQL layer dispatches on this without importing it
    is_sharded = False

    def __new__(cls, identifier: Optional[str] = None, shards: Optional[int] = None, **kwargs):
        if cls is Graph and shards is not None:
            from .sharding import ShardedTripleStore

            # type(obj).__init__ runs next, so the subclass sees `shards`.
            return super().__new__(ShardedTripleStore)
        return super().__new__(cls)

    def __init__(self, identifier: Optional[str] = None, shards: Optional[int] = None):
        self.identifier = identifier
        self._dict = TermDict()
        self._spo: IdIndex = {}
        self._pos: IdIndex = {}
        self._osp: IdIndex = {}
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

    def spo_ids(self) -> IdIndex:
        return self._spo

    def pos_ids(self) -> IdIndex:
        return self._pos

    def osp_ids(self) -> IdIndex:
        return self._osp

    def node_ids(self) -> Set[int]:
        """IDs occurring as subject or object -- the property-path universe."""
        return set(self._spo) | set(self._osp)

    def is_node_id(self, term_id: int) -> bool:
        """Does *term_id* occur as a subject or object (path universe)?"""
        return term_id in self._spo or term_id in self._osp

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
        self._insert_ids(s, p, o)
        d.incref(s)
        d.incref(p)
        d.incref(o)
        self._size += 1
        return True

    def _insert_ids(self, s: int, p: int, o: int) -> None:
        """Index an ID triple known to be absent (sharded stores route)."""
        insert_ids(self._spo, self._pos, self._osp, s, p, o)

    def _discard_ids(self, s: int, p: int, o: int) -> None:
        """Unindex an ID triple known to be present (sharded stores route)."""
        discard_ids(self._spo, self._pos, self._osp, s, p, o)

    def add_triple(self, subject: _SubjectLike, predicate: IRI, obj: Term) -> bool:
        """Convenience: build and insert a :class:`Triple`."""
        return self.add(Triple(subject, predicate, obj))

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Bulk-load *triples*; return how many were new."""
        return self.add_many_terms(
            (triple.subject, triple.predicate, triple.object) for triple in triples
        )

    def add_many_terms(self, spo_terms: Iterable[Tuple[Term, IRI, Term]]) -> int:
        """Bulk-load ``(subject, predicate, object)`` term tuples.

        The fast path for generators and graph copies: one tight loop with
        the dictionary, indexes and refcounts bound to locals, no per-triple
        method dispatch or :class:`Triple` wrappers.  Positions are not
        type-checked; callers own the triple validity (generators and
        parsers construct well-typed terms).
        """
        d = self._dict
        encode = d.encode
        # Inline the intern-hit path: bulk loads re-see almost every term,
        # so the common case is one dict probe, not a method call.
        lookup = d._term_to_id.get
        refcount = d._refcount
        spo, pos, osp = self._spo, self._pos, self._osp
        wal = self._wal
        added = 0
        try:
            for s_term, p_term, o_term in spo_terms:
                # An unknown term looks up as None, which is no key of any
                # index and no member of any leaf.
                s = lookup(s_term)
                p = lookup(p_term)
                o = lookup(o_term)
                by_predicate = spo.get(s)
                objects = None if by_predicate is None else by_predicate.get(p)
                if objects is not None and o in objects:
                    continue
                # Logged before the dictionary or an index learns anything:
                # a failed append leaves the store as the last triple left it.
                if wal is not None:
                    wal.log_add(s_term, p_term, o_term)
                if s is None:
                    s = encode(s_term)
                if p is None:
                    p = encode(p_term)
                if o is None:
                    o = encode(o_term)
                if by_predicate is None:
                    by_predicate = spo[s] = {}
                leaf_add(by_predicate, p, o)
                by_object = pos.get(p)
                if by_object is None:
                    by_object = pos[p] = {}
                leaf_add(by_object, o, s)
                by_subject = osp.get(o)
                if by_subject is None:
                    by_subject = osp[o] = {}
                leaf_add(by_subject, s, p)
                refcount[s] += 1
                refcount[p] += 1
                refcount[o] += 1
                added += 1
        finally:
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
        self._discard_ids(s, p, o)
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
        self._spo = {}
        self._pos = {}
        self._osp = {}
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
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Iterate ID triples matching the (possibly wildcard) ID pattern.

        ``None`` in a position is a wildcard.  The most selective index for
        the bound positions is used.  This is the scan primitive under the
        SPARQL hash-join pipeline.
        """
        if s is not None:
            by_predicate = self._spo.get(s)
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
            by_object = self._pos.get(p)
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
            by_subject = self._osp.get(o)
            if not by_subject:
                return
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield (subj, pred, o)
            return

        for subj, by_predicate in self._spo.items():
            for pred, objects in by_predicate.items():
                for obj in objects:
                    yield (subj, pred, obj)

    def scan_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        want: Tuple[bool, bool, bool],
        batch_size: int,
        limit: Optional[int] = None,
    ) -> Iterator[List]:
        """The rows of ``triples_ids(s, p, o)`` as ``[S, P, O]`` column batches.

        Same rows in the same order (the first *limit* of them when one is
        given), cut into batches of exactly *batch_size* rows, the last one
        shorter.  A position whose ``want`` flag is false comes back as
        ``[None] * n``, and the index is read only as deep as the last
        wanted position: a level below it contributes its *sizes* (a
        subject's triple count is the sum of its object leaves' lengths, so
        ``?s ?p ?o`` wanting only ``?s`` never iterates an object leaf), a
        level above it is repeated over the runs it heads.  With all three
        wanted the rows are transposed off ``triples_ids`` -- per-run
        repeats lose to that on short runs.  This is the scan primitive of
        the SPARQL columnar executor.
        """
        view = None if all(want) else self._scan_view(s, p, o)
        if view is None:
            triples = self.triples_ids(s, p, o)
            if limit is not None:
                triples = islice(triples, limit)
            for block in iter(lambda: list(islice(triples, batch_size)), []):
                yield [
                    column if wanted else [None] * len(block)
                    for column, wanted in zip(zip(*block), want)
                ]
            return
        order, keys, inners = view

        def leaves():
            return chain.from_iterable(map(dict.values, inners))

        # One independent C-level iterator over the index per wanted level;
        # they advance in lockstep, a batch at a time.
        columns: List[Optional[Iterator]] = [None, None, None]
        if want[order[0]]:
            sizes = (sum(map(len, inner.values())) for inner in inners)
            columns[order[0]] = chain.from_iterable(map(repeat, keys, sizes))
        if want[order[1]]:
            columns[order[1]] = chain.from_iterable(
                map(repeat, chain.from_iterable(inners), map(len, leaves()))
            )
        if want[order[2]]:
            columns[order[2]] = chain.from_iterable(leaves())
        total = self.count_ids(s, p, o)
        if limit is not None:
            total = min(total, limit)
        for start in range(0, total, batch_size):
            n = min(batch_size, total - start)
            yield [
                [None] * n if column is None else list(islice(column, n))
                for column in columns
            ]

    def _scan_view(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        """``(order, keys, inners)``: the index ``triples_ids`` walks for
        this pattern, cut down to its matches -- *inners* the second-level
        dicts of the first-level *keys*, *order* the triple position of
        each index level.  None when the bound positions are no prefix of
        that index (``s ? o`` and ``s p o``: one subject's rows at most).
        """
        if s is not None or (p is None and o is None):
            order, index, first, second, third = (0, 1, 2), self._spo, s, p, o
        elif p is not None:
            order, index, first, second, third = (1, 2, 0), self._pos, p, o, None
        else:
            order, index, first, second, third = (2, 0, 1), self._osp, o, None, None
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
        """Count ID triples matching the pattern without materializing them."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is not None and p is None and o is None:
            return sum(len(v) for v in self._spo.get(s, {}).values())
        if p is not None and s is None and o is None:
            return sum(len(v) for v in self._pos.get(p, {}).values())
        if p is not None and o is not None and s is None:
            return len(self._pos.get(p, {}).get(o, ()))
        if o is not None and s is None and p is None:
            return sum(len(v) for v in self._osp.get(o, {}).values())
        return sum(1 for _ in self.triples_ids(s, p, o))

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
            for s in self._pos.get(p, {}).get(o, ()):
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
            for o in self._spo.get(s, {}).get(p, ()):
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

    def classes(self) -> Set[Term]:
        """Distinct instantiated classes (objects of ``rdf:type``)."""
        p = self._dict.lookup(RDF.type)
        if p is None:
            return set()
        decode = self._dict.decode
        return {decode(o) for o in self._pos.get(p, {})}

    def instances_of(self, cls: Term) -> Set[Term]:
        """Subjects typed as *cls*."""
        p = self._dict.lookup(RDF.type)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return set()
        decode = self._dict.decode
        return {decode(s) for s in self._pos.get(p, {}).get(o, ())}

    def class_count(self, cls: Term) -> int:
        p = self._dict.lookup(RDF.type)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return 0
        return len(self._pos.get(p, {}).get(o, ()))

    def subclasses(self, cls: Term) -> Set[Term]:
        """Direct rdfs:subClassOf children of *cls*."""
        p = self._dict.lookup(RDFS.subClassOf)
        o = self._dict.lookup(cls)
        if p is None or o is None:
            return set()
        decode = self._dict.decode
        return {decode(s) for s in self._pos.get(p, {}).get(o, ())}

    def label(self, subject: Term) -> Optional[str]:
        """The rdfs:label of *subject* if present, as a plain string."""
        value = self.value(subject, RDFS.label)
        if isinstance(value, Literal):
            return value.lexical
        return None

    # -- durability facade -----------------------------------------------

    def save(self, root: str, injector=None) -> dict:
        """Commit a durable snapshot of this graph under *root*.

        Columnar per-shard snapshot files + term-dictionary segments +
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
        clock=None,
    ) -> "Graph":
        """Recover a graph from the durable store at *root*.

        Returns a :class:`Graph` or
        :class:`~repro.rdf.sharding.ShardedTripleStore` per the manifest.
        ``lazy`` defers per-shard index builds to first touch (default for
        sharded stores); ``verify`` checks each shard's content digest
        against the manifest -- before WAL replay, or for a lazy shard when
        it hydrates (default for eager loads).
        """
        from .durability import load_graph

        return load_graph(root, lazy=lazy, verify=verify, clock=clock)

    # -- set-algebra -----------------------------------------------------

    def __iadd__(self, other: "Graph") -> "Graph":
        self.update(other)
        return self

    def copy(self) -> "Graph":
        """A structural clone sharing no mutable state with the original."""
        out = Graph(identifier=self.identifier)
        out._dict = self._dict.copy()
        out._spo = copy_index(self._spo)
        out._pos = copy_index(self._pos)
        out._osp = copy_index(self._osp)
        out._size = self._size
        return out

    def __repr__(self) -> str:
        name = self.identifier or "anonymous"
        return f"<Graph {name!r} with {self._size} triples>"
