"""Subject-hash-partitioned storage: N shards under one :class:`Graph` facade.

Every :class:`~repro.rdf.graph.Graph` keeps its triples in shards
(:class:`~repro.rdf.graph.Shard`) over one shared
:class:`~repro.rdf.dictionary.TermDict`, and a plain one is exactly one
shard.  A :class:`ShardedTripleStore` is N of them, a triple living in the
shard of its **subject ID modulo N** -- the classic subject-partitioning
rule: a subject's whole forward star lives in one shard, so subject-bound
lookups never fan out while predicate/object scans split ``1/N`` per
shard.

A shard is a unit of **storage**, not of execution: it is what the
durability layer snapshots, rewrites when dirty and loads lazily.  Writes,
point lookups, counts, ``__contains__``, ``copy`` / ``clear`` and the
set-valued accessors are :class:`Graph`'s own, which route by subject or
visit every shard.  What partitioning changes is only the **order of a
read that spans shards**, and that is all this subclass overrides:

* unbound-subject scans (:meth:`ShardedTripleStore.triples_ids`, and
  through it ``scan_rows`` and every probe-table build) come back as
  the ordered merge of per-shard runs sorted by the ``(s, p, o)`` ID
  triple -- the one place that merge is written.  The whole-graph pattern
  in ``scan_rows`` merges the shards' cached runs (:meth:`Shard.columns`)
  instead, so it reads a cold lazily loaded shard off its snapshot without
  building its indexes;
* ``scan_runs`` declines (no single index holds a spanning scan's keys:
  each shard has its own), so COUNT / DISTINCT sinks expand rows here;
* the ``subjects(p, o)`` fast path comes back in ascending ID order;
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
plain ``Graph()`` scans its one shard in index-dict order instead, so
sharded and unsharded stores agree on result *multisets* but not
necessarily on the order of unordered queries.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional, Tuple

from ._leaf import IdIndex
from .graph import Graph, Shard, cut_rows
from .terms import IRI, Term

__all__ = ["ShardedTripleStore"]


class ShardedTripleStore(Graph):
    """A :class:`Graph` partitioned into subject-hash shards.

    Constructed directly or through the facade ``Graph(shards=N)``.  The
    full :class:`Graph` API behaves identically; subject-bound reads hit
    the owning shard, unbound scans merge sorted per-shard runs.
    """

    #: duck-typing flag the SPARQL layer dispatches on (no import cycle)
    is_sharded = True

    def __init__(self, identifier: Optional[str] = None, shards: int = 4):
        if type(shards) is not int or shards < 1:
            raise ValueError(f"shards must be an int >= 1, got {shards!r}")
        super().__init__(identifier)
        self._shards = tuple(Shard() for _ in range(shards))

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

    # -- the order of a spanning read ------------------------------------------

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
            yield from self.shard_of(s).triples_ids(s, p, o)
            return
        yield from heapq.merge(
            *[sorted(shard.triples_ids(None, p, o)) for shard in self._shards]
        )

    def scan_rows(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        want: Tuple[bool, bool, bool],
    ) -> Iterator[Tuple]:
        """:meth:`Graph.scan_rows` over the routed ``triples_ids``, same
        rows in the same order.  The whole-graph pattern merges the shards'
        cached sorted runs (:meth:`Shard.columns`) instead: a cold shard of
        a lazily loaded store serves its run off the snapshot without
        building its indexes."""
        if s is not None or p is not None or o is not None:
            return super().scan_rows(s, p, o, want)
        return cut_rows(heapq.merge(*[zip(*shard.columns()) for shard in self._shards]), want)

    def _scan_view(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        """No single index holds a spanning scan's rows -- each shard has its
        own -- so ``scan_rows`` cuts the routed ``triples_ids`` whatever is
        wanted, and ``scan_runs`` declines."""
        return None

    def subjects(self, predicate: Optional[IRI] = None, obj: Optional[Term] = None):
        """Distinct subjects of ``(?, predicate, obj)``; the bound-bound
        fast path fans out over shard POS indexes in ascending-ID order
        (shard-count-invariant)."""
        if predicate is not None and obj is not None:
            decode = self._dict.decode
            for s in sorted(s for leaf in self._leaves(predicate, obj) for s in leaf):
                yield decode(s)
            return
        yield from super().subjects(predicate, obj)

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
