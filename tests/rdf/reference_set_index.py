"""The store as it was before leaves became 1-tuples: dict -> dict -> set.

The order oracle of ``test_leaf_order.py`` (as ``tests/viz`` keeps the
object force kernel): every leaf is a ``set`` from its first member on,
written the way ``Graph`` / ``Shard`` / the snapshot fills wrote it, and
``triples_ids`` picks the index and walks it the way ``Graph.triples_ids``
does.  ``shards=N`` partitions by subject ID modulo N and reads like
``ShardedTripleStore``: the owning shard for a bound subject, the sorted
merge otherwise.  IDs come from a real ``TermDict``, interned in the
writers' order (s, p, o of each new triple), so they equal the graph's.
"""

from __future__ import annotations

from repro.rdf.dictionary import TermDict


class _SetIndexes:
    def __init__(self):
        self.spo, self.pos, self.osp = {}, {}, {}

    def insert(self, s, p, o):
        self.spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self.pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self.osp.setdefault(o, {}).setdefault(s, set()).add(p)

    def discard(self, s, p, o):
        for index, a, b, c in ((self.spo, s, p, o), (self.pos, p, o, s), (self.osp, o, s, p)):
            index[a][b].discard(c)
            if not index[a][b]:
                del index[a][b]
                if not index[a]:
                    del index[a]

    def copy(self):
        out = _SetIndexes()
        for name in ("spo", "pos", "osp"):
            setattr(out, name, {
                a: {b: set(leaf) for b, leaf in inner.items()}
                for a, inner in getattr(self, name).items()
            })
        return out

    def triples_ids(self, s=None, p=None, o=None):
        if s is not None:
            for pred, objects in self.spo.get(s, {}).items():
                if p is None or pred == p:
                    yield from ((s, pred, obj) for obj in objects if o is None or obj == o)
        elif p is not None:
            for obj, subjects in self.pos.get(p, {}).items():
                if o is None or obj == o:
                    yield from ((subj, p, obj) for subj in subjects)
        elif o is not None:
            for subj, predicates in self.osp.get(o, {}).items():
                yield from ((subj, pred, o) for pred in predicates)
        else:
            for subj, by_predicate in self.spo.items():
                for pred, objects in by_predicate.items():
                    yield from ((subj, pred, obj) for obj in objects)


class SetOnlyStore:
    def __init__(self, shards=None):
        self.shards = shards
        self.dictionary = TermDict()
        self.parts = [_SetIndexes() for _ in range(shards or 1)]

    def _part(self, s):
        return self.parts[s % len(self.parts)]

    def _ids(self, triple):
        lookup = self.dictionary.lookup
        return lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)

    def __contains__(self, triple):
        s, p, o = self._ids(triple)
        return None not in (s, p, o) and o in self._part(s).spo.get(s, {}).get(p, ())

    def add(self, triple):
        if triple in self:
            return False
        s, p, o = ids = [self.dictionary.encode(term) for term in triple]
        self._part(s).insert(s, p, o)
        for term_id in ids:
            self.dictionary.incref(term_id)
        return True

    def remove(self, triple):
        if triple not in self:
            return False
        s, p, o = ids = self._ids(triple)
        self._part(s).discard(s, p, o)
        for term_id in ids:
            self.dictionary.decref(term_id)
        return True

    def copy(self):
        out = SetOnlyStore(self.shards)
        out.dictionary = self.dictionary.copy()
        out.parts = [part.copy() for part in self.parts]
        return out

    def reloaded(self):
        """What ``save`` + ``load_graph`` builds: every shard's indexes
        filled from its (s, p, o)-sorted run, the dictionary as it was."""
        out = SetOnlyStore(self.shards)
        out.dictionary = self.dictionary.copy()
        for part, fresh in zip(self.parts, out.parts):
            for row in sorted(part.triples_ids()):
                fresh.insert(*row)
        return out

    def triples_ids(self, s=None, p=None, o=None):
        if self.shards is None:
            return list(self.parts[0].triples_ids(s, p, o))
        if s is not None:
            return list(self._part(s).triples_ids(s, p, o))
        return sorted(row for part in self.parts for row in part.triples_ids(None, p, o))
