"""Dictionary encoding for RDF terms: a bidirectional Term <-> int table.

Every term that enters a :class:`~repro.rdf.graph.Graph` is interned to a
small integer ID; the permutation indexes, the SPARQL join pipeline and the
property-path closures all operate on those integers and only decode back
to :class:`~repro.rdf.terms.Term` objects at the result boundary.  Integers
hash in a single machine op where IRIs and literals hash their full lexical
forms, so this is the classic triple-store trick (RDF-3X, Virtuoso, and the
"extensible database simulator" lineage) for making joins cheap.

The table reference-counts term usage so that removing triples frees the
IDs of terms that no longer occur anywhere -- the dictionary never holds
stale entries, a property the graph test-suite checks after random
add/remove sequences.  Freed IDs go onto a free list and are reused, which
keeps the ID space dense under churn; callers must treat an ID as valid
only while the term it encodes is still referenced.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .terms import Term

__all__ = ["TermDict"]


class TermDict:
    """A reference-counted, bidirectional ``Term <-> int`` intern table."""

    __slots__ = ("_term_to_id", "_id_to_term", "_refcount", "_next_id", "_free",
                 "epoch", "snapshot", "recycled")

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: Dict[int, Term] = {}
        self._refcount: Dict[int, int] = {}
        self._next_id = 0
        self._free: List[int] = []
        # Durability epoch: bumped by repro.rdf.durability each time the
        # dictionary is snapshotted, and recorded in every snapshot file so
        # recovery can refuse to pair shard columns with the wrong table.
        self.epoch = 0
        # The manifest's ``termdict`` entry (the segment chain) of the last
        # commit this table was saved as or loaded from, or None.  Writes do
        # not drop it: it names a durable *ancestor* of this table, which is
        # what lets a checkpoint append a delta segment to that chain.
        self.snapshot = None
        # IDs taken back off the free list since ``snapshot`` was set.  The
        # triples that came or went since a commit name every other row
        # that moved; but remove (s, p, T), let U take T's freed ID, add
        # (s, p, U), and the shard holds the very same ID row as before.
        self.recycled: Set[int] = set()

    # -- encoding -----------------------------------------------------------

    def encode(self, term: Term) -> int:
        """Intern *term*, creating an ID (refcount 0) on first sight."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            if self._free:
                term_id = self._free.pop()
                if self.snapshot is not None:
                    self.recycled.add(term_id)
            else:
                term_id = self._next_id
                self._next_id += 1
            self._term_to_id[term] = term_id
            self._id_to_term[term_id] = term
            self._refcount[term_id] = 0
        return term_id

    def lookup(self, term: Term) -> Optional[int]:
        """The ID of *term* if it is interned; never creates an entry."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Term:
        """The term behind *term_id*; raises ``KeyError`` for freed IDs."""
        return self._id_to_term[term_id]

    # -- reference counting --------------------------------------------------

    def incref(self, term_id: int, count: int = 1) -> None:
        self._refcount[term_id] += count

    def decref(self, term_id: int, count: int = 1) -> None:
        """Drop *count* references; frees the entry when none remain."""
        remaining = self._refcount[term_id] - count
        if remaining > 0:
            self._refcount[term_id] = remaining
            return
        if remaining < 0:  # pragma: no cover - internal invariant
            raise ValueError(f"refcount underflow for id {term_id}")
        del self._refcount[term_id]
        term = self._id_to_term.pop(term_id)
        del self._term_to_id[term]
        self._free.append(term_id)

    def refcount(self, term_id: int) -> int:
        return self._refcount.get(term_id, 0)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._term_to_id)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def items(self) -> Iterator[Tuple[Term, int]]:
        return iter(self._term_to_id.items())

    def terms(self) -> Iterator[Term]:
        return iter(self._term_to_id)

    def copy(self) -> "TermDict":
        out = TermDict()
        out._term_to_id = dict(self._term_to_id)
        out._id_to_term = dict(self._id_to_term)
        out._refcount = dict(self._refcount)
        out._next_id = self._next_id
        out._free = list(self._free)
        out.epoch = self.epoch
        out.snapshot = self.snapshot
        out.recycled = set(self.recycled)
        return out

    # -- durability ----------------------------------------------------------

    def committed_as(self, chain: dict) -> None:
        """A commit (or the load that built this table) names *chain*."""
        self.snapshot = chain
        self.recycled = set()

    def snapshot_items(
        self, ids: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[int, int, Term]]:
        """``(term_id, refcount, term)`` rows in ascending-ID order.

        Every interned term, or with *ids* the ones among those IDs that
        are interned now (a freed ID has no row).  The ID order makes
        snapshot bytes deterministic for a given table state regardless of
        insertion history.
        """
        id_to_term = self._id_to_term
        if ids is None:
            ids = id_to_term
        else:
            ids = id_to_term.keys() & ids
        for term_id in sorted(ids):
            yield term_id, self._refcount[term_id], id_to_term[term_id]

    @classmethod
    def restore(
        cls,
        items: Iterator[Tuple[int, int, Term]],
        next_id: int,
        free: List[int],
        epoch: int,
    ) -> "TermDict":
        """Rebuild a table from :meth:`snapshot_items` output.

        ``next_id`` and ``free`` must round-trip too: ID assignment after
        recovery has to match the live process, or WAL replay and future
        interning would diverge from the pre-crash store.
        """
        out = cls()
        for term_id, refcount, term in items:
            out._term_to_id[term] = term_id
            out._id_to_term[term_id] = term
            out._refcount[term_id] = refcount
        out._next_id = next_id
        out._free = list(free)
        out.epoch = epoch
        return out

    def __repr__(self) -> str:
        return f"<TermDict {len(self)} terms>"
