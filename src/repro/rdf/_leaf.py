"""The leaf of a permutation index, and the only code that writes one.

SPO, POS and OSP are ``dict -> dict -> leaf``.  A leaf is the collection of
IDs under one two-key prefix, and all but a few percent of them hold one ID
for their whole life (a ``(s, p)`` has one object, a literal one subject,
an ``(o, s)`` one predicate), so a leaf is

* the 1-tuple ``(id,)`` while it has one member -- the one shared
  ``(id,)`` of that ID, from a process-wide table keyed by the ID and
  filled on a miss, so that every index of every graph holding ID 7 in a
  one-member leaf holds the same object, and
* a ``set`` from the moment its second member arrives -- built as
  ``{first, second}``, which inserts left to right and so gives the table
  the history ``set(); add(first); add(second)`` would have given it.

Dictionary IDs are small dense ints, so the shared table holds one entry
per ID of the largest ID space the process has seen (4,471 on the
110-endpoint census, against 962,493 one-member leaves) and is never
emptied.  It is a dict, not a list indexed by the ID: a negative ID has
its own entry instead of another's, and a huge one (a snapshot column
may hold any 64-bit value) costs one entry.  Only an exact ``int`` is
shared: a bool or float equals an int of the same value, and would
otherwise come back as that int's tuple.

A set is never demoted: one that shrank back to a single member stays a
set, so that a later member lands in the table its predecessors left
behind, dummies and all, exactly as it would in a set-only index.  Together
the two rules make every leaf iterate in the order a set-only leaf would,
which is the order of every un-ORDERed result above.

**Leaf contract, for readers:** a non-empty sized iterable that supports
``in``.  Never compare one with ``==``, never mutate one, never branch on
its type -- ``len``, ``in``, truthiness and iteration are the whole read
surface.  Writers call the functions below and nothing else stores into an
index.  A ``Shard`` keeps one more structure in step with its SPO,
``Shard.sizes`` (subject -> triple count): every SPO write there moves
the subject's count in the same step, and the key goes with the subject's
last triple.  A shard loaded from a snapshot may build POS and OSP after
SPO: its writes reach SPO at once and are replayed, in order, into the
secondaries through the two-index functions once they are built -- the
history an eager build would have given them.  (Inlining :func:`leaf_add`'s
branch into the bulk loader buys nothing measurable; calling
:func:`insert_ids` per triple there costs 7-9% of the ingest rate, so it
keeps its inner dicts in locals.)
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

Leaf = Union[Tuple[int], Set[int]]
IdIndex = Dict[int, Dict[int, Leaf]]


#: ID -> its shared one-member leaf ``(id,)``
_SINGLETONS: Dict[int, Tuple[int]] = {}


def leaf_add(inner: Dict[int, Leaf], key: int, value: int) -> None:
    """Put *value*, which the caller knows is absent, in ``inner[key]``."""
    leaf = inner.get(key)
    if leaf is None:
        if type(value) is int:
            leaf = _SINGLETONS.get(value)
            if leaf is None:
                leaf = _SINGLETONS[value] = (value,)
        else:
            leaf = (value,)
        inner[key] = leaf
    elif type(leaf) is tuple:
        inner[key] = {leaf[0], value}
    else:
        leaf.add(value)


def leaf_discard(inner: Dict[int, Leaf], key: int, value: int) -> None:
    """Take *value*, which the caller knows is present, out of
    ``inner[key]``; the key goes with its last member."""
    leaf = inner[key]
    if type(leaf) is not tuple:
        leaf.discard(value)
        if leaf:
            return
    del inner[key]


def insert_ids(spo: IdIndex, pos: IdIndex, osp: IdIndex, s: int, p: int, o: int) -> None:
    """Index an ID triple the caller knows is absent."""
    leaf_add(spo.setdefault(s, {}), p, o)
    leaf_add(pos.setdefault(p, {}), o, s)
    leaf_add(osp.setdefault(o, {}), s, p)


def discard_ids(spo: IdIndex, pos: IdIndex, osp: IdIndex, s: int, p: int, o: int) -> None:
    """Unindex an ID triple the caller knows is present; no inner dict is
    left empty."""
    index_discard(spo, s, p, o)
    discard_secondary_ids(pos, osp, s, p, o)


def index_add(index: IdIndex, first: int, second: int, third: int) -> None:
    """Put *third*, which the caller knows is absent, in
    ``index[first][second]`` -- one index, its keys in its own order."""
    leaf_add(index.setdefault(first, {}), second, third)


def index_discard(index: IdIndex, first: int, second: int, third: int) -> None:
    """Take *third*, which the caller knows is present, out of
    ``index[first][second]``; no inner dict is left empty."""
    inner = index[first]
    leaf_discard(inner, second, third)
    if not inner:
        del index[first]


def insert_secondary_ids(pos: IdIndex, osp: IdIndex, s: int, p: int, o: int) -> None:
    """Index an ID triple in POS and OSP only: the write a shard whose SPO
    took the triple earlier replays once it builds its secondaries."""
    index_add(pos, p, o, s)
    index_add(osp, o, s, p)


def discard_secondary_ids(pos: IdIndex, osp: IdIndex, s: int, p: int, o: int) -> None:
    """Unindex an ID triple from POS and OSP only (see
    :func:`insert_secondary_ids`)."""
    index_discard(pos, p, o, s)
    index_discard(osp, o, s, p)


def copy_index(index: IdIndex) -> IdIndex:
    """A clone of *index* sharing no mutable state: tuples are shared,
    sets copied."""
    return {
        first: {
            second: leaf if type(leaf) is tuple else set(leaf)
            for second, leaf in inner.items()
        }
        for first, inner in index.items()
    }
