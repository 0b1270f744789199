"""The leaf of a permutation index, and the only code that writes one.

SPO, POS and OSP are ``dict -> dict -> leaf``.  A leaf is the collection of
IDs under one two-key prefix, and all but a few percent of them hold one ID
for their whole life (a ``(s, p)`` has one object, a literal one subject,
an ``(o, s)`` one predicate), so a leaf is

* the 1-tuple ``(id,)`` while it has one member, and
* a ``set`` from the moment its second member arrives -- built as
  ``{first, second}``, which inserts left to right and so gives the table
  the history ``set(); add(first); add(second)`` would have given it.

A set is never demoted: one that shrank back to a single member stays a
set, so that a later member lands in the table its predecessors left
behind, dummies and all, exactly as it would in a set-only index.  Together
the two rules make every leaf iterate in the order a set-only leaf would,
which is the order of every un-ORDERed result above.

**Leaf contract, for readers:** a non-empty sized iterable that supports
``in``.  Never compare one with ``==``, never mutate one, never branch on
its type -- ``len``, ``in``, truthiness and iteration are the whole read
surface.  Writers call the functions below and nothing else stores into an
index.  (Inlining :func:`leaf_add`'s branch into the bulk loaders buys
nothing measurable; calling :func:`insert_ids` per triple there costs 7-9%
of the ingest rate, so they keep their inner dicts in locals.)
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

Leaf = Union[Tuple[int], Set[int]]
IdIndex = Dict[int, Dict[int, Leaf]]


def leaf_add(inner: Dict[int, Leaf], key: int, value: int) -> None:
    """Put *value*, which the caller knows is absent, in ``inner[key]``."""
    leaf = inner.get(key)
    if leaf is None:
        inner[key] = (value,)
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
    for index, first, second, third in ((spo, s, p, o), (pos, p, o, s), (osp, o, s, p)):
        inner = index[first]
        leaf_discard(inner, second, third)
        if not inner:
            del index[first]


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
