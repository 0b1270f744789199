"""No-op mutations must be invisible: generation, size, shards unchanged.

The generation counter is the invalidation key for every derived cache
(the shared SPARQL plan cache, the exploration spotlight cache), so a
write that does not change the triple set -- a duplicate ``add``,
removing an absent triple, an all-duplicate ``add_many``/``add_many_terms``
batch, clearing an empty graph -- must not bump it: a duplicate-heavy
load would otherwise flush still-valid plans on every batch.

The hypothesis suite interleaves duplicate/absent writes with the
observations, on both the plain ``Graph()`` and the sharded
``Graph(shards=N)`` store (whose single-copy mutation paths are separate
code), asserting ``generation``, ``len(graph)``, the triple set and the
shard sizes never move.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal, Triple

EX = "http://example.org/"


def _triple(s: int, p: int, o: int) -> Triple:
    return Triple(
        IRI(f"{EX}s{s}"),
        IRI(f"{EX}p{p}"),
        IRI(f"{EX}o{o}") if o % 2 else Literal(o),
    )


#: triples the graph is seeded with (present for the whole test)
PRESENT = [_triple(s, p, o) for s in range(4) for p in range(2) for o in range(2)]
#: triples never added (absent for the whole test)
ABSENT = [_triple(s + 10, p, o + 10) for s in range(3) for p in range(2) for o in range(2)]

#: one no-op mutation: (kind, index into the relevant triple list)
noop_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("add-dup", "remove-absent", "add_many-dup", "add_many_terms-dup", "update-dup")
        ),
        st.integers(min_value=0, max_value=min(len(PRESENT), len(ABSENT)) - 1),
        st.integers(min_value=1, max_value=4),  # batch width for the *_many ops
    ),
    min_size=1,
    max_size=30,
)


def _build(shards):
    graph = Graph() if shards is None else Graph(shards=shards)
    assert graph.add_many(PRESENT) == len(PRESENT)
    return graph


def _apply(graph, op):
    kind, index, width = op
    if kind == "add-dup":
        assert graph.add(PRESENT[index]) is False
    elif kind == "remove-absent":
        assert graph.remove(ABSENT[index]) is False
    elif kind == "add_many-dup":
        batch = (PRESENT[(index + i) % len(PRESENT)] for i in range(width))
        assert graph.add_many(batch) == 0
    elif kind == "add_many_terms-dup":
        batch = [
            PRESENT[(index + i) % len(PRESENT)] for i in range(width)
        ]
        assert (
            graph.add_many_terms((t.subject, t.predicate, t.object) for t in batch)
            == 0
        )
    else:  # update-dup
        assert graph.update([PRESENT[index]]) == 0


@settings(max_examples=60, deadline=None)
@given(ops=noop_ops, shards=st.sampled_from((None, 1, 3, 4)))
def test_noop_interleavings_leave_graph_state_untouched(ops, shards):
    graph = _build(shards)
    generation = graph.generation
    size = len(graph)
    triples = set(graph.triples())
    shard_sizes = tuple(map(len, graph.shards)) if shards is not None else None
    for op in ops:
        _apply(graph, op)
        assert graph.generation == generation
        assert len(graph) == size
        if shards is not None:
            assert tuple(map(len, graph.shards)) == shard_sizes
    assert set(graph.triples()) == triples


@settings(max_examples=30, deadline=None)
@given(ops=noop_ops, shards=st.sampled_from((None, 4)))
def test_real_mutations_between_noops_still_bump(ops, shards):
    """Interleave real writes to prove the counter still moves when content
    does: every real mutation bumps exactly as before, every no-op between
    them leaves the counter where the last real write put it."""
    graph = _build(shards)
    extra = _triple(97, 1, 97)
    for op in ops:
        _apply(graph, op)
        before = graph.generation
        assert graph.add(extra) is True
        assert graph.generation > before
        before = graph.generation
        assert graph.remove(extra) is True
        assert graph.generation > before
    assert extra not in graph


@pytest.mark.parametrize("shards", (None, 4))
def test_clear_on_empty_graph_is_a_noop(shards):
    graph = Graph() if shards is None else Graph(shards=shards)
    assert graph.generation == 0
    graph.clear()
    assert graph.generation == 0
    graph.add(PRESENT[0])
    generation = graph.generation
    graph.clear()  # non-empty clear is a real mutation
    assert graph.generation > generation
    after_clear = graph.generation
    graph.clear()  # now empty again: no-op
    assert graph.generation == after_clear
