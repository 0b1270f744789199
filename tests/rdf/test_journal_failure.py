"""A failed journal append leaves the store as it was.

Every content-changing door logs *before* the dictionary or an index
learns anything, so when the append raises (a closed segment, a full disk)
the graph holds no ghost: no interned term with refcount 0, no empty inner
dict that makes the term a node of the property-path universe, no moved
counter.  Doors x stores, with a journal whose segment refuses the append;
once the segment accepts again the same write goes through and is logged.
"""

from __future__ import annotations

import pytest

from refusing_segment import RefusingSegment
from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Triple,
    attach_journal,
    content_digest,
    load_graph,
)

EX = "http://ex.org/"
P = IRI(f"{EX}p")
GHOST_S, GHOST_P, GHOST_O = IRI(f"{EX}ghost"), IRI(f"{EX}ghostly"), Literal("ghost")


def _base():
    return [
        Triple(IRI(f"{EX}s{i % 3}"), IRI(f"{EX}p{i % 2}"), Literal(i) if i % 2 else IRI(f"{EX}s{i % 5}"))
        for i in range(12)
    ]


def _plain(index):
    return {a: {b: sorted(leaf) for b, leaf in inner.items()} for a, inner in index.items()}


def _state(graph):
    table = graph.dictionary
    return {
        "len": len(graph),
        "generation": graph.generation,
        "terms": graph.term_count(),
        "table": (list(table.snapshot_items()), table._next_id, list(table._free)),
        "ghost nodes": [graph.is_node_term(t) for t in (GHOST_S, GHOST_P, GHOST_O)],
        "nodes": sorted(graph.node_ids()),
        "spo": _plain(graph.spo_ids()),
        "pos": _plain(graph.pos_ids()),
        "osp": _plain(graph.osp_ids()),
        "triples": sorted(graph.triples_ids()),
        "digest": content_digest(graph),
        "snapshots": [shard._snapshot for shard in graph.shards] if graph.is_sharded else None,
    }


NEW = [
    Triple(GHOST_S, GHOST_P, GHOST_O),  # three unseen terms
    Triple(IRI(f"{EX}s0"), IRI(f"{EX}p0"), GHOST_O),  # a second member for an (s, p)
    Triple(GHOST_S, P, GHOST_S),  # one unseen term, twice
]
TERMS = [(t.subject, t.predicate, t.object) for t in NEW]

DOORS = {
    "add": lambda g: g.add(NEW[0]),
    "add (known s, p)": lambda g: g.add(NEW[1]),
    "add_triple": lambda g: g.add_triple(*TERMS[2]),
    "add_many": lambda g: g.add_many(NEW),
    "add_many_terms": lambda g: g.add_many_terms(iter(TERMS)),
    "update": lambda g: g.update(NEW),
    "remove": lambda g: g.remove(_base()[3]),
    "remove_pattern": lambda g: g.remove_pattern(subject=IRI(f"{EX}s1")),
    "clear": lambda g: g.clear(),
}


@pytest.mark.parametrize("shards", [None, 2], ids=["Graph()", "Graph(shards=2)"])
@pytest.mark.parametrize("door", DOORS)
def test_a_refused_append_changes_nothing(tmp_path, door, shards):
    root = str(tmp_path)
    graph = Graph(shards=shards)
    graph.add_many(_base())
    graph.save(root)
    journal = attach_journal(graph, root)
    before = _state(graph)
    real = journal.wal
    journal.wal = RefusingSegment(real)
    with pytest.raises(OSError, match="no space"):
        DOORS[door](graph)
    assert _state(graph) == before
    # the segment accepts again: the same write goes through, logged
    journal.wal = real
    assert DOORS[door](graph) is not False
    after = _state(graph)
    assert after != before and real.records_appended >= 1
    journal.close()
    back = load_graph(root, lazy=False, verify=True)
    assert content_digest(back) == after["digest"] and len(back) == after["len"]


@pytest.mark.parametrize("shards", [None, 2], ids=["Graph()", "Graph(shards=2)"])
@pytest.mark.parametrize("door", ["add_many", "add_many_terms"])
@pytest.mark.parametrize("allow", [1, 2])
def test_a_bulk_load_refused_midway_keeps_what_was_logged(tmp_path, door, shards, allow):
    """The triples logged before the refusal are in, counted and
    refcounted exactly as if the batch had ended there."""
    root = str(tmp_path)
    graph = Graph(shards=shards)
    graph.add_many(_base())
    graph.save(root)
    journal = attach_journal(graph, root)
    generation = graph.generation
    journal.wal = RefusingSegment(journal.wal, allow=allow)
    with pytest.raises(OSError):
        DOORS[door](graph)
    expected = Graph(shards=shards)
    expected.add_many(_base())
    expected.add_many(NEW[:allow])
    state, reference = _state(graph), _state(expected)
    assert state["generation"] == generation + 1
    for history in ("generation", "snapshots"):  # not content: the reference was never saved
        state.pop(history)
        reference.pop(history)
    assert state == reference
    journal.close()
    assert content_digest(load_graph(root, lazy=False, verify=True)) == state["digest"]


def test_a_source_that_raises_midway_keeps_the_count_right():
    """Not a journal failure, the same hole: the triple iterator raising
    inside a bulk load used to leave ``len`` behind the indexes."""

    def source():
        yield TERMS[0]
        raise RuntimeError("parser gave up")

    for shards in (None, 2):
        graph = Graph(shards=shards)
        with pytest.raises(RuntimeError):
            graph.add_many_terms(source())
        assert len(graph) == len(list(graph.triples_ids())) == 1
        assert graph.generation == 1
        assert graph.dictionary.refcount(graph.lookup_id(GHOST_S)) == 1
