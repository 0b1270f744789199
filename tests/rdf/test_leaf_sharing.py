"""One ``(id,)`` per ID: every one-member leaf is the shared tuple.

``leaf_add`` takes a one-member leaf from a process-wide table keyed by
the ID (``repro.rdf._leaf._SINGLETONS``), so a leaf holding ID *i* is the
same object in SPO, POS and OSP, in every shard and in every graph of the
process -- whichever door built the index: ``Graph.add``,
``add_many_terms``, a sharded store, ``copy()`` (``copy_index``), an eager
or lazy load (``_fill_spo`` and ``_fill_secondaries``) and WAL replay.
The table is keyed by value, not indexed by it: a negative, bool or huge
value never comes back as another ID's tuple, and a huge one costs one
entry.
"""

from __future__ import annotations

from array import array

import pytest

from repro.datagen import government_graph
from repro.rdf import Graph, IRI, Literal, Triple, load_graph
from repro.rdf import _leaf
from repro.rdf._leaf import leaf_add
from repro.rdf.durability import attach_journal
from repro.rdf.durability.store import _fill_secondaries, _fill_spo
from repro.rdf.sharding import ShardedTripleStore


def _indexes(graph):
    if graph.is_sharded:
        return [i for shard in graph.shards for i in (shard.spo, shard.pos, shard.osp)]
    return [graph.spo_ids(), graph.pos_ids(), graph.osp_ids()]


def _singletons(graph):
    """``(index number, leaf)`` for every one-member tuple leaf of *graph*,
    numbered SPO 0, POS 1, OSP 2 whatever the shard."""
    return [
        (k % 3, leaf)
        for k, index in enumerate(_indexes(graph))
        for inner in index.values()
        for leaf in inner.values()
        if type(leaf) is tuple
    ]


def _check_shared(*graphs):
    """Every one-member leaf of *graphs* is its ID's table entry; some ID's
    leaf is met in two indexes, and some ID's in every graph."""
    seen = {}
    for number, graph in enumerate(graphs):
        for index, leaf in _singletons(graph):
            assert len(leaf) == 1
            assert leaf is _leaf._SINGLETONS[leaf[0]]
            seen.setdefault(leaf[0], set()).add((number, index))
    assert any(len({index for _, index in places}) > 1 for places in seen.values())
    every_graph = set(range(len(graphs)))
    assert any({number for number, _ in places} == every_graph for places in seen.values())


def _source(seed=5):
    return government_graph(scale=0.2, seed=seed)


def _terms(graph):
    return [(t.subject, t.predicate, t.object) for t in graph.triples()]


def _new_triples(count):
    return [
        Triple(IRI(f"http://example.org/late/{i}"), IRI("http://example.org/p"), Literal(str(i)))
        for i in range(count)
    ]


@pytest.mark.parametrize("shards", [None, 3])
def test_graph_add(shards):
    graph = Graph(shards=shards)
    for triple in _source().triples():
        graph.add(triple)
    _check_shared(graph)


def test_add_many_terms():
    graph = Graph()
    graph.add_many_terms(_terms(_source()))
    _check_shared(graph)


def test_a_sharded_store_and_the_copies():
    source = _source()
    sharded = ShardedTripleStore.from_graph(source, 4)
    _check_shared(sharded)
    _check_shared(source.copy(), sharded.copy())


def test_an_eager_load(tmp_path):
    _source().save(str(tmp_path))
    _check_shared(load_graph(str(tmp_path), lazy=False))


def test_a_lazy_load_builds_spo_then_secondaries(tmp_path):
    ShardedTripleStore.from_graph(_source(), 4).save(str(tmp_path))
    lazy = load_graph(str(tmp_path), lazy=True)
    assert sum(1 for _ in lazy.triples_ids()) == len(_source())  # SPO only
    assert not any(shard.secondaries_built for shard in lazy.shards)
    _check_shared(lazy)  # reads POS and OSP: _fill_secondaries
    assert all(shard.secondaries_built for shard in lazy.shards)


@pytest.mark.parametrize("lazy", [False, True])
def test_wal_replay(tmp_path, lazy):
    root = str(tmp_path)
    graph = ShardedTripleStore.from_graph(_source(), 2)
    graph.save(root)
    journal = attach_journal(graph, root)
    late = _new_triples(40)
    for triple in late:
        graph.add(triple)
    journal.close()
    back = load_graph(root, lazy=lazy)
    assert all(triple in back for triple in late)
    _check_shared(back, graph)


def test_two_graphs_with_their_own_dictionaries():
    one, other = _source(5), Graph()
    other.add_many_terms(reversed(_terms(_source(6))))
    _check_shared(one, other, ShardedTripleStore.from_graph(one, 2))


def test_promotion_and_removal_leave_the_shared_tuple_intact():
    """A second member makes a fresh set; the shared tuple it replaces
    still holds its one ID for every other leaf."""
    graph = Graph()
    triples = list(_source().triples())
    graph.add_many(triples)
    frozen = dict(_leaf._SINGLETONS)
    for triple in triples[::7]:
        graph.remove(triple)
    graph.add_many(_new_triples(30))
    for triple in triples[::7]:
        graph.add(triple)
    assert all(leaf == (value,) for value, leaf in _leaf._SINGLETONS.items())
    assert all(_leaf._SINGLETONS[value] is leaf for value, leaf in frozen.items())
    _check_shared(graph)


# -- values that must not alias -----------------------------------------------


@pytest.fixture
def table(monkeypatch):
    """An empty shared table for one test."""
    fresh = {}
    monkeypatch.setattr(_leaf, "_SINGLETONS", fresh)
    return fresh


def _leaf_of(value):
    inner = {}
    leaf_add(inner, 0, value)
    return inner[0]


def test_a_negative_value_has_its_own_tuple(table):
    ids = [_leaf_of(i) for i in range(10)]
    for value in (-1, -10, -(2**63)):
        leaf = _leaf_of(value)
        assert leaf == (value,) and all(leaf is not other for other in ids)
        assert _leaf_of(value) is leaf
    assert len(table) == 13


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0])
@pytest.mark.parametrize("first", ["int", "other"])
def test_a_bool_or_float_never_comes_back_as_an_int_s_tuple(table, value, first):
    as_int = int(value)
    if first == "int":
        int_leaf = _leaf_of(as_int)
        other_leaf = _leaf_of(value)
    else:
        other_leaf = _leaf_of(value)
        int_leaf = _leaf_of(as_int)
    assert type(other_leaf[0]) is type(value) and other_leaf[0] == value
    assert type(int_leaf[0]) is int and int_leaf is table[as_int]
    assert other_leaf is not int_leaf
    assert list(table) == [as_int]


def test_a_huge_value_costs_one_entry(table):
    small = _leaf_of(3)
    for _ in range(3):
        leaf = _leaf_of(2**62)
        assert leaf == (2**62,) and leaf is table[2**62]
    assert small is table[3] and len(table) == 2


def test_a_hostile_snapshot_column_costs_one_entry_per_value(table):
    """The load path reads ``array('q')`` columns: any 64-bit value."""
    huge, low = 2**63 - 1, -(2**63)
    columns = (array("q", [-1, huge, huge]), array("q", [5, -1, 5]), array("q", [huge, 5, low]))
    spo, pos, osp = {}, {}, {}
    assert _fill_spo(spo, columns) == {-1: 1, huge: 2}
    _fill_secondaries(pos, osp, columns)
    assert spo == {-1: {5: (huge,)}, huge: {-1: (5,), 5: (low,)}}
    assert pos == {5: {huge: (-1,), low: (huge,)}, -1: {5: (huge,)}}
    assert osp == {huge: {-1: (5,)}, 5: {huge: (-1,)}, low: {huge: (5,)}}
    assert sorted(table) == [low, -1, 5, huge]
    for index in (spo, pos, osp):
        for inner in index.values():
            for leaf in inner.values():
                assert leaf is table[leaf[0]]
