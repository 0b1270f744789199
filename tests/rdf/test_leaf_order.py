"""Order identity against a set-only oracle, and the leaf invariants.

A leaf of SPO / POS / OSP is a 1-tuple until its second member arrives and
a ``set`` from then on (:mod:`repro.rdf._leaf`).  What that must not change
is the order anything is read in: every un-ORDERed result, stored artifact
and SVG above the store is that order.  The differential drives a graph and
``reference_set_index.SetOnlyStore`` (the old representation, beside this
file) through the same interleaving of every writer and compares **lists**
after every step, for all 8 bound / unbound masks.

The term pool is sized so that IDs reach past 8 and collide in a set's
8-slot table: below that a small set iterates in ascending ID order whatever
its history, and neither promotion order nor demotion could show.
"""

from __future__ import annotations

import itertools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_set_index
from repro.rdf import Graph, IRI, Literal, Triple, load_graph
from repro.rdf._leaf import copy_index, leaf_add, leaf_discard

EX = "http://example.org/"

_SUBJECTS = [IRI(f"{EX}s{i}") for i in range(6)]
_PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]
_OBJECTS = _SUBJECTS[:3] + [Literal(i) for i in range(14)]

_triples = st.builds(
    Triple, st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)
_batches = st.lists(_triples, min_size=1, max_size=8)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _triples),
        st.tuples(st.just("add"), _triples),
        st.tuples(st.just("remove"), _triples),
        st.tuples(st.just("remove"), _triples),
        st.tuples(st.just("add_many"), _batches),
        st.tuples(st.just("add_many_terms"), _batches),
        st.tuples(st.just("copy"), st.none()),
        st.tuples(st.just("reload"), st.booleans()),
    ),
    max_size=40,
)

MASKS = list(itertools.product((False, True), repeat=3))


def _indexes(graph):
    """Every (spo, pos, osp) the graph owns: one trio, or one per shard."""
    if graph.is_sharded:
        return [(shard.spo, shard.pos, shard.osp) for shard in graph.shards]
    return [(graph.spo_ids(), graph.pos_ids(), graph.osp_ids())]


def _check_leaves(graph):
    triples = 0
    for trio in _indexes(graph):
        for index in trio:
            for inner in index.values():
                assert inner, "an inner dict was left empty"
                for leaf in inner.values():
                    if type(leaf) is tuple:
                        assert len(leaf) == 1, f"a tuple leaf with {len(leaf)} members"
                    else:
                        assert type(leaf) is set and leaf, f"a leaf that is {leaf!r}"
                    triples += len(leaf)
    assert triples == 3 * len(graph)


def _check_copy_shares_no_set(source, clone):
    for mine, theirs in zip(_indexes(source), _indexes(clone)):
        for index, other in zip(mine, theirs):
            for first, inner in index.items():
                for second, leaf in inner.items():
                    assert type(other[first][second]) is type(leaf)
                    if type(leaf) is set:
                        assert other[first][second] is not leaf


def _check_reads(graph, model, pick):
    stored = model.triples_ids()
    assert list(graph.triples_ids()) == stored
    probes = [stored[pick % len(stored)]] if stored else []
    probes.append((1, 9, 17))  # IDs that need not occur, or not there
    if len(stored) > 1:
        a, b = stored[pick % len(stored)], stored[(pick * 7 + 1) % len(stored)]
        probes.append((a[0], b[1], a[2]))
    for probe in probes:
        for mask in MASKS:
            pattern = tuple(value if bound else None for value, bound in zip(probe, mask))
            rows = model.triples_ids(*pattern)
            assert list(graph.triples_ids(*pattern)) == rows, pattern
            assert graph.count_ids(*pattern) == len(rows)
            for want in MASKS:
                got = [[], [], []]
                for batch in graph.scan_columns(*pattern, want, 3):
                    for column, cells in zip(got, batch):
                        column.extend(cells)
                expected = [
                    [row[i] if wanted else None for row in rows]
                    for i, wanted in enumerate(want)
                ]
                assert got == expected, (pattern, want)


@pytest.mark.parametrize("shards", [None, 1, 2, 4])
@settings(max_examples=40, deadline=None)
@given(steps=_steps, pick=st.integers(0, 1000))
def test_every_read_is_the_set_only_store_s_in_order(shards, steps, pick):
    graph = Graph(shards=shards)
    model = reference_set_index.SetOnlyStore(shards)
    for op, arg in steps:
        if op == "add":
            assert graph.add(arg) == model.add(arg)
        elif op == "remove":
            assert graph.remove(arg) == model.remove(arg)
        elif op == "add_many":
            assert graph.add_many(arg) == sum([model.add(t) for t in arg])
        elif op == "add_many_terms":
            added = graph.add_many_terms((t.subject, t.predicate, t.object) for t in arg)
            assert added == sum([model.add(t) for t in arg])
        elif op == "copy":
            clone = graph.copy()
            _check_copy_shares_no_set(graph, clone)
            graph, model = clone, model.copy()
        else:
            with tempfile.TemporaryDirectory() as root:
                graph.save(root)
                graph = load_graph(root, lazy=arg)
                list(graph.triples_ids())  # hydrates every cold shard while its file exists
            model = model.reloaded()
        _check_leaves(graph)
        _check_reads(graph, model, pick)
        assert len(graph) == len(model.triples_ids())


# -- the leaf's own rules, at IDs that collide --------------------------------
#
# 1, 9 and 17 share slot 1 of a set's first 8-slot table, so what a set of
# them iterates as is its history.  Each test is a mutation's killer.


def _set_history(*ops):
    """The leaf a set-only index would hold after *ops*."""
    leaf = set()
    for op, value in ops:
        getattr(leaf, op)(value)
    return list(leaf)


def _leaf_history(*ops):
    inner = {}
    for op, value in ops:
        (leaf_add if op == "add" else leaf_discard)(inner, "k", value)
    return inner


def test_promotion_inserts_the_old_member_first():
    # kills: promotion written {new, leaf[0]}
    for first, second in ((1, 9), (9, 1), (17, 1), (9, 17)):
        ops = (("add", first), ("add", second))
        assert list(_leaf_history(*ops)["k"]) == _set_history(*ops)
    assert _set_history(("add", 1), ("add", 9)) != _set_history(("add", 9), ("add", 1))


def test_the_last_member_takes_the_key_with_it():
    # kills: leaf_discard leaving the key of an emptied tuple leaf / set leaf
    assert _leaf_history(("add", 1), ("discard", 1)) == {}
    assert _leaf_history(("add", 1), ("add", 9), ("discard", 1), ("discard", 9)) == {}


def test_a_set_is_never_demoted():
    """The collision-history case.  {1, 9} loses 1: the set keeps a dummy
    in slot 1 and 9 one probe on, so 17 (same slot) reuses the dummy and
    iterates *before* 9.  A leaf demoted to ``(9,)`` and promoted again
    would hold ``{9, 17}`` in arrival order -- 9 first -- and every
    un-ORDERed read of that leaf would move."""
    ops = (("add", 1), ("add", 9), ("discard", 1), ("add", 17))
    inner = _leaf_history(*ops[:3])
    assert type(inner["k"]) is set and list(inner["k"]) == [9]
    leaf_add(inner, "k", 17)
    assert list(inner["k"]) == _set_history(*ops) == [17, 9]
    assert list({9, 17}) == [9, 17]  # what demote-then-promote would build


def test_copy_index_shares_tuples_and_copies_sets():
    # kills: copy_index aliasing a set
    index = {0: {1: (2,), 3: {4, 5}}}
    clone = copy_index(index)
    assert clone == index and clone[0] is not index[0]
    assert clone[0][1] is index[0][1]
    assert clone[0][3] is not index[0][3]
    leaf_add(clone[0], 3, 6)
    leaf_add(clone[0], 1, 7)
    leaf_discard(clone[0], 3, 4)
    assert index == {0: {1: (2,), 3: {4, 5}}}


@pytest.mark.parametrize("shards", [None, 2])
@pytest.mark.parametrize("bulk", [False, True], ids=["add", "add_many_terms"])
def test_the_graph_reaches_the_collision_cases_through_its_own_doors(shards, bulk):
    """Promotion order and never-demote, driven through the single-triple
    and the bulk writers with objects whose IDs -- 2, 10 and 18 -- share a
    slot.  The expected lists are spelled out so the case
    cannot quietly stop being order-sensitive."""
    graph = Graph(shards=shards)
    model = reference_set_index.SetOnlyStore(shards)
    s, p = IRI(f"{EX}s"), IRI(f"{EX}p")
    literal = [Literal(i) for i in range(20)]

    def write(*triples):
        if bulk:
            graph.add_many_terms((t.subject, t.predicate, t.object) for t in triples)
        else:
            for triple in triples:
                graph.add(triple)
        for triple in triples:
            model.add(triple)

    def objects_of(subject):
        rows = list(graph.triples_ids(graph.lookup_id(subject), graph.lookup_id(p)))
        assert rows == model.triples_ids(model.dictionary.lookup(subject), model.dictionary.lookup(p))
        return [o for _s, _p, o in rows]

    write(*(Triple(s, p, obj) for obj in literal))  # s -> 0, p -> 1, Literal(i) -> i + 2
    assert [graph.lookup_id(literal[i]) for i in (0, 8, 16)] == [2, 10, 18]
    late, shrunk = IRI(f"{EX}late"), IRI(f"{EX}shrunk")
    write(Triple(late, p, literal[8]), Triple(late, p, literal[0]))
    assert objects_of(late) == [10, 2]  # {2, 10} built the other way round reads [2, 10]
    write(Triple(shrunk, p, literal[0]), Triple(shrunk, p, literal[8]))
    for store in (graph, model):
        store.remove(Triple(shrunk, p, literal[0]))
    write(Triple(shrunk, p, literal[16]))
    assert objects_of(shrunk) == [18, 10]  # a demoted-then-promoted leaf reads [10, 18]
