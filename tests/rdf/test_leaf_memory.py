"""Memory as a count: what a triple costs at the leaf level.

Three numbers, on the benchmark's own graph (``government_graph(scale=1.0,
seed=5)``, 12,427 triples) and on dataset 1 of the seed-2020 census, through
every door that builds an index -- a bulk-loaded graph, a ``copy()``, an
eager ``load_graph``, a sharded store, its copy, and a hydrated
``LazyShard`` -- so that no door quietly keeps building sets:

* a ``set`` leaf exists only where a leaf holds two or more IDs (with the
  set-only indexes: one per leaf -- 30,856 on the government graph, of
  which 989 ever held a second member);
* ``sys.getsizeof`` over every distinct leaf object of the three
  indexes, per triple -- a one-member leaf is its ID's shared ``(id,)``,
  counted once however many leaves hold it (set-only: 565 B unsharded,
  577-605 B sharded; fresh 1-tuples, summed per leaf: 153-165 B; shared:
  65-80 B);
* GC-tracked objects reachable from the graph, per triple, after one
  collection (set-only: 3.8-4.6; now 0.77-0.93 -- a tuple of ints is
  untracked by its first collection, a set never is).
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from repro.datagen import big_lod_graph, government_graph
from repro.rdf import Graph, load_graph
from repro.rdf.sharding import ShardedTripleStore

LEAF_BYTES_PER_TRIPLE = 85
TRACKED_PER_TRIPLE = 1.5

_NOT_DATA = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def _leaves(graph):
    if graph.is_sharded:
        indexes = [i for shard in graph.shards for i in (shard.spo, shard.pos, shard.osp)]
    else:
        indexes = [graph.spo_ids(), graph.pos_ids(), graph.osp_ids()]
    return [leaf for index in indexes for inner in index.values() for leaf in inner.values()]


def _tracked_reachable(root) -> int:
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _NOT_DATA):
                seen.add(id(ref))
                stack.append(ref)
    return count


def _check(graph):
    leaves = _leaves(graph)
    assert sum(map(len, leaves)) == 3 * len(graph)
    sets = [leaf for leaf in leaves if type(leaf) is set]
    assert len(sets) == sum(len(leaf) > 1 for leaf in leaves)
    assert all(type(leaf) is tuple for leaf in leaves if len(leaf) == 1)
    assert len(sets) < len(leaves) / 10  # the premise: nearly every leaf is a singleton
    distinct = {id(leaf): leaf for leaf in leaves}.values()
    assert sum(map(sys.getsizeof, distinct)) / len(graph) <= LEAF_BYTES_PER_TRIPLE
    gc.collect()
    assert _tracked_reachable(graph) / len(graph) <= TRACKED_PER_TRIPLE


@pytest.fixture(scope="module", params=["government", "census-1"])
def source(request):
    if request.param == "government":
        graph = government_graph(scale=1.0, seed=5)
        assert len(graph) == 12_427
        return graph
    # what build_world(seed=2020) hosts at http://lod1.example.org/sparql
    return big_lod_graph(
        class_count=16, group_count=4, instances_per_class=9, seed=2021, name="biglod1"
    )


def test_a_bulk_loaded_graph(source):
    _check(source)
    if len(source) == 12_427:
        assert sum(type(leaf) is set for leaf in _leaves(source)) == 989


def test_a_copy(source):
    _check(source.copy())


def test_an_eager_load(source, tmp_path):
    source.save(str(tmp_path))
    _check(load_graph(str(tmp_path), lazy=False))


def test_a_sharded_store_its_copy_and_its_loads(source, tmp_path):
    sharded = ShardedTripleStore.from_graph(source, 4)
    _check(sharded)
    _check(sharded.copy())
    sharded.save(str(tmp_path))
    _check(load_graph(str(tmp_path), lazy=False))
    lazy = load_graph(str(tmp_path), lazy=True)
    assert not any(shard.hydrated for shard in lazy.shards)
    assert sum(1 for _ in lazy.triples_ids()) == len(source)  # hydrates all four
    assert all(shard.hydrated for shard in lazy.shards)
    _check(lazy)


def test_single_triple_writes_build_the_same_leaves(source):
    """``add`` one at a time, then ``remove`` and re-``add`` a tenth: a
    leaf that never held two IDs is still a tuple."""
    triples = list(source.triples())[:3000]
    for shards in (None, 2):
        graph = Graph(shards=shards)
        for triple in triples:
            graph.add(triple)
        for triple in triples[::10]:
            graph.remove(triple)
        for triple in triples[::10]:
            graph.add(triple)
        leaves = _leaves(graph)
        assert sum(map(len, leaves)) == 3 * len(graph)
        assert all(type(leaf) is set for leaf in leaves if len(leaf) > 1)
        # never demoted, so a removal may leave a one-member set behind: at
        # most one per index per removed triple, and none from anywhere else
        shrunk = sum(type(leaf) is set and len(leaf) == 1 for leaf in leaves)
        assert shrunk <= 3 * len(triples[::10])
