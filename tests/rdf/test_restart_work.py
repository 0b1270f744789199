"""What a restart builds: SPO and the subject sizes, not POS or OSP.

A shard ``load_graph`` returns fills POS and OSP from its snapshot on the
first read of either.  The restart ``store_cycle`` times -- save, a WAL
tail, an eager load with its digest check and WAL replay, a lazy load,
``content_digest`` and subject lookups -- reads SPO only, so it must leave
every shard's ``secondaries_built`` false; the first predicate-bound read
builds them, and so does a log as long as the shard's base.
"""

from __future__ import annotations

import pytest

import reference_set_index
from repro.datagen import scholarly_graph
from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.durability import attach_journal, content_digest, load_graph
from repro.rdf.namespaces import RDF
from test_leaf_order import _check_reads

SHARDS = 4
TAIL = 64
LOOKUPS = 200


def _tagged(i: int) -> Triple:
    return Triple(IRI(f"http://example.org/tail{i}"), IRI("http://example.org/tag"), Literal(i))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A saved sharded store with a WAL tail, and the live graph."""
    root = str(tmp_path_factory.mktemp("restart"))
    graph = Graph(identifier="restart", shards=SHARDS)
    graph.add_many_terms((t.subject, t.predicate, t.object)
                         for t in scholarly_graph(scale=0.2, seed=42).triples())
    graph.save(root)
    journal = attach_journal(graph, root)
    for i in range(TAIL):
        graph.add(_tagged(i))
    journal.close()
    return root, graph


def _restart(root, graph):
    """The restart: eager load (digest-checked, WAL replayed), its content
    digest, a lazy load and subject lookups on it."""
    eager = load_graph(root, lazy=False)
    assert content_digest(eager) == content_digest(graph)
    lazy = load_graph(root, lazy=True)
    subjects = sorted({t.subject for t in graph.triples()}, key=str)[:LOOKUPS]
    assert len(subjects) == LOOKUPS
    found = sum(len(list(lazy.triples(subject=s))) for s in subjects)
    assert found == sum(graph.count(subject=s) for s in subjects)
    return eager, lazy


def test_a_restart_builds_no_secondary_index(store):
    root, graph = store
    eager, lazy = _restart(root, graph)
    assert len(eager) == len(graph) and len(lazy) == len(graph)
    assert all(shard.hydrated for shard in eager.shards)
    assert any(shard.hydrated for shard in lazy.shards)
    for loaded in (eager, lazy):
        assert [shard.secondaries_built for shard in loaded.shards] == [False] * SHARDS


def test_the_first_predicate_bound_read_builds_them(store):
    root, graph = store
    eager, lazy = _restart(root, graph)
    for loaded in (eager, lazy):
        p = loaded.lookup_id(RDF.type)
        rows = list(loaded.triples_ids(p=p))
        assert rows == list(graph.triples_ids(p=p))
        assert all(shard.secondaries_built for shard in loaded.shards)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_a_log_as_long_as_the_base_builds_them(tmp_path, lazy):
    """The log is bounded by the shard's base: one write short of it the
    secondaries wait, at it they are built, holding every write."""
    root = str(tmp_path)
    graph = Graph()
    for i in range(10):
        graph.add(_tagged(i))
    graph.save(root)
    loaded = load_graph(root, lazy=lazy)
    (shard,) = loaded.shards
    writes = [(loaded.remove, _tagged(0)), (loaded.add, _tagged(0))] + [
        (loaded.add, _tagged(i)) for i in range(10, 17)
    ]
    assert len(writes) == len(graph) - 1
    for write, triple in writes:
        assert write(triple)
        assert not shard.secondaries_built
    assert loaded.add(_tagged(17))
    assert shard.secondaries_built
    tag = IRI("http://example.org/tag")
    rows = list(loaded.triples(predicate=tag))  # their order: test_leaf_order.py
    assert len(rows) == 18 and set(rows) == {_tagged(i) for i in range(18)}


def _small_store(root):
    """A saved 2-shard store of 50 triples loaded eagerly, and the
    set-only reference store of the same triples."""
    graph = Graph(shards=2)
    model = reference_set_index.SetOnlyStore(2)
    for i in range(50):
        assert graph.add(_tagged(i)) and model.add(_tagged(i))
    graph.save(root)
    return model.reloaded(), load_graph(root, lazy=False)


def _terms(triples):
    return [(t.subject, t.predicate, t.object) for t in triples]


def test_a_bulk_load_of_duplicates_builds_nothing(tmp_path):
    model, loaded = _small_store(str(tmp_path))
    assert loaded.add_many_terms(_terms([_tagged(3), _tagged(17), _tagged(40)])) == 0
    assert not loaded.add(_tagged(5))
    assert [shard.secondaries_built for shard in loaded.shards] == [False, False]
    _check_reads(loaded, model, 7)


def test_a_bulk_load_builds_only_the_shard_it_writes(tmp_path):
    model, loaded = _small_store(str(tmp_path))
    new = Triple(IRI("http://example.org/fresh"), IRI("http://example.org/tag"), Literal(-1))
    batch = [_tagged(i) for i in range(25)] + [new] + [_tagged(i) for i in range(25, 50)]
    assert loaded.add_many_terms(_terms(batch)) == 1
    assert sum([model.add(triple) for triple in batch]) == 1
    owner = loaded.shard_of(loaded.lookup_id(new.subject))
    assert [shard.secondaries_built for shard in loaded.shards] == [
        shard is owner for shard in loaded.shards
    ]
    _check_reads(loaded, model, 7)
