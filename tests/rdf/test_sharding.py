"""ShardedTripleStore: partition invariants, facade parity, mutation."""

import random

import pytest

from repro.rdf import Graph, IRI, Literal, Shard, ShardedTripleStore, Triple

EX = "http://example.org/"


def _triple(i: int, j: int) -> Triple:
    return Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{j % 3}"), Literal(i * 10 + j))


def _populate(graph, subjects=12, fanout=4):
    graph.add_many(
        _triple(i, j) for i in range(subjects) for j in range(fanout)
    )
    return graph


class TestFacade:
    def test_graph_shards_kwarg_builds_sharded_store(self):
        g = Graph(shards=4)
        assert isinstance(g, ShardedTripleStore)
        assert isinstance(g, Graph)
        assert g.is_sharded and len(g.shards) == 4

    def test_plain_graph_is_not_sharded(self):
        g = Graph()
        assert type(g) is Graph
        assert not g.is_sharded

    def test_identifier_positional_still_works(self):
        assert Graph("name").identifier == "name"
        assert Graph("name", shards=2).identifier == "name"

    @pytest.mark.parametrize("shards", [0, -3, True, False, 2.0, 1.5, "4"])
    def test_invalid_shard_count(self, shards):
        """A shard count is an int >= 1; a bool, a float or a string is
        refused by name rather than built (``True`` was one shard) or
        failing inside ``range`` / ``<``."""
        with pytest.raises(ValueError, match="shards"):
            Graph(shards=shards)
        with pytest.raises(ValueError, match="shards"):
            ShardedTripleStore(shards=shards)

    def test_repr_mentions_shards(self):
        g = _populate(Graph(shards=3, identifier="r"))
        assert "3 shards" in repr(g)


class TestPartitioning:
    def test_every_triple_lands_in_its_subject_shard(self):
        g = _populate(Graph(shards=4))
        for s, by_p in g.spo_ids().items():
            shard = g.shard_of(s)
            assert shard is g.shards[s % 4]
            for p, objects in by_p.items():
                assert shard.spo[s][p] == objects

    def test_shards_partition_the_store(self):
        g = _populate(Graph(shards=4))
        assert sum(map(len, g.shards)) == len(g)
        subjects = [set(shard.spo) for shard in g.shards]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not subjects[i] & subjects[j]

    def test_shard_local_indexes_are_consistent(self):
        g = _populate(Graph(shards=4))
        for shard in g.shards:
            triples = sorted(shard.triples_ids())
            assert len(triples) == shard.size
            via_pos = sorted(
                (s, p, o)
                for p, by_o in shard.pos.items()
                for o, subjects in by_o.items()
                for s in subjects
            )
            via_osp = sorted(
                (s, p, o)
                for o, by_s in shard.osp.items()
                for s, predicates in by_s.items()
                for p in predicates
            )
            assert triples == via_pos == via_osp

    def test_merged_shards_equal_global_indexes(self):
        g = _populate(Graph(shards=8))
        merged = sorted(
            triple for shard in g.shards for triple in shard.triples_ids()
        )
        assert merged == sorted(g.triples_ids())


class TestMutationParity:
    """Random add/remove keeps the shards and the store's counts in lockstep."""

    def test_random_churn_keeps_partition_consistent(self):
        rng = random.Random(7)
        g = Graph(shards=4)
        pool = [_triple(i, j) for i in range(10) for j in range(4)]
        live = set()
        for _ in range(400):
            t = rng.choice(pool)
            if rng.random() < 0.6:
                assert g.add(t) == (t not in live)
                live.add(t)
            else:
                assert g.remove(t) == (t in live)
                live.discard(t)
            assert sum(map(len, g.shards)) == len(g) == len(live)
        merged = sorted(x for shard in g.shards for x in shard.triples_ids())
        assert merged == sorted(g.triples_ids())

    def test_parity_with_plain_graph(self):
        plain = _populate(Graph())
        sharded = _populate(Graph(shards=4))
        assert len(plain) == len(sharded)
        assert set(plain.triples()) == set(sharded.triples())
        assert plain.classes() == sharded.classes()
        victim = _triple(0, 0)
        assert plain.remove(victim) and sharded.remove(victim)
        assert set(plain.triples()) == set(sharded.triples())

    def test_add_many_terms_routes_to_shards(self):
        g = Graph(shards=4)
        added = g.add_many_terms(
            (t.subject, t.predicate, t.object)
            for t in (_triple(i, j) for i in range(6) for j in range(4))
        )
        assert added == 24 == len(g) == sum(map(len, g.shards))
        # duplicates are not double-counted anywhere
        assert g.add_many_terms([(_triple(0, 0).subject, _triple(0, 0).predicate, _triple(0, 0).object)]) == 0
        assert len(g) == sum(map(len, g.shards)) == 24

    def test_clear_resets_shards(self):
        g = _populate(Graph(shards=4))
        generation = g.generation
        g.clear()
        assert len(g) == 0 and tuple(map(len, g.shards)) == (0, 0, 0, 0)
        assert g.generation > generation
        g.add(_triple(1, 1))
        assert sum(map(len, g.shards)) == 1

    def test_copy_is_independent_and_sharded(self):
        g = _populate(Graph(shards=4))
        clone = g.copy()
        assert isinstance(clone, ShardedTripleStore)
        assert tuple(map(len, clone.shards)) == tuple(map(len, g.shards))
        clone.add(_triple(99, 1))
        assert len(clone) == len(g) + 1
        assert sum(map(len, g.shards)) == len(g)

    def test_from_graph_reencodes_identically_per_count(self):
        plain = _populate(Graph())
        stores = [ShardedTripleStore.from_graph(plain, n) for n in (1, 2, 4, 8)]
        for store in stores:
            assert set(store.triples()) == set(plain.triples())
            assert sum(map(len, store.shards)) == len(plain)
        # the shared-dictionary ID assignment is a pure function of the
        # source iteration order, so sorted ID runs agree across counts
        runs = [sorted(x for s in store.shards for x in s.triples_ids()) for store in stores]
        assert runs.count(runs[0]) == len(runs)


def _cells(index):
    return sum(len(leaves) for mid in index.values() for leaves in mid.values())


class TestSingleCopyStorage:
    """The shards are the only storage: no global double-write remains."""

    def test_the_shards_are_the_only_storage(self):
        """A graph holds no index of its own: the cells of its shards'
        SPO/POS/OSP are the whole store."""
        g = _populate(Graph(shards=4))
        assert not any(hasattr(g, name) for name in ("_spo", "_pos", "_osp"))
        assert sum(map(len, g.shards)) == len(g) == 48
        assert sum(
            _cells(shard.spo) + _cells(shard.pos) + _cells(shard.osp) for shard in g.shards
        ) == 3 * len(g)

    def test_three_index_cells_per_triple(self):
        """The memory half of the single-copy claim as a count: one cell
        per triple in each of SPO/POS/OSP across the shards, where the
        double-write layout it replaced held six."""
        for shards in (None, 1, 4):
            g = _populate(Graph(shards=shards))  # the bulk write path ...
            assert g.add(_triple(99, 0))  # ... and the single-triple one
            total = sum(
                _cells(shard.spo) + _cells(shard.pos) + _cells(shard.osp)
                for shard in g.shards
            )
            assert total == 3 * len(g)

    def test_routed_point_lookups(self):
        g = _populate(Graph(shards=4))
        present = _triple(3, 1)
        assert present in g
        assert _triple(99, 1) not in g
        assert g.count(present.subject, present.predicate, present.object) == 1
        assert g.count(predicate=IRI(f"{EX}p0")) == sum(
            1 for t in g.triples() if t.predicate == IRI(f"{EX}p0")
        )

    def test_routed_term_accessors_match_plain_graph(self):
        plain = _populate(Graph())
        sharded = _populate(Graph(shards=4))
        subject = IRI(f"{EX}s3")
        p = IRI(f"{EX}p0")
        assert set(sharded.objects(subject, p)) == set(plain.objects(subject, p))
        obj = _triple(3, 0).object
        assert set(sharded.subjects(p, obj)) == set(plain.subjects(p, obj))
        assert sharded.value(subject, p) is not None
        assert set(sharded.predicates(subject)) == set(plain.predicates(subject))
        assert sharded.count(subject) == plain.count(subject)

    def test_unbound_scans_merge_sorted_and_invariant(self):
        """triples_ids with the subject unbound is the canonical sorted
        merge: ascending (s, p, o), identical at every shard count."""
        stores = {
            n: ShardedTripleStore.from_graph(_populate(Graph()), n)
            for n in (1, 2, 4, 8)
        }
        baseline = list(stores[1].triples_ids())
        assert baseline == sorted(baseline)
        for n in (2, 4, 8):
            assert list(stores[n].triples_ids()) == baseline
        p_id = stores[1].lookup_id(IRI(f"{EX}p1"))
        p_runs = {n: list(store.triples_ids(p=p_id)) for n, store in stores.items()}
        assert all(run == p_runs[1] for run in p_runs.values())

    def test_merged_index_snapshots_are_isolated(self):
        g = _populate(Graph(shards=4))
        pos = g.pos_ids()
        flat = sorted(
            (s, p, o)
            for p, by_o in pos.items()
            for o, subjects in by_o.items()
            for s in subjects
        )
        assert flat == sorted(g.triples_ids())
        # mutating the snapshot must not corrupt shard state
        some_p = next(iter(pos))
        pos[some_p].clear()
        assert sorted(g.triples_ids()) == flat

    def test_node_ids_and_is_node_id_route(self):
        plain = _populate(Graph())
        sharded = _populate(Graph(shards=4))

        def nodes(graph):
            return {term_id for s, _p, o in graph.triples_ids() for term_id in (s, o)}

        assert {plain.decode_id(i) for i in nodes(plain)} == {
            sharded.decode_id(i) for i in nodes(sharded)
        }
        for term_id in nodes(sharded):
            assert sharded.is_node_id(term_id)

    def test_schema_helpers_route(self):
        g = Graph(shards=4)
        person = IRI(f"{EX}Person")
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        for i in range(6):
            g.add(Triple(IRI(f"{EX}i{i}"), rdf_type, person))
        assert g.classes() == {person}
        assert g.class_count(person) == 6
        assert len(g.instances_of(person)) == 6


class TestShardObject:
    def test_insert_discard_roundtrip(self):
        shard = Shard()
        shard.insert(1, 2, 3)
        shard.insert(1, 2, 4)
        assert len(shard) == 2
        assert sorted(shard.triples_ids(s=1)) == [(1, 2, 3), (1, 2, 4)]
        assert sorted(shard.triples_ids(p=2)) == [(1, 2, 3), (1, 2, 4)]
        assert list(shard.triples_ids(o=3)) == [(1, 2, 3)]
        shard.discard(1, 2, 3)
        assert len(shard) == 1
        assert not shard.pos[2].get(3)
        shard.discard(1, 2, 4)
        assert len(shard) == 0 and not shard.spo and not shard.pos and not shard.osp
