"""The columnar force kernel against its oracle, and the layout memo's contract.

``reference_force_layout.py`` (beside this file) is the object kernel the
columnar one replaced.  The two must agree on every float exactly: same
operations in the same order per variable, so ``hex()`` -- which also
tells ``-0.0`` from ``0.0`` -- and not ``approx``.
"""

import random

import pytest

import reference_force_layout as reference
from repro.viz import ForceLayout, Point, force_layout
from repro.viz.force_layout import (
    LAYOUT_CACHE_SIZE,
    layout_cache_clear,
    layout_cache_info,
)

ENOUGH_TO_HIT_ALPHA_MIN = 400  # alpha falls under alpha_min after 300 ticks
OPTIONS = (
    {},
    {"charge": -400.0, "link_distance": 140.0},
    {"charge": -30.5, "link_distance": 17.25, "link_strength": 0.31, "velocity_decay": 0.45},
)


def random_graph(seed: int):
    """Nodes and edges with every shape the kernel branches on."""
    rng = random.Random(seed)
    count = (1, 2, 60)[seed] if seed < 3 else rng.randint(3, 60)
    nodes = [f"n{i}" for i in range(count)]
    linked = nodes[: rng.randint(1, count)]  # the rest stay isolated
    shape = ("tree", "cycle", "random")[seed % 3]
    if shape == "tree":
        edges = [(linked[rng.randrange(i)], linked[i]) for i in range(1, len(linked))]
    elif shape == "cycle":  # a one-node cycle is a self-loop
        edges = [(linked[i - 1], linked[i]) for i in range(len(linked))]
    else:
        edges = [(rng.choice(linked), rng.choice(linked)) for _ in range(2 * len(linked))]
    edges += rng.choices(edges, k=len(edges) // 3)  # duplicate edges
    edges.append((linked[0], linked[0]))  # a self-loop
    rng.shuffle(edges)
    return nodes, edges


def state(layout):
    if isinstance(layout, reference.ForceLayout):
        columns = [[getattr(node, name) for node in layout.nodes] for name in ("x", "y", "vx", "vy")]
    else:
        columns = [layout.x, layout.y, layout.vx, layout.vy]
    return [[value.hex() for value in column] for column in columns] + [layout.alpha.hex()]


CASES = [
    (seed, iterations, OPTIONS[(seed // 4) % 3])
    for seed, iterations in enumerate((1, 50, 200, ENOUGH_TO_HIT_ALPHA_MIN) * 4)
]


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("seed,iterations,options", CASES)
    def test_every_float_equal(self, seed, iterations, options):
        nodes, edges = random_graph(seed)
        new = ForceLayout(nodes, edges, width=640.0, height=480.0, **options)
        old = reference.ForceLayout(nodes, edges, width=640.0, height=480.0, **options)
        assert state(new) == state(old)  # the phyllotaxis seed
        if seed % 2 and len(nodes) > 1:
            # two coincident nodes: the d2 < 1e-9 branch of the repulsion
            i, j = random.Random(seed).sample(range(len(nodes)), 2)
            new.x[j], new.y[j] = new.x[i], new.y[i]
            old.nodes[j].x, old.nodes[j].y = old.nodes[i].x, old.nodes[i].y
        new.run(iterations)
        old.run(iterations)
        assert state(new) == state(old)
        assert (new.alpha < new.alpha_min) == (iterations == ENOUGH_TO_HIT_ALPHA_MIN)
        assert new.positions() == old.positions()
        assert new.bounding_box() == old.bounding_box()

    def test_one_shot_equals_the_oracle(self):
        nodes, edges = random_graph(7)
        assert force_layout(nodes, edges, iterations=30, charge=-200.0) == (
            reference.force_layout(nodes, edges, iterations=30, charge=-200.0)
        )

    @pytest.mark.parametrize("ticks", [1, 37])
    def test_steps_equal_run(self, ticks):
        nodes, edges = random_graph(5)
        ran = ForceLayout(nodes, edges).run(ticks)
        stepped = ForceLayout(nodes, edges)
        for _ in range(ticks):
            stepped.step()
        assert state(stepped) == state(ran)


class TestLayoutMemo:
    NODES = ["a", "b", "c"]
    EDGES = [("a", "b"), ("b", "c")]

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        layout_cache_clear()
        yield
        layout_cache_clear()

    def test_hit_returns_an_equal_but_distinct_dict(self):
        first = force_layout(self.NODES, self.EDGES, iterations=20)
        second = force_layout(self.NODES, self.EDGES, iterations=20)
        assert (layout_cache_info().misses, layout_cache_info().hits) == (1, 1)
        assert second == first and second is not first
        expected = dict(first)
        first["a"] = Point(0.0, 0.0)
        del first["b"]
        assert force_layout(self.NODES, self.EDGES, iterations=20) == expected

    def test_key_is_content_not_identity(self):
        force_layout(self.NODES, self.EDGES, iterations=20)
        force_layout(tuple(self.NODES), (list(edge) for edge in self.EDGES), iterations=20)
        assert layout_cache_info().hits == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"iterations": 21},
            {"width": 801.0},
            {"height": 599.0},
            {"charge": -121.0},
            {"nodes": ["a", "c", "b"]},
            {"edges": [("b", "c"), ("a", "b")]},
        ],
    )
    def test_any_other_argument_is_a_miss(self, change):
        arguments = dict(nodes=self.NODES, edges=self.EDGES, iterations=20)
        base = force_layout(**arguments)
        changed = force_layout(**{**arguments, **change})
        assert (layout_cache_info().misses, layout_cache_info().hits) == (2, 0)
        assert changed != base

    def test_lru_never_exceeds_its_bound(self):
        assert layout_cache_info().maxsize == LAYOUT_CACHE_SIZE
        for i in range(LAYOUT_CACHE_SIZE + 10):
            force_layout([i], [], iterations=1)
        assert layout_cache_info().currsize == LAYOUT_CACHE_SIZE
        force_layout([0], [], iterations=1)  # evicted long ago
        assert layout_cache_info().hits == 0

    def test_unhashable_ids_raise_the_same_error_warm_or_cold(self):
        def message():
            with pytest.raises(TypeError) as raised:
                force_layout([["a"], ["b"]], [], iterations=1)
            return str(raised.value)

        with pytest.raises(TypeError) as raised:
            reference.force_layout([["a"], ["b"]], [], iterations=1)
        cold = message()
        force_layout(self.NODES, self.EDGES, iterations=1)
        assert cold == message() == str(raised.value)
        assert layout_cache_info().currsize == 1
