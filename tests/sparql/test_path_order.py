"""A property path's rows come out in one order under every hash seed.

The closures walk in discovery order (``paths._closure_pairs``: the nodes
a BFS reaches, in the order it met them, the start node first under
``*``; ``paths._node_universe``: the nodes in the order the triples name
them), never in a set's order, which for terms follows the string hash
and so ``PYTHONHASHSEED``.  Each query below is one BGP holding a path,
which ``hash`` and ``scan`` evaluate with the same code, so their ordered
rows are equal too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SD = "https://w3id.org/scholarlydata/"
SUB = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"

#: closures with both ends unbound and each end bound
QUERIES = [
    f"SELECT ?c ?d WHERE {{ ?c {SUB}* ?d }}",
    f"SELECT ?c ?d WHERE {{ ?c {SUB}+ ?d }}",
    f"SELECT ?d WHERE {{ <{SD}Conference> {SUB}* ?d }}",
    f"SELECT ?c WHERE {{ ?c {SUB}+ <{SD}Event> }}",
    f"SELECT ?c ?d WHERE {{ ?c ^{SUB}* ?d }}",
    f"SELECT ?c WHERE {{ <{SD}Event> ^{SUB}* ?c }}",
    f"SELECT ?s ?class WHERE {{ ?s a/{SUB}* ?class }}",
    f"SELECT ?s WHERE {{ ?s a/{SUB}* <{SD}Event> }}",
    f"SELECT ?class WHERE {{ <{SD}academicevent/13> a/{SUB}* ?class }}",
]

#: prints ``{strategy: [ordered rows per query]}`` as JSON
SCRIPT = """
import json, sys
from repro.datagen import scholarly_graph
from repro.sparql import QueryEngine
graph = scholarly_graph(0.2, 42)
queries = json.loads(sys.argv[1])
print(json.dumps({
    strategy: [
        [[row[name].n3() for name in result.variables] for row in result.rows]
        for result in map(QueryEngine(graph, strategy=strategy).run, queries)
    ]
    for strategy in ("hash", "scan")
}))
"""


def _rows_under(seed: str):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(QUERIES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_path_rows_are_the_same_under_every_hash_seed():
    first, second = _rows_under("0"), _rows_under("1")
    for strategy in ("hash", "scan"):
        for query, rows, again in zip(QUERIES, first[strategy], second[strategy]):
            assert rows, query
            assert rows == again, (strategy, query)
    # one BGP holding a path: both strategies run the same loop
    assert first["hash"] == first["scan"]
