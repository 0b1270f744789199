"""One ``Execution`` per query: the engine is re-entrant.

``QueryEngine.execute`` gives every query its own counters and tracer, so a
query started while another runs on the same engine -- here from a tracer
hook, the first time the outer execution records an operator span -- leaves
the outer one's ``stats``, its ``sparql.run`` span and its rows exactly what
a clean run gives.  When the counters lived on the engine, the inner query
replaced them: the outer ``aggregate-id`` query then reported the inner
``SELECT DISTINCT ?p``'s ``distinct_keys`` and ``scan_cells``.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.obs.trace import Tracer
from repro.sparql import QueryEngine

OUTER = {
    "aggregate-id": "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c",
    # an ORDER BY over solutions: the general path
    "ordered-page": "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 5",
    "join-distinct": (
        "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
    ),
    "join-aggregate": (
        "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { "
        "?s a ?c . ?s ?p ?o . ?o a ?target } GROUP BY ?c ?p ?target"
    ),
    "join-page": "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 20",
    # an OPTIONAL: the general path
    "optional-aggregate": (
        "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?s a ?c OPTIONAL { ?s ?p ?c } } GROUP BY ?c"
    ),
    "ask": "ASK { ?s a ?c }",
}
INNER = "SELECT DISTINCT ?p WHERE { ?s ?p ?o }"


class Hook(Tracer):
    """A detail tracer that calls *inner* once, when the first span other
    than ``sparql.run`` opens: mid-execution, after the outer query has
    booked some of its counters."""

    def __init__(self, inner):
        super().__init__(seed=0, detail=True)
        self.inner = inner
        self.answers = []

    def begin(self, name, canon=None, **attrs):
        span = super().begin(name, canon=canon, **attrs)
        if name != "sparql.run" and not self.answers:
            self.answers.append(self.inner())
        return span


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=0.2, seed=5)


def _rows(result):
    rows = getattr(result, "rows", None)
    return result.value if rows is None else [sorted(row.items()) for row in rows]


def _run_span(tracer):
    (span,) = [span for span in tracer.spans if span.name == "sparql.run"]
    return span.attrs["exec_stats"]


@pytest.mark.parametrize("inner_kind", ["execute", "explain"])
@pytest.mark.parametrize("name", sorted(OUTER))
def test_a_query_inside_a_query_leaves_the_outer_execution_alone(graph, name, inner_kind):
    query = OUTER[name]
    clean_tracer = Tracer(seed=0, detail=True)
    clean = QueryEngine(graph.copy()).execute(query, clean_tracer)
    inner_clean = QueryEngine(graph.copy()).execute(INNER)

    engine = QueryEngine(graph)
    if inner_kind == "execute":
        hook = Hook(lambda: engine.execute(INNER))
    else:
        hook = Hook(lambda: engine.explain(INNER))
    outer = engine.execute(query, hook)

    (inner,) = hook.answers  # the hook fired inside the outer execution
    assert outer.stats == clean.stats
    assert _run_span(hook) == _run_span(clean_tracer) == clean.stats
    assert _rows(outer.result) == _rows(clean.result)
    inner_stats = inner.stats if inner_kind == "execute" else inner.exec_stats
    assert inner_stats == inner_clean.stats
