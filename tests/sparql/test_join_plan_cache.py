"""The eager join is planned once per graph generation and input layout.

``plan_join``'s output rides in the plan-cache entry of its BGP, so a
repeated join -- the same query text on any engine of one graph -- is
planned once until a content-changing write moves ``graph.generation``.
What the plan holds is planned, never bound: each execution takes its
FILTER verdicts and its gate tables afresh (``join_plan.bind``), the gate
tables from the probe cache, so a query run from inside another shares the
plan but not the tables it bound nor the counters it keeps.
"""

from __future__ import annotations

import pytest

from repro.datagen import government_graph
from repro.obs.trace import Tracer
from repro.rdf import IRI, Literal, Triple
from repro.sparql import QueryEngine, join_plan

EX = "http://example.org/"
LINKS = (
    "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { "
    "?s a ?c . ?s ?p ?o . ?o a ?target } GROUP BY ?c ?p ?target"
)
DATATYPES = "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
QUERIES = [LINKS, DATATYPES, "SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o . ?o a ?k }"]


@pytest.fixture
def graph():
    return government_graph(scale=0.2, seed=5)


@pytest.fixture
def planned(monkeypatch):
    """The number of times ``plan_join`` ran."""
    calls = []
    real = join_plan.plan_join

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(join_plan, "plan_join", counted)
    return calls


def _plans(graph):
    """Every join plan in *graph*'s plan cache."""
    cache = QueryEngine(graph)._plans
    return [plan for entry in cache._entries.values() for plan in entry[2].values()]


def _rows(result):
    return [sorted(row.items()) for row in result.rows]


@pytest.mark.parametrize("query", QUERIES)
def test_a_repeated_query_is_planned_once(graph, planned, query):
    first = QueryEngine(graph).execute(query)
    assert len(planned) == 1
    for engine in (QueryEngine(graph), QueryEngine(graph)):
        again = engine.execute(query)
        assert _rows(again.result) == _rows(first.result)
        assert again.stats == first.stats
    assert len(planned) == 1


def test_a_content_changing_write_replans_and_a_no_op_write_does_not(graph, planned):
    engine = QueryEngine(graph)
    before = _rows(engine.execute(LINKS).result)
    assert len(planned) == 1
    subject = next(iter(graph.triples())).subject
    # a no-op write: the triple is there already
    assert graph.add(next(iter(graph.triples()))) is False
    assert _rows(engine.execute(LINKS).result) == before
    assert len(planned) == 1
    graph.add(Triple(subject, IRI(f"{EX}fresh"), Literal("new")))
    assert _rows(engine.execute(LINKS).result) == before  # a literal is no link
    assert len(planned) == 2
    assert _rows(engine.execute(LINKS).result) == before
    assert len(planned) == 2


def test_a_plan_holds_no_table_and_no_verdict(graph):
    engine = QueryEngine(graph)
    for query in QUERIES:
        engine.execute(query)
    plans = _plans(graph)
    assert plans
    gated = 0
    for steps, _deferred in plans:
        for step in steps:
            assert step.checks == {} and step.table is None
            gated += step.gate is not None
    assert gated  # the links question's middle step is gated


def test_each_execution_binds_its_own_tables(graph, monkeypatch):
    bound = []
    real = join_plan.bind
    monkeypatch.setattr(
        join_plan, "bind", lambda *args: bound.append(real(*args)) or bound[-1]
    )
    engine = QueryEngine(graph)
    engine.execute(LINKS)
    engine.execute(LINKS)
    first, second = bound
    gated = [k for k, step in enumerate(first) if step.table is not None]
    assert gated
    for k in gated:
        # two bindings of one planned step, each holding the probe cache's
        # one table (a warm graph hits it)
        assert first[k] is not second[k]
        assert first[k].ep is second[k].ep and first[k].col_of is second[k].col_of
        assert first[k].table is second[k].table
    assert engine.probe_cache_info()["misses"] == len(gated)


class _Hook(Tracer):
    """A detail tracer that runs *inner* when the first span other than
    ``sparql.run`` opens, in the middle of the outer execution."""

    def __init__(self, inner):
        super().__init__(seed=0, detail=True)
        self.inner = inner
        self.answers = []

    def begin(self, name, canon=None, **attrs):
        span = super().begin(name, canon=canon, **attrs)
        if name != "sparql.run" and not self.answers:
            self.answers.append(self.inner())
        return span


@pytest.mark.parametrize("query", [LINKS, DATATYPES])
def test_a_query_inside_the_same_query_shares_the_plan_only(graph, planned, monkeypatch, query):
    clean = QueryEngine(graph.copy()).execute(query)
    planned.clear()
    bound = []
    real = join_plan.bind
    monkeypatch.setattr(
        join_plan, "bind", lambda *args: bound.append(real(*args)) or bound[-1]
    )
    engine = QueryEngine(graph)
    hook = _Hook(lambda: engine.execute(query))
    outer = engine.execute(query, hook)

    (inner,) = hook.answers
    assert len(planned) == 1  # the inner run found the outer's plan
    outer_steps, inner_steps = bound
    assert [step.ep for step in outer_steps] == [step.ep for step in inner_steps]
    assert not any(a is b for a, b in zip(outer_steps, inner_steps) if a.checks or b.checks)
    assert outer.stats == inner.stats == clean.stats
    assert _rows(outer.result) == _rows(inner.result) == _rows(clean.result)
    for steps, _deferred in _plans(graph):
        assert all(step.checks == {} and step.table is None for step in steps)
