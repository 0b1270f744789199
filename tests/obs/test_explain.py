"""EXPLAIN ANALYZE: annotated operator span trees per query."""

from __future__ import annotations

import pytest

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sparql import QueryEngine
from repro.sparql.evaluator import EXEC_STAT_KEYS

QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?person ?age WHERE { ?person a ex:Person ; ex:age ?age }
ORDER BY ?age
"""

AGGREGATE = """
PREFIX ex: <http://example.org/>
SELECT ?type (COUNT(?s) AS ?n) WHERE { ?s a ?type } GROUP BY ?type
"""


@pytest.mark.parametrize("strategy", ["hash", "scan"])
def test_explain_renders_operator_tree(small_graph, strategy):
    engine = QueryEngine(small_graph, strategy=strategy)
    report = engine.explain(QUERY)
    text = report.render()
    assert text.startswith(f"EXPLAIN ANALYZE  strategy={strategy}")
    assert "SELECT ?person ?age" in text  # the query is quoted back
    assert "sparql.run" in text
    assert "result: 2 rows" in text
    assert str(report) == text


def test_explain_shows_rows_in_out(small_graph):
    report = QueryEngine(small_graph, strategy="hash").explain(AGGREGATE)
    text = report.render()
    # operator spans carry row accounting from exec_stats
    assert "rows_out=" in text or "input_rows=" in text
    assert report.exec_stats["operator"] == "aggregate-id"


def test_every_sink_names_its_operator(small_graph):
    """The operator vocabulary: one name per columnar sink (the select
    sink takes a small-LIMIT page off the lazy chain), one for the general
    path (which takes an ORDER BY over solutions, LIMITed or not, and an
    expression projection) and one for ASK -- so no explained query
    reports empty exec_stats, a LIMIT 0 page included."""
    engine = QueryEngine(small_graph)
    for query, operator in (
        ("SELECT ?s WHERE { ?s ?p ?o }", "select-id"),
        (QUERY, "general"),
        (QUERY + " LIMIT 1", "general"),
        (AGGREGATE, "aggregate-id"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 0", "select-id"),
        ("SELECT (STR(?s) AS ?x) WHERE { ?s ?p ?o } LIMIT 0", "general"),
        ("ASK { ?s ?p ?o }", "ask"),
        ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY STR(?s)", "general"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "select-id"),
    ):
        report = engine.explain(query)
        assert report.exec_stats["operator"] == operator, query
        assert f"sparql.{operator}" in report.render()
    stats = report.exec_stats
    assert stats["input_rows"] == stats["decoded_rows"] == 5


def test_explain_reports_the_runs_a_sink_read(small_graph):
    """A run-fed count sink reads one key per group, and EXPLAIN ANALYZE
    reports it on the sink's line."""
    report = QueryEngine(small_graph).explain(AGGREGATE)
    stats = report.exec_stats
    assert stats["operator"] == "aggregate-id"
    # two classes' runs (three typed subjects before runs)
    assert stats["input_rows"] == stats["scan_cells"] == 2
    (line,) = [line for line in report.render().splitlines() if "sparql.aggregate-id" in line]
    assert "input_rows=2" in line and "scan_cells=2" in line


def test_aggregate_sink_reports_the_page_it_decoded(scholarly):
    """``aggregate-id`` orders and slices its groups before decoding:
    ``tracked_rows`` is the groups folded, ``decoded_rows`` the page."""
    from repro.serving import default_query_mix

    (top_entities,) = [
        template.text
        for template in default_query_mix()
        if template.name == "top-entities"
    ]
    groups = len({triple.subject for triple in scholarly})
    assert groups > 10
    report = QueryEngine(scholarly).explain(top_entities)
    stats = report.exec_stats
    assert stats["operator"] == "aggregate-id"
    assert stats["tracked_rows"] == groups
    assert stats["decoded_rows"] == report.rows == 10
    (operator_line,) = [
        line for line in report.render().splitlines() if "sparql.aggregate-id" in line
    ]
    assert "decoded_rows=10" in operator_line
    assert f"tracked_rows={groups}" in operator_line


def test_explain_records_only_in_its_own_tracer(small_graph):
    """An explain inside a traced execution on the same engine records
    nothing in that execution's tracer, and everything in its own."""
    engine = QueryEngine(small_graph)
    reports = []

    class Explaining(Tracer):
        def begin(self, name, canon=None, **attrs):
            span = super().begin(name, canon=canon, **attrs)
            reports.append(engine.explain(QUERY))
            return span

    serving = Explaining(seed=7)
    traced = engine.execute(QUERY, serving)
    assert traced.tracer is serving
    (report,) = reports
    # the serving tracer holds the traced execution's one span ...
    assert [span.name for span in serving.spans] == ["sparql.run"]
    assert serving.spans[0].attrs["exec_stats"] is traced.stats
    # ... and the explain everything in its private one
    assert report.tracer is not serving
    assert "sparql.run" in report.render()
    assert report.render() == QueryEngine(small_graph.copy()).explain(QUERY).render()


def test_an_untraced_execution_uses_the_null_recorder(small_graph):
    execution = QueryEngine(small_graph).execute(QUERY)
    assert execution.tracer is NULL_TRACER
    assert execution.stats["operator"] == "general"


def test_explain_is_deterministic(small_graph):
    """Two EXPLAINs of equal fresh graphs render equal.  A repeat on one
    graph finds the join's build table in the graph's probe cache, and
    says so: the build side's ``sparql.scan`` line is gone and
    ``sparql.probe_build`` reads ``cached=True`` -- nothing else moves but
    the tree glyph of the line that is now last."""
    engine = QueryEngine(small_graph)
    first = engine.explain(QUERY).render()
    assert QueryEngine(small_graph.copy()).explain(QUERY).render() == first
    repeat = engine.explain(QUERY).render()
    assert engine.explain(QUERY).render() == repeat

    (build,) = [line for line in first.splitlines() if "sparql.probe_build" in line]
    assert "cached=False" in build and "pattern=1" in build
    (build_scan,) = [
        line for line in first.splitlines()
        if "sparql.scan" in line and "pattern=1" in line
    ]
    expected = [
        _unglyphed(line.replace("cached=False", "cached=True"))
        for line in first.splitlines()
        if line != build_scan
    ]
    assert list(map(_unglyphed, repeat.splitlines())) == expected


def _unglyphed(line):
    """An EXPLAIN line without its tree glyph (``├──`` / ``└──``)."""
    return line.lstrip("├└─ ")


#: a page down the lazy chain, and an aggregate over encoded solutions
PAGE = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
OPTIONAL_AGGREGATE = (
    "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s a ?t OPTIONAL { ?s ?p ?o } } GROUP BY ?s"
)


#: the routes an execution names in ``stats["operator"]``
OPERATORS = {"select-id", "aggregate-id", "general", "ask"}


@pytest.mark.parametrize("strategy", ["hash", "scan"])
def test_exec_stats_stay_in_vocabulary(small_graph, strategy):
    """Engines only ever write the EXEC_STAT_KEYS vocabulary — the
    EXPLAIN renderer, the latency model and the metrics bridge all key
    off these names -- and every execution names its route from
    OPERATORS."""
    engine = QueryEngine(small_graph, strategy=strategy)
    for query in (QUERY, AGGREGATE, PAGE, OPTIONAL_AGGREGATE, "ASK { ?s ?p ?o }"):
        stats = engine.execute(query).stats
        assert set(stats) <= EXEC_STAT_KEYS
        assert stats["operator"] in OPERATORS, query


def test_each_execution_keeps_its_own_stats(small_graph):
    """A later query on the same engine leaves an earlier execution's
    counters as they were."""
    engine = QueryEngine(small_graph)
    first = engine.execute(QUERY)
    before = dict(first.stats)
    second = engine.execute(AGGREGATE)
    assert first.stats == before
    assert first.stats is not second.stats
    assert (first.stats["operator"], second.stats["operator"]) == ("general", "aggregate-id")
