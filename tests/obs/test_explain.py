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


@pytest.mark.parametrize("strategy", ["hash", "stream", "scan"])
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
    """The operator vocabulary: one name per simple-shape sink (the
    un-LIMITed sort shares top-k's), one for the small-LIMIT streaming
    SELECT -- so an explained SELECT never reports empty exec_stats."""
    engine = QueryEngine(small_graph)
    for query, operator in (
        ("SELECT ?s WHERE { ?s ?p ?o }", "select-id"),
        (QUERY, "topk-id"),
        (QUERY + " LIMIT 1", "topk-id"),
        (AGGREGATE, "aggregate-id"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "stream-select"),
    ):
        report = engine.explain(query)
        assert report.exec_stats["operator"] == operator, query
        assert f"sparql.{operator}" in report.render()
    stats = engine.exec_stats_snapshot()
    assert stats["input_rows"] == stats["decoded_rows"] == 5


def test_explain_reports_rows_per_batch(small_graph, monkeypatch):
    """The columnar sinks record batches alongside input_rows, so
    EXPLAIN ANALYZE can report rows-per-batch without per-row cost."""
    monkeypatch.setattr(QueryEngine, "BATCH_SIZE", 2)
    report = QueryEngine(small_graph).explain(AGGREGATE)
    stats = report.exec_stats
    assert stats["operator"] == "aggregate-id"
    assert stats["batches"] == 2  # three typed subjects, two rows a batch
    assert stats["input_rows"] == 3
    assert "sparql.aggregate-id" in report.render()


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


def test_explain_restores_the_attached_recorder(small_graph):
    engine = QueryEngine(small_graph)
    attached = Tracer(seed=7)
    engine.obs = attached
    report = engine.explain(QUERY)
    assert engine.obs is attached
    # the explain run recorded nothing in the serving tracer ...
    assert attached.spans == []
    # ... and everything in its private one
    assert report.tracer is not attached
    assert report.tracer.spans


def test_explain_works_with_recorder_disabled(small_graph):
    engine = QueryEngine(small_graph)
    assert engine.obs is NULL_TRACER
    report = engine.explain(QUERY)
    assert engine.obs is NULL_TRACER
    assert "sparql.run" in report.render()


def test_explain_is_deterministic(small_graph):
    """Two EXPLAINs of equal fresh graphs render equal.  A repeat on one
    graph finds the join's build table in the graph's probe cache, and
    says so: the build side's ``sparql.scan`` line is gone and
    ``sparql.probe_build`` reads ``cached=True`` -- nothing else moves."""
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
        line.replace("cached=False", "cached=True")
        for line in first.splitlines()
        if line != build_scan
    ]
    assert repeat.splitlines() == expected


@pytest.mark.parametrize("strategy", ["hash", "stream", "scan"])
def test_exec_stats_stay_in_vocabulary(small_graph, strategy):
    """Engines only ever write the EXEC_STAT_KEYS vocabulary — the
    EXPLAIN renderer, the latency model and the metrics bridge all key
    off these names."""
    engine = QueryEngine(small_graph, strategy=strategy)
    for query in (QUERY, AGGREGATE, "ASK { ?s ?p ?o }"):
        engine.run(query)
        assert set(engine.exec_stats_snapshot()) <= EXEC_STAT_KEYS


def test_exec_stats_snapshot_is_a_copy(small_graph):
    engine = QueryEngine(small_graph)
    engine.run(QUERY)
    snapshot = engine.exec_stats_snapshot()
    snapshot["operator"] = "tampered"
    assert engine.exec_stats_snapshot() != snapshot or "operator" not in snapshot
