"""Unit tests for SPARQL aggregation: GROUP BY, HAVING, the fold functions."""

import pytest

from repro.rdf import Literal, parse_turtle
from repro.sparql import QueryEngine, evaluate

GRAPH = parse_turtle(
    """
    @prefix ex: <http://example.org/> .

    ex:a1 a ex:A ; ex:v 1 ; ex:tag "x" .
    ex:a2 a ex:A ; ex:v 2 ; ex:tag "y" .
    ex:a3 a ex:A ; ex:v 3 ; ex:tag "x" .
    ex:b1 a ex:B ; ex:v 10 .
    ex:b2 a ex:B ; ex:v 30 .
    """
)


def rows(query: str):
    return evaluate(GRAPH, "PREFIX ex: <http://example.org/>\n" + query)


class TestCount:
    def test_count_star(self):
        result = rows("SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:A }")
        assert result.scalar_int() == 3

    def test_count_star_empty_pattern_gives_zero_row(self):
        result = rows("SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Missing }")
        assert len(result) == 1
        assert result.scalar_int() == 0

    def test_count_variable_skips_unbound(self):
        result = rows(
            "SELECT (COUNT(?tag) AS ?n) WHERE { ?s a ex:A OPTIONAL { ?s ex:tag ?tag } }"
        )
        assert result.scalar_int() == 3

    def test_count_distinct(self):
        result = rows(
            "SELECT (COUNT(DISTINCT ?tag) AS ?n) WHERE { ?s ex:tag ?tag }"
        )
        assert result.scalar_int() == 2


class TestGroupBy:
    def test_group_counts(self):
        result = rows("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c")
        counts = {str(r["c"]).rsplit("/", 1)[-1]: int(r["n"].lexical) for r in result}
        assert counts == {"A": 3, "B": 2}

    def test_group_key_projected(self):
        result = rows(
            "SELECT ?c (SUM(?v) AS ?total) WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c"
        )
        totals = {str(r["c"]).rsplit("/", 1)[-1]: int(r["total"].lexical) for r in result}
        assert totals == {"A": 6, "B": 40}

    def test_having_filters_groups(self):
        result = rows(
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 2)"
        )
        assert len(result) == 1
        assert str(result[0]["c"]).endswith("A")

    def test_order_by_aggregate_alias(self):
        result = rows(
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)"
        )
        counts = [int(r["n"].lexical) for r in result]
        assert counts == sorted(counts, reverse=True)


class TestFolds:
    def test_sum_avg_min_max(self):
        result = rows(
            "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
            "WHERE { ?x a ex:A . ?x ex:v ?v }"
        )
        row = result[0]
        assert int(row["s"].lexical) == 6
        assert int(row["a"].lexical) == 2
        assert int(row["lo"].lexical) == 1
        assert int(row["hi"].lexical) == 3

    def test_avg_float(self):
        result = rows("SELECT (AVG(?v) AS ?a) WHERE { ?x a ex:B . ?x ex:v ?v }")
        assert float(result[0]["a"].lexical) == 20.0

    def test_sample_returns_a_member(self):
        result = rows("SELECT (SAMPLE(?v) AS ?one) WHERE { ?x ex:v ?v }")
        assert int(result[0]["one"].lexical) in (1, 2, 3, 10, 30)

    def test_group_concat(self):
        result = rows(
            "SELECT (GROUP_CONCAT(?tag ; SEPARATOR = ',') AS ?tags) "
            "WHERE { ?s ex:tag ?tag } "
        )
        parts = sorted(result[0]["tags"].lexical.split(","))
        assert parts == ["x", "x", "y"]

    def test_group_concat_distinct(self):
        result = rows(
            "SELECT (GROUP_CONCAT(DISTINCT ?tag ; SEPARATOR = '|') AS ?tags) "
            "WHERE { ?s ex:tag ?tag }"
        )
        assert sorted(result[0]["tags"].lexical.split("|")) == ["x", "y"]

    def test_min_max_empty_group_is_unbound(self):
        result = rows("SELECT (MAX(?v) AS ?m) WHERE { ?x a ex:Missing . ?x ex:v ?v }")
        assert result[0]["m"] is None

    def test_sum_empty_group_is_zero(self):
        result = rows("SELECT (SUM(?v) AS ?m) WHERE { ?x a ex:Missing . ?x ex:v ?v }")
        assert int(result[0]["m"].lexical) == 0

    def test_arithmetic_over_aggregate(self):
        result = rows("SELECT ((SUM(?v) + 4) AS ?m) WHERE { ?x a ex:A . ?x ex:v ?v }")
        assert int(result[0]["m"].lexical) == 10


PREFIX = "PREFIX ex: <http://example.org/>\n"


class TestHavingPushdown:
    """HAVING over aggregate-vs-constant conjuncts gates at fold time.

    Every case runs through the hash fast path and the stream fold and
    must match the scan oracle's materialized member-list evaluation.
    """

    PUSHABLE = [
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 2)",
        # constant on the left: the probe flips the operator
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (3 <= COUNT(?s))",
        # conjunction of two aggregate predicates, one unprojected
        "SELECT ?c WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c "
        "HAVING (COUNT(?s) >= 2 && SUM(?v) < 10)",
        # DISTINCT aggregate in the predicate
        "SELECT ?s WHERE { ?s ex:tag ?t } GROUP BY ?s HAVING (COUNT(DISTINCT ?t) >= 1)",
        # gate below every group (empty result)
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 99)",
        # implicit single group over an empty pattern: COUNT(*)=0 fails
        "SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Missing } HAVING (COUNT(*) > 0)",
    ]

    @staticmethod
    def _canonical(result):
        return sorted(
            tuple((k, str(v)) for k, v in sorted(row.items())) for row in result.rows
        )

    @pytest.mark.parametrize("query", PUSHABLE)
    def test_matches_scan_oracle(self, query):
        text = PREFIX + query
        oracle = QueryEngine(GRAPH, strategy="scan").run(text)
        for strategy in ("hash", "stream"):
            engine = QueryEngine(GRAPH, strategy=strategy)
            result = engine.run(text)
            assert self._canonical(result) == self._canonical(oracle), strategy
            # proof the fold path (not the materialized one) answered
            assert engine.exec_stats.get("operator") in (
                "aggregate-id",
                "stream-aggregate",
            ), strategy
            assert "having_pruned" in engine.exec_stats

    def test_prunes_at_fold_time(self):
        engine = QueryEngine(GRAPH)
        result = engine.run(
            PREFIX
            + "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c "
            + "HAVING (COUNT(?s) > 2)"
        )
        assert len(result.rows) == 1
        assert engine.exec_stats["having_pruned"] == 1
        assert engine.exec_stats["tracked_rows"] == 2  # both groups folded

    def test_non_pushable_having_still_works(self):
        # expression-valued predicate: falls back to the materialized path
        text = (
            PREFIX
            + "SELECT ?c WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c "
            + "HAVING (SUM(?v) * 2 > 10)"
        )
        oracle = QueryEngine(GRAPH, strategy="scan").run(text)
        for strategy in ("hash", "stream"):
            engine = QueryEngine(GRAPH, strategy=strategy)
            result = engine.run(text)
            assert self._canonical(result) == self._canonical(oracle)
            assert "having_pruned" not in engine.exec_stats

    def test_probe_rejects_non_aggregate_operands(self):
        from repro.sparql.parser import parse_query

        pushable = parse_query(
            PREFIX
            + "SELECT ?c WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 1)"
        )
        assert pushable.having_aggregate_conjuncts() is not None
        rejected = parse_query(
            PREFIX
            + "SELECT ?c WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c "
            + "HAVING (SUM(?v) > COUNT(?s))"
        )
        assert rejected.having_aggregate_conjuncts() is None
