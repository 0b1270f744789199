"""Unit tests for SPARQL aggregation: GROUP BY, HAVING, the fold functions."""

import pytest

from repro.rdf import IRI, Graph, Literal, Triple, Variable, parse_turtle
from repro.rdf.terms import XSD_DECIMAL
from repro.sparql import Execution, QueryEngine, evaluate
from repro.sparql.parser import parse_query

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

    def test_a_distinct_fold_compares_each_value_a_bounded_number_of_times(self, monkeypatch):
        """DISTINCT dedups by hash, first seen first: folding N distinct
        IRIs compares O(N) pairs, not the N^2 / 2 of a seen-list."""
        n = 400
        query = parse_query("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }")
        aggregate = query.projections[0].expression
        s = Variable("s")
        members = [{s: IRI(f"http://example.org/s{i}")} for i in range(n)]
        members += members[: n // 2]  # repeats, in order
        compared = [0]
        equal = IRI.__eq__

        def counting_eq(self, other):
            compared[0] += 1
            return equal(self, other)

        monkeypatch.setattr(IRI, "__eq__", counting_eq)
        assert Execution(QueryEngine(GRAPH))._fold_aggregate(aggregate, members) == Literal(n)
        assert compared[0] <= 2 * n


#: two terms whose sort keys are equal: which one MIN and MAX return is
#: the fold's tie rule
ONE_INTEGER = Literal(1)
ONE_DECIMAL = Literal("1", datatype=XSD_DECIMAL)

#: one group's values, one subject each, inserted (and so met) in this
#: order, and the folds they give: MIN keeps the first of equal keys, MAX
#: the last; SUM / AVG add the numbers left to right -- a Literal that is no
#: number read as a float when it parses as one, and skipped (as an IRI is)
#: when it does not
FOLD_TABLE = [
    ("integer-then-decimal", [ONE_INTEGER, ONE_DECIMAL],
     {"lo": ONE_INTEGER, "hi": ONE_DECIMAL, "sum": Literal(2), "avg": Literal(1)}),
    ("decimal-then-integer", [ONE_DECIMAL, ONE_INTEGER],
     {"lo": ONE_DECIMAL, "hi": ONE_INTEGER, "sum": Literal(2), "avg": Literal(1)}),
    ("mixed", [Literal(2), Literal("0.5", datatype=XSD_DECIMAL), Literal("x"),
               IRI("http://example.org/thing"), Literal("1.5"), Literal(5)],
     {"sum": Literal(9), "avg": Literal(2.25)}),
    ("no-number", [Literal("x"), IRI("http://example.org/thing")],
     {"sum": Literal(0), "avg": None}),
]


@pytest.mark.parametrize("strategy", ["hash", "scan"])
@pytest.mark.parametrize(
    "values,expected", [row[1:] for row in FOLD_TABLE], ids=[row[0] for row in FOLD_TABLE]
)
def test_the_fold_table(strategy, values, expected):
    graph = Graph()
    v = IRI("http://example.org/v")
    for i, value in enumerate(values):
        graph.add(Triple(IRI(f"http://example.org/s{i}"), v, value))
    result = QueryEngine(graph, strategy=strategy).run(
        "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) "
        "WHERE { ?s <http://example.org/v> ?v }"
    )
    (row,) = result.rows
    for name, term in expected.items():
        assert row[name] == term, name
        if term is not None:
            assert row[name].datatype == term.datatype, name


PREFIX = "PREFIX ex: <http://example.org/>\n"


class TestHaving:
    """HAVING runs the general path: its groups are built and gated in
    term space (``operator == "general"``), as the scan oracle does.

    Every case must match the scan oracle's result.
    """

    CASES = [
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 2)",
        # constant on the left
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
        # OPTIONAL in the WHERE clause: the gate counts bound values only
        "SELECT ?c (COUNT(?t) AS ?n) WHERE { ?s a ?c OPTIONAL { ?s ex:tag ?t } } "
        "GROUP BY ?c HAVING (COUNT(?t) >= 1)",
        # an expression-valued predicate
        "SELECT ?c WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c HAVING (SUM(?v) * 2 > 10)",
        # aggregates on both sides
        "SELECT ?c WHERE { ?s a ?c . ?s ex:v ?v } GROUP BY ?c HAVING (SUM(?v) > COUNT(?s))",
    ]

    @staticmethod
    def _canonical(result):
        return sorted(
            tuple((k, str(v)) for k, v in sorted(row.items())) for row in result.rows
        )

    @pytest.mark.parametrize("query", CASES)
    def test_matches_scan_oracle(self, query):
        text = PREFIX + query
        oracle = QueryEngine(GRAPH, strategy="scan").run(text)
        execution = QueryEngine(GRAPH).execute(text)
        assert self._canonical(execution.result) == self._canonical(oracle)
        assert execution.stats["operator"] == "general"

    def test_gates_groups_after_folding(self):
        execution = QueryEngine(GRAPH).execute(
            PREFIX
            + "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c "
            + "HAVING (COUNT(?s) > 2)"
        )
        result = execution.result
        assert len(result.rows) == 1  # of the two groups
        assert int(result.rows[0]["n"].lexical) > 2
        assert execution.stats["operator"] == "general"

