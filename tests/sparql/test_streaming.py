"""The streaming (volcano) pipeline: pushdown semantics and the plan cache.

Property tests pin the contract the LIMIT/OFFSET pushdown must honour:
paginating through the streaming pipeline returns exactly the rows that
materializing the full result and slicing it would -- on random graphs,
across join shapes, DISTINCT, OPTIONAL and UNION.  The laziness itself is
asserted by counting index scans, not by timing.

The compiled-plan cache and the parser AST LRU are covered here too,
including the invalidation rule (any graph mutation bumps
``Graph.generation`` and drops the engine's plans).
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal, Triple
from repro.sparql import QueryEngine, evaluate
from repro.sparql.parser import parse_cache_clear, parse_query

EX = "http://example.org/"

_locals = st.text(alphabet=string.ascii_lowercase[:6], min_size=1, max_size=2)
_subjects = _locals.map(lambda s: IRI(f"{EX}s/{s}"))
_predicates = st.sampled_from([IRI(f"{EX}p{i}") for i in range(3)])
_objects = st.one_of(
    _subjects,
    st.integers(min_value=0, max_value=9).map(Literal),
)

_triples = st.lists(
    st.tuples(_subjects, _predicates, _objects), min_size=0, max_size=40
)


def _graph(triple_specs) -> Graph:
    g = Graph()
    g.add_many_terms(triple_specs)
    return g


#: query templates exercising every streaming operator; {mod} takes the
#: LIMIT/OFFSET clause under test.
TEMPLATES = [
    "SELECT ?s ?o WHERE { ?s <http://example.org/p0> ?o } {mod}",
    "SELECT ?s ?o ?v WHERE { ?s <http://example.org/p0> ?o . "
    "?o <http://example.org/p1> ?v } {mod}",
    "SELECT DISTINCT ?o WHERE { ?s ?p ?o } {mod}",
    "SELECT ?s ?l WHERE { ?s <http://example.org/p0> ?o "
    "OPTIONAL { ?s <http://example.org/p2> ?l } } {mod}",
    "SELECT ?s WHERE { { ?s <http://example.org/p1> ?o } UNION "
    "{ ?s <http://example.org/p2> ?o } } {mod}",
    "SELECT ?s ?o WHERE { ?s <http://example.org/p0> ?o "
    "FILTER ( isIRI(?o) ) } {mod}",
]


@settings(max_examples=40, deadline=None)
@given(
    specs=_triples,
    template=st.sampled_from(TEMPLATES),
    limit=st.integers(min_value=0, max_value=12),
    offset=st.integers(min_value=0, max_value=6),
)
def test_stream_limit_offset_matches_materialization(specs, template, limit, offset):
    """LIMIT/OFFSET over the streaming path == materialize-then-slice."""
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", ""), strategy="stream")
    paged = evaluate(
        graph, template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"), strategy="stream"
    )
    expected = full.rows[offset : offset + limit]
    assert paged.rows == expected
    assert paged.variables == full.variables


@settings(max_examples=40, deadline=None)
@given(specs=_triples, template=st.sampled_from(TEMPLATES))
def test_stream_matches_hash_on_random_graphs(specs, template):
    """Full (unbounded) streaming results == the eager hash pipeline's,
    as multisets -- neither engine promises an order."""
    graph = _graph(specs)
    stream = evaluate(graph, template.replace("{mod}", ""), strategy="stream")
    hashed = evaluate(graph, template.replace("{mod}", ""), strategy="hash")

    def canon(result):
        return sorted(
            tuple(
                (name, row[name].n3() if row[name] is not None else "")
                for name in sorted(row)
            )
            for row in result.rows
        )

    assert canon(stream) == canon(hashed)


def _chain_graph(length: int) -> Graph:
    g = Graph()
    p0, p1 = IRI(f"{EX}p0"), IRI(f"{EX}p1")
    nodes = [IRI(f"{EX}n{i}") for i in range(length + 1)]
    g.add_many_terms(
        [(nodes[i], p0, nodes[i + 1]) for i in range(length)]
        + [(nodes[i], p1, Literal(i)) for i in range(length + 1)]
    )
    return g


def _counting(graph: Graph):
    """Wrap graph.triples_ids with a scan-row counter."""
    counter = {"rows": 0}
    original = graph.triples_ids

    def counted(s=None, p=None, o=None):
        for triple in original(s, p, o):
            counter["rows"] += 1
            yield triple

    graph.triples_ids = counted  # type: ignore[method-assign]
    return counter


def test_stream_limit_stops_scanning_early():
    """LIMIT k pulls O(k) rows through the pipeline, not the full join."""
    graph = _chain_graph(400)
    query = (
        f"SELECT ?a ?v WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?v }} LIMIT 3"
    )
    counter = _counting(graph)
    result = evaluate(graph, query, strategy="stream")
    streamed_rows = counter["rows"]
    assert len(result.rows) == 3
    # 400 p0 triples + 401 p1 triples exist; three output rows must not
    # have scanned more than a small constant multiple of the limit.
    assert streamed_rows <= 30

    counter["rows"] = 0
    full = evaluate(graph, query.replace(" LIMIT 3", ""), strategy="stream")
    assert len(full.rows) == 400
    assert counter["rows"] >= 400


def test_hash_engine_delegates_limit_queries_to_streaming():
    """The default engine also stops early on LIMIT-bounded queries."""
    graph = _chain_graph(400)
    counter = _counting(graph)
    result = evaluate(
        graph,
        f"SELECT ?a ?v WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?v }} LIMIT 3",
        strategy="hash",
    )
    assert len(result.rows) == 3
    assert counter["rows"] <= 30


def test_ask_streams_one_witness():
    graph = _chain_graph(400)
    counter = _counting(graph)
    result = evaluate(
        graph,
        f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?v }}",
        strategy="stream",
    )
    assert bool(result) is True
    assert counter["rows"] <= 10


# ---------------------------------------------------------------------------
# the compiled-plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_hits_on_repeated_queries():
    graph = _chain_graph(10)
    engine = QueryEngine(graph)
    query = f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b }}"
    engine.run(query)
    misses_after_first = engine.plan_cache_info()["misses"]
    assert misses_after_first >= 1
    engine.run(query)
    engine.run(query)
    info = engine.plan_cache_info()
    assert info["misses"] == misses_after_first  # no recompilation
    assert info["hits"] >= 2


def test_plan_cache_invalidated_by_graph_mutation():
    graph = _chain_graph(4)
    engine = QueryEngine(graph)
    query = f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b }}"
    assert len(engine.run(query).rows) == 4
    generation = graph.generation
    graph.add(Triple(IRI(f"{EX}extra"), IRI(f"{EX}p0"), IRI(f"{EX}n0")))
    assert graph.generation > generation
    # the cached plan must not be reused against the mutated graph
    assert len(engine.run(query).rows) == 5
    assert engine.plan_cache_info()["generation"] == graph.generation


def test_graph_generation_counts_every_mutation():
    g = Graph()
    assert g.generation == 0
    s, p, o = IRI(f"{EX}a"), IRI(f"{EX}p"), IRI(f"{EX}b")
    g.add(Triple(s, p, o))
    after_add = g.generation
    assert after_add > 0
    g.add_many_terms([(s, p, IRI(f"{EX}c"))])
    assert g.generation > after_add
    before_remove = g.generation
    g.remove(Triple(s, p, o))
    assert g.generation > before_remove
    before_clear = g.generation
    g.clear()
    assert g.generation > before_clear


def test_graph_generation_ignores_noop_mutations():
    """The other half of the invalidation rule: writes that change nothing
    must not bump (a bump would needlessly flush every derived cache)."""
    g = Graph()
    s, p, o = IRI(f"{EX}a"), IRI(f"{EX}p"), IRI(f"{EX}b")
    g.add(Triple(s, p, o))
    generation = g.generation
    assert g.add(Triple(s, p, o)) is False  # duplicate add
    assert g.remove(Triple(s, p, IRI(f"{EX}absent"))) is False  # absent remove
    assert g.add_many_terms([(s, p, o), (s, p, o)]) == 0  # all-duplicate batch
    assert g.generation == generation


def test_plan_cache_survives_noop_mutations():
    """Regression: a duplicate load between two runs of the same query must
    not evict the compiled plan (PR 4 bumped the generation on every write,
    so duplicate adds flushed the shared plan cache and every
    ``derived_cache`` consumer)."""
    graph = _chain_graph(4)
    engine = QueryEngine(graph)
    query = f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b }}"
    engine.run(query)
    misses = engine.plan_cache_info()["misses"]
    hits = engine.plan_cache_info()["hits"]
    # replay part of the load: pure no-ops
    assert graph.add(Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), IRI(f"{EX}n1"))) is False
    assert graph.remove(Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), IRI(f"{EX}gone"))) is False
    engine.run(query)
    info = engine.plan_cache_info()
    assert info["misses"] == misses  # the plan survived
    assert info["hits"] > hits
    assert info["generation"] == graph.generation


# ---------------------------------------------------------------------------
# the parser AST LRU
# ---------------------------------------------------------------------------


def test_parse_cache_returns_same_ast_object():
    parse_cache_clear()
    text = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    first = parse_query(text)
    second = parse_query(text)
    assert first is second
    assert parse_query(text + " ") is not first  # different text, new AST


def test_parse_cache_holds_a_fleet_pass_of_extraction_texts():
    """The AST LRU is sized to a census pass: 6k distinct per-class
    extraction texts re-parse to the same AST objects, so the second
    pass's identity-keyed plan lookups all hit."""
    parse_cache_clear()
    per_graph = 192  # under PLAN_CACHE_SIZE, like one endpoint's probes
    graphs = [_chain_graph(2) for _ in range(32)]
    texts = [
        f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s a <{EX}class/{i}> . ?s ?p ?o }} "
        "GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 10"
        for i in range(per_graph * len(graphs))
    ]
    assert len(texts) >= 6000

    def census_pass():
        asts = []
        for index, graph in enumerate(graphs):
            engine = QueryEngine(graph)
            for text in texts[index * per_graph : (index + 1) * per_graph]:
                asts.append(parse_query(text))
                engine.run(asts[-1])
        return asts

    first = census_pass()
    misses = [QueryEngine(graph).plan_cache_info()["misses"] for graph in graphs]
    assert misses == [per_graph] * len(graphs)
    second = census_pass()
    assert all(a is b for a, b in zip(first, second))
    for graph in graphs:
        info = QueryEngine(graph).plan_cache_info()
        assert info["misses"] == per_graph  # no plan was compiled twice
        assert info["hits"] == per_graph


def test_parse_cache_does_not_leak_results_across_graphs():
    """The cached AST is graph-independent: one parse, many graphs."""
    parse_cache_clear()
    text = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    g1 = _chain_graph(3)
    g2 = _chain_graph(7)
    assert len(evaluate(g1, text).rows) == 3
    assert len(evaluate(g2, text).rows) == 7
    assert len(evaluate(g1, text, strategy="stream").rows) == 3
