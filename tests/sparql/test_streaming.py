"""The streaming (volcano) pipeline: pushdown semantics and the plan cache.

When the WHERE clause is the simple shape, the hash engine's select sink
reads a LIMIT <= 64 bare-variable page with no DISTINCT and no ORDER BY
off its lazy chain of ID rows, and every ASK stops on it.  Property tests pin the contract the
LIMIT/OFFSET pushdown must honour: a page is the same slice of a larger
page -- on random graphs, across join shapes, DISTINCT, OPTIONAL and
UNION -- and the chain's page is its first rows, the whole chain holding
the scan oracle's rows.  The laziness itself is asserted by counting
index scans, not by timing.

The compiled-plan cache and the parser AST LRU are covered here too,
including the invalidation rule (any graph mutation bumps
``Graph.generation`` and drops the engine's plans).
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import government_graph
from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.namespaces import RDF
from repro.sparql import Execution, QueryEngine, evaluate
from repro.sparql.parser import parse_cache_clear, parse_query

from test_conformance import check_chain_page

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
    """LIMIT/OFFSET over the streaming path == a larger page, sliced: every
    page of one query lands on the same pipeline."""
    graph = _graph(specs)
    full = evaluate(graph, template.replace("{mod}", "LIMIT 64"))
    paged = evaluate(graph, template.replace("{mod}", f"LIMIT {limit} OFFSET {offset}"))
    expected = full.rows[offset : offset + limit]
    assert paged.rows == expected
    assert paged.variables == full.variables


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
    result = evaluate(graph, query)
    streamed_rows = counter["rows"]
    assert len(result.rows) == 3
    # 400 p0 triples + 401 p1 triples exist; three output rows must not
    # have scanned more than a small constant multiple of the limit.
    assert streamed_rows <= 30

    counter["rows"] = 0
    full = evaluate(graph, query.replace(" LIMIT 3", ""))
    assert len(full.rows) == 400
    assert counter["rows"] >= 400


def test_ask_streams_one_witness():
    graph = _chain_graph(400)
    counter = _counting(graph)
    result = evaluate(graph, f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?v }}")
    assert bool(result) is True
    assert counter["rows"] <= 10


@pytest.mark.parametrize(
    "pattern,expected,rows",
    [
        ("?s ?p ?o", True, 1),
        (f"?a <{EX}p0> ?b", True, 1),
        (f"<{EX}n0> <{EX}p0> <{EX}n1>", True, 1),
        (f"<{EX}n1> <{EX}p0> <{EX}n0>", False, 0),
        (f"?s <{EX}absent> ?o", False, 0),
    ],
    ids=["spo", "one-predicate", "ground-hit", "ground-miss", "absent-predicate"],
)
def test_a_one_pattern_ask_reads_at_most_one_row(pattern, expected, rows):
    """A one-pattern ASK stops its chain at the first index row it reads;
    a pattern the dictionary cannot match reads none."""
    graph = _chain_graph(400)
    counter = _counting(graph)
    assert bool(evaluate(graph, f"ASK {{ {pattern} }}")) is expected
    assert counter["rows"] == rows


@pytest.mark.parametrize(
    "query",
    [
        f"SELECT ?o WHERE {{ <{EX}absent> <{EX}p0>* ?o }} LIMIT 5",
        f"SELECT ?s WHERE {{ ?s <{EX}p0>* <{EX}absent> }} LIMIT 5",
        f"SELECT ?a ?o WHERE {{ ?a <{EX}p1> 0 . <{EX}absent> <{EX}p0>* ?o }} LIMIT 5",
        f"ASK {{ <{EX}absent> <{EX}p0>* ?o }}",
        f"ASK {{ <{EX}absent> <{EX}p0>+ ?o }}",
    ],
)
def test_a_path_from_a_term_no_triple_holds(query):
    """A path with a constant endpoint the dictionary lacks: zero-length
    ``*`` reaches the term itself, ``+`` nothing -- as the oracle says, on
    a page and under ASK alike."""
    graph = _chain_graph(4)
    lazy, oracle = (evaluate(graph, query, strategy=s) for s in ("hash", "scan"))
    assert getattr(lazy, "rows", None) == getattr(oracle, "rows", None)
    assert bool(lazy) == bool(oracle)


# ---------------------------------------------------------------------------
# the ID page: a simple WHERE clause cut on the chain's ID rows
# ---------------------------------------------------------------------------

def _sharded(triple_specs) -> Graph:
    g = Graph(shards=2)
    g.add_many_terms(triple_specs)
    return g


_VARIABLES = ["?a", "?b", "?c"]
_TERM_TESTS = ["isIRI", "isLiteral", "isBlank", "bound"]
_variable = st.sampled_from(_VARIABLES)
# a position is a variable two times in three, so most patterns match
_pattern = st.tuples(
    st.one_of(_variable, _variable, _subjects.map(IRI.n3)),
    st.one_of(_variable, _variable, _predicates.map(IRI.n3), st.just(f"<{EX}absent>")),
    st.one_of(_variable, _variable, _objects.map(lambda term: term.n3())),
)


@st.composite
def _simple_pages(draw) -> str:
    """A simple-WHERE page: 1-3 patterns, at most one term-test FILTER
    (mostly over a variable the patterns bind), LIMIT 1-64, OFFSET 0-20."""
    patterns = draw(st.lists(_pattern, min_size=1, max_size=3))
    where = " . ".join(" ".join(pattern) for pattern in patterns)
    named = sorted({term for pattern in patterns for term in pattern if term in _VARIABLES})
    choices = st.sampled_from(named) if named else _variable
    if draw(st.integers(0, 3)):
        test = draw(st.sampled_from(_TERM_TESTS))
        where += f" FILTER ( {test}({draw(st.one_of(choices, choices, choices, _variable))}) )"
    projection = draw(st.lists(st.one_of(choices, choices, _variable), min_size=1, max_size=3))
    limit = draw(st.integers(min_value=1, max_value=64))
    offset = draw(st.integers(min_value=0, max_value=20))
    return f"SELECT {' '.join(projection)} WHERE {{ {where} }} LIMIT {limit} OFFSET {offset}"


def _chain_rows(graph: Graph, query):
    """The lazy ID chain's rows without a LIMIT, projected and decoded, in
    its order."""
    where = Execution._simple_where_shape(query.where)
    rows, col_of = Execution(QueryEngine(graph))._stream_id_rows(*where)
    layout = [(p.variable.name, col_of.get(p.expression.variable)) for p in query.projections]
    return [
        {name: None if column is None else graph.decode_id(row[column]) for name, column in layout}
        for row in rows
    ]


def _oracle_page(graph: Graph, text: str):
    """``(rows, pulled)``: the chain's first rows, sliced as the page is,
    and how many of them the page has to pull."""
    query = parse_query(text)
    rows = _chain_rows(graph, query)
    offset = query.offset or 0
    end = offset + query.limit
    return rows[offset:end], min(len(rows), end)


def _id_page(graph: Graph, text: str):
    execution = QueryEngine(graph).execute(text)
    assert execution.stats["operator"] == "select-id", text
    assert execution.stats["decoded_rows"] == len(execution.result.rows)
    return execution.result.rows, execution.stats["input_rows"]


def _multiset(rows):
    return sorted(map(repr, rows))


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(st.tuples(_subjects, _predicates, _objects), min_size=4, max_size=40),
       text=_simple_pages())
def test_the_id_page_is_the_chain_s_first_rows(specs, text):
    """The order fence of the ID page: on a plain and a two-shard graph,
    a random simple BGP's page is, as a list, the first rows of the chain
    run without a LIMIT, and ``input_rows`` the rows it pulled past the
    FILTER.  The whole chain, an index walk from each row at every later
    step, holds the scan oracle's rows."""
    whole = text.rsplit(" LIMIT ", 1)[0]
    for graph in (_graph(specs), _sharded(specs)):
        expected = _multiset(QueryEngine(graph, strategy="scan").run(whole).rows)
        assert _id_page(graph, text) == _oracle_page(graph, text), text
        assert _multiset(_chain_rows(graph, parse_query(whole))) == expected, text


_EDGE_GRAPH = [
    (IRI(f"{EX}s/a"), IRI(f"{EX}p0"), IRI(f"{EX}s/a")),
    (IRI(f"{EX}s/a"), IRI(f"{EX}p0"), IRI(f"{EX}s/b")),
    (IRI(f"{EX}s/b"), IRI(f"{EX}p1"), Literal(3)),
    (IRI(f"{EX}s/c"), IRI(f"{EX}p0"), IRI(f"{EX}s/c")),
]


@pytest.mark.parametrize("make", [_graph, _sharded], ids=["plain", "sharded"])
@pytest.mark.parametrize(
    "text,rows,pulled",
    [
        # a FILTER over a variable no pattern binds rejects every row
        ("SELECT ?s WHERE { ?s ?p ?o FILTER ( isIRI(?x) ) } LIMIT 5", [], 0),
        # a projected variable no pattern binds is a None cell
        (f"SELECT ?x ?o WHERE {{ <{EX}s/b> ?p ?o }} LIMIT 5",
         [{"x": None, "o": Literal(3)}], 1),
        # a repeated variable keeps the self-loops only
        ("SELECT ?s WHERE { ?s ?p ?s } LIMIT 5",
         [{"s": IRI(f"{EX}s/a")}, {"s": IRI(f"{EX}s/c")}], 2),
        # a predicate no graph has
        (f"SELECT ?s WHERE {{ ?s <{EX}absent> ?o }} LIMIT 5", [], 0),
        # one variable projected twice is one column
        (f"SELECT ?s ?s WHERE {{ ?s <{EX}p1> ?o }} LIMIT 5", [{"s": IRI(f"{EX}s/b")}], 1),
        # an OFFSET past the end pulls every row and keeps none
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 OFFSET 1000", [], 4),
    ],
    ids=["unbound-filter", "unbound-projection", "repeated-variable", "absent-predicate",
         "projected-twice", "offset-past-the-end"],
)
def test_id_page_edge_cases(make, text, rows, pulled):
    graph = make(_EDGE_GRAPH)
    assert _id_page(graph, text) == (rows, pulled)
    assert _oracle_page(graph, text) == (rows, pulled)
    assert _multiset(QueryEngine(graph, strategy="scan").run(text).rows) == _multiset(rows)


GOV = "http://gov.example.org/govdata/"
_HOSPITAL = f"<{GOV}Hospital>"
_IN = f"<{GOV}hospitalInMunicipality>"
_H0 = f"<{GOV}hospital/0>"
_M0 = f"<{GOV}municipality/4>"  # hospital 0's municipality

#: small pages whose later patterns the chain walks from each row, each
#: holding its whole result: a pattern sharing no variable, a pattern of
#: 7 matches, a pattern repeating a variable, and a ``<s> ?p <o>`` pattern
#: sharing none
CHAIN_SHAPES = {
    "cartesian": f"SELECT ?h ?x ?m WHERE {{ ?h a {_HOSPITAL} . ?x {_IN} ?m }} LIMIT 64",
    "small-build": f"SELECT ?h ?m WHERE {{ ?h a {_HOSPITAL} . ?h {_IN} ?m }} LIMIT 64",
    "repeated-variable": f"SELECT ?h ?p WHERE {{ ?h a {_HOSPITAL} . ?h ?p ?h }} LIMIT 64",
    "ground-ends-cartesian": f"SELECT ?m ?p WHERE {{ {_H0} {_IN} ?m . {_H0} ?p {_M0} }} LIMIT 64",
}


@pytest.fixture(scope="module")
def chain_graphs(stored):
    """``(store, shards) -> graph``: the 0.2 government graph with self-loops
    on two hospitals, a non-loop on a third, and two more predicates from
    hospital 0 to its municipality, as :data:`STORES` holds it."""
    base = government_graph(scale=0.2, seed=5)
    hospitals = sorted(base.subjects(RDF.type, IRI(f"{GOV}Hospital")), key=str)
    h0, h1, h2, h3 = hospitals[:4]
    m0 = IRI(_M0[1:-1])
    assert h0 == IRI(_H0[1:-1]) and m0 in set(base.objects(h0, IRI(_IN[1:-1])))
    link = IRI(f"{GOV}selfLink")
    base.add_many([
        Triple(h0, link, h0), Triple(h1, link, h1), Triple(h2, link, h3),
        Triple(h0, IRI(f"{GOV}servedBy"), m0), Triple(h0, IRI(f"{GOV}near"), m0),
    ])
    made = {}

    def get(store, shards):
        if (store, shards) not in made:
            graph = Graph(shards=shards)
            graph.add_many(base)
            made[store, shards] = stored(graph, store)
        return made[store, shards]

    return get


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
@pytest.mark.parametrize("shape", sorted(CHAIN_SHAPES))
def test_the_chain_walks_every_later_pattern_on_every_store(chain_graphs, store, shards, shape):
    """Every later step of the chain is an index walk from each row: the
    page runs the select sink off the chain, pulls no row past its page,
    builds no probe table, and holds the scan oracle's rows."""
    graph = chain_graphs(store, shards)
    text = CHAIN_SHAPES[shape]
    engine = QueryEngine(graph)
    execution = engine.execute(text)
    check_chain_page(execution, parse_query(text))
    assert engine.probe_cache_info()["misses"] == 0
    rows = execution.result.rows
    assert 0 < len(rows) < 64
    assert _multiset(rows) == _multiset(QueryEngine(graph, strategy="scan").run(text).rows)


def test_a_variable_an_optional_left_unbound_is_free_in_a_walked_pattern():
    """A solution the OPTIONAL did not extend leaves ``?b`` unbound, so the
    later pattern shares nothing with it: it meets every match, while the
    extended solutions join on ``?b``."""
    graph = _chain_graph(6)  # the last node has no p0 edge
    text = (
        f"SELECT ?a ?b ?w WHERE {{ ?a <{EX}p1> ?v OPTIONAL {{ ?a <{EX}p0> ?b }} "
        f"?b <{EX}p1> ?w }} LIMIT 64"
    )
    lazy = QueryEngine(graph).execute(text)
    oracle = QueryEngine(graph, strategy="scan").run(text)
    assert len(oracle.rows) == 6 + 7  # six bound ?b, the unbound one meets every p1
    assert _multiset(lazy.result.rows) == _multiset(oracle.rows)


def test_an_expression_page_runs_the_general_path():
    """An expression projection is no select-sink shape, so a small page
    of one runs the general path: the WHERE clause is built whole (13
    rows for a page of 5) and the rows are the scan oracle's."""
    graph = _chain_graph(6)
    text = "SELECT (STR(?s) AS ?x) WHERE { ?s ?p ?o } LIMIT 5 OFFSET 2"
    page = QueryEngine(graph).execute(text)
    assert page.stats == {"operator": "general", "join_rows": len(graph)}
    assert page.result.variables == ["x"]
    assert page.result.rows == QueryEngine(graph, strategy="scan").run(text).rows


def test_a_page_decodes_only_its_projected_cells():
    """``typed-join-page`` binds ``?c`` and never returns it: its 20 rows
    decode their 60 projected cells, not the 80 a solution dict held."""
    from repro.datagen import government_graph

    graph = government_graph(scale=1.0, seed=5)
    decoded = []
    decode = graph.decode_id
    graph.decode_id = lambda term_id: decoded.append(term_id) or decode(term_id)
    result = QueryEngine(graph).run("SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 20")
    assert len(result.rows) == 20
    assert len(decoded) == 60


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
    assert len(evaluate(g1, text, strategy="scan").rows) == 3
