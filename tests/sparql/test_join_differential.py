"""Random valid queries over random graphs: the columnar sinks' sources
against the oracles, order included.

The eager join plans its order once and handles a candidate before it
builds a row: one-variable term-test FILTERs run where their variable is
bound, a later pattern's probe table gates the step that binds the key it
joins on, and columns nothing later reads are left out.  None of that
may be visible above the source (a WHERE clause that is not the simple
shape -- OPTIONAL, UNION, VALUES -- runs the general path), so for every
generated query:

* ``hash`` returns the ``scan`` oracle's rows (as multisets; an
  un-ORDERed LIMIT / OFFSET page is a sub-multiset of the right size),
  as written and, without a page of its own, as one page of 64 rows
  (``paged``), a page the select sink reads off the lazy chain pulling
  at most its rows and building no join row (``reads_the_chain``),
* ``hash`` returns, as a *list*, the rows of its own general pipeline --
  the same join with no filter, pruning or sink pushed into it, then the
  term-space FILTER, projection, DISTINCT (first occurrence) and slice --
  so the row order of every un-ORDERed result is the unfiltered join's,

on ``Graph()`` and ``Graph(shards=2)``.  Graphs hold at most 60 triples
over a small pool of IRIs, literals, blank nodes and ``rdf:type``; queries
are BGPs of 2-4 patterns with shared, constant and repeated variables, in
half of them one more element -- an OPTIONAL over one pattern, a UNION of
two, or a VALUES block holding a term no graph has -- then 0-2 of
``isLiteral`` / ``isIRI`` / ``isBlank`` / ``bound``, a projected subset
or ``*``, DISTINCT or not, or a ``COUNT`` / ``COUNT(DISTINCT)`` GROUP BY,
and an optional LIMIT / OFFSET.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.rdf import BNode, Graph, IRI, Literal, Triple
from repro.rdf.namespaces import RDF
from repro.sparql import Execution, QueryEngine
from repro.sparql.join_plan import picker
from repro.sparql.parser import parse_query

from test_conformance import check_chain_page, reads_the_chain

EX = "http://example.org/"
NODES = [IRI(f"{EX}n{i}") for i in range(4)] + [BNode("b0")]
CLASSES = [IRI(f"{EX}C{i}") for i in range(2)]
PREDICATES = [IRI(f"{EX}p{i}") for i in range(2)]
LITERALS = [Literal(1), Literal(2), Literal("x")]
NODE_VARIABLES = ["a", "b", "c"]
VARIABLES = NODE_VARIABLES + ["p", "q", "k", "v"]
#: a term no generated graph holds: a VALUES row keeps it raw
ABSENT = f"<{EX}absent>"
TESTS = ["isLiteral", "isIRI", "isBlank", "bound"]


@st.composite
def triples(draw):
    subject = draw(st.sampled_from(NODES))
    if draw(st.integers(0, 3)) == 0:
        return Triple(subject, RDF.type, draw(st.sampled_from(CLASSES)))
    return Triple(
        subject,
        draw(st.sampled_from(PREDICATES)),
        draw(st.sampled_from(NODES + LITERALS)),
    )


def _term(term) -> str:
    return f"<{term.value}>" if isinstance(term, IRI) else term.n3()


@st.composite
def patterns(draw):
    """One triple pattern: node positions share one variable pool (so
    joins, shared and repeated variables arise), predicates and classes
    their own; any position may be a constant instead."""
    def position(names, constants, variable_odds):
        if draw(st.integers(1, 4)) <= variable_odds:
            return "?" + draw(st.sampled_from(names))
        return _term(draw(st.sampled_from(constants)))

    subject = position(NODE_VARIABLES, NODES[:4], 3)
    if draw(st.integers(0, 2)) == 0:
        return f"{subject} a {position(['k'], CLASSES, 2)}"
    predicate = position(["p", "q"], PREDICATES, 1)
    return f"{subject} {predicate} {position(NODE_VARIABLES, NODES[:4] + LITERALS, 3)}"


@st.composite
def elements(draw):
    """Nothing (the simple shape) or one element that is not a triple
    pattern; a VALUES block binds ``?v`` (no pattern does) or a node
    variable, to an in-graph node and to :data:`ABSENT`."""
    kind = draw(st.sampled_from(["", "", "", "optional", "union", "values"]))
    if kind == "optional":
        return f"OPTIONAL {{ {draw(patterns())} }}"
    if kind == "union":
        return f"{{ {draw(patterns())} }} UNION {{ {draw(patterns())} }}"
    if kind == "values":
        variable = draw(st.sampled_from(["v"] + NODE_VARIABLES))
        return f"VALUES ?{variable} {{ {_term(draw(st.sampled_from(NODES[:4])))} {ABSENT} }}"
    return ""


@st.composite
def queries(draw):
    body = draw(st.lists(patterns(), min_size=2, max_size=4))
    extra = draw(elements())
    bound = sorted(
        {name for text in body + [extra] for name in VARIABLES if f"?{name}" in text}
    )
    if not bound:
        body.append("?a ?b ?c")
        bound = ["a", "b", "c"]
    filters = [
        f"FILTER({draw(st.sampled_from(TESTS))}(?{draw(st.sampled_from(bound))}))"
        for _ in range(draw(st.sampled_from([0, 0, 1, 2])))
    ]
    where = " . ".join(body) + " " + extra + " " + " ".join(filters)
    shape = draw(st.sampled_from(["project", "star", "count", "count-distinct"]))
    if shape == "star":
        head = ("DISTINCT " if draw(st.booleans()) else "") + "*"
        tail = ""
    elif shape == "project":
        chosen = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3, unique=True))
        head = ("DISTINCT " if draw(st.booleans()) else "") + " ".join(f"?{v}" for v in chosen)
        tail = ""
    else:
        group = draw(st.sampled_from(bound))
        counted = draw(st.sampled_from(bound))
        distinct = "DISTINCT " if shape == "count-distinct" else ""
        head = f"?{group} (COUNT({distinct}?{counted}) AS ?n)"
        tail = f" GROUP BY ?{group}"
    page = ""
    if draw(st.booleans()):
        page += f" LIMIT {draw(st.sampled_from([0, 1, 3, 100]))}"
    if draw(st.booleans()):
        page += f" OFFSET {draw(st.integers(0, 3))}"
    return f"SELECT {head} WHERE {{ {where} }}{tail}", page


PAGE = QueryEngine.STREAM_DELEGATE_LIMIT


def _rows(result):
    return [tuple(sorted((name, str(term)) for name, term in row.items())) for row in result.rows]


#: two typed subjects linking to each other and to an untyped node: a
#: gate, a pruned column and interleaved DISTINCT keys all show on it
TWO_TYPED = [
    Triple(IRI(f"{EX}n0"), RDF.type, IRI(f"{EX}C0")),
    Triple(IRI(f"{EX}n1"), RDF.type, IRI(f"{EX}C0")),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), IRI(f"{EX}n1")),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p1"), IRI(f"{EX}n2")),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p0"), IRI(f"{EX}n0")),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p1"), IRI(f"{EX}n2")),
]
C0 = f"<{EX}C0>"

#: Index Extraction's questions' data: ``n0`` typed twice, a set leaf
#: holding a literal and an IRI, a predicate whose literal comes on the
#: second subject of a class, one with a literal only on an untyped
#: subject, and links between typed subjects
EXTRACTED = [
    Triple(IRI(f"{EX}n0"), RDF.type, IRI(f"{EX}C0")),
    Triple(IRI(f"{EX}n0"), RDF.type, IRI(f"{EX}C1")),
    Triple(IRI(f"{EX}n1"), RDF.type, IRI(f"{EX}C0")),
    Triple(IRI(f"{EX}n2"), RDF.type, IRI(f"{EX}C1")),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), Literal(1)),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), IRI(f"{EX}n1")),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p1"), IRI(f"{EX}n2")),
    Triple(IRI(f"{EX}n0"), IRI(f"{EX}p2"), IRI(f"{EX}n1")),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p0"), Literal("x")),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p1"), Literal(2)),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p1"), IRI(f"{EX}n2")),
    Triple(IRI(f"{EX}n1"), IRI(f"{EX}p1"), IRI(f"{EX}n0")),
    Triple(IRI(f"{EX}n3"), IRI(f"{EX}p2"), Literal(2)),
]
#: the extractor's exact texts: every class's datatype properties, every
#: class's links, and one class's datatype properties
DATATYPES = "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
LINKS = (
    "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { "
    "?s a ?c . ?s ?p ?o . ?o a ?target } GROUP BY ?c ?p ?target"
)
CLASS_DATATYPES = f"SELECT DISTINCT ?p WHERE {{ ?s a {C0} . ?s ?p ?o . FILTER ( isLiteral(?o) ) }}"
CLASS_LINKS = (
    f"SELECT ?p ?target (COUNT(?o) AS ?n) WHERE {{ ?s a {C0} . ?s ?p ?o . ?o a ?target }} "
    "GROUP BY ?p ?target"
)
TYPED_LINKS = "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o . ?o a ?k }"


def _n(i):
    return IRI(f"{EX}n{i}")


def _p(i):
    return IRI(f"{EX}p{i}")


#: The links question's ``?s ?p ?o`` step is an INLJ gated by ``?o a ?k``
#: on each of these, and skips a predicate no object of which anywhere is
#: typed (read on POS) unless it has more objects than the step has input
#: rows.  ``p0`` links to a typed object only from some subjects (and
#: ``rdf:type`` itself has only untyped objects):
PARTLY_TYPED = [
    Triple(_n(0), RDF.type, IRI(f"{EX}C0")),
    Triple(_n(1), RDF.type, IRI(f"{EX}C1")),
    Triple(_n(0), _p(0), _n(1)),
    Triple(_n(0), _p(0), _n(2)),
    Triple(_n(0), _p(1), Literal("x")),
    Triple(_n(2), _p(0), _n(3)),
    Triple(_n(3), _p(0), _n(2)),
    Triple(_n(2), _p(1), Literal("x")),
    Triple(_n(1), _p(0), _n(3)),
    Triple(_n(3), _p(1), _n(1)),
]
#: ``p1`` has only literal objects, two of them, as many as the typed rows
LITERAL_ONLY = [
    Triple(_n(0), RDF.type, IRI(f"{EX}C0")),
    Triple(_n(1), RDF.type, IRI(f"{EX}C0")),
    Triple(_n(0), _p(0), _n(1)),
    Triple(_n(0), _p(1), Literal("x")),
    Triple(_n(1), _p(1), Literal(2)),
    Triple(_n(1), _p(0), _n(0)),
    Triple(_n(2), _p(1), Literal("x")),
    Triple(_n(2), _p(0), _n(3)),
    Triple(_n(3), _p(1), Literal(2)),
    Triple(_n(3), _p(0), _n(2)),
]
#: ``p1`` has no typed object but three objects against one typed row: it
#: is taken to pass untested, and its objects are tested one by one
WIDE_DEAD = [
    Triple(_n(0), RDF.type, IRI(f"{EX}C0")),
    Triple(_n(0), _p(1), _n(1)),
    Triple(_n(1), _p(1), _n(2)),
    Triple(_n(2), _p(1), Literal(1)),
    Triple(_n(0), _p(0), _n(0)),
    Triple(_n(1), _p(0), _n(0)),
]


@settings(max_examples=500, deadline=None)
@example(data=EXTRACTED, case=(DATATYPES, ""))
@example(data=EXTRACTED, case=(DATATYPES, " LIMIT 1000 OFFSET 0"))
@example(data=EXTRACTED, case=(DATATYPES, " LIMIT 1 OFFSET 1"))
@example(data=EXTRACTED, case=(LINKS, ""))
@example(data=EXTRACTED, case=(CLASS_DATATYPES, ""))
@example(data=PARTLY_TYPED, case=(LINKS, ""))
@example(data=PARTLY_TYPED, case=(TYPED_LINKS, ""))
@example(data=LITERAL_ONLY, case=(LINKS, ""))
@example(data=LITERAL_ONLY, case=(CLASS_LINKS, ""))
@example(data=LITERAL_ONLY, case=(TYPED_LINKS, ""))
@example(data=WIDE_DEAD, case=(LINKS, ""))
@example(data=WIDE_DEAD, case=(TYPED_LINKS, ""))
@example(data=TWO_TYPED, case=(f"SELECT ?s ?o WHERE {{ ?s a {C0} . ?s ?p ?o . ?o a ?k }}", ""))
@example(data=TWO_TYPED, case=(f"SELECT DISTINCT ?o WHERE {{ ?s a {C0} . ?s ?p ?o }}", ""))
@example(
    data=TWO_TYPED,
    case=(f"SELECT ?s (COUNT(DISTINCT ?o) AS ?n) WHERE {{ ?s a {C0} . ?s ?p ?o }} GROUP BY ?s", ""),
)
@example(
    # a three-variable hash key whose columns are not a run: (?b, ?p, ?a)
    # over a layout (?b, ?k, ?a, ?p) -- a slice from ?b to ?a is not it
    data=[
        Triple(IRI(f"{EX}n0"), RDF.type, IRI(f"{EX}C0")),
        Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), IRI(f"{EX}n0")),
    ],
    case=("SELECT * WHERE { ?a ?p ?b . ?b ?p ?a . ?b a ?k }", ""),
)
@example(
    # the FILTER runs inside an index nested-loop step (8 triples against
    # one typed subject), on the object the step binds
    data=[
        Triple(IRI(f"{EX}n0"), RDF.type, IRI(f"{EX}C0")),
        Triple(IRI(f"{EX}n0"), IRI(f"{EX}p0"), Literal("x")),
        Triple(IRI(f"{EX}n0"), IRI(f"{EX}p1"), IRI(f"{EX}n1")),
        *(Triple(IRI(f"{EX}n{i}"), IRI(f"{EX}p0"), IRI(f"{EX}n0")) for i in (1, 2, 3)),
        *(Triple(IRI(f"{EX}n{i}"), IRI(f"{EX}p1"), Literal(i)) for i in (1, 2)),
    ],
    case=("SELECT ?s ?o WHERE { ?s a <http://example.org/C0> . ?s ?p ?o "
          "FILTER(isLiteral(?o)) }", ""),
)
@example(
    # the general path: a fold over an OPTIONAL's unbound cells, raw
    # VALUES terms deduplicated, a paged UNION
    data=EXTRACTED,
    case=("SELECT ?c (COUNT(?l) AS ?n) WHERE { ?s a ?c . OPTIONAL { ?s <http://example.org/p0> ?l } } "
          "GROUP BY ?c", ""),
)
@example(
    data=TWO_TYPED,
    case=(f"SELECT DISTINCT ?v ?a WHERE {{ ?a a {C0} . ?a ?p ?b VALUES ?v {{ <{EX}n0> {ABSENT} }} }}", ""),
)
@example(data=TWO_TYPED, case=("SELECT * WHERE { ?a ?p ?b . { ?b ?q ?c } UNION { ?b a ?k } }", ""))
@example(
    # the lazy chain joins ?a ?q ?a to ?b ?q ?c in another row order than
    # the eager join: the general path's solutions come from the eager
    # pipeline
    data=[
        Triple(_n(0), RDF.type, IRI(f"{EX}C0")),
        Triple(_n(0), RDF.type, IRI(f"{EX}C1")),
        Triple(_n(0), _p(0), _n(0)),
        Triple(_n(0), _p(0), _n(1)),
        Triple(_n(1), _p(0), _n(0)),
    ],
    case=("SELECT * WHERE { ?a ?q ?a . ?b ?q ?c OPTIONAL { ?a a ?k } }", ""),
)
@given(
    data=st.lists(triples(), min_size=5, max_size=60),
    case=queries(),
)
def test_simple_shape_join_matches_the_oracles_in_order(data, case):
    whole_query, page = case
    text = whole_query + page
    query = parse_query(text)
    # ``paged``: a query without a page of its own runs as one of 64 rows
    modes = [("hash", page)] + ([] if page else [("paged", f" LIMIT {PAGE}")])
    for graph in (Graph(), Graph(shards=2)):
        graph.add_many(data)
        oracle = Counter(_rows(QueryEngine(graph, strategy="scan").run(whole_query)))
        event("rows" if oracle else "no rows")
        whole = sum(oracle.values())
        for mode, mode_page in modes:
            mode_query = parse_query(whole_query + mode_page)
            offset = mode_query.offset or 0
            end = whole if mode_query.limit is None else min(whole, offset + mode_query.limit)
            execution = QueryEngine(graph).execute(whole_query + mode_page)
            rows = _rows(execution.result)
            context = (mode, type(graph).__name__, text)
            if reads_the_chain(mode_query):
                check_chain_page(execution, mode_query)
            if mode_page:
                # which rows (or groups) a page holds follows the engine's
                # order; how many, and that they are the oracle's, does not
                assert len(rows) == max(0, end - offset), context
                assert not Counter(rows) - oracle, context
            else:
                assert Counter(rows) == oracle, context
        engine = QueryEngine(graph)
        if not reads_the_chain(query):  # the chain's row order is its own
            general = Execution(engine)._run_select_general(query)
            assert _rows(engine.run(query)) == _rows(general), (type(graph).__name__, text)


def test_a_picker_keeps_the_order_it_is_given():
    row = tuple(range(10, 16))
    for columns in ([], [3], [1, 2, 3], [0, 2, 1, 3], [2, 0], [4, 5, 1]):
        assert picker(columns)(row) == tuple(row[c] for c in columns), columns
