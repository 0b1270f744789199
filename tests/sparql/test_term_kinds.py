"""A term test reads the dictionary's kind byte; it never decodes.

``isLiteral`` / ``isIRI`` / ``isURI`` / ``isBlank`` / ``bound`` over one
variable are answered from ``TermDict.kinds`` -- one byte per ID, written
when the term is interned -- translated through a per-test table.  So the
only decodes a simple-shape SELECT pays are the cells of its page, and an
ID's verdict follows whatever term holds the ID now: a freed literal's ID
recycled by an IRI tests as an IRI, in the live graph, in a copy taken
before and in a store recovered after.
"""

from __future__ import annotations

import pytest

from repro.datagen import big_lod_graph, government_graph
from repro.rdf import Graph, IRI, Literal, Triple, load_graph
from repro.rdf.dictionary import TermDict
from repro.rdf.namespaces import RDF
from repro.sparql import QueryEngine

DATATYPES = (
    "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) } "
    "LIMIT 1000 OFFSET 0"
)


class _CountingTermDict(TermDict):
    __slots__ = ("decodes",)

    def decode(self, term_id):
        self.decodes += 1
        return TermDict.decode(self, term_id)


def _counting(graph: Graph) -> _CountingTermDict:
    """Swap *graph*'s dictionary for a counting one holding the same table."""
    table = _CountingTermDict()
    for slot in TermDict.__slots__:
        setattr(table, slot, getattr(graph.dictionary, slot))
    table.decodes = 0
    graph._dict = table
    return table


#: (graph, page rows).  The parent tree decoded every distinct object the
#: FILTER tested as well, through a per-query memo: government 5,649
#: decodes for a 40-cell page, census-1 416 for 68.
PAGES = [("government", 20), ("census-1", 34)]


@pytest.fixture(scope="module")
def graphs():
    return {
        "government": government_graph(scale=1.0, seed=5),
        # what build_world(seed=2020) hosts at http://lod1.example.org/sparql
        "census-1": big_lod_graph(
            class_count=16, group_count=4, instances_per_class=9, seed=2021, name="biglod1"
        ),
    }


@pytest.mark.parametrize("name,rows", PAGES)
def test_the_extraction_question_decodes_only_its_page(graphs, name, rows):
    graph = graphs[name].copy()
    table = _counting(graph)
    result = QueryEngine(graph).run(DATATYPES)
    assert len(result.rows) == rows
    assert table.decodes == 2 * rows  # ?c and ?p of each page row


EX = "http://example.org/"
S, P, C = IRI(f"{EX}s"), IRI(f"{EX}p"), IRI(f"{EX}C")
OLD, KEPT, X, NEW = Literal("old"), Literal("kept"), IRI(f"{EX}x"), IRI(f"{EX}new")

#: one pattern (the columnar FILTER) and a join (the binding-step check)
LITERALS = f"SELECT ?o WHERE {{ ?s <{P.value}> ?o . FILTER ( isLiteral(?o) ) }}"
IRIS = f"SELECT ?o WHERE {{ ?s a <{C.value}> . ?s <{P.value}> ?o . FILTER ( isIRI(?o) ) }}"


def _answers(graph: Graph, strategy: str):
    return {
        name: sorted(row["o"] for row in QueryEngine(graph, strategy=strategy).run(q).rows)
        for name, q in (("literals", LITERALS), ("iris", IRIS))
    }


def _agree(graph: Graph, expected):
    for strategy in ("hash", "scan"):
        assert _answers(graph, strategy) == expected, strategy


def test_a_recycled_id_tests_as_the_term_that_holds_it_now(tmp_path):
    graph = Graph()
    graph.add_many([Triple(S, RDF.type, C), Triple(S, P, OLD), Triple(S, P, KEPT),
                    Triple(S, P, X)])
    before = {"literals": sorted([OLD, KEPT]), "iris": [X]}
    _agree(graph, before)
    taken_before = graph.copy()

    freed = graph.lookup_id(OLD)
    graph.remove(Triple(S, P, OLD))
    assert graph.dictionary.kinds[freed] == 0
    graph.add(Triple(S, P, NEW))
    assert graph.lookup_id(NEW) == freed  # the recycle

    after = {"literals": [KEPT], "iris": sorted([NEW, X])}
    _agree(graph, after)
    _agree(taken_before, before)  # the copy's kinds are its own
    graph.save(str(tmp_path / "store"))
    _agree(load_graph(str(tmp_path / "store"), lazy=False), after)
