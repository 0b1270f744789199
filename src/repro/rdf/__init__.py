"""RDF substrate: terms, namespaces, indexed triple store, N-Triples, Turtle.

This package replaces rdflib for the H-BOLD reproduction.  It provides the
data model (``IRI``, ``BNode``, ``Literal``, ``Triple``), an in-memory
triple store with SPO/POS/OSP indexes (``Graph``), and readers/writers for
the two serializations the pipeline uses (N-Triples and a Turtle subset).
"""

from .dictionary import TermDict
from .durability import (
    CrashInjector,
    CrashPoint,
    DurabilityError,
    Journal,
    LazyShard,
    attach_journal,
    content_digest,
    load_graph,
    save_graph,
)
from .graph import Graph, Shard
from .namespaces import (
    DCAT,
    DCTERMS,
    FOAF,
    OWL,
    PREFIXES,
    RDF,
    RDFS,
    SCHEMA,
    SWC,
    VOID,
    XSD,
    Namespace,
    curie,
    expand_curie,
)
from .ntriples import NTriplesError, graph_from_ntriples, parse_ntriples, serialize_ntriples
from .sharding import ShardedTripleStore
from .terms import BNode, IRI, Literal, Term, Triple, Variable
from .turtle import TurtleError, parse_turtle, serialize_turtle

__all__ = [
    "BNode",
    "CrashInjector",
    "CrashPoint",
    "DCAT",
    "DCTERMS",
    "DurabilityError",
    "FOAF",
    "Graph",
    "IRI",
    "Journal",
    "LazyShard",
    "Literal",
    "Namespace",
    "NTriplesError",
    "OWL",
    "PREFIXES",
    "RDF",
    "RDFS",
    "SCHEMA",
    "SWC",
    "Shard",
    "ShardedTripleStore",
    "Term",
    "TermDict",
    "Triple",
    "TurtleError",
    "VOID",
    "Variable",
    "XSD",
    "attach_journal",
    "content_digest",
    "curie",
    "expand_curie",
    "load_graph",
    "save_graph",
    "graph_from_ntriples",
    "parse_ntriples",
    "parse_turtle",
    "serialize_ntriples",
    "serialize_turtle",
]
