"""Well-known RDF namespaces and a small helper for minting namespaced IRIs.

The H-BOLD workload touches RDF/RDFS/OWL for schema discovery, DCAT/DCTERMS
for the open-data-portal crawl (Listing 1 of the paper), and FOAF/schema.org
style vocabularies in the generated datasets.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .terms import IRI

__all__ = [
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "DCAT",
    "DCTERMS",
    "FOAF",
    "SCHEMA",
    "VOID",
    "SWC",
    "PREFIXES",
    "curie",
    "expand_curie",
]


class Namespace:
    """A namespace prefix that mints :class:`IRI` terms via attribute access.

    >>> EX = Namespace("http://example.org/")
    >>> EX.Person
    IRI('http://example.org/Person')
    >>> EX["has-part"]
    IRI('http://example.org/has-part')
    """

    __slots__ = ("base", "_cache")

    def __init__(self, base: str):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Namespace is immutable")

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("__"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name: str) -> IRI:
        return self.term(name)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self.base)

    def __eq__(self, other) -> bool:
        return isinstance(other, Namespace) and other.base == self.base

    def __hash__(self) -> int:
        return hash((Namespace, self.base))

    def __repr__(self) -> str:
        return f"Namespace({self.base!r})"

    def term(self, name: str) -> IRI:
        """Mint (and memoize) the IRI for *name* under this namespace.

        Minting validates the IRI with a regex; the memo makes repeated
        mints of hot vocabulary terms (``rdf:type`` on every triple of a
        generator run) a dict hit instead.
        """
        cached = self._cache.get(name)
        if cached is None:
            cached = self._cache[name] = IRI(self.base + name)
        return cached


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
DCAT = Namespace("http://www.w3.org/ns/dcat#")
DCTERMS = Namespace("http://purl.org/dc/terms/")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
SCHEMA = Namespace("http://schema.org/")
VOID = Namespace("http://rdfs.org/ns/void#")
# ScholarlyData / Semantic Web Conference ontology namespace used by Figure 2.
SWC = Namespace("https://w3id.org/scholarlydata/ontology/conference-ontology.owl#")

#: Default prefix table used by the Turtle writer and the SPARQL parser.
PREFIXES: Dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
    "dcat": DCAT,
    "dc": DCTERMS,
    "dcterms": DCTERMS,
    "foaf": FOAF,
    "schema": SCHEMA,
    "void": VOID,
    "swc": SWC,
}


def curie(iri: IRI, prefixes: Dict[str, Namespace] = PREFIXES) -> str:
    """Compact *iri* to ``prefix:local`` if a known namespace matches.

    Falls back to the full ``<iri>`` syntax when no prefix applies.  Longest
    namespace match wins so e.g. ``dcterms`` beats a shorter overlap.
    """
    best: Tuple[int, str, str] = (-1, "", "")
    for prefix, namespace in prefixes.items():
        base = namespace.base
        if iri.value.startswith(base) and len(base) > best[0]:
            local = iri.value[len(base):]
            if local and all(c.isalnum() or c in "_-." for c in local):
                best = (len(base), prefix, local)
    if best[0] >= 0:
        return f"{best[1]}:{best[2]}"
    return iri.n3()


def expand_curie(text: str, prefixes: Dict[str, Namespace] = PREFIXES) -> IRI:
    """Expand ``prefix:local`` to an :class:`IRI` using *prefixes*.

    Raises ``KeyError`` for an unknown prefix and ``ValueError`` for text
    that is not a CURIE at all.
    """
    if ":" not in text:
        raise ValueError(f"not a CURIE: {text!r}")
    prefix, local = text.split(":", 1)
    namespace = prefixes[prefix]
    return namespace.term(local)

