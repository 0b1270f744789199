"""Declarative dataset specifications and their instantiation into graphs.

Every synthetic Linked Data source in the reproduction is described by a
:class:`DatasetSpec` -- classes with instance counts, datatype properties,
and object properties with densities -- and materialized into a
:class:`~repro.rdf.graph.Graph` by :func:`instantiate`.  Generation is
fully deterministic per seed.

The specs are designed so the *structural* statistics that drive H-BOLD's
visualizations (number of classes, degree distribution, instance skew)
match what the paper's datasets exhibit; the actual entities are synthetic.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import RDF, RDFS, Namespace
from ..rdf.terms import IRI, Literal

__all__ = ["ClassSpec", "ObjectPropertySpec", "DatasetSpec", "instantiate"]


class ClassSpec:
    """One class: its local name, instance count and datatype properties."""

    __slots__ = ("name", "instances", "datatype_properties", "label")

    def __init__(
        self,
        name: str,
        instances: int,
        datatype_properties: Sequence[str] = (),
        label: Optional[str] = None,
    ):
        if instances < 0:
            raise ValueError(f"negative instance count for {name!r}")
        self.name = name
        self.instances = instances
        self.datatype_properties = list(datatype_properties)
        self.label = label or name

    def __repr__(self) -> str:
        return f"ClassSpec({self.name!r}, instances={self.instances})"


class ObjectPropertySpec:
    """One object property: domain class -> range class with a density.

    ``density`` is the expected number of outgoing links *per source
    instance* (fractional densities give sparse links).
    """

    __slots__ = ("name", "domain", "range", "density")

    def __init__(self, name: str, domain: str, range: str, density: float = 1.0):
        if density < 0:
            raise ValueError(f"negative density for {name!r}")
        self.name = name
        self.domain = domain
        self.range = range
        self.density = density

    def __repr__(self) -> str:
        return f"ObjectPropertySpec({self.name!r}, {self.domain}->{self.range})"


class DatasetSpec:
    """A complete dataset description ready to instantiate."""

    def __init__(
        self,
        name: str,
        namespace: str,
        classes: Sequence[ClassSpec],
        object_properties: Sequence[ObjectPropertySpec] = (),
        subclass_axioms: Sequence[Tuple[str, str]] = (),
    ):
        self.name = name
        self.namespace = Namespace(namespace)
        self.classes = list(classes)
        self.object_properties = list(object_properties)
        #: (sub, super) class-name pairs emitted as rdfs:subClassOf triples
        self.subclass_axioms = list(subclass_axioms)
        class_names = {cls.name for cls in self.classes}
        if len(class_names) != len(self.classes):
            raise ValueError(f"duplicate class names in spec {name!r}")
        for prop in self.object_properties:
            if prop.domain not in class_names:
                raise ValueError(f"property {prop.name!r} has unknown domain {prop.domain!r}")
            if prop.range not in class_names:
                raise ValueError(f"property {prop.name!r} has unknown range {prop.range!r}")
        for sub, super_ in self.subclass_axioms:
            if sub not in class_names or super_ not in class_names:
                raise ValueError(f"subclass axiom {sub!r} -> {super_!r} names unknown class")

    def total_instances(self) -> int:
        return sum(cls.instances for cls in self.classes)

    def __repr__(self) -> str:
        return (
            f"<DatasetSpec {self.name!r}: {len(self.classes)} classes, "
            f"{len(self.object_properties)} object properties, "
            f"{self.total_instances()} instances>"
        )


def instantiate(spec: DatasetSpec, seed: int = 0) -> Graph:
    """Materialize *spec* into a graph (deterministic for a given seed).

    Triples stream through :meth:`Graph.add_many`, the dictionary-encoded
    bulk-load path, instead of per-triple ``add_triple`` calls.
    """
    digest = hashlib.sha256(f"{seed}:{spec.name}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    graph = Graph(identifier=spec.name)
    graph.add_many_terms(_spec_triples(spec, rng))
    return graph


def _spec_triples(spec: DatasetSpec, rng: random.Random):
    """Yield the spec's (s, p, o) tuples in deterministic generation order."""
    ns = spec.namespace

    for sub, super_ in spec.subclass_axioms:
        yield ns.term(sub), RDFS.subClassOf, ns.term(super_)

    instance_iris: Dict[str, List[IRI]] = {}
    for cls in spec.classes:
        class_iri = ns.term(cls.name)
        yield class_iri, RDFS.label, Literal(cls.label)
        members: List[IRI] = []
        rdf_type = RDF.type
        for index in range(cls.instances):
            instance = ns.term(f"{cls.name.lower()}/{index}")
            yield instance, rdf_type, class_iri
            for prop_name in cls.datatype_properties:
                yield (
                    instance,
                    ns.term(prop_name),
                    _literal_for(prop_name, cls.name, index, rng),
                )
            members.append(instance)
        instance_iris[cls.name] = members

    for prop in spec.object_properties:
        sources = instance_iris[prop.domain]
        targets = instance_iris[prop.range]
        if not sources or not targets:
            continue
        prop_iri = ns.term(prop.name)
        for source in sources:
            links = _poisson_like(prop.density, rng)
            for _ in range(links):
                yield source, prop_iri, rng.choice(targets)


def _poisson_like(density: float, rng: random.Random) -> int:
    """Integer link count with expectation *density* (floor + Bernoulli)."""
    base = int(density)
    remainder = density - base
    return base + (1 if rng.random() < remainder else 0)


_WORDS = (
    "alpha", "beta", "gamma", "delta", "omega", "nova", "terra", "luna",
    "aqua", "ignis", "ventus", "umbra", "lux", "flora", "fauna", "petra",
)


def _literal_for(prop_name: str, class_name: str, index: int, rng: random.Random) -> Literal:
    lowered = prop_name.lower()
    if "date" in lowered or "time" in lowered:
        year = rng.randint(2005, 2019)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return Literal(
            f"{year:04d}-{month:02d}-{day:02d}",
            datatype="http://www.w3.org/2001/XMLSchema#date",
        )
    if "count" in lowered or "number" in lowered or "quantity" in lowered:
        return Literal(rng.randint(0, 10_000))
    if "value" in lowered or "measure" in lowered or "score" in lowered:
        return Literal(round(rng.uniform(0.0, 100.0), 3))
    if "label" in lowered or "name" in lowered or "title" in lowered:
        return Literal(f"{class_name} {rng.choice(_WORDS)} {index}")
    return Literal(f"{rng.choice(_WORDS)}-{index}")
