"""Index Extraction with pattern strategies (§2.1, Benedetti et al. 2014).

Pulls the structural/statistical indexes off one endpoint:

* total number of (typed) instances,
* the list of instantiated classes with per-class instance counts,
* per-class datatype properties,
* inter-class object-property links with counts.

Two pattern strategies cope with implementation differences:

* **aggregate** -- COUNT/GROUP BY queries; one round trip per index.  Fails
  on endpoints that reject aggregates and degrades when result caps
  truncate grouped results.
* **scan** -- plain SELECT with LIMIT/OFFSET pagination, counting client
  side.  Slower (many round trips) but works everywhere.

The extractor tries *aggregate* first and transparently falls back to
*scan* per index when the endpoint rejects or truncates; that mirrors the
strategy selection of the original LODeX extractor.

The per-class indexes (3 and 4) have one more rung on top, *set at a
time*: ask the endpoint once for every class's datatype properties and
once for every class's links, and split the answers by class here --
the loop runs inside the store's operators, not as one round trip per
class.  An endpoint that rejects, times out on or caps a whole-dataset
answer drops to the per-class questions below it, which are smaller and
may still succeed, and from there to *scan*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..endpoint.errors import EndpointError, EndpointTimeout, QueryRejected
from ..endpoint.network import SparqlClient
from ..sparql.results import SelectResult
from .models import ClassIndex, EndpointIndexes, LinkIndex

__all__ = ["IndexExtractor", "ExtractionFailed"]


class ExtractionFailed(RuntimeError):
    """Index extraction could not complete for this endpoint."""

    def __init__(self, url: str, reason: str):
        super().__init__(f"extraction failed for {url}: {reason}")
        self.url = url
        self.reason = reason


class IndexExtractor:
    """Extracts :class:`EndpointIndexes` from endpoints via a client."""

    def __init__(
        self,
        client: SparqlClient,
        page_size: int = 1000,
        max_pages: int = 200,
        max_classes: int = 1000,
        infer_types: bool = False,
    ):
        self.client = client
        #: LIMIT used by the scan strategy's pagination
        self.page_size = page_size
        #: safety valve against endless pagination on huge endpoints
        self.max_pages = max_pages
        #: endpoints with more instantiated classes than this are declared
        #: incompatible (the paper's "not compatible with the index
        #: extraction phase")
        self.max_classes = max_classes
        #: LODeX-style inferred schema: count instances through the
        #: rdfs:subClassOf closure (a/rdfs:subClassOf*), falling back to a
        #: client-side closure when the endpoint rejects property paths
        self.infer_types = infer_types

    # -- public API --------------------------------------------------------------

    def extract(self, url: str) -> EndpointIndexes:
        """Run the full extraction for *url*.

        Raises :class:`ExtractionFailed` when the endpoint is unreachable,
        times out on every strategy, or is structurally incompatible.
        """
        strategy_used = "aggregate"
        complete = True
        try:
            if not self.client.is_alive(url):
                raise ExtractionFailed(url, "endpoint unavailable")

            if self.infer_types:
                class_counts, counts_strategy = self._inferred_class_counts(url)
                # a rejected *path* says nothing about aggregates; the
                # grouped links question below will
                rejected = False
            else:
                class_counts, counts_strategy, rejected = self._class_counts(url)
            if counts_strategy == "scan":
                strategy_used = "scan"
            if not class_counts:
                raise ExtractionFailed(url, "no instantiated classes")
            if len(class_counts) > self.max_classes:
                raise ExtractionFailed(
                    url, f"too many classes ({len(class_counts)} > {self.max_classes})"
                )

            known_classes = set(class_counts)
            all_props = self._datatype_properties_all(url)
            # An endpoint that rejected one path-free aggregate rejects
            # them all: ask for no other in this extraction.  Timeouts and
            # truncation are verdicts on one query and are not remembered.
            all_links = None
            if not rejected:
                try:
                    all_links = self._object_links_all(url, known_classes)
                except QueryRejected:
                    rejected = True

            datatype_props: Dict[str, List[str]] = {}
            links: List[LinkIndex] = []
            for class_iri in sorted(class_counts):
                if all_props is not None:
                    datatype_props[class_iri] = all_props.get(class_iri, [])
                else:
                    props, props_complete = self._datatype_properties(url, class_iri)
                    datatype_props[class_iri] = props
                    complete = complete and props_complete
                if all_links is not None:
                    links.extend(all_links.get(class_iri, ()))
                    continue
                per_class = self._object_links_by_scan if rejected else self._object_links
                class_links, links_strategy, links_complete = per_class(
                    url, class_iri, known_classes
                )
                links.extend(class_links)
                complete = complete and links_complete
                if links_strategy == "scan":
                    strategy_used = "scan"

            if self.infer_types:
                # Superclasses repeat their subclasses' instances; the total
                # is the count of directly typed subjects instead.
                total_instances = self._direct_instance_total(url)
            else:
                total_instances = sum(class_counts.values())
            classes = [
                ClassIndex(
                    iri,
                    count,
                    datatype_properties=datatype_props.get(iri, ()),
                )
                for iri, count in sorted(class_counts.items())
            ]
            return EndpointIndexes(
                url,
                total_instances,
                classes,
                links,
                extracted_at_ms=self.client.network.clock.now_ms,
                strategy=strategy_used,
                complete=complete,
                inferred=self.infer_types,
            )
        except ExtractionFailed:
            raise
        except EndpointError as exc:
            raise ExtractionFailed(url, f"{type(exc).__name__}: {exc}") from exc

    # -- exploration probe: top-k entities of a class -------------------------------

    def top_entities(
        self, url: str, class_iri: str, k: int = 10
    ) -> List[Tuple[str, int]]:
        """The *k* instances of *class_iri* with the most asserted triples.

        The paper's common exploratory shape -- "which entities dominate
        this class?" -- issued as one aggregate + ``ORDER BY DESC ...
        LIMIT k`` round trip.  On our simulated endpoints that lands on
        the engine's streaming GROUP BY fold and bounded top-k operator,
        so the endpoint tracks O(classes' subjects) accumulator state and
        returns k rows instead of materializing the whole degree table.
        Ties break on the subject IRI so both strategies agree.

        Endpoints that reject aggregates or ORDER BY fall back to the
        scan strategy: page the class's triples and count client-side.
        Returns ``[(iri, degree), ...]`` best-first.
        """
        query = (
            f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ "
            f"?s a <{class_iri}> . ?s ?p ?o }} "
            f"GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT {k}"
        )
        try:
            result = self.client.select(url, query)
            if not result.truncated:
                out: List[Tuple[str, int]] = []
                for row in result:
                    subject, count = row.get("s"), row.get("n")
                    if subject is None or count is None:
                        continue
                    out.append((str(subject), int(float(count.lexical))))
                return out
        except (QueryRejected, EndpointTimeout):
            pass
        counts: Dict[str, int] = {}
        for page in self._paged(
            url, f"SELECT ?s ?p ?o WHERE {{ ?s a <{class_iri}> . ?s ?p ?o }}"
        ):
            for row in page:
                subject = row.get("s")
                if subject is not None:
                    counts[str(subject)] = counts.get(str(subject), 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def top_entities_all(
        self, url: str, k: int = 10
    ) -> Optional[Dict[str, List[Tuple[str, int]]]]:
        """Per-class top-*k* entity degrees, in ONE round trip.

        The batched form of :meth:`top_entities` for full exploration
        walks: instead of one aggregate + ORDER BY query per class (one
        round trip per ``class_details`` panel), issue a single GROUP BY
        over ``(class, entity)`` and fold the per-class top-k client
        side, with the same ``(-degree, iri)`` ranking rule, so each
        class's list is exactly what :meth:`top_entities` would return.

        Returns ``{class_iri: [(entity_iri, degree), ...]}`` best-first,
        or None when the endpoint rejects aggregates or caps the grouped
        result (callers then fall back to the per-class probes, which
        are smaller and may still succeed).
        """
        query = (
            "SELECT ?c ?s (COUNT(?o) AS ?n) WHERE { "
            "?s a ?c . ?s ?p ?o } GROUP BY ?c ?s"
        )
        try:
            result = self.client.select(url, query)
        except (QueryRejected, EndpointTimeout):
            return None
        if result.truncated:
            return None
        degrees: Dict[str, List[Tuple[int, str]]] = {}
        for row in result:
            class_term, subject, count = row.get("c"), row.get("s"), row.get("n")
            if class_term is None or subject is None or count is None:
                continue
            degrees.setdefault(str(class_term), []).append(
                (int(float(count.lexical)), str(subject))
            )
        spotlight: Dict[str, List[Tuple[str, int]]] = {}
        for class_iri, entries in degrees.items():
            entries.sort(key=lambda item: (-item[0], item[1]))
            spotlight[class_iri] = [(iri, degree) for degree, iri in entries[:k]]
        return spotlight

    # -- index 1+2: classes and their instance counts ------------------------------

    def _class_counts(self, url: str) -> Tuple[Dict[str, int], str, bool]:
        """Class IRI -> instance count, the strategy that worked, and
        whether the endpoint rejected the aggregate outright."""
        query = (
            "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class"
        )
        rejected = False
        try:
            result = self.client.select(url, query)
            if not result.truncated:
                counts: Dict[str, int] = {}
                for row in result:
                    class_term = row.get("class")
                    count_term = row.get("n")
                    if class_term is None or count_term is None:
                        continue
                    counts[str(class_term)] = int(float(count_term.lexical))
                return counts, "aggregate", False
        except QueryRejected:
            rejected = True
        except EndpointTimeout:
            pass
        return self._class_counts_by_scan(url), "scan", rejected

    def _class_counts_by_scan(self, url: str) -> Dict[str, int]:
        """Scan strategy: page DISTINCT classes, then count each via paging."""
        classes: List[str] = []
        for page in self._paged(url, "SELECT DISTINCT ?class WHERE { ?s a ?class }"):
            for row in page:
                term = row.get("class")
                if term is not None:
                    classes.append(str(term))
        counts: Dict[str, int] = {}
        for class_iri in classes:
            counts[class_iri] = self._count_by_scan(
                url, f"SELECT ?s WHERE {{ ?s a <{class_iri}> }}"
            )
        return counts

    # -- inferred-schema variant (LODeX lineage) ---------------------------------

    _RDFS_SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"

    def _inferred_class_counts(self, url: str) -> Tuple[Dict[str, int], str]:
        """Class IRI -> instance count including rdfs:subClassOf inference."""
        query = (
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
            "SELECT ?class (COUNT(?s) AS ?n) "
            "WHERE { ?s a/rdfs:subClassOf* ?class } GROUP BY ?class"
        )
        try:
            result = self.client.select(url, query)
            if not result.truncated:
                counts: Dict[str, int] = {}
                for row in result:
                    class_term = row.get("class")
                    count_term = row.get("n")
                    if class_term is None or count_term is None:
                        continue
                    counts[str(class_term)] = int(float(count_term.lexical))
                return counts, "aggregate"
        except (QueryRejected, EndpointTimeout):
            pass
        return self._inferred_counts_by_closure(url), "scan"

    def _inferred_counts_by_closure(self, url: str) -> Dict[str, int]:
        """Client-side inference: closure over fetched subclass axioms, then
        one DISTINCT-subjects UNION query per class (exact, path-free)."""
        direct, _, _ = self._class_counts(url)
        axioms: Dict[str, List[str]] = {}
        for page in self._paged(
            url,
            f"SELECT ?sub ?super WHERE {{ ?sub <{self._RDFS_SUBCLASS}> ?super }}",
        ):
            for row in page:
                sub, super_ = row.get("sub"), row.get("super")
                if sub is not None and super_ is not None:
                    axioms.setdefault(str(sub), []).append(str(super_))

        # ancestors per class via DFS over the axiom graph
        def ancestors(class_iri: str) -> Set[str]:
            out: Set[str] = set()
            stack = [class_iri]
            while stack:
                current = stack.pop()
                for parent in axioms.get(current, ()):
                    if parent not in out:
                        out.add(parent)
                        stack.append(parent)
            return out

        # every class that gains instances through the closure
        descendants: Dict[str, Set[str]] = {}
        for class_iri in direct:
            for ancestor in ancestors(class_iri) | {class_iri}:
                descendants.setdefault(ancestor, set()).add(class_iri)

        counts: Dict[str, int] = {}
        for class_iri, members in sorted(descendants.items()):
            if members == {class_iri}:
                counts[class_iri] = direct.get(class_iri, 0)
                continue
            union = " UNION ".join(f"{{ ?s a <{m}> }}" for m in sorted(members))
            counts[class_iri] = self._count_by_scan(
                url, f"SELECT DISTINCT ?s WHERE {{ {union} }}"
            )
        return counts

    def _direct_instance_total(self, url: str) -> int:
        """Distinct typed subjects (the non-inflated dataset size)."""
        try:
            result = self.client.select(
                url, "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c }"
            )
            if not result.truncated:
                return result.scalar_int()
        except (QueryRejected, EndpointTimeout):
            pass
        return self._count_by_scan(url, "SELECT DISTINCT ?s WHERE { ?s a ?c }")

    # -- index 3: datatype properties per class --------------------------------------

    def _datatype_properties_all(self, url: str) -> Optional[Dict[str, List[str]]]:
        """Every class's datatype properties from ONE paged question.

        The set-at-a-time form of :meth:`_datatype_properties`: no
        aggregate, so every profile answers it, and paging absorbs the
        result caps.  Returns ``{class_iri: sorted properties}`` (a class
        without literals is absent), or None when the endpoint rejects or
        times out on the whole-dataset query or the answer outruns
        ``max_pages``; the caller then asks per class.
        """
        query = (
            "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . "
            "FILTER ( isLiteral(?o) ) }"
        )
        properties: Dict[str, Set[str]] = {}
        pages = 0
        try:
            for page in self._paged(url, query):
                pages += 1
                for row in page:
                    class_term, prop = row.get("c"), row.get("p")
                    if class_term is not None and prop is not None:
                        properties.setdefault(str(class_term), set()).add(str(prop))
        except (QueryRejected, EndpointTimeout):
            return None
        if pages == self.max_pages:
            return None  # the safety valve closed: the answer may be cut short
        return {iri: sorted(props) for iri, props in properties.items()}

    def _datatype_properties(self, url: str, class_iri: str) -> Tuple[List[str], bool]:
        query = (
            f"SELECT DISTINCT ?p WHERE {{ ?s a <{class_iri}> . ?s ?p ?o . "
            f"FILTER ( isLiteral(?o) ) }}"
        )
        properties: List[str] = []
        complete = True
        try:
            for page in self._paged(url, query):
                for row in page:
                    term = row.get("p")
                    if term is not None:
                        properties.append(str(term))
        except EndpointTimeout:
            complete = False
        return sorted(set(properties)), complete

    # -- index 4: object links between classes ----------------------------------------

    def _object_links_all(
        self, url: str, known_classes: Set[str]
    ) -> Optional[Dict[str, List[LinkIndex]]]:
        """Every class's links from ONE grouped round trip.

        The set-at-a-time form of :meth:`_object_links`, exactly as
        :meth:`top_entities_all` is of :meth:`top_entities`: group by
        ``(class, property, target)`` and split by class here, each
        class's links in result order.  Returns None when the endpoint
        times out or caps the grouped answer (the per-class questions are
        smaller and may still succeed); :class:`QueryRejected` propagates
        so :meth:`extract` can stop asking for aggregates.
        """
        query = (
            "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { "
            "?s a ?c . ?s ?p ?o . ?o a ?target } GROUP BY ?c ?p ?target"
        )
        try:
            result = self.client.select(url, query)
        except EndpointTimeout:
            return None
        if result.truncated:
            return None
        links: Dict[str, List[LinkIndex]] = {}
        for row in result:
            source, prop = row.get("c"), row.get("p")
            target, count = row.get("target"), row.get("n")
            if source is None or prop is None or target is None or count is None:
                continue
            if str(target) not in known_classes:
                continue
            links.setdefault(str(source), []).append(
                LinkIndex(str(source), str(prop), str(target), int(float(count.lexical)))
            )
        return links

    def _object_links(
        self, url: str, class_iri: str, known_classes: Set[str]
    ) -> Tuple[List[LinkIndex], str, bool]:
        query = (
            f"SELECT ?p ?target (COUNT(?o) AS ?n) WHERE {{ "
            f"?s a <{class_iri}> . ?s ?p ?o . ?o a ?target }} GROUP BY ?p ?target"
        )
        try:
            result = self.client.select(url, query)
            if not result.truncated:
                links = []
                for row in result:
                    prop, target, count = row.get("p"), row.get("target"), row.get("n")
                    if prop is None or target is None or count is None:
                        continue
                    if str(target) not in known_classes:
                        continue
                    links.append(
                        LinkIndex(
                            class_iri, str(prop), str(target), int(float(count.lexical))
                        )
                    )
                return links, "aggregate", True
        except (QueryRejected, EndpointTimeout):
            pass
        return self._object_links_by_scan(url, class_iri, known_classes)

    def _object_links_by_scan(
        self, url: str, class_iri: str, known_classes: Set[str]
    ) -> Tuple[List[LinkIndex], str, bool]:
        query = (
            f"SELECT ?p ?target WHERE {{ "
            f"?s a <{class_iri}> . ?s ?p ?o . ?o a ?target }}"
        )
        accumulator: Dict[Tuple[str, str], int] = {}
        complete = True
        try:
            for page in self._paged(url, query):
                for row in page:
                    prop, target = row.get("p"), row.get("target")
                    if prop is None or target is None:
                        continue
                    if str(target) not in known_classes:
                        continue
                    key = (str(prop), str(target))
                    accumulator[key] = accumulator.get(key, 0) + 1
        except EndpointTimeout:
            complete = False
        links = [
            LinkIndex(class_iri, prop, target, count)
            for (prop, target), count in sorted(accumulator.items())
        ]
        return links, "scan", complete

    # -- pagination plumbing -------------------------------------------------------

    def _paged(self, url: str, base_query: str):
        """Yield result pages of *base_query* with LIMIT/OFFSET pagination."""
        offset = 0
        for _page in range(self.max_pages):
            query = f"{base_query} LIMIT {self.page_size} OFFSET {offset}"
            result = self.client.select(url, query)
            if not result.rows:
                return
            yield result
            if len(result.rows) < self.page_size and not result.truncated:
                return
            offset += len(result.rows)

    def _count_by_scan(self, url: str, base_query: str) -> int:
        total = 0
        for page in self._paged(url, base_query):
            total += len(page.rows)
        return total
