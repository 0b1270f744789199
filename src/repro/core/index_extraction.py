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

Each index is a *ladder* of :class:`_Rung` tried top down, the aggregate
or whole-dataset question first, as the original LODeX extractor selects
its strategy.  The per-class indexes (3 and 4) start *set at a time*: one
question for every class's datatype properties and one for every class's
links, split by class here.  Below that, the *per-class* rung asks each
class alone, its properties first and then its links.

One walker, :meth:`IndexExtractor._climb`, applies one verdict rule:

* a rejection, a timeout, a truncated answer or a pagination cut moves the
  walk to the next rung;
* a rejected path-free aggregate is remembered for the whole extraction,
  and no other aggregate rung is sent.  A rejected path question is not
  remembered (the endpoint checks paths before aggregates), nor is a
  timeout or a truncation;
* the last rung's answer is kept, and a cut there marks the extraction
  incomplete.  On a per-class last rung -- the datatype-property pages and
  the link scan -- a timeout does the same, keeping the rows read;
* a rejection on any last rung, or a timeout on any other, fails the
  extraction, as does a COUNT cell that is not a non-negative integer.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..endpoint.errors import EndpointError, EndpointTimeout, QueryRejected, check_count
from ..endpoint.network import SparqlClient
from .models import ClassIndex, EndpointIndexes, LinkIndex

__all__ = ["IndexExtractor", "ExtractionFailed"]


class ExtractionFailed(RuntimeError):
    """Index extraction could not complete for this endpoint."""

    def __init__(self, url: str, reason: str):
        super().__init__(f"extraction failed for {url}: {reason}")
        self.url = url
        self.reason = reason


class _BadCount(Exception):
    """A COUNT cell that is not a non-negative integer."""


def _count(cell) -> int:
    """The one count reader: a COUNT cell as an int."""
    try:
        count = int(cell.lexical)
    except (AttributeError, ValueError):  # not a literal, or not an integer
        raise _BadCount(cell) from None
    if count < 0:
        raise _BadCount(cell)
    return count


class _Rung(NamedTuple):
    """A question and the reader that folds its rows (a :class:`_Pages`)
    into the rung's answer.  A rung of several queries has no ``query``;
    its reader, called with None, climbs sub-ladders itself."""

    query: Optional[str]
    read: Callable[[Optional["_Pages"]], Any]
    #: asked in LIMIT/OFFSET pages rather than in one round trip
    paged: bool = False
    #: a path-free aggregate: its rejection is remembered
    aggregate: bool = False
    #: answering here makes the stored strategy "scan"
    scan: bool = False


#: the rung below a set-at-a-time question: None, "ask per class"
_PER_CLASS = _Rung(None, lambda _rows: None)


class _Walk:
    """What one extraction has learnt so far; a new walk starts from these."""

    no_aggregates = False
    complete = True
    scanned = False


_CENSUS = "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class"
_INFERRED_CENSUS = (
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a/rdfs:subClassOf* ?class } GROUP BY ?class"
)
_CLASSES = "SELECT DISTINCT ?class WHERE { ?s a ?class }"
_AXIOMS = (
    "SELECT ?sub ?super WHERE { ?sub <http://www.w3.org/2000/01/rdf-schema#subClassOf> ?super }"
)
_ALL_PROPERTIES = "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o . FILTER ( isLiteral(?o) ) }"
_SPOTLIGHT = "SELECT ?c ?s (COUNT(?o) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c ?s"
_ALL_LINKS = (
    "SELECT ?c ?p ?target (COUNT(?o) AS ?n) WHERE { "
    "?s a ?c . ?s ?p ?o . ?o a ?target } GROUP BY ?c ?p ?target"
)


# -- the readers: each folds its question's pages ----------------------------------


def _count_rows(rows) -> int:
    return sum(len(page.rows) for page in rows)


def _sum_counts(rows) -> int:
    return sum(_count(row["n"]) for page in rows for row in page if row.get("n") is not None)


def _column(name: str, rows) -> List[str]:
    return [str(row[name]) for page in rows for row in page if row.get(name) is not None]


def _counts_by_class(rows) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for page in rows:
        for row in page:
            class_term, count = row.get("class"), row.get("n")
            if class_term is not None and count is not None:
                counts[str(class_term)] = _count(count)
    return counts


def _axioms(rows) -> Dict[str, List[str]]:
    axioms: Dict[str, List[str]] = defaultdict(list)
    for page in rows:
        for row in page:
            sub, super_ = row.get("sub"), row.get("super")
            if sub is not None and super_ is not None:
                axioms[str(sub)].append(str(super_))
    return axioms


def _all_properties(rows) -> Dict[str, List[str]]:
    """``{class_iri: sorted properties}``; a class without literals is absent."""
    properties: Dict[str, Set[str]] = defaultdict(set)
    for page in rows:
        for row in page:
            class_term, prop = row.get("c"), row.get("p")
            if class_term is not None and prop is not None:
                properties[str(class_term)].add(str(prop))
    return {iri: sorted(props) for iri, props in properties.items()}


def _all_links(known: Set[str], rows) -> Dict[str, List[LinkIndex]]:
    """Every class's links, split by class, each class's in result order."""
    links: Dict[str, List[LinkIndex]] = defaultdict(list)
    for page in rows:
        for row in page:
            source, prop = row.get("c"), row.get("p")
            target, count = row.get("target"), row.get("n")
            if source is None or prop is None or target is None or count is None:
                continue
            target = str(target)
            if target in known:
                source = str(source)
                links[source].append(LinkIndex(source, str(prop), target, _count(count)))
    return links


def _links_of(class_iri: str, known: Set[str], rows) -> List[LinkIndex]:
    links = []
    for page in rows:
        for row in page:
            prop, target, count = row.get("p"), row.get("target"), row.get("n")
            if prop is not None and target is not None and count is not None:
                if str(target) in known:
                    links.append(LinkIndex(class_iri, str(prop), str(target), _count(count)))
    return links


def _scanned_links_of(class_iri: str, known: Set[str], rows) -> List[LinkIndex]:
    accumulator: Dict[Tuple[str, str], int] = defaultdict(int)
    for page in rows:
        for row in page:
            prop, target = row.get("p"), row.get("target")
            if prop is not None and target is not None:
                target = str(target)
                if target in known:
                    accumulator[str(prop), target] += 1
    return [LinkIndex(class_iri, *key, count) for key, count in sorted(accumulator.items())]


def _ranked(rows) -> List[Tuple[str, int]]:
    return [(str(row["s"]), _count(row["n"])) for page in rows for row in page
            if row.get("s") is not None and row.get("n") is not None]


def _ranked_by_scan(k: int, rows) -> List[Tuple[str, int]]:
    counts = Counter(_column("s", rows))
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def _spotlight(k: int, rows) -> Dict[str, List[Tuple[str, int]]]:
    degrees: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    for page in rows:
        for row in page:
            class_term, subject, count = row.get("c"), row.get("s"), row.get("n")
            if class_term is not None and subject is not None and count is not None:
                degrees[str(class_term)].append((_count(count), str(subject)))
    spotlight: Dict[str, List[Tuple[str, int]]] = {}
    for class_iri, entries in degrees.items():
        entries.sort(key=lambda item: (-item[0], item[1]))
        spotlight[class_iri] = [(iri, degree) for degree, iri in entries[:k]]
    return spotlight


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
        check_count("page_size", page_size)
        check_count("max_pages", max_pages)
        check_count("max_classes", max_classes)
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
        walk = _Walk()
        try:
            if not self.client.is_alive(url):
                raise ExtractionFailed(url, "endpoint unavailable")
            census = self._census(url, walk)
            if self.infer_types:
                census = (
                    _Rung(_INFERRED_CENSUS, _counts_by_class),
                    _Rung(None, partial(self._closure, url, walk, census), scan=True),
                )
            class_counts = self._climb(url, walk, census)
            if not class_counts:
                raise ExtractionFailed(url, "no instantiated classes")
            if len(class_counts) > self.max_classes:
                raise ExtractionFailed(
                    url, f"too many classes ({len(class_counts)} > {self.max_classes})"
                )

            known = set(class_counts)
            properties_ladder, links_ladder = self._set_at_a_time(known)
            datatype_props, links = self._per_class(
                url, walk, sorted(class_counts), known,
                self._climb(url, walk, properties_ladder), self._climb(url, walk, links_ladder),
            )
            if self.infer_types:
                # Superclasses repeat their subclasses' instances; the total
                # is the count of directly typed subjects instead.
                total_instances = self._climb(url, walk, (
                    _Rung("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c }", _sum_counts,
                          aggregate=True),
                    _Rung("SELECT DISTINCT ?s WHERE { ?s a ?c }", _count_rows, paged=True),
                ))
            else:
                total_instances = sum(class_counts.values())
            classes = [
                ClassIndex(iri, count, datatype_properties=datatype_props[iri])
                for iri, count in sorted(class_counts.items())
            ]
            return EndpointIndexes(
                url, total_instances, classes, links,
                extracted_at_ms=self.client.network.clock.now_ms,
                strategy="scan" if walk.scanned else "aggregate",
                complete=walk.complete, inferred=self.infer_types,
            )
        except ExtractionFailed:
            raise
        except EndpointError as exc:
            raise ExtractionFailed(url, f"{type(exc).__name__}: {exc}") from exc

    # -- exploration probe: top-k entities of a class -------------------------------

    def top_entities(
        self, url: str, class_iri: str, k: int = 10
    ) -> List[Tuple[str, int]]:
        """The *k* instances of *class_iri* with the most asserted triples,
        ``[(iri, degree), ...]`` best-first.

        The paper's common exploratory shape -- "which entities dominate
        this class?" -- as one aggregate + ``ORDER BY DESC ... LIMIT k``
        round trip: the engine's count sink and its ID-space ORDER BY tail
        over the groups return k rows, not the whole degree table.  Endpoints
        that reject aggregates or ORDER BY fall back to paging the class's
        triples and counting client-side (an error there is raised to the
        caller).  Ties break on the subject IRI so both rungs agree.
        """
        check_count("k", k, least=0)
        pattern = f"WHERE {{ ?s a <{class_iri}> . ?s ?p ?o }}"
        return self._climb(url, _Walk(), (
            _Rung(f"SELECT ?s (COUNT(?o) AS ?n) {pattern} GROUP BY ?s ORDER BY DESC(?n) ?s "
                  f"LIMIT {k}", _ranked),
            _Rung(f"SELECT ?s ?p ?o {pattern}", partial(_ranked_by_scan, k), paged=True),
        ))

    def top_entities_all(
        self, url: str, k: int = 10
    ) -> Optional[Dict[str, List[Tuple[str, int]]]]:
        """Per-class top-*k* entity degrees, in ONE round trip:
        ``{class_iri: [(entity_iri, degree), ...]}`` best-first.

        The batched form of :meth:`top_entities` for full exploration
        walks: one GROUP BY over ``(class, entity)`` instead of one round
        trip per ``class_details`` panel, folded here with the same
        ``(-degree, iri)`` ranking rule.  None when the endpoint rejects,
        times out on or caps it: callers then ask per class.
        """
        check_count("k", k, least=0)
        return self._climb(url, _Walk(), (_Rung(_SPOTLIGHT, partial(_spotlight, k)), _PER_CLASS))

    # -- the ladders -----------------------------------------------------------------

    def _census(self, url: str, walk: _Walk) -> Tuple[_Rung, _Rung]:
        """Classes and their instance counts: the grouped census, else the
        class scan -- page the DISTINCT classes, then count each by paging."""

        def class_scan(_rows) -> Dict[str, int]:
            distinct = (_Rung(_CLASSES, partial(_column, "class"), paged=True),)
            classes = self._climb(url, walk, distinct)
            return {
                class_iri: self._tally(url, walk, f"SELECT ?s WHERE {{ ?s a <{class_iri}> }}")
                for class_iri in classes
            }

        return _Rung(_CENSUS, _counts_by_class, aggregate=True), _Rung(None, class_scan, scan=True)

    def _closure(self, url: str, walk: _Walk, census, _rows) -> Dict[str, int]:
        """Client-side inference: the *census* ladder, a closure over the
        fetched subclass axioms, then one DISTINCT-subjects UNION question
        per class that gains instances through it (exact, path-free)."""
        direct = self._climb(url, walk, census)
        axioms = self._climb(url, walk, (_Rung(_AXIOMS, _axioms, paged=True),))

        # every class that gains instances through the closure: a DFS over
        # the axiom graph from each directly instantiated class
        descendants: Dict[str, Set[str]] = {}
        for class_iri in direct:
            seen, stack = {class_iri}, [class_iri]
            while stack:
                for parent in axioms.get(stack.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            for ancestor in seen:
                descendants.setdefault(ancestor, set()).add(class_iri)

        counts: Dict[str, int] = {}
        for class_iri, members in sorted(descendants.items()):
            if members == {class_iri}:
                counts[class_iri] = direct.get(class_iri, 0)
                continue
            union = " UNION ".join(f"{{ ?s a <{m}> }}" for m in sorted(members))
            counts[class_iri] = self._tally(url, walk, f"SELECT DISTINCT ?s WHERE {{ {union} }}")
        return counts

    def _set_at_a_time(self, known: Set[str]):
        """The ladders of indexes 3 and 4 above the per-class rung: every
        class's datatype properties from ONE paged question (no aggregate,
        so every profile answers it), every class's links from ONE grouped
        round trip.  Each answers None when the per-class rung must."""
        return (
            (_Rung(_ALL_PROPERTIES, _all_properties, paged=True), _PER_CLASS),
            (_Rung(_ALL_LINKS, partial(_all_links, known), aggregate=True), _PER_CLASS),
        )

    def _per_class(self, url, walk, classes, known, all_props, all_links):
        """The per-class rung: each class's datatype properties, then its
        links -- read off the set-at-a-time answers, or asked for that class
        alone, links by aggregate, else by a scan counted client-side."""
        datatype_props: Dict[str, List[str]] = {}
        links: List[LinkIndex] = []
        for class_iri in classes:
            if all_props is not None:
                datatype_props[class_iri] = all_props.get(class_iri, [])
            else:
                query = (f"SELECT DISTINCT ?p WHERE {{ ?s a <{class_iri}> . ?s ?p ?o . "
                         f"FILTER ( isLiteral(?o) ) }}")
                ladder = (_Rung(query, partial(_column, "p"), paged=True),)
                properties = self._climb(url, walk, ladder, per_class=True)
                datatype_props[class_iri] = sorted(set(properties))
            if all_links is not None:
                links.extend(all_links.get(class_iri, ()))
                continue
            pattern = f"WHERE {{ ?s a <{class_iri}> . ?s ?p ?o . ?o a ?target }}"
            links.extend(self._climb(url, walk, (
                _Rung(f"SELECT ?p ?target (COUNT(?o) AS ?n) {pattern} GROUP BY ?p ?target",
                      partial(_links_of, class_iri, known), aggregate=True),
                _Rung(f"SELECT ?p ?target {pattern}",
                      partial(_scanned_links_of, class_iri, known), paged=True, scan=True),
            ), per_class=True))
        return datatype_props, links

    def _tally(self, url: str, walk: _Walk, query: str) -> int:
        """How many rows *query* has, counted by paging."""
        return self._climb(url, walk, (_Rung(query, _count_rows, paged=True),))

    # -- the walker --------------------------------------------------------------------

    def _climb(self, url: str, walk: _Walk, ladder, per_class: bool = False):
        """The answer of the first rung of *ladder* that holds, under the
        verdict rule of the module docstring; *walk* learns from every
        rung.  *per_class*: the last rung keeps the rows it read before a
        timeout."""
        last = len(ladder) - 1
        for depth, rung in enumerate(ladder):
            if rung.aggregate and walk.no_aggregates:
                continue
            final = depth == last
            rows = rung.query and _Pages(self, url, rung.query, rung.paged, per_class and final)
            try:
                answer = rung.read(rows)
            except (QueryRejected, EndpointTimeout) as exc:
                if rung.aggregate and isinstance(exc, QueryRejected):
                    walk.no_aggregates = True
                if final:
                    raise
                continue
            except _BadCount as exc:
                raise ExtractionFailed(
                    url, f"COUNT cell {exc.args[0]!r} is not a non-negative integer: {rung.query}"
                ) from None
            if rows is not None and rows.cut:
                if not final:
                    continue
                walk.complete = False
            walk.scanned = walk.scanned or rung.scan
            return answer


class _Pages:
    """The one row source: the result pages of one question, fetched as
    they are iterated (iterate once) -- one round trip, or LIMIT/OFFSET
    pages, at most ``max_pages`` of them.

    ``cut`` says rows may be missing: a one-round-trip answer was
    truncated (and is not yielded); the pagination safety valve closed,
    the last of ``max_pages`` pages full or capped (a full last page at the
    limit cannot be told apart from a cut, so it counts as one); or, with
    *keep_timeout*, a page timed out and the pages before it are the answer.
    """

    __slots__ = ("_extractor", "_url", "_query", "_paged", "_keep_timeout", "cut")

    def __init__(self, extractor, url: str, query: str, paged: bool, keep_timeout=False):
        self._extractor = extractor
        self._url = url
        self._query = query
        self._paged = paged
        self._keep_timeout = keep_timeout
        self.cut = False

    def __iter__(self):
        extractor = self._extractor
        page_size = extractor.page_size if self._paged else 0
        offset = 0
        try:
            for _page in range(extractor.max_pages):
                query = self._query
                if page_size:
                    query = f"{query} LIMIT {page_size} OFFSET {offset}"
                result = extractor.client.select(self._url, query)
                if not page_size:
                    self.cut = result.truncated
                    if not self.cut:
                        yield result
                    return
                if not result.rows:
                    return
                yield result
                if len(result.rows) < page_size and not result.truncated:
                    return
                offset += len(result.rows)
        except EndpointTimeout:
            if not self._keep_timeout:
                raise
        self.cut = True
