"""The H-BOLD application facade.

Wires the whole system together -- endpoint network, index extraction,
storage, registry, portal crawler, scheduler, presentation layer and the
figure renderers -- behind the API a user of the reproduction calls:

    world = build_world(...)
    app = HBold(world.network)
    app.bootstrap_registry(world.listed_urls)
    app.update_all()                      # extract + summarize + cluster
    session = app.explore(url)            # Figure 2 walk
    svg = app.render_treemap(url)         # Figure 4
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..docstore.database import DocumentStore
from ..endpoint.errors import EndpointError
from ..endpoint.network import EndpointNetwork, SparqlClient
from ..viz.edge_bundling import EdgeBundlingDiagram, edge_bundling_layout
from ..viz.hierarchy import HierarchyNode
from ..viz.renderers import (
    render_circlepack,
    render_cluster_graph,
    render_edge_bundling,
    render_graph,
    render_sunburst,
    render_treemap,
)
from ..viz.svg import SvgDocument
from . import pipeline
from .crawler import PortalCrawler
from .exploration import ExplorationSession
from .index_extraction import ExtractionFailed, IndexExtractor
from .models import ClusterSchema, SchemaSummary
from .notifications import EmailOutbox
from .parallel import run_parallel
from .persistence import HboldStorage
from .presentation import PresentationLayer
from .registry import EndpointRegistry, SubmissionResult
from .scheduler import UpdateScheduler
from .visual_query import VisualQuery

__all__ = ["HBold"]


class _SpotlightCache(dict):
    """``{k: (generation, batch)}`` on one endpoint graph.

    Each entry is a whole-dataset batch.  Every caller in the repo asks for
    ``HBold.SPOTLIGHT_K``, so this holds one; a caller cycling through other
    *k* values starts over at the bound instead of keeping a batch per value.
    """

    SPOTLIGHT_CACHE_SIZE = 4


class HBold:
    """High-level Visualization over Big Linked Open Data."""

    def __init__(
        self,
        network: EndpointNetwork,
        store: Optional[DocumentStore] = None,
        cluster_algorithm: str = "louvain",
    ):
        self.network = network
        self.client = SparqlClient(network)
        self.storage = HboldStorage(store)
        self.extractor = IndexExtractor(self.client)
        self.outbox = EmailOutbox()
        self.registry = EndpointRegistry(
            self.storage, self.extractor, outbox=self.outbox,
            cluster_algorithm=cluster_algorithm,
        )
        self.crawler = PortalCrawler(self.client)
        self.scheduler = UpdateScheduler(
            self.storage, self.extractor, cluster_algorithm=cluster_algorithm
        )
        self.presentation = PresentationLayer(
            self.storage, network.clock, cluster_algorithm=cluster_algorithm
        )
        self.cluster_algorithm = cluster_algorithm
        #: per-endpoint spotlight closures for exploration sessions (built
        #: once per url; sessions are created on every exploration click)
        self._spotlights: Dict[str, object] = {}

    # -- registry bootstrap -----------------------------------------------------

    def bootstrap_registry(self, urls: List[str]) -> int:
        """Import a list of endpoint URLs as 'listed' (the old 610)."""
        for url in urls:
            self.registry.add_listed(url)
        return self.registry.listed_count()

    # -- pipeline ----------------------------------------------------------------

    def index_endpoint(self, url: str) -> bool:
        """Run the server pipeline (:mod:`.pipeline`) for one endpoint;
        True on success.  A failure of any stage is recorded on the
        registry record, never raised.  Re-indexing an unchanged dataset
        keeps the stored Cluster Schema (§3.2: its ``computed_at_ms``
        does not move)."""
        return pipeline.index_endpoint(
            self.storage, self.extractor, url, self.cluster_algorithm
        ).ok

    def update_all(
        self, urls: Optional[List[str]] = None, parallelism: int = 1
    ) -> Dict[str, bool]:
        """Index every listed endpoint (or the given subset).

        ``parallelism`` fans :meth:`index_endpoint` out across the
        simulated worker pool: each endpoint is an independent task,
        results merge in *urls* order, and a failing endpoint is isolated
        to its own False entry.  Stored artifacts are byte-identical for
        every parallelism level; only the simulated batch latency shrinks.
        """
        targets = urls if urls is not None else [
            record["url"] for record in self.storage.list_endpoints()
        ]
        tasks = [(url, lambda url=url: self.index_endpoint(url)) for url in targets]
        outcomes, _ = run_parallel(self.network.clock, tasks, parallelism)
        return {outcome.key: bool(outcome.value) for outcome in outcomes}

    def run_daily_update(self, days: int = 1, parallelism: int = 1) -> None:
        """§3.1: advance the scheduler by *days* simulated days."""
        self.scheduler.run_days(days, parallelism=parallelism)

    # -- crawling (§3.3) -----------------------------------------------------------

    def crawl_portals(
        self, portals: Dict[str, str], parallelism: int = 1
    ) -> Dict[str, int]:
        """Crawl portals, merge new endpoints into the registry.

        Returns per-portal found counts plus ``{"new": n}`` -- the §3.3
        numbers.  ``parallelism`` crawls portals concurrently on the
        simulated pool.
        """
        discovered = self.crawler.crawl_all(portals, parallelism=parallelism)
        known = [record["url"] for record in self.storage.list_endpoints()]
        new, found = self.crawler.merge_into_registry(discovered, known)
        for entry in new:
            self.registry.add_listed(entry.url, source=f"portal:{entry.portal}",
                                     title=entry.title)
        found["new"] = len(new)
        return found

    # -- manual insertion (§3.4) ------------------------------------------------------

    def submit_endpoint(self, url: str, email: str) -> SubmissionResult:
        return self.registry.submit(url, email)

    # -- presentation-layer access ------------------------------------------------

    def summary(self, url: str) -> SchemaSummary:
        summary = self.storage.load_summary(url)
        if summary is None:
            raise LookupError(f"{url} has no stored schema summary; index it first")
        return summary

    def cluster_schema(self, url: str) -> ClusterSchema:
        schema = self.storage.load_cluster_schema(url)
        if schema is None:
            raise LookupError(f"{url} has no stored cluster schema; index it first")
        return schema

    #: per-class entities the spotlight batch keeps per endpoint
    SPOTLIGHT_K = 5

    def _spotlight_batch(self, url: str, k: int):
        """The endpoint's batched per-class spotlight, cached on its graph.

        One ``GROUP BY (class, entity)`` round trip covers every class a
        full exploration walk will open, replacing the per-class probes.
        The result lives in the endpoint graph's ``derived_cache`` keyed
        by *k* and stamped with the graph ``generation``, so any dataset
        mutation invalidates it on the next lookup and transient
        sessions over the same endpoint share one batch.  Returns None
        (also cached) when the endpoint cannot answer the batched query;
        callers fall back to the per-class path.
        """
        try:
            graph = self.network.get(url).graph
        except EndpointError:
            return self.extractor.top_entities_all(url, k=k)  # uncacheable
        cache = graph.derived_cache("exploration/spotlight", _SpotlightCache)
        entry = cache.get(k)
        if entry is not None and entry[0] == graph.generation:
            return entry[1]
        batch = self.extractor.top_entities_all(url, k=k)
        if len(cache) >= cache.SPOTLIGHT_CACHE_SIZE:
            cache.clear()
        cache[k] = (graph.generation, batch)
        return batch

    def explore(self, url: str) -> ExplorationSession:
        """An exploration session whose class-detail panel can spotlight
        a class's dominant entities with a live top-k degree query.

        Spotlights are served from one cached GROUP BY batch per
        endpoint (:meth:`_spotlight_batch`); endpoints that reject or
        truncate the batch keep the per-class probe behaviour."""
        spotlight = self._spotlights.get(url)
        if spotlight is None:

            def spotlight(class_iri: str, k: int = self.SPOTLIGHT_K, url: str = url):
                try:
                    batch = self._spotlight_batch(url, k)
                    if batch is not None:
                        return batch.get(class_iri, [])
                    return self.extractor.top_entities(url, class_iri, k=k)
                except (EndpointError, ExtractionFailed):
                    return []  # panel stays usable when the endpoint is down or garbled

            self._spotlights[url] = spotlight
        return ExplorationSession(
            self.summary(url), self.cluster_schema(url), spotlight=spotlight
        )

    def visual_query(self, url: str, focus_class: str) -> VisualQuery:
        return VisualQuery(self.summary(url), focus_class)

    def run_visual_query(self, url: str, query: VisualQuery):
        return self.client.select(url, query.to_sparql())

    # -- figure generation ---------------------------------------------------------

    def cluster_hierarchy(self, url: str) -> HierarchyNode:
        """The dataset > clusters > classes hierarchy behind Figures 4-6."""
        summary = self.summary(url)
        schema = self.cluster_schema(url)
        root = HierarchyNode(summary.endpoint_url)
        used_names = set()
        for cluster in schema.clusters:
            cluster_node = root.add_child(
                HierarchyNode(
                    f"cluster:{cluster.label}", data={"cluster_id": cluster.cluster_id}
                )
            )
            for iri in cluster.class_iris:
                node = summary.node(iri)
                # Leaf names must be unique for the edge-bundling layout;
                # local-name collisions across namespaces get a suffix.
                name = node.label
                suffix = 2
                while name in used_names:
                    name = f"{node.label}~{suffix}"
                    suffix += 1
                used_names.add(name)
                cluster_node.add_child(
                    HierarchyNode(name, value=float(node.instance_count), data={"iri": iri})
                )
        return root

    def render_cluster_schema(self, url: str, **options) -> SvgDocument:
        """Figure 2 step 1: the Cluster Schema as a node-link diagram."""
        schema = self.cluster_schema(url)
        clusters = [
            (c.cluster_id, c.label, c.size, c.instance_count) for c in schema.clusters
        ]
        edges = [(e.source, e.target, e.weight) for e in schema.edges]
        return render_cluster_graph(clusters, edges, **options)

    def statistics(self, url: str):
        """VoID-style dataset statistics for the dataset panel."""
        from .statistics import compute_statistics

        return compute_statistics(self.summary(url))

    def multilevel_hierarchy(self, url: str, **options):
        """The multilevel abstraction pyramid (beyond the two paper levels)."""
        from .multilevel import build_multilevel_hierarchy

        return build_multilevel_hierarchy(
            self.summary(url), algorithm=self.cluster_algorithm, **options
        )

    def render_treemap(self, url: str, **options) -> SvgDocument:
        return render_treemap(self.cluster_hierarchy(url), **options)

    def render_sunburst(self, url: str, **options) -> SvgDocument:
        return render_sunburst(self.cluster_hierarchy(url), **options)

    def render_circlepack(self, url: str, **options) -> SvgDocument:
        return render_circlepack(self.cluster_hierarchy(url), **options)

    def edge_bundling_diagram(
        self, url: str, focus: Optional[str] = None, beta: float = 0.85
    ) -> EdgeBundlingDiagram:
        """Figure 7 layout over the Schema Summary (focus = class label)."""
        summary = self.summary(url)
        root = self.cluster_hierarchy(url)
        label_of = {leaf.data["iri"]: leaf.name for leaf in root.leaves()}
        edges = []
        edge_data = []
        for edge in summary.edges:
            edges.append((label_of[edge.source], label_of[edge.target]))
            edge_data.append({"property": edge.property, "count": edge.count})
        return edge_bundling_layout(
            root, edges, focus=focus, beta=beta, edge_data=edge_data
        )

    def render_edge_bundling(self, url: str, focus: Optional[str] = None) -> SvgDocument:
        return render_edge_bundling(self.edge_bundling_diagram(url, focus=focus))

    def render_exploration(self, session: ExplorationSession, **options) -> SvgDocument:
        """Figure 2-style view of the session's currently visible subgraph."""
        summary = session.summary
        nodes = session.visible_classes
        edges = [
            (edge.source, edge.target)
            for edge in session.visible_edges()
            if edge.source != edge.target
        ]
        labels = {iri: summary.node(iri).label for iri in nodes}
        return render_graph(nodes, edges, labels=labels, **options)

    # -- stats the paper reports ------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return {
            "listed": self.registry.listed_count(),
            "indexed": self.registry.indexed_count(),
        }
