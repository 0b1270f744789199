"""H-BOLD core: the paper's primary contribution.

The server layer (index extraction with pattern strategies, Schema Summary
and Cluster Schema construction, MongoDB-style persistence -- run as one
pipeline, :mod:`.pipeline`, by the daily update scheduler, the bulk
indexer and manual endpoint insertion -- and portal crawling) and the
presentation layer (exploration sessions, visual query builder, the two
display paths whose timing §3.2 compares, figure rendering), wired
together by the :class:`HBold` facade.
"""

from .cluster_schema import ALGORITHMS, build_cluster_schema, summary_to_undirected
from .crawler import LISTING_1_QUERY, DiscoveredEndpoint, PortalCrawler
from .diff import SummaryDiff, diff_summaries
from .export import (
    clusters_to_csv,
    clusters_to_json,
    summary_to_graph,
    summary_to_turtle,
    summary_to_void_turtle,
)
from .multilevel import (
    AbstractionLevel,
    MultilevelHierarchy,
    build_multilevel_hierarchy,
)
from .statistics import DatasetStatistics, compute_statistics, void_description
from .exploration import ExplorationSession, ExplorationStep
from .hbold import HBold
from .index_extraction import ExtractionFailed, IndexExtractor
from .models import (
    ClassIndex,
    Cluster,
    ClusterEdge,
    ClusterSchema,
    EndpointIndexes,
    LinkIndex,
    SchemaEdge,
    SchemaNode,
    SchemaSummary,
)
from .notifications import EmailMessage, EmailOutbox
from .parallel import TaskOutcome, makespan_ms, run_parallel
from .persistence import HboldStorage
from .presentation import DisplayTiming, PresentationLayer
from .registry import EndpointRegistry, SubmissionResult
from .scheduler import FRESHNESS_DAYS, POLICIES, DailyReport, UpdateScheduler
from .visual_query import QueryBuildError, VisualQuery

__all__ = [
    "ALGORITHMS",
    "AbstractionLevel",
    "ClassIndex",
    "DatasetStatistics",
    "MultilevelHierarchy",
    "build_multilevel_hierarchy",
    "clusters_to_csv",
    "clusters_to_json",
    "compute_statistics",
    "summary_to_graph",
    "summary_to_turtle",
    "summary_to_void_turtle",
    "void_description",
    "Cluster",
    "ClusterEdge",
    "ClusterSchema",
    "DailyReport",
    "DiscoveredEndpoint",
    "DisplayTiming",
    "EmailMessage",
    "EmailOutbox",
    "EndpointIndexes",
    "EndpointRegistry",
    "ExplorationSession",
    "ExplorationStep",
    "ExtractionFailed",
    "FRESHNESS_DAYS",
    "HBold",
    "HboldStorage",
    "IndexExtractor",
    "LISTING_1_QUERY",
    "LinkIndex",
    "POLICIES",
    "PortalCrawler",
    "PresentationLayer",
    "QueryBuildError",
    "SchemaEdge",
    "SchemaNode",
    "SchemaSummary",
    "SubmissionResult",
    "SummaryDiff",
    "TaskOutcome",
    "UpdateScheduler",
    "diff_summaries",
    "makespan_ms",
    "run_parallel",
    "VisualQuery",
    "build_cluster_schema",
    "summary_to_undirected",
]
