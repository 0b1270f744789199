"""The benchmark's declared workloads and metrics: one table, read by the
runner, ``repeat.py``, the tests and ``BENCHMARK.json``.

``python3 bench/catalog.py`` prints ``BENCHMARK.json``; ``test_bench.py``
fails when the committed file differs.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
#: seconds of timed rounds per run, at PR 10's code (each workload's fixed
#: ``rounds`` is sized to it).  The driver makes 114 runs inside 3420 s; with
#: the set-ups (1-11 s) this keeps the mean run near 14 s on a quiet box and
#: leaves room for a box that runs at half that speed.
RUN_SECONDS = 8
DEFAULT_SEED = 2020

WORKLOADS: List[Tuple[str, str]] = [
    ("index_fleet",
     "HBold.index_endpoint over the 110-endpoint census: the paper's server "
     "pipeline, engine-bound (sparql run + parse about 87% of the wall)"),
    ("explore_sessions",
     "one user session per indexed dataset, first view to visual query: "
     "viz-bound, engine PRs must leave it flat"),
    ("serve_uncached",
     "QueryServer.serve of 10 default-mix waves with no result cache: 90-99% "
     "inside QueryEngine.run"),
    ("serve_cached",
     "same serving tier, dashboard mix on a long-lived cached server, one "
     "write per round: scheduler, admission and cache do the work"),
    ("store_cycle",
     "ingest, save, WAL, full and delta checkpoint, restart, lazy lookups, "
     "docstore flush and reopen: the only workload that writes"),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    #: workloads that report it; ``ALL`` metrics are the ones the driver gates
    workloads: Tuple[str, ...]
    what: str


ALL = tuple(name for name, _ in WORKLOADS)

#: The ten end-to-end metrics.  The driver's contract has every workload's
#: untraced run print every metric ``BENCHMARK.json`` lists under
#: ``end_to_end`` ("With --trace 0 the metrics are every end_to_end metric")
#: and none that reads 0 ("Choose metrics that are never 0"), so that list
#: holds the four that apply everywhere (``GATED``).  The other six
#: (``RECORDED``) are measured, printed and written to the document by every
#: untraced run they apply to; for the driver they are declared under
#: ``per_layer`` and the traced run reports them from its untraced rounds, so
#: each commit's value is on record, without a bound.  ``failed_share`` is
#: also the contract's ``failed`` / ``attempted`` keys, and a failed op fails
#: the command.  Bounds were fixed from the repeatability tables in
#: ``README.md``.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "data generation, indexing, workload generation, one warm-up "
             "round, at the reference speed"),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25, ALL,
             "ops per round / sum of the op walls, each op's wall the fastest "
             "of its repetitions across the timed rounds, at the reference speed"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25, ALL,
             "broadened median of those op walls: the mean of their central fifth"),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25, ("index_fleet", "explore_sessions"),
             "95th percentile of all timed ops, pooled over the rounds (from "
             "200 ops up)"),
    EndToEnd("failed_share", "share", "lower", 0.0, ALL,
             "failed ops / attempted ops; any value above 0 is a regression"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, ALL,
             "ru_maxrss of the workload's process"),
    EndToEnd("first_view_p50_ms", "ms", "lower", 0.25, ("explore_sessions",),
             "median over all timed sessions of display_precomputed + "
             "render_cluster_schema().render()"),
    EndToEnd("restart_ms", "ms", "lower", 0.25, ("store_cycle",),
             "load_graph(lazy=False) including WAL replay, median over cycles"),
    EndToEnd("checkpoint_ms", "ms", "lower", 0.25, ("store_cycle",),
             "delta checkpoint (200 adds on one subject since the last), "
             "median over cycles"),
    EndToEnd("stored_bytes_per_triple", "B", "lower", 0.02, ("store_cycle",),
             "bytes of the closed store directory / triples it holds"),
]
E2E = {metric.name: metric for metric in END_TO_END}
GATED = [metric for metric in END_TO_END
         if metric.workloads == ALL and metric.bound > 0]
RECORDED = [metric for metric in END_TO_END if metric not in GATED]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "time" metrics vary run to run; "count" metrics must repeat exactly
    kind: str
    #: the end-to-end metric and workload it should move
    moves: str


_p = PerLayer


_SERVE_TEMPLATES = ("spo-page", "typed-join-page", "class-census", "top-entities",
                    "distinct-classes", "labels-page", "ask-typed")
_FIGURES = ("cluster_graph", "exploration", "treemap", "sunburst", "circlepack",
            "edge_bundling")

#: Every workload's traced run prints every one of these; a layer the
#: workload does not enter reads 0.  For a count with no good direction
#: (a digest, a total) "lower" is nominal.
PER_LAYER: List[PerLayer] = [
    _p("datagen.build_s", "s", "lower", "time", "setup_s, all"),
    # sparql: replayed query texts
    _p("sparql.parse_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("sparql.parse_hit_share", "share", "higher", "time", "ops_per_s on index_fleet"),
    _p("sparql.run_busy_s", "s", "lower", "time",
       "ops_per_s/op_p50_ms on index_fleet and serve_uncached; flat elsewhere"),
    *[_p(f"sparql.run_ms.{t}", "ms", "lower", "time", "op_p50_ms on serve_uncached")
      for t in _SERVE_TEMPLATES],
    _p("sparql.queries", "count", "lower", "count", "-"),
    _p("sparql.rows_out", "count", "lower", "count", "-"),
    # endpoint
    _p("endpoint.query_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("endpoint.self_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("endpoint.queries", "count", "lower", "count", "-"),
    _p("endpoint.truncated", "count", "lower", "count", "-"),
    _p("endpoint.rejected", "count", "lower", "count", "-"),
    _p("endpoint.timeouts", "count", "lower", "count", "-"),
    _p("endpoint.failures", "count", "lower", "count", "-"),
    _p("endpoint.sim_latency_ms_total", "ms", "lower", "count",
       "moves only when the latency model changes"),
    # core
    _p("core.extract_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("core.extract_self_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("core.summary_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("core.cluster_schema_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("core.display_precomputed_ms", "ms", "lower", "time",
       "first_view_p50_ms on explore_sessions"),
    _p("core.display_on_the_fly_ms", "ms", "lower", "time",
       "first_view_p50_ms if precomputation were dropped"),
    _p("core.explore_steps_ms", "ms", "lower", "time", "op_p50_ms on explore_sessions"),
    _p("core.visual_query_ms", "ms", "lower", "time", "op_p50_ms on explore_sessions"),
    _p("core.queries_per_endpoint", "count", "lower", "count", "-"),
    _p("core.display_saving_share_sim", "share", "higher", "count",
       "E1's median simulated saving; must stay >= 0.35"),
    _p("core.artifact_digest", "hash48", "lower", "count",
       "first 48 bits of the canonical hash of all stored artifacts"),
    # community
    _p("community.detect_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("community.modularity_mean", "share", "higher", "count", "-"),
    _p("community.clusters_total", "count", "lower", "count", "-"),
    # docstore
    _p("docstore.save_busy_s", "s", "lower", "time", "ops_per_s on index_fleet"),
    _p("docstore.load_ms", "ms", "lower", "time", "first_view_p50_ms on explore_sessions"),
    _p("docstore.flush_ms", "ms", "lower", "time", "op_p50_ms on store_cycle"),
    _p("docstore.reopen_ms", "ms", "lower", "time", "op_p50_ms on store_cycle"),
    _p("docstore.bytes_on_disk", "B", "lower", "count", "-"),
    # viz
    *[_p(f"viz.render_ms.{f}", "ms", "lower", "time",
         "op_p50_ms/op_p95_ms on explore_sessions only") for f in _FIGURES],
    _p("viz.svg_bytes_total", "B", "lower", "count", "-"),
    # serving
    _p("serving.self_s", "s", "lower", "time", "ops_per_s/op_p50_ms on serve_cached"),
    _p("serving.requests_per_s", "1/s", "higher", "time", "ops_per_s on serve_cached"),
    _p("serving.refill_ms", "ms", "lower", "time", "op_p50_ms on serve_cached"),
    _p("serving.workload_gen_s", "s", "lower", "time", "setup_s on serve_*"),
    _p("serving.cache_hit_share", "share", "higher", "count", "-"),
    _p("serving.cache_invalidations", "count", "lower", "count", "-"),
    _p("serving.shed", "count", "lower", "count", "-"),
    _p("serving.sim_p50_ms", "ms", "lower", "count", "simulated; never gated as speed"),
    _p("serving.sim_p95_ms", "ms", "lower", "count", "simulated; never gated as speed"),
    _p("serving.sim_qps", "1/s", "higher", "count", "simulated; never gated as speed"),
    # rdf
    _p("rdf.ingest_ktriples_per_s", "k/s", "higher", "time", "ops_per_s on store_cycle"),
    _p("rdf.lookup_us", "us", "lower", "time", "ops_per_s on store_cycle"),
    _p("rdf.terms", "count", "lower", "count", "-"),
    # rdf.durability
    _p("rdf.durability.save_ms", "ms", "lower", "time", "checkpoint_ms on store_cycle"),
    _p("rdf.durability.wal_append_us", "us", "lower", "time",
       "checkpoint_ms on store_cycle (one journaled Graph.add)"),
    _p("rdf.durability.checkpoint_full_ms", "ms", "lower", "time",
       "checkpoint_ms on store_cycle"),
    _p("rdf.durability.checkpoint_delta_ms", "ms", "lower", "time",
       "checkpoint_ms on store_cycle"),
    _p("rdf.durability.load_eager_ms", "ms", "lower", "time", "restart_ms on store_cycle"),
    _p("rdf.durability.load_lazy_ms", "ms", "lower", "time", "op_p50_ms on store_cycle"),
    _p("rdf.durability.digest_ms", "ms", "lower", "time", "op_p50_ms on store_cycle"),
    _p("rdf.durability.snapshot_bytes", "B", "lower", "count",
       "stored_bytes_per_triple on store_cycle"),
    _p("rdf.durability.wal_bytes_per_add", "B", "lower", "count", "-"),
    _p("rdf.durability.files_written_delta", "count", "lower", "count",
       "files the delta checkpoint created or replaced"),
    _p("rdf.durability.bytes_written_delta", "B", "lower", "count",
       "bytes of those files"),
    # obs
    _p("obs.system_tracing_overhead_share", "share", "lower", "time",
       "ops_per_s on serve_uncached if tracing ever defaults on"),
    # harness
    _p("bench.trace_overhead_share", "share", "lower", "time", "-"),
    _p("bench.traced_wall_s", "s", "lower", "time", "-"),
    _p("bench.round_wall_median_s", "s", "lower", "time",
       "median wall of the run's untraced rounds, full collections and "
       "round-to-round growth included"),
    _p("bench.calib_ms", "ms", "lower", "time",
       "box speed beside every result: median wall of the fixed loop that "
       "runs before every op"),
    # the end-to-end metrics BENCHMARK.json cannot gate, from the untraced rounds
    *[_p(m.name, m.unit, m.better,
         "count" if m.name in ("failed_share", "stored_bytes_per_triple") else "time",
         "end-to-end on " + ", ".join(m.workloads)) for m in RECORDED],
]
LAYER = {metric.name: metric for metric in PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
