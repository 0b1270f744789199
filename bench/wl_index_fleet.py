"""``index_fleet``: the paper's server pipeline over the endpoint census.

Op: ``HBold.index_endpoint(url)`` -- extract, Schema Summary, Louvain,
store -- for each of the census's 110 indexable endpoints (518 to 7,287
triples each, five implementation profiles, some result-capped or without
aggregates), into a fresh ``HBold`` per round.

Why it exists: it is the pipeline of E1/E3/E4.  About 70% of its wall is
``QueryEngine.run`` and about 17% parsing (5k distinct query texts thrash
the 256-entry AST cache), so it is the yardstick for engine and parser work.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Dict, List

import spans
from harness import Round, Workload

CHECK_ENDPOINTS = 12


def census_world(workload: Workload):
    """The paper's census on reliable availability; the smoke mode keeps its
    first 12 indexable endpoints and none of the dead ones."""
    from repro.datagen import build_world

    if workload.check:
        return workload.timed(lambda: build_world(
            indexable=CHECK_ENDPOINTS, broken=0, portal_new_indexable=0,
            flaky=False, seed=workload.seed))
    return workload.timed(lambda: build_world(flaky=False, seed=workload.seed))


def artifact_digest(storage, urls) -> str:
    """Canonical hash of every stored index, summary and cluster schema.

    Simulated timestamps are dropped: the clock moves on between rounds,
    the artifacts must not.
    """
    digest = hashlib.sha256()
    for url in urls:
        for model in (storage.load_indexes(url), storage.load_summary(url),
                      storage.load_cluster_schema(url)):
            doc = model.to_doc()
            doc.pop("extracted_at_ms", None)
            doc.pop("computed_at_ms", None)
            digest.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def digest_number(hex_digest: str) -> int:
    """A digest as a number a JSON metric can carry exactly (48 bits)."""
    return int(hex_digest[:12], 16)


class IndexFleet(Workload):
    name = "index_fleet"
    rounds = 3  # about 2.7 s each

    def build(self) -> None:
        self.world = census_world(self)
        self.urls = self.world.indexable_urls
        self.endpoints = [self.world.network.get(url) for url in self.urls]
        self.reference_digest = None
        self._schemas: List = []

    def _fresh_app(self):
        from repro.core import HBold

        app = HBold(self.world.network)
        app.bootstrap_registry(self.urls)
        return app

    def run_round(self, index: int, tracer) -> Round:
        result = Round()
        app = self._fresh_app()
        self._schemas = []
        for url in self.urls:
            tracer.op = f"r{index}/{url}"
            result.calibrate()
            start = perf_counter()
            if tracer.enabled:
                ok = self._index_staged(app, url, tracer)
            else:
                ok = app.index_endpoint(url)
            result.op_ms.append((perf_counter() - start) * 1000.0)
            if not ok:
                result.fail(f"index_endpoint({url}) returned False")
        result.calibrate()
        if not result.failed:
            digest = artifact_digest(app.storage, self.urls)
            if self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                result.errors.append(
                    f"round {index}: artifact digest {digest[:12]} differs from "
                    f"the warm-up's {self.reference_digest[:12]}"
                )
        return result

    # -- the traced op: index_endpoint's stages, called one by one ------------

    def _index_staged(self, app, url: str, tracer) -> bool:
        from repro.core.cluster_schema import ALGORITHMS, build_cluster_schema
        from repro.core.index_extraction import ExtractionFailed
        from repro.core.models import SchemaSummary

        clock = app.network.clock
        detect = ALGORITHMS[app.cluster_algorithm]

        def detector(graph):
            with tracer.span("community.detect", "community"):
                return detect(graph)

        with tracer.span("index_endpoint", "bench"):
            try:
                with tracer.span("core.extract", "core"):
                    indexes = app.extractor.extract(url)
            except ExtractionFailed as exc:
                app.storage.record_extraction_failure(url, clock.today, exc.reason)
                return False
            with tracer.span("core.summary", "core"):
                summary = SchemaSummary.from_indexes(
                    indexes, computed_at_ms=clock.now_ms)
            with tracer.span("core.cluster_schema", "core"):
                schema = build_cluster_schema(
                    summary, algorithm=app.cluster_algorithm,
                    computed_at_ms=clock.now_ms, detector=detector)
            with tracer.span("docstore.save", "docstore"):
                app.storage.save_indexes(indexes)
                app.storage.save_summary(summary)
                app.storage.save_cluster_schema(schema)
                app.storage.record_extraction_success(url, clock.today)
        self._schemas.append(schema)
        return True

    def start_trace(self, tracer) -> None:
        self.endpoint_trace = spans.EndpointTrace(self.endpoints, tracer)

    def stop_trace(self, tracer, untraced, traced) -> Dict[str, float]:
        metrics = self.endpoint_trace.finish()
        schemas = self._schemas  # the last traced round's
        ops = len(traced) * len(self.urls)
        metrics.update({
            "_table": spans.layer_table(tracer, self.endpoint_trace.sparql_s),
            "core.extract_busy_s": tracer.busy_s("core.extract"),
            "core.extract_self_s": tracer.self_s("core.extract"),
            "core.summary_busy_s": tracer.busy_s("core.summary"),
            "core.cluster_schema_busy_s": tracer.busy_s("core.cluster_schema"),
            "core.queries_per_endpoint": metrics["endpoint.queries"] / ops,
            "core.artifact_digest": digest_number(self.reference_digest),
            "community.detect_busy_s": tracer.busy_s("community.detect"),
            "community.modularity_mean":
                sum(s.modularity for s in schemas) / len(schemas),
            "community.clusters_total": sum(len(s.clusters) for s in schemas),
            "docstore.save_busy_s": tracer.busy_s("docstore.save"),
        })
        return metrics
