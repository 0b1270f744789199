"""``explore_sessions``: what the paper's end user waits for.

Op: one user session on one indexed dataset -- the *first view*
(``display_precomputed`` + the Cluster Schema drawn to SVG), then explore,
select a class, open its detail panel, expand to the full Schema Summary,
draw the exploration graph and the four figures (treemap, sunburst, circle
packing, edge bundling), and run one visual query (LIMIT 50).  The census is
indexed once in set-up; each session's class is picked by ``Random(seed)``,
the same in every round, so rounds repeat identical ops.

Why it exists: E1's display time and figures F2, F4-F7.  About 85% of its
wall is ``viz`` (force layout, edge bundling) and under 2% is ``sparql``, so
an engine change must leave it flat and a viz or model-cache change shows
only here.
"""

from __future__ import annotations

import random
import statistics
import xml.etree.ElementTree as ElementTree
from time import perf_counter
from typing import Dict, List

import spans
from harness import Round, Workload, noted
from wl_index_fleet import census_world

FIGURES = ("treemap", "sunburst", "circlepack", "edge_bundling")
#: E1: precomputing the Cluster Schema saves >= 35% of the simulated display
#: time on half the endpoints
MIN_SAVING_SHARE = 0.35


class ExploreSessions(Workload):
    name = "explore_sessions"
    rounds = 2  # about 4 s each

    def build(self) -> None:
        from repro.core import HBold

        self.world = census_world(self)
        self.urls = self.world.indexable_urls
        self.app = HBold(self.world.network)
        self.app.bootstrap_registry(self.urls)
        indexed = self.app.update_all(self.urls)
        if not all(indexed.values()):
            raise RuntimeError("census indexing incomplete")
        self.svg_bytes = 0
        self.saving = None  # E1's simulated saving, once the traced run probed it

    def run_round(self, index: int, tracer) -> Round:
        result = Round()
        rng = random.Random(self.seed)
        self.svg_bytes = 0
        for url in self.urls:
            tracer.op = f"r{index}/{url}"
            result.calibrate()
            start = perf_counter()
            try:
                with tracer.span("session", "bench"):
                    first_view_ms, coverage, svgs = self._session(url, rng, tracer)
            except Exception as exc:  # an op that raises is a failed op
                result.op_ms.append((perf_counter() - start) * 1000.0)
                result.fail(f"{url}: {type(exc).__name__}: {exc}")
                continue
            result.op_ms.append((perf_counter() - start) * 1000.0)
            result.note("first_view_ms", first_view_ms)
            if coverage != 1.0:
                result.fail(f"{url}: expand_all reached {coverage:.3f} coverage")
                continue
            try:
                for svg in svgs:
                    ElementTree.fromstring(svg)
            except ElementTree.ParseError as exc:
                result.fail(f"{url}: unparsable SVG: {exc}")
            self.svg_bytes += sum(len(svg) for svg in svgs)
        result.calibrate()
        return result

    def _session(self, url: str, rng: random.Random, tracer):
        app = self.app
        start = perf_counter()
        with tracer.span("core.display_precomputed", "core"):
            app.presentation.display_precomputed(url)
        with tracer.span("viz.cluster_graph", "viz"):
            svgs = [app.render_cluster_schema(url).render()]
        first_view_ms = (perf_counter() - start) * 1000.0

        with tracer.span("core.explore_steps", "core"):
            session = app.explore(url)
            session.start_from_cluster_schema()
            class_iri = rng.choice(session.summary.class_iris())
            session.select_class(class_iri)
            session.class_details(class_iri)
            session.expand_all()
        with tracer.span("viz.exploration", "viz"):
            svgs.append(app.render_exploration(session).render())
        for figure in FIGURES:
            with tracer.span(f"viz.{figure}", "viz"):
                svgs.append(getattr(app, f"render_{figure}")(url).render())
        with tracer.span("core.visual_query", "core"):
            query = app.visual_query(url, class_iri)
            query.set_limit(50)
            app.run_visual_query(url, query)
        return first_view_ms, session.instance_coverage(), svgs

    def end_to_end(self, rounds: List[Round]) -> Dict[str, float]:
        views = noted(rounds, "first_view_ms")
        return {"first_view_p50_ms": statistics.median(views)} if views else {}

    # -- the traced run -----------------------------------------------------------

    def start_trace(self, tracer) -> None:
        endpoints = [self.world.network.get(url) for url in self.urls]
        self.endpoint_trace = spans.EndpointTrace(endpoints, tracer)

    def stop_trace(self, tracer, untraced, traced) -> Dict[str, float]:
        from repro.core.persistence import HboldStorage

        metrics = self.endpoint_trace.finish()

        def median_ms(name: str) -> float:
            return statistics.median(tracer.durations_ms(name))

        metrics.update({
            "_table": spans.layer_table(tracer, self.endpoint_trace.sparql_s),
            "core.display_precomputed_ms": median_ms("core.display_precomputed"),
            "core.explore_steps_ms": median_ms("core.explore_steps"),
            "core.visual_query_ms": median_ms("core.visual_query"),
            "viz.render_ms.cluster_graph": median_ms("viz.cluster_graph"),
            "viz.render_ms.exploration": median_ms("viz.exploration"),
            "viz.svg_bytes_total": self.svg_bytes,  # the last traced round's
        })
        for figure in FIGURES:
            metrics[f"viz.render_ms.{figure}"] = median_ms(f"viz.{figure}")

        # Probes beside the rounds: the 2018 on-the-fly display path, E1's
        # simulated saving, and a model load that misses the facade's cache.
        presentation = self.app.presentation
        on_the_fly_ms, savings = [], []
        for url in self.urls:
            start = perf_counter()
            fly = presentation.display_on_the_fly(url)
            on_the_fly_ms.append((perf_counter() - start) * 1000.0)
            pre = presentation.display_precomputed(url)
            savings.append(1.0 - pre.elapsed_ms / fly.elapsed_ms)
        cold = HboldStorage(self.app.storage.store)
        load_ms = []
        for url in self.urls:
            start = perf_counter()
            cold.load_cluster_schema(url)
            load_ms.append((perf_counter() - start) * 1000.0)
        metrics["core.display_on_the_fly_ms"] = statistics.median(on_the_fly_ms)
        metrics["core.display_saving_share_sim"] = self.saving = statistics.median(savings)
        metrics["docstore.load_ms"] = statistics.median(load_ms)
        return metrics

    def verify(self) -> List[str]:
        if self.saving is not None and self.saving < MIN_SAVING_SHARE:
            return [f"median simulated display saving {self.saving:.3f} "
                    f"< {MIN_SAVING_SHARE}"]
        return []
