"""``serve_uncached`` and ``serve_cached``: the serving tier, used two ways.

Op in both: one ``QueryServer.serve(wave)``.  Both serve the government
dataset (``government_graph(scale=1.0, seed=5)``, 12,427 triples) through
``QueryServer(parallelism=4, queue_capacity=4096)``; a round is the same ten
waves, generated from ``seed + i``.

``serve_uncached`` has no result cache and the default 7-template mix, 8
sessions (~32 requests) a wave.  About 99% of its wall is inside
``QueryEngine.run``; scheduler, admission and endpoint model are under 2%.
It is where an engine change must show.  One template, ``top-entities``
(~70 ms against 0.1-3 ms for the others), is ~95% of that wall, and the
generator gives a wave 0 to 10 of them: over seeds 2000-4999 the counts 0..7
fell on 7, 17, 24, 24, 14, 7, 3 and 1% of the waves (mean 2.67 of 31.9
requests; 2 and 3 are the modes, 730 and 729 waves of 3,000).  Ten unfiltered
waves hold 27 +- 5 of them, so the driver's ten seeds would differ by a
quarter in work.  Waves are therefore taken from ``seed + i`` for
i = 0, 1, ..., keeping the first ten that hold exactly three: every seed
gives rounds of the same weight, and a round's wall says how fast the code
is, not which mix was drawn.

``serve_cached`` keeps one server with a 256-entry cache alive across all
rounds and serves the 3-template dashboard mix, 400 sessions (~1,590
requests) a wave.  One ``graph.add`` at the start of every round bumps
``Graph.generation``, so the round's first wave re-fills three entries and
every other request is a hit.  Scheduler, admission and cache do the work;
an engine change should not move it, a cache or scheduler change -- or an
engine-side cache that is dear to invalidate on write -- should.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List

import spans
from harness import Round, Workload, best_of, percentile

WAVES = 10
CHECK_WAVES = 2
#: how many timed rounds check every wave's ``ServingReport.digest()``; a
#: digest costs several serves of a cached wave, so later rounds check counts
DIGEST_ROUNDS = 2
#: see the module docstring: the template that decides a default-mix wave's cost
HEAVY_TEMPLATE = "top-entities"
HEAVY_PER_WAVE = 3


class _Serving(Workload):
    cache_capacity = None

    def build(self) -> None:
        from repro.datagen import government_graph
        from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
        from repro.serving import QueryServer

        self.graph = self.timed(
            lambda: government_graph(scale=0.2 if self.check else 1.0, seed=5))
        self.endpoint = SparqlEndpoint(
            "http://bench.example.org/sparql", self.graph, SimulationClock(),
            availability=AlwaysAvailable(), seed=4,
        )
        self.server = QueryServer(
            self.endpoint, parallelism=4, queue_capacity=4096,
            cache_capacity=self.cache_capacity,
        )
        start = perf_counter()
        self.waves = self.make_waves(CHECK_WAVES if self.check else WAVES)
        self.workload_gen_s = perf_counter() - start
        self.reference: List[str] = []
        self.last_reports: List = []
        self.writes = 0

    def make_waves(self, count: int) -> List:
        raise NotImplementedError

    def before_round(self, index: int) -> None:
        """Whatever a round does to the graph before its first wave."""

    def run_round(self, index: int, tracer) -> Round:
        result = Round()
        self.before_round(index)
        reports = []
        for number, wave in enumerate(self.waves):
            tracer.op = f"r{index}/wave{number}"
            result.calibrate()
            start = perf_counter()
            with tracer.span("serving.serve", "serving"):
                report = self.server.serve(wave)
            result.op_ms.append((perf_counter() - start) * 1000.0)
            reports.append(report)
            if len(report.served) != len(report.records):
                result.fail(f"wave {number}: served {len(report.served)} of "
                            f"{len(report.records)}")
        result.calibrate()
        if index < DIGEST_ROUNDS:
            digests = [report.digest() for report in reports]
            if not self.reference:
                self.reference = digests
            for number, digest in enumerate(digests):
                if digest != self.reference[number]:
                    result.fail(f"round {index} wave {number}: digest differs "
                                "from the warm-up's")
        self.last_reports = reports
        return result

    def verify(self) -> List[str]:
        """Every template's served rows equal the scan pipeline's on the
        final graph."""
        from repro.sparql.evaluator import QueryEngine
        from repro.sparql.results import SelectResult

        oracle = QueryEngine(self.graph, strategy="scan")
        served: Dict[str, object] = {}
        for report in self.last_reports:
            for record in report.records:
                served.setdefault(record.request.query, record.result)
        errors = []
        for text, result in served.items():
            expected = oracle.run(text)
            if isinstance(expected, SelectResult):
                same = expected.rows == result.rows
            else:
                same = bool(expected) == bool(result)
            if not same:
                errors.append(f"served rows differ from the scan oracle: {text[:60]}")
        return errors

    # -- the traced run -----------------------------------------------------------

    def start_trace(self, tracer) -> None:
        self.endpoint_trace = spans.EndpointTrace([self.endpoint], tracer)
        cache = self.server.cache
        self.cache_before = dict(cache.info()) if cache is not None else None

    def stop_trace(self, tracer, untraced, traced) -> Dict[str, float]:
        metrics = self.endpoint_trace.finish()
        serve_s = tracer.busy_s("serving.serve")
        requests = len(traced) * sum(len(wave) for wave in self.waves)
        refills = [r.op_ms[0] - statistics.median(r.op_ms[1:]) for r in traced]
        records = [rec for report in self.last_reports for rec in report.records]
        latencies = [rec.latency_ms for rec in records if rec.served]
        makespan_s = sum(report.makespan_ms() for report in self.last_reports) / 1000.0
        metrics.update({
            "_table": spans.layer_table(tracer, self.endpoint_trace.sparql_s),
            "serving.self_s": tracer.self_s("serving.serve"),
            "serving.requests_per_s": requests / serve_s,
            "serving.refill_ms": statistics.median(refills),
            "serving.workload_gen_s": self.workload_gen_s,
            "serving.shed": sum(1 for rec in records if not rec.served),
            # simulated time, of the last traced round
            "serving.sim_p50_ms": percentile(latencies, 50.0),
            "serving.sim_p95_ms": percentile(latencies, 95.0),
            "serving.sim_qps": len(latencies) / makespan_s,
        })
        if self.cache_before is not None:
            now = self.server.cache.info()
            hits = now["hits"] - self.cache_before["hits"]
            misses = now["misses"] - self.cache_before["misses"]
            metrics["serving.cache_hit_share"] = hits / (hits + misses)
            metrics["serving.cache_invalidations"] = (
                now["invalidations"] - self.cache_before["invalidations"])
        return metrics


class ServeUncached(_Serving):
    name = "serve_uncached"
    rounds = 5  # about 1.9 s each
    cache_capacity = None

    def make_waves(self, count: int) -> List:
        from repro.serving import generate_workload

        waves, index = [], 0
        while len(waves) < count:
            wave = generate_workload(sessions=8, seed=self.seed + index)
            index += 1
            heavy = sum(1 for request in wave if request.template == HEAVY_TEMPLATE)
            if heavy == HEAVY_PER_WAVE:
                waves.append(wave)
        return waves

    def stop_trace(self, tracer, untraced, traced) -> Dict[str, float]:
        """Adds rounds on a server with the system's own ``Observatory``
        attached, against the untraced rounds on the plain server."""
        from repro.endpoint import AlwaysAvailable, SimulationClock, SparqlEndpoint
        from repro.obs import Observatory
        from repro.serving import QueryServer

        metrics = super().stop_trace(tracer, untraced, traced)
        clock = SimulationClock()
        endpoint = SparqlEndpoint(
            self.endpoint.url, self.graph, clock,
            availability=AlwaysAvailable(), seed=4,
        )
        observed = QueryServer(
            endpoint, parallelism=4, queue_capacity=4096, cache_capacity=None,
            obs=Observatory(clock=clock),
        )
        rounds = []
        for _ in untraced:
            rounds.append(Round())
            for wave in self.waves:
                rounds[-1].calibrate()
                start = perf_counter()
                observed.serve(wave)
                rounds[-1].op_ms.append((perf_counter() - start) * 1000.0)
            rounds[-1].calibrate()
        metrics["obs.system_tracing_overhead_share"] = (
            sum(best_of(rounds)) / sum(best_of(untraced)) - 1.0)
        return metrics


class ServeCached(_Serving):
    name = "serve_cached"
    rounds = 30  # about 0.2 s each
    cache_capacity = 256

    def make_waves(self, count: int) -> List:
        from repro.serving import cache_friendly_mix, generate_workload

        return [
            generate_workload(
                sessions=400, seed=self.seed + index, mix=cache_friendly_mix(),
                mean_session_gap_ms=50, mean_think_ms=80,
            )
            for index in range(count)
        ]

    def before_round(self, index: int) -> None:
        """One write per round.  The subject is untyped and has one triple, so
        no dashboard template's rows change and digests stay comparable
        across generations."""
        from repro.rdf import IRI, Literal, Triple

        self.writes += 1
        self.graph.add(Triple(
            IRI(f"http://bench.example.org/write{self.writes}"),
            IRI("http://bench.example.org/round"),
            Literal(self.writes),
        ))
