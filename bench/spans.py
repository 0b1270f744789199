"""Spans recorded from outside the program, and what is derived from them.

The benchmark wraps each call it makes into a layer of ``src/repro`` in a
span (name, layer, op id, parent, ``perf_counter_ns`` start and end).  Spans
stay in memory until the run ends.  A layer's self time is the duration of
its spans minus the part their child spans cover, so the self times of all
layers sum to the duration of the root spans.

The program itself is not instrumented here.  Two hooks reach inside it
without editing it: :class:`EndpointTrace` shadows an endpoint object's
``query`` method with a wrapper that opens an ``endpoint.query`` span and
logs the query text, and :func:`replay` runs the logged texts through
``parse_query`` and a ``QueryEngine`` again to split the endpoint's time
into parsing, execution and the endpoint's own work.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter, perf_counter_ns
from typing import Dict, List

ROOT = -1


class _Span:
    """Context manager around one recorded span."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][6] = perf_counter_ns()
        tracer._stack.pop()


class Tracer:
    """Records nested spans of one single-threaded run."""

    enabled = True

    def __init__(self) -> None:
        #: [id, parent, name, layer, op, start_ns, end_ns]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = ""

    def span(self, name: str, layer: str) -> _Span:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self._stack.append(index)
        self.spans.append([index, parent, name, layer, self.op, perf_counter_ns(), 0])
        return _Span(self, index)

    # -- derived views -------------------------------------------------------

    def busy_s(self, name: str) -> float:
        """Total duration of the spans called *name*."""
        return sum(s[6] - s[5] for s in self.spans if s[2] == name) / 1e9

    def durations_ms(self, name: str) -> List[float]:
        return [(s[6] - s[5]) / 1e6 for s in self.spans if s[2] == name]

    def _covered(self) -> Dict[int, int]:
        """Span id -> ns of it that its direct children cover."""
        covered: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            covered[s[1]] += s[6] - s[5]
        return covered

    def self_s(self, name: str) -> float:
        """Duration of the spans called *name* minus their direct children."""
        covered = self._covered()
        return sum(
            s[6] - s[5] - covered[s[0]] for s in self.spans if s[2] == name
        ) / 1e9

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer; sums to the duration of the root spans."""
        covered = self._covered()
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[3]] += (s[6] - s[5] - covered[s[0]]) / 1e9
        return dict(out)

    def root_wall_s(self) -> float:
        return sum(s[6] - s[5] for s in self.spans if s[1] == ROOT) / 1e9

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "name", "layer", "op", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class NullTracer:
    """What ops receive in the untraced run: spans cost one method call."""

    enabled = False
    op = ""
    _SPAN = _NullSpan()

    def span(self, name: str, layer: str) -> _NullSpan:
        return self._SPAN


NULL = NullTracer()


# -- the endpoint hook, the query log and the replay ---------------------------


class EndpointTrace:
    """The traced rounds' view of some endpoints: spans, texts, counters.

    Construction shadows each endpoint's ``query`` with a wrapper that opens
    an ``endpoint.query`` span and logs the text -- the serving tier and
    ``SparqlClient`` both reach the endpoint through that one attribute --
    and snapshots ``EndpointStats`` and the AST cache's counters.

    ``replay_round`` runs, right after a traced round, every text the round
    logged through ``parse_query`` and ``QueryEngine.run`` again, in the
    logged order (so the AST cache sees the sequence it saw in the round),
    timing the two apart.  ``finish`` removes the wrappers and returns the
    ``sparql.*`` and ``endpoint.*`` metrics.

    The replay runs seconds after the spans it explains, and this box's
    speed moves by tens of percent within seconds.  So the split is taken as
    a *share*: rounds are identical, so query *i* of every round is the same
    query; its span and its replayed parse and run are each taken as the
    fastest of their repetitions, and the replayed share of the summed spans
    is applied to the endpoint's measured busy time.
    """

    STATS = ("queries", "truncated", "rejected", "timeouts", "failures",
             "total_latency_ms")

    def __init__(self, endpoints, tracer: Tracer) -> None:
        from repro.sparql.parser import parse_cache_info
        from repro.serving import default_query_mix

        self.endpoints = list(endpoints)
        self.tracer = tracer
        #: (endpoint, text, executed) per query; executed is False when the
        #: endpoint refused the query before running it
        self.log: List[tuple] = []
        #: per replayed log entry: (parse_s, run_s, rows)
        self.replayed: List[tuple] = []
        self.round_sizes: List[int] = []
        self._engines: Dict[int, object] = {}
        #: the dashboard mix reuses three of the default mix's texts, so its
        #: queries report under the default mix's names
        self._templates = {t.text: t.name for t in default_query_mix()}
        for endpoint in self.endpoints:
            self._wrap(endpoint)
        self.stats_before = self._stats()
        self.parse_before = parse_cache_info()
        self.parse_hits = self.parse_lookups = 0

    def _wrap(self, endpoint) -> None:
        from repro.endpoint.errors import EndpointTimeout

        inner = endpoint.query  # the bound method of the class
        tracer, entries = self.tracer, self.log

        def query(text, **scales):
            executed = False
            try:
                with tracer.span("endpoint.query", "endpoint"):
                    result = inner(text, **scales)
                executed = True
                return result
            except EndpointTimeout:
                executed = True  # the engine ran; the latency model killed it
                raise
            finally:
                entries.append((endpoint, text, executed))

        endpoint.query = query

    def _stats(self) -> Dict[str, float]:
        return {
            field: sum(getattr(e.stats, field) for e in self.endpoints)
            for field in self.STATS
        }

    def replay_round(self) -> None:
        """Replay what the round just ended logged."""
        from repro.sparql.evaluator import QueryEngine
        from repro.sparql.parser import parse_cache_info, parse_query
        from repro.sparql.results import SelectResult

        # the round's own use of the AST cache, before the replay adds to it
        info = parse_cache_info()
        self.parse_hits += info.hits - self.parse_before.hits
        self.parse_lookups += (info.hits - self.parse_before.hits
                               + info.misses - self.parse_before.misses)
        todo = self.log[len(self.replayed):]
        self.round_sizes.append(len(todo))
        for endpoint, text, executed in todo:
            start = perf_counter()
            parsed = parse_query(text)
            parse_s = perf_counter() - start
            run_s, rows = 0.0, 0
            if executed:
                engine = self._engines.get(id(endpoint))
                if engine is None:
                    engine = self._engines[id(endpoint)] = QueryEngine(
                        endpoint.graph, strategy=endpoint.strategy)
                start = perf_counter()
                result = engine.run(parsed)
                run_s = perf_counter() - start
                if isinstance(result, SelectResult):
                    rows = len(result.rows)
            self.replayed.append((parse_s, run_s, rows))
        self.parse_before = parse_cache_info()

    def _shares(self) -> tuple:
        """(parse, run) as shares of the endpoint's busy time."""
        span_s = [(s[6] - s[5]) / 1e9 for s in self.tracer.spans
                  if s[2] == "endpoint.query"]
        size = self.round_sizes[0]
        texts = [text for _, text, _ in self.log]
        aligned = size and all(n == size for n in self.round_sizes) and all(
            texts[i:i + size] == texts[:size] for i in range(0, len(texts), size))
        if not aligned:  # rounds differed: plain totals
            size = len(self.log)

        def fastest(values: List[float]) -> float:
            return sum(min(values[i::size]) for i in range(size))

        spans_s = fastest(span_s)
        if not spans_s:
            return 0.0, 0.0
        parse = fastest([r[0] for r in self.replayed]) / spans_s
        run = fastest([r[1] for r in self.replayed]) / spans_s
        over = max(1.0, parse + run)  # the replay cannot exceed what it explains
        return parse / over, run / over

    def finish(self) -> Dict[str, float]:
        after = self._stats()
        stats = {field: after[field] - self.stats_before[field] for field in self.STATS}
        for endpoint in self.endpoints:
            del endpoint.query
        busy_s = self.tracer.busy_s("endpoint.query")
        parse_share, run_share = self._shares()
        self.sparql_s = (parse_share + run_share) * busy_s
        metrics = {
            "sparql.parse_busy_s": parse_share * busy_s,
            "sparql.parse_hit_share":
                self.parse_hits / self.parse_lookups if self.parse_lookups else 0.0,
            "sparql.run_busy_s": run_share * busy_s,
            "sparql.queries": len(self.replayed),
            "sparql.rows_out": sum(r[2] for r in self.replayed),
            "endpoint.query_busy_s": busy_s,
            "endpoint.self_s": max(0.0, busy_s - self.sparql_s),
            "endpoint.queries": stats["queries"],
            "endpoint.truncated": stats["truncated"],
            "endpoint.rejected": stats["rejected"],
            "endpoint.timeouts": stats["timeouts"],
            "endpoint.failures": stats["failures"],
            "endpoint.sim_latency_ms_total": stats["total_latency_ms"],
        }
        by_template: Dict[str, List[float]] = defaultdict(list)
        for (_, text, executed), (_, run_s, _) in zip(self.log, self.replayed):
            if executed and text in self._templates:
                by_template[self._templates[text]].append(run_s * 1000.0)
        for name, run_ms in by_template.items():
            metrics[f"sparql.run_ms.{name}"] = statistics.median(run_ms)
        return metrics


def layer_table(tracer: Tracer, sparql_s: float = 0.0) -> Dict[str, float]:
    """Per-layer self time of the traced rounds, ``sparql`` split out.

    The engine runs inside ``endpoint.query``, where no outside span can
    reach, so the replayed share of that time (*sparql_s*) is moved from the
    ``endpoint`` row to a ``sparql`` row; the total is unchanged.
    """
    table = tracer.layer_self_s()
    if sparql_s:
        table["sparql"] = sparql_s
        table["endpoint"] = max(0.0, table["endpoint"] - sparql_s)
    return table


def format_layer_table(table: Dict[str, float], wall_s: float) -> str:
    lines = [f"  {'layer':<16} {'self_s':>10} {'share':>7}"]
    for layer, self_s in sorted(table.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<16} {self_s:>10.4f} {self_s / wall_s:>6.1%}")
    total = sum(table.values())
    lines.append(f"  {'sum':<16} {total:>10.4f} {total / wall_s:>6.1%}  "
                 f"(traced wall {wall_s:.4f} s)")
    return "\n".join(lines)
