"""Q7: the simple-shape columnar sinks vs the row-at-a-time stream engine.

On the same government-world graph the Q1/Q2 benchmarks use:

* single-scan aggregation (the paper's "predicate histogram" shape, a
  portal-profiling staple) runs >= 3x faster on the default engine than
  on the lazy volcano engine, because COUNT folds consume a whole
  ``array('q')`` column per call instead of one row per call;
* a join ships the eager join's rows to the sinks as column batches and
  keeps pace with the volcano join;
* results are bit-identical to the stream engine on every record -- the
  speed never buys a different answer.

Methodology: the A/B arms are interleaved ``perf_counter`` pairs with
the arm order alternating per round, and the gate is the median of the
per-round ratios -- same recipe as the q6/q9 gates, stable on the
shared 1-CPU box where back-to-back means drift.

The ``test_q7_bench_*`` functions carry the pytest-benchmark fixtures
the committed ``BENCH_PR<N>.json`` snapshots track across PRs.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.datagen import government_graph
from repro.sparql import QueryEngine, evaluate

#: interleaved A/B rounds; the median per-round ratio is stable even
#: when individual runs swing +/-10%
ROUNDS = 7

#: the acceptance gate for the aggregation record (measured ~7-8x on
#: this box; the floor leaves headroom for ambient load, not for drift)
MIN_AGG_SPEEDUP = 3.0

#: the predicate histogram: one unbound scan folded into O(predicates)
#: counters -- the columnar COUNT consumes whole columns per batch
AGG_QUERY = "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"

#: distinct-object fan-out per predicate: the seen-set union works on
#: column slices instead of per-row adds
AGG_DISTINCT_QUERY = (
    "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
)

#: the paper-workload join (same shape as Q1/Q2): typed subjects joined
#: back to their full property lists, shipped as column batches
JOIN_QUERY = "SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o }"

#: join feeding an aggregation: the joined rows land in the fold as
#: column batches
JOIN_AGG_QUERY = (
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c"
)


@pytest.fixture(scope="module")
def graph():
    return government_graph(scale=1.0, seed=7)


def _rows(result):
    return [tuple((k, str(v)) for k, v in sorted(row.items())) for row in result.rows]


def _ab_rounds(run_a, run_b):
    """Interleaved best-of and per-round b/a ratios, order alternating."""
    best_a = best_b = float("inf")
    ratios = []
    for round_index in range(ROUNDS):
        gc.collect()
        order = (run_a, run_b) if round_index % 2 == 0 else (run_b, run_a)
        timings = {}
        for fn in order:
            start = time.perf_counter()
            fn()
            timings[fn] = time.perf_counter() - start
        best_a = min(best_a, timings[run_a])
        best_b = min(best_b, timings[run_b])
        ratios.append(timings[run_b] / timings[run_a])
    return best_a, best_b, statistics.median(ratios)


def test_q7_batch_aggregation_beats_row_at_a_time(benchmark, graph, record_table):
    """The headline gate: columnar COUNT folds >= 3x over the volcano
    row loop on the predicate histogram, identical rows."""
    benchmark.pedantic(evaluate, args=(graph, AGG_QUERY), iterations=1, rounds=1)

    engine = QueryEngine(graph)
    rows = _rows(engine.run(AGG_QUERY))
    assert rows == _rows(evaluate(graph, AGG_QUERY, "stream"))
    stats = engine.exec_stats
    assert stats["operator"] == "aggregate-id"
    assert stats["input_rows"] == len(graph)
    # O(groups) state and O(rows / BATCH_SIZE) control-flow transfers
    assert stats["tracked_rows"] == len(rows)
    assert stats["batches"] == -(-len(graph) // QueryEngine.BATCH_SIZE)

    columnar, stream, speedup = _ab_rounds(
        lambda: evaluate(graph, AGG_QUERY),
        lambda: evaluate(graph, AGG_QUERY, "stream"),
    )
    _, _, distinct_speedup = _ab_rounds(
        lambda: evaluate(graph, AGG_DISTINCT_QUERY),
        lambda: evaluate(graph, AGG_DISTINCT_QUERY, "stream"),
    )

    record_table(
        "q7_batch_aggregate",
        "\n".join(
            [
                f"Q7: predicate histogram over {len(graph)} triples, "
                f"BATCH_SIZE={QueryEngine.BATCH_SIZE} "
                f"(median of {ROUNDS} interleaved A/B rounds)",
                "",
                f"{'pipeline':<28} {'best time':>12} {'vs default':>11}",
                f"{'columnar fold (default)':<28} {columnar * 1000:>10.2f}ms "
                f"{1.0:>10.1f}x",
                f"{'volcano rows (stream)':<28} {stream * 1000:>10.2f}ms "
                f"{speedup:>10.1f}x",
                f"{'COUNT(DISTINCT) vs stream':<28} {'':>12} "
                f"{distinct_speedup:>10.1f}x",
                "",
                f"gate: median speedup vs stream >= {MIN_AGG_SPEEDUP}x",
            ]
        ),
    )
    assert speedup >= MIN_AGG_SPEEDUP


def test_q7_batch_join_ships_column_batches(benchmark, graph, record_table):
    """The eager join's rows reach the sink as O(rows / BATCH_SIZE)
    column batches, row for row what the volcano join returns, and the
    default engine never loses to it on wall clock."""
    benchmark.pedantic(evaluate, args=(graph, JOIN_QUERY), iterations=1, rounds=1)

    engine = QueryEngine(graph)
    join_rows = _rows(engine.run(JOIN_QUERY))
    assert join_rows == _rows(evaluate(graph, JOIN_QUERY, "stream"))
    stats = engine.exec_stats
    assert stats["operator"] == "select-id"
    assert stats["input_rows"] >= 10_000
    assert stats["batches"] == -(-stats["input_rows"] // QueryEngine.BATCH_SIZE)

    default, stream, speedup = _ab_rounds(
        lambda: evaluate(graph, JOIN_QUERY),
        lambda: evaluate(graph, JOIN_QUERY, "stream"),
    )
    _, _, agg_speedup = _ab_rounds(
        lambda: evaluate(graph, JOIN_AGG_QUERY),
        lambda: evaluate(graph, JOIN_AGG_QUERY, "stream"),
    )

    record_table(
        "q7_batch_join",
        "\n".join(
            [
                f"Q7: {stats['input_rows']}-row join in "
                f"{stats['batches']} column batches "
                f"(median of {ROUNDS} interleaved A/B rounds)",
                "",
                f"{'record':<28} {'best time':>12} {'vs stream':>10}",
                f"{'join, default':<28} {default * 1000:>10.2f}ms "
                f"{speedup:>9.1f}x",
                f"{'join, stream':<28} {stream * 1000:>10.2f}ms "
                f"{1.0:>9.1f}x",
                f"{'join + GROUP BY, default':<28} {'':>12} "
                f"{agg_speedup:>9.1f}x",
            ]
        ),
    )
    # the join itself is the eager row join; the win over stream is
    # modest (the aggregation gate above is the headline) but must
    # never invert
    assert speedup >= 1.1
    assert agg_speedup >= 1.5


def test_q7_bench_agg_batch(benchmark, graph):
    """Tracked: columnar predicate histogram (the headline record)."""
    result = benchmark(evaluate, graph, AGG_QUERY)
    assert len(result.rows) > 0


def test_q7_bench_agg_stream(benchmark, graph):
    """Tracked: the same histogram through the volcano row loop."""
    result = benchmark(evaluate, graph, AGG_QUERY, "stream")
    assert len(result.rows) > 0


def test_q7_bench_join_batch(benchmark, graph):
    """Tracked: the paper-workload join into the columnar select sink."""
    result = benchmark(evaluate, graph, JOIN_QUERY)
    assert len(result.rows) >= 10_000


def test_q7_bench_join_agg_batch(benchmark, graph):
    """Tracked: join feeding a columnar GROUP BY fold."""
    result = benchmark(evaluate, graph, JOIN_AGG_QUERY)
    assert len(result.rows) > 0
