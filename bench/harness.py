"""The measuring loop every workload shares.

Closed loop, one client, one process, one thread.  Set-up (data generation,
indexing, workload generation, one untimed warm-up round) is timed apart as
``setup_s``, once a run.  The timed phase is a **fixed number of identical
rounds** over identical inputs: a workload's ``rounds`` for a run of
``catalog.RUN_SECONDS`` seconds, scaled by ``--seconds``, never by how fast
the code is -- slower code gets the same repetitions, not fewer.

This box's speed wanders by +-20% over minutes and jumps by up to 2x for
seconds at a time (shared hardware, steal time near 0), so whole runs are
fast or slow: ten runs of ``ops / median round wall`` spread by 4-18% of
their median on a quiet box and 16-40% on a busy one, and the fastest of an
op's repetitions within one run by 2-30%.  Two things steady the gated
figures (``README.md`` has the measurements):

* **Every time is stated at a reference speed.**  A fixed loop of about 2 ms
  (``calib_ms``: a third arithmetic, two thirds object work) runs before
  every op and after a round's last; an op's wall is divided by the faster
  of the samples on its two sides over ``CALIB_REFERENCE_MS``, the loop's
  wall on this box when it is quiet (``Round.speed``; ``store_cycle``'s
  1.5 s op also samples between stages).  The loop lives in ``bench/`` and
  no change under ``src/`` can move it.  It tracks the box well, not
  exactly: a slow box still reads a few percent slow.
* **An op's wall is the fastest of its repetitions across the rounds**, at
  that speed: ``ops_per_s`` is ops per round over the sum of those walls,
  ``op_p50_ms`` their broadened median (``broad_median``).

What the fastest repetition leaves out is any cost that lands on an op in
some rounds only: full garbage collections, and state that grows from round
to round (``index_fleet``'s engines add ~11k cached ``_EncodedPattern`` a
round for about eight rounds, and the collector's passes lengthen with them:
round walls rise 10-15% over five rounds with the box steady).  Those costs
stay in the figures that pool or take medians over rounds: ``op_p95_ms`` (all
timed ops pooled, reported from 200 ops up), the round walls, their median
and quartiles in the document, and ``bench.round_wall_median_s`` (both as
measured, not at the reference speed).  A round's wall is the sum of its op
walls: the calibration samples and the correctness checks that run between
ops are not in it.  The document keeps every op wall and every calibration
sample as measured (``rounds.raw``).

GC policy, the same on every run: collection is off during set-up, then
``gc.collect()`` + ``gc.freeze()`` moves the set-up's objects (about 2M for
the census world) out of the collector's sight, and the timed rounds run with
the collector on at its default thresholds.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import catalog
import spans

GC_POLICY = ("gc off during set-up; gc.collect() + gc.freeze() after set-up; "
             "gc on (default thresholds) during rounds")
LOAD_SHAPE = ("closed loop, 1 client, 1 process, 1 thread; "
              "generator lateness n/a (closed loop)")
TRACED_ROUNDS = 2
MIN_ROUNDS = 2
#: the calibration loop's two parts, about 0.7 ms of arithmetic and 1.3 ms of
#: object work: short enough to run before every op
CALIB_ARITHMETIC = 10_000
CALIB_ROWS = 3_500
#: the loop's wall on this box when it is quiet; every gated time is stated at
#: the speed at which the loop takes this long
CALIB_REFERENCE_MS = 1.8
#: calibration samples on each side of the build
SETUP_SAMPLES = 5
#: a percentile is reported only with ten samples beyond it
P95_MIN_OPS = 200


_first = itemgetter(0)


# -- statistics --------------------------------------------------------------


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-len(ordered) * p // 100)  # ceil
    return ordered[int(rank) - 1]


def best_of(rounds: List["Round"]) -> List[float]:
    """Per op, the fastest wall (ms, at the reference speed) among the
    rounds' repetitions of it."""
    return [min(ms) for ms in zip(*(r.at_reference() for r in rounds))]


def broad_median(values: Sequence[float]) -> float:
    """The mean of the central fifth of *values* (40th to 60th percentile).

    The op walls of ``explore_sessions`` come in clusters, one per kind of
    dataset, and the sample median falls between two of them (12 and 22 ms):
    it moves by a third when one op changes sides.
    """
    ordered = sorted(values)
    skip = int(len(ordered) * 0.4)
    return statistics.mean(ordered[skip:len(ordered) - skip])


def noted(rounds: List["Round"], name: str) -> List[float]:
    """Every value (ms, at the reference speed) the rounds' ops noted under
    *name*, pooled."""
    out = []
    for r in rounds:
        speed = r.speed()
        out.extend(ms / speed[op] for op, ms in r.extra_ms.get(name, ()))
    return out


def calib_ms() -> float:
    """One calibration sample: a fixed pure-Python loop, timed once.

    A third of it is integer arithmetic; two thirds build tuples and strings,
    sort them and fill a dict of lists, as the program's hot paths do.  Slow
    spells of this box hit such code harder than arithmetic, so a loop of
    arithmetic alone corrects them too little: over ten busy runs of one
    seed, ``store_cycle``'s ``ops_per_s`` had a standard deviation of 13.4%
    as measured, 12.2% against an arithmetic loop, 4.1% against object work
    (``README.md``, *Repeatability*).  The collector is off inside the loop:
    its passes would time the workload's heap, not the box.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = 0
    for i in range(CALIB_ARITHMETIC):
        total += (i * i) % 7
    rows = [(i * 7919 % CALIB_ROWS, str(i)) for i in range(CALIB_ROWS)]
    rows.sort(key=_first)
    groups: Dict[int, List[str]] = {}
    for key, text in rows:
        groups.setdefault(key % 50, []).append(text)
    total += sum(len(group) for group in groups.values())
    elapsed = (perf_counter() - start) * 1000.0
    if collecting:
        gc.enable()
    return elapsed


# -- what a workload hands back ------------------------------------------------


class Round:
    """One round's op walls (ms), failures and named per-op sub-timings (ms),
    with a calibration sample before every op and one after the last."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        self.calib_ms: List[float] = []
        #: per sample: when it began and ended (perf_counter), and how many
        #: ops had ended before it
        self._calib: List[tuple] = []
        self.failed = 0
        self.errors: List[str] = []
        self.extra_ms: Dict[str, List[tuple]] = {}

    @property
    def wall_s(self) -> float:
        return sum(self.op_ms) / 1000.0

    def calibrate(self) -> float:
        """Sample the box's speed; a workload calls it before each op and
        after the round's last.  A long op may also call it between its
        stages, and takes the samples' walls (returned, ms) out of its own."""
        start = perf_counter()
        sample = calib_ms()
        self._calib.append((start, perf_counter(), len(self.op_ms)))
        self.calib_ms.append(sample)
        return sample

    def speed(self) -> List[float]:
        """Per op, how slow the box was while it ran (1.0 = the reference
        speed).

        Between two successive samples the box's speed is taken as the faster
        of the two over the reference: a sample, like an op's wall, is only
        ever too slow (an interrupt, cold caches after the op before it),
        never too fast, and with their mean the fastest of ``serve_cached``'s
        30 repetitions of an op was the one with the worst sample beside it.
        An op with samples between its stages spans several such intervals;
        its speed is their mean, weighted by the time it spent in each.
        """
        spent = [0.0] * len(self.op_ms)
        at_reference = [0.0] * len(self.op_ms)
        for i, (_, ended, op) in enumerate(self._calib[:-1]):
            if op < len(spent):
                interval = self._calib[i + 1][0] - ended
                slow = min(self.calib_ms[i], self.calib_ms[i + 1]) / CALIB_REFERENCE_MS
                spent[op] += interval
                at_reference[op] += interval / slow
        return [s / r for s, r in zip(spent, at_reference)]

    def at_reference(self) -> List[float]:
        """The op walls (ms) at the reference speed."""
        return [ms / s for ms, s in zip(self.op_ms, self.speed())]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def note(self, name: str, ms: float) -> None:
        """Keep a sub-timing of the op that the latest ``calibrate`` opened."""
        self.extra_ms.setdefault(name, []).append((self._calib[-1][2], ms))


class Workload:
    """Base class: a workload owns its inputs, its ops and its oracles.

    ``seed`` feeds only the generators called from ``bench/``; ``check``
    shrinks the input for the smoke mode; ``tmp`` is a directory the
    workload may write under.
    """

    name = ""
    #: timed rounds of a run of ``catalog.RUN_SECONDS`` seconds: sized so that
    #: they take about that long at PR 10's code
    rounds = 0
    #: set by ``start_trace`` in the workloads that send queries to endpoints
    endpoint_trace: Optional[spans.EndpointTrace] = None

    def __init__(self, seed: int, check: bool, tmp: str):
        self.seed = seed
        self.check = check
        self.tmp = tmp
        #: seconds spent inside the data generators, for ``datagen.build_s``
        self.datagen_s = 0.0

    def build(self) -> None:
        """Generate inputs and index them; the warm-up round follows."""
        raise NotImplementedError

    def run_round(self, index: int, tracer) -> Round:
        """Run one round; *index* is -1 for the warm-up, then 0, 1, ..."""
        raise NotImplementedError

    def start_trace(self, tracer: spans.Tracer) -> None:
        """Install the hooks the traced rounds need."""

    def stop_trace(self, tracer: spans.Tracer, untraced: List[Round],
                   traced: List[Round]) -> Dict[str, float]:
        """Remove the hooks; return this workload's per-layer metrics."""
        return {}

    def verify(self) -> List[str]:
        """Oracles that run once, after the last round; returns failures."""
        return []

    def end_to_end(self, rounds: List[Round]) -> Dict[str, float]:
        """Workload-specific end-to-end metrics from the timed rounds."""
        return {}

    def timed(self, generate):
        """Call a data generator, adding its wall to ``datagen_s``."""
        start = perf_counter()
        result = generate()
        self.datagen_s += perf_counter() - start
        return result


# -- the two kinds of run --------------------------------------------------------


def _speed(samples: Sequence[float]) -> float:
    """How slow the box was over *samples* (1.0 = the reference speed)."""
    return statistics.median(samples) / CALIB_REFERENCE_MS


def _set_up(make_workload):
    """Build and warm up a workload; returns it and the seconds that took at
    the reference speed: the build against the calibration samples before and
    after it, the warm-up round against its own."""
    gc.disable()
    workload = make_workload()
    around = [calib_ms() for _ in range(SETUP_SAMPLES)]
    start = perf_counter()
    workload.build()
    build_s = perf_counter() - start
    around += [calib_ms() for _ in range(SETUP_SAMPLES)]
    start = perf_counter()
    warm = workload.run_round(-1, spans.NULL)
    warm_s = perf_counter() - start - sum(warm.calib_ms) / 1000.0
    if warm.failed:
        raise RuntimeError(f"warm-up round failed: {warm.errors}")
    gc.collect()
    gc.freeze()
    gc.enable()
    return workload, build_s / _speed(around) + warm_s / _speed(warm.calib_ms)


def _run_rounds(workload: "Workload", first: int, count: int, tracer) -> List[Round]:
    rounds = []
    for index in range(first, first + count):
        rounds.append(workload.run_round(index, tracer))
        if tracer.enabled and workload.endpoint_trace is not None:
            workload.endpoint_trace.replay_round()
    return rounds


def end_to_end(workload: "Workload", rounds: List[Round], setup_s: float
               ) -> Dict[str, float]:
    """The end-to-end metrics of *rounds*, run with tracing off."""
    op_ms = best_of(rounds)
    pooled = [ms for r in rounds for ms in r.at_reference()]
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1000.0),
        "op_p50_ms": broad_median(op_ms),
        "failed_share": sum(r.failed for r in rounds) / len(pooled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if (workload.name in catalog.E2E["op_p95_ms"].workloads
            and len(pooled) >= P95_MIN_OPS):
        metrics["op_p95_ms"] = percentile(pooled, 95.0)
    metrics.update(workload.end_to_end(rounds))
    return metrics


def _calibration(rounds: List[Round]) -> Dict[str, object]:
    samples = [ms for r in rounds for ms in r.calib_ms]
    return {"reference_ms": CALIB_REFERENCE_MS, "best_ms": min(samples),
            "median_ms": statistics.median(samples), "samples": len(samples)}


def _raw(rounds: List[Round]) -> List[Dict[str, object]]:
    """Every round as measured: op walls and calibration samples, in order."""
    return [{"op_ms": r.op_ms, "calib_ms": r.calib_ms,
             "calib_at_ms": [(c[0] - r._calib[0][0]) * 1000.0 for c in r._calib],
             "calib_op": [c[2] for c in r._calib]} for r in rounds]


def run_untraced(make_workload, seconds: float) -> Dict[str, object]:
    """Set-up, then the timed rounds; the end-to-end metrics."""
    workload, setup_s = _set_up(make_workload)
    count = 1 if workload.check else max(
        MIN_ROUNDS, round(workload.rounds * seconds / catalog.RUN_SECONDS))
    rounds = _run_rounds(workload, 0, count, spans.NULL)
    errors = [e for r in rounds for e in r.errors] + workload.verify()

    walls = [r.wall_s for r in rounds]
    q1, q3 = quartiles(walls)
    return {
        "workload": workload.name,
        "trace": 0,
        "correct": not errors,
        "attempted": sum(len(r.op_ms) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": errors[:10],
        "metrics": _with_units(end_to_end(workload, rounds, setup_s), catalog.E2E),
        "rounds": {"wall_s": walls, "median_s": statistics.median(walls),
                   "q1_s": q1, "q3_s": q3, "ops_per_round": len(rounds[0].op_ms),
                   "raw": _raw(rounds)},
        "calibration": _calibration(rounds),
    }


def run_traced(make_workload, out_dir: str) -> Dict[str, object]:
    """Set-up, untraced rounds, then as many traced; the per-layer metrics.

    Every op is a root span, so the traced wall is the sum of the op walls,
    as a round's wall is in the untraced run.  The end-to-end metrics that
    ``BENCHMARK.json`` cannot gate (``catalog.RECORDED``) are reported here
    too, from the untraced rounds.
    """
    workload, setup_s = _set_up(make_workload)
    count = 1 if workload.check else TRACED_ROUNDS
    untraced = _run_rounds(workload, 0, count, spans.NULL)
    tracer = spans.Tracer()
    workload.start_trace(tracer)
    traced = _run_rounds(workload, count, count, tracer)
    layer = workload.stop_trace(tracer, untraced, traced)
    every = untraced + traced
    errors = [e for r in every for e in r.errors] + workload.verify()

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{workload.name}.trace.jsonl")
    tracer.write_jsonl(trace_path)

    wall_s = tracer.root_wall_s()
    table = layer.pop("_table")
    measured = end_to_end(workload, untraced, setup_s)
    layer.update({m.name: measured[m.name] for m in catalog.RECORDED
                  if m.name in measured})
    layer["datagen.build_s"] = workload.datagen_s
    layer["bench.traced_wall_s"] = wall_s
    layer["bench.trace_overhead_share"] = (
        sum(best_of(traced)) / sum(best_of(untraced)) - 1.0)
    layer["bench.round_wall_median_s"] = statistics.median(r.wall_s for r in untraced)
    calibration = _calibration(every)
    layer["bench.calib_ms"] = calibration["median_ms"]
    metrics = {m.name: float(layer.get(m.name, 0.0)) for m in catalog.PER_LAYER}
    unknown = sorted(set(layer) - set(metrics))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalog: {unknown}")
    return {
        "workload": workload.name,
        "trace": 1,
        "correct": not errors,
        "attempted": sum(len(r.op_ms) for r in every),
        "failed": sum(r.failed for r in every),
        "errors": errors[:10],
        "metrics": _with_units(metrics, catalog.LAYER),
        "layer_table": table,
        "traced_wall_s": wall_s,
        "trace_file": trace_path,
        "spans": len(tracer.spans),
        "calibration": calibration,
    }


def _with_units(values: Dict[str, float], declared) -> Dict[str, dict]:
    return {
        name: {"value": value, "unit": declared[name].unit}
        for name, value in values.items()
    }


# -- printing -----------------------------------------------------------------


def format_result(result: Dict[str, object]) -> str:
    name = result["workload"]
    lines = []
    if result["trace"]:
        lines.append(f"== {name}: traced run, {result['spans']} spans -> "
                     f"{result['trace_file']}")
        lines.append(spans.format_layer_table(result["layer_table"],
                                              result["traced_wall_s"]))
        for metric, entry in result["metrics"].items():
            if entry["value"]:
                kind = catalog.LAYER[metric].kind
                lines.append(f"  {metric:<40} {entry['value']:>16.6g} "
                             f"{entry['unit']:<7} {kind}")
    else:
        rounds = result["rounds"]
        walls = " ".join(f"{w:.3f}" for w in rounds["wall_s"])
        lines.append(f"== {name}: {len(rounds['wall_s'])} timed rounds x "
                     f"{rounds['ops_per_round']} ops; round walls [s] {walls} "
                     f"(median {rounds['median_s']:.3f}, q1 {rounds['q1_s']:.3f}, "
                     f"q3 {rounds['q3_s']:.3f})")
        for metric, entry in result["metrics"].items():
            lines.append(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
        calib = result["calibration"]
        lines.append(f"  {'bench.calib_ms':<40} {calib['median_ms']:>16.6g} ms "
                     f"(median of {calib['samples']} samples, one before each op "
                     f"and one after each round's last; fastest "
                     f"{calib['best_ms']:.3f}; times above are stated at "
                     f"{calib['reference_ms']} ms)")
    lines.append(f"  attempted {result['attempted']} failed {result['failed']} "
                 f"correct {result['correct']}")
    for error in result["errors"]:
        lines.append(f"  ERROR {error}")
    return "\n".join(lines)


def contract_line(result: Dict[str, object]) -> Dict[str, object]:
    """The driver's last-line object: exactly the declared metrics."""
    if result["trace"]:
        names = [m.name for m in catalog.PER_LAYER]
    else:
        names = [m.name for m in catalog.GATED]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }
