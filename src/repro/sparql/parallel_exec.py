"""Partition-parallel SPARQL operators over a :class:`ShardedTripleStore`.

Two physical operators fan out across shards, both dispatched through the
deterministic simulated worker pool (:func:`repro.core.parallel.run_parallel`)
with one worker per shard:

* :func:`parallel_scan_ids` -- a triple-pattern scan whose subject is
  unbound (so it spans shards).  Each shard task scans its local indexes
  and returns its matches as a run sorted by the ``(s, p, o)`` ID triple;
  the merged stream is the lazy ordered merge of those runs.
* :func:`parallel_probe_table` -- the build side of a BGP's hash join.
  Each shard task folds its sorted run straight into a shard-local probe
  table whose bucket entries carry the source triple as a merge rank;
  buckets merge rank-ordered across shards, so the final table is
  entry-for-entry identical to one built from the canonical merged scan.

Subjects partition disjointly and the merge key is the full ID triple, so
both operators produce **shard-count-invariant** output: any query runs
byte-identically (including row order) at shards=1 and shards=N.  That is
the merge determinism rule the conformance/property suites pin.

Simulated cost model: each shard task charges the pool timebase (the
store's private clock) a fixed dispatch overhead plus a per-scanned-row
cost -- the same order of magnitude as the endpoint latency model's
execution term.  The engine threads one :class:`ShardScanPool` through
all of a query's batches, so only the first batch pays the cold
spin-up dispatch; later batches reuse the warm workers at the reduced
:data:`SHARD_WARM_DISPATCH_MS`.  The pool then advances that clock by the batch makespan
only, and the makespan / sequential-sum pair is recorded both on the
store (``shard_stats``) and in the query's ``Execution.stats``
(``shard_parallel_ms`` / ``shard_sequential_ms``), which is what the
endpoint latency model and the scaling benchmarks read.  Wall-clock time
on this single-CPU simulator is unchanged by design; the win is the
simulated makespan, exactly like the fleet-level pool.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SHARD_DISPATCH_MS",
    "SHARD_WARM_DISPATCH_MS",
    "SHARD_ROW_MS",
    "ShardScanPool",
    "parallel_scan_ids",
    "parallel_scan_batches",
    "parallel_probe_table",
]

#: fixed simulated cost of handing one shard task to a *cold* pool worker
#: (the first batch of a query: workers spin up, per-shard cursors open)
SHARD_DISPATCH_MS = 0.05
#: dispatch cost on a *warm* worker -- later batches of the same query
#: reuse the worker set a :class:`ShardScanPool` tracks, paying only the
#: hand-off, not the spin-up
SHARD_WARM_DISPATCH_MS = 0.01
#: simulated cost per row a shard task scans (matches the scale of the
#: endpoint model's ``len(graph) * 0.0004`` execution term)
SHARD_ROW_MS = 0.0004


class ShardScanPool:
    """The warm worker set an engine reuses across its shard batches.

    PR 4 dispatched every shard-spanning scan as its own isolated pool
    batch, paying the full worker spin-up (:data:`SHARD_DISPATCH_MS` per
    task) each time; PR 5 threaded one pool through all of a *query's*
    batches.  The pool is now **per engine**, keyed on the store's shard
    layout (``layout_key``): back-to-back queries on one engine reuse
    the already-warm workers, so only the engine's first batch after a
    layout change (fresh engine, ``clear()``, shard re-partition) pays
    the cold spin-up -- every later batch, across queries, dispatches at
    :data:`SHARD_WARM_DISPATCH_MS`.

    Purely a simulated-cost concern: task *results* are identical with
    or without a pool (the underlying deterministic executor is
    unchanged), so shard-count invariance and conformance are untouched.
    ``warm_batches`` is cumulative pool accounting; each query's
    ``Execution.stats`` counts its own warm batches.
    """

    __slots__ = ("store", "batches", "warm_batches", "layout_key")

    def __init__(self, store, layout_key=None):
        self.store = store
        self.batches = 0
        self.warm_batches = 0
        self.layout_key = layout_key

    @property
    def dispatch_ms(self) -> float:
        return SHARD_DISPATCH_MS if self.batches == 0 else SHARD_WARM_DISPATCH_MS

    def batch_done(self) -> None:
        self.batches += 1
        if self.batches > 1:
            self.warm_batches += 1


def _record(
    store,
    stats: Optional[Dict],
    parallel_ms: float,
    sequential_ms: float,
    rows: int,
    pool: Optional[ShardScanPool] = None,
    obs=None,
) -> None:
    """Accumulate one pool batch into the store's and the query's stats."""
    totals = store.shard_stats
    totals["batches"] += 1
    totals["parallel_ms"] += parallel_ms
    totals["sequential_ms"] += sequential_ms
    totals["rows"] += rows
    # Whether *this* batch ran warm, judged before the pool counts it.
    # The pool is per engine now, so the cumulative ``pool.warm_batches``
    # spans queries; the execution's stats want only this query's share.
    was_warm = pool is not None and pool.batches > 0
    if pool is not None:
        pool.batch_done()
    if stats is not None:
        stats["shard_batches"] = stats.get("shard_batches", 0) + 1
        stats["shard_parallel_ms"] = stats.get("shard_parallel_ms", 0.0) + parallel_ms
        stats["shard_sequential_ms"] = (
            stats.get("shard_sequential_ms", 0.0) + sequential_ms
        )
        stats["shard_rows"] = stats.get("shard_rows", 0) + rows
        if pool is not None:
            stats["shard_warm_batches"] = stats.get("shard_warm_batches", 0) + (
                1 if was_warm else 0
            )
    if obs is not None and obs.detail:
        obs.event(
            "shard.fanout",
            shards=len(store.shards),
            parallel_ms=round(parallel_ms, 6),
            sequential_ms=round(sequential_ms, 6),
            rows_out=rows,
            warm=was_warm,
        )


def _run_shard_batch(store, tasks) -> List:
    """Dispatch ``(index, thunk)`` tasks through the deterministic pool.

    One worker per shard; shard work cannot legitimately fail, so any
    captured exception is re-raised (a swallowed shard would silently
    drop rows).  Returns task values in input (= shard) order plus the
    batch makespan and sequential sum.
    """
    # Lazy import: repro.core pulls in the endpoint/application layers,
    # which import this package's evaluator at module load.
    from ..core.parallel import run_parallel

    outcomes, makespan = run_parallel(store.clock, tasks, parallelism=len(tasks))
    values = []
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        values.append(outcome.value)
    sequential = sum(outcome.elapsed_ms for outcome in outcomes)
    return values, makespan, sequential


def parallel_scan_ids(
    store,
    s: Optional[int],
    p: Optional[int],
    o: Optional[int],
    stats: Optional[Dict] = None,
    pool: Optional[ShardScanPool] = None,
    obs=None,
) -> Iterator[Tuple[int, int, int]]:
    """Scan all shards for the ID pattern; merge runs in ``(s, p, o)`` order.

    Each shard materializes its (sorted) run -- the simulated analogue of
    a partition returning a sorted result block -- and the merge itself
    is lazy, so bounded consumers above (LIMIT, top-k, ASK) keep their
    operator-level behaviour.  A *pool* (one per query execution) makes
    every batch after the first run on warm workers at the reduced
    dispatch cost.
    """
    clock = store.clock
    dispatch_ms = pool.dispatch_ms if pool is not None else SHARD_DISPATCH_MS
    tasks = []
    for index, shard in enumerate(store.shards):
        def thunk(shard=shard):
            run = sorted(shard.triples_ids(s, p, o))
            clock.advance(dispatch_ms + len(run) * SHARD_ROW_MS)
            return run
        tasks.append((index, thunk))
    runs, makespan, sequential = _run_shard_batch(store, tasks)
    _record(
        store, stats, makespan, sequential, sum(len(run) for run in runs), pool, obs
    )
    if len(runs) == 1:
        return iter(runs[0])
    return heapq.merge(*runs)


def _shard_run_columns(shard, p: Optional[int], o: Optional[int]):
    """One shard's sorted ``(None, p, o)`` matches as ``(s, p, o)`` columns.

    The full-scan pattern serves the shard's cached columnar run directly
    (zero-copy -- for snapshot-loaded shards these are the mmap-decoded
    arrays themselves), which is what makes snapshot load -> batch scan
    O(1)-copy.  Constrained patterns still materialize the matching
    subset, sorted, as fresh ``array('q')`` columns.
    """
    if p is None and o is None:
        return shard.columns()
    rows = sorted(shard.triples_ids(None, p, o))
    if not rows:
        empty = array("q")
        return (empty, empty, empty)
    s_col, p_col, o_col = zip(*rows)
    return (array("q", s_col), array("q", p_col), array("q", o_col))


def parallel_scan_batches(
    store,
    p: Optional[int],
    o: Optional[int],
    batch_size: int,
    stats: Optional[Dict] = None,
    pool: Optional[ShardScanPool] = None,
    obs=None,
    limit_hint: Optional[int] = None,
) -> Iterator[Tuple[Sequence[int], Sequence[int], Sequence[int]]]:
    """Batched spanning scan: yield ``(s_col, p_col, o_col)`` column chunks.

    The columnar analogue of :func:`parallel_scan_ids` for a
    subject-unbound pattern: every chunk holds up to ``batch_size`` rows
    and the concatenation of all chunks is exactly the canonical merged
    ``(s, p, o)``-ordered run, so shard-count invariance carries over
    row-for-row.  On a single shard the chunks are plain slices of the
    shard's cached run (no per-row Python objects at all); across shards
    the runs merge lazily and re-transpose per chunk.

    ``limit_hint`` is the bounded lazy fan-out for LIMIT-style consumers:
    each shard truncates its run to the first ``limit_hint`` rows before
    shipping (any global top-``k`` of the merge lies within the first
    ``k`` of every per-shard run), and is charged only for the rows it
    ships.  Results are unchanged -- only the simulated cost and shipped
    volume shrink.
    """
    clock = store.clock
    dispatch_ms = pool.dispatch_ms if pool is not None else SHARD_DISPATCH_MS
    tasks = []
    for index, shard in enumerate(store.shards):
        def thunk(shard=shard):
            cols = _shard_run_columns(shard, p, o)
            if limit_hint is not None and limit_hint < len(cols[0]):
                cols = tuple(col[:limit_hint] for col in cols)
            clock.advance(dispatch_ms + len(cols[0]) * SHARD_ROW_MS)
            return cols
        tasks.append((index, thunk))
    runs, makespan, sequential = _run_shard_batch(store, tasks)
    _record(
        store, stats, makespan, sequential, sum(len(r[0]) for r in runs), pool, obs
    )
    runs = [run for run in runs if run[0]]
    if not runs:
        return iter(())
    if len(runs) == 1:
        s_col, p_col, o_col = runs[0]

        def slices():
            for start in range(0, len(s_col), batch_size):
                stop = start + batch_size
                yield (s_col[start:stop], p_col[start:stop], o_col[start:stop])

        return slices()
    merged = heapq.merge(*(zip(*run) for run in runs))

    def chunks():
        while True:
            block = list(islice(merged, batch_size))
            if not block:
                return
            s_chunk, p_chunk, o_chunk = zip(*block)
            yield (
                array("q", s_chunk),
                array("q", p_chunk),
                array("q", o_chunk),
            )

    return chunks()


def parallel_probe_table(
    store,
    s: Optional[int],
    p: Optional[int],
    o: Optional[int],
    positions: Sequence[Sequence[int]],
    key_positions: Sequence[int],
    new_positions: Sequence[int],
    stats: Optional[Dict] = None,
    pool: Optional[ShardScanPool] = None,
    obs=None,
) -> Dict:
    """Build a hash-join probe table shard-by-shard and merge the buckets.

    ``positions`` maps each pattern variable to its triple positions
    (repeated variables must agree, same rule as the sequential scan);
    ``key_positions``/``new_positions`` index into the resulting scan row.
    The table shape matches ``Execution._build_probe_table``: a single
    shared variable keys on the bare value, entries are tuples of the new
    variables' values.  Bucket entries merge across shards on their
    source ``(s, p, o)`` rank, reproducing canonical-scan build order at
    any shard count.
    """
    clock = store.clock
    dispatch_ms = pool.dispatch_ms if pool is not None else SHARD_DISPATCH_MS
    single_key = len(key_positions) == 1
    key_position = key_positions[0] if single_key else None

    tasks = []
    for index, shard in enumerate(store.shards):
        def thunk(shard=shard):
            table: Dict = {}
            setdefault = table.setdefault
            run = sorted(shard.triples_ids(s, p, o))
            for triple in run:
                srow = []
                for var_positions in positions:
                    value = triple[var_positions[0]]
                    if len(var_positions) > 1 and any(
                        triple[extra] != value for extra in var_positions[1:]
                    ):
                        srow = None
                        break
                    srow.append(value)
                if srow is None:
                    continue
                key = (
                    srow[key_position]
                    if single_key
                    else tuple(srow[i] for i in key_positions)
                )
                setdefault(key, []).append(
                    (triple, tuple(srow[i] for i in new_positions))
                )
            clock.advance(dispatch_ms + len(run) * SHARD_ROW_MS)
            return table
        tasks.append((index, thunk))

    tables, makespan, sequential = _run_shard_batch(store, tasks)
    rows = sum(len(bucket) for table in tables for bucket in table.values())
    _record(store, stats, makespan, sequential, rows, pool, obs)

    if len(tables) == 1:
        return {
            key: [entry for _rank, entry in bucket]
            for key, bucket in tables[0].items()
        }
    collected: Dict = {}
    for table in tables:
        for key, bucket in table.items():
            collected.setdefault(key, []).append(bucket)
    merged: Dict = {}
    for key, buckets in collected.items():
        if len(buckets) == 1:
            merged[key] = [entry for _rank, entry in buckets[0]]
        else:
            # Ranks are unique triples, so the merge never compares entries.
            merged[key] = [entry for _rank, entry in heapq.merge(*buckets)]
    return merged
