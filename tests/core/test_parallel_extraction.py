"""Parallel multi-endpoint extraction: determinism, isolation, makespan.

The worker pool is simulated over the shared SimulationClock (see
``repro/core/parallel.py``), which gives it a contract a real pool could
not make: for ANY ``parallelism`` value the stored artifacts are
byte-identical -- including when an endpoint raises mid-batch -- and only
the simulated batch latency changes.  These tests pin that contract.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core import HBold, UpdateScheduler, makespan_ms, run_parallel
from repro.core.parallel import TaskOutcome
from repro.datagen import build_world
from repro.docstore import DocumentStore
from repro.endpoint import SimulationClock


# ---------------------------------------------------------------------------
# the pool primitive
# ---------------------------------------------------------------------------


def test_makespan_is_greedy_list_schedule():
    assert makespan_ms([], 4) == 0.0
    assert makespan_ms([5.0, 1.0], 1) == 6.0                # sequential sum
    assert makespan_ms([5.0, 1.0], 2) == 5.0                # overlap
    assert makespan_ms([3.0, 1.0, 1.0, 1.0], 2) == 3.0      # greedy packing
    assert makespan_ms([2.0, 2.0, 2.0], 8) == 2.0           # workers to spare
    with pytest.raises(ValueError):
        makespan_ms([1.0], 0)


def test_run_parallel_outcomes_and_clock():
    clock = SimulationClock()

    def task(cost_ms):
        clock.advance(cost_ms)
        return cost_ms

    tasks = [("a", lambda: task(100.0)), ("b", lambda: task(300.0)),
             ("c", lambda: task(200.0))]
    outcomes, makespan = run_parallel(clock, tasks, parallelism=2)
    assert [outcome.key for outcome in outcomes] == ["a", "b", "c"]
    assert [outcome.value for outcome in outcomes] == [100.0, 300.0, 200.0]
    assert [outcome.elapsed_ms for outcome in outcomes] == [100.0, 300.0, 200.0]
    # greedy: worker1 = a+c = 300, worker2 = b = 300
    assert makespan == 300.0
    assert clock.now_ms == 300.0


def test_run_parallel_isolates_task_exceptions():
    clock = SimulationClock()

    def boom():
        clock.advance(50.0)
        raise RuntimeError("kaboom")

    outcomes, _ = run_parallel(
        clock, [("ok", lambda: 1), ("bad", boom), ("ok2", lambda: 2)], parallelism=2
    )
    assert outcomes[0].ok and outcomes[0].value == 1
    assert not outcomes[1].ok
    assert isinstance(outcomes[1].error, RuntimeError)
    assert outcomes[1].elapsed_ms == 50.0
    assert outcomes[2].ok and outcomes[2].value == 2


#: parallelism values that are not a count of workers
NOT_COUNTS = [2.5, math.nan, math.inf, True, 0, "2"]
NOT_COUNT_IDS = ["fraction", "nan", "inf", "bool", "zero", "str"]


@pytest.mark.parametrize("parallelism", NOT_COUNTS, ids=NOT_COUNT_IDS)
def test_run_parallel_refuses_a_parallelism_that_is_not_a_count(parallelism):
    """Refused before any task runs: nothing ran and the clock did not move."""
    clock = SimulationClock()
    ran = []

    def task():
        ran.append(clock.advance(10.0))

    with pytest.raises(ValueError, match=r"^parallelism must be an int >= 1, got "):
        run_parallel(clock, [("a", task), ("b", task)], parallelism)
    assert ran == []
    assert clock.now_ms == 0.0


@pytest.mark.parametrize("parallelism", NOT_COUNTS, ids=NOT_COUNT_IDS)
def test_update_all_refuses_a_parallelism_that_is_not_a_count(parallelism):
    world = build_world(indexable=3, broken=1, portal_new_indexable=0, seed=1)
    app = HBold(world.network, store=DocumentStore())
    clock = world.network.clock
    start = clock.now_ms
    with pytest.raises(ValueError, match=r"^parallelism must be an int >= 1, got "):
        app.update_all(world.indexable_urls, parallelism=parallelism)
    assert app.storage.indexes.find({}) == []
    assert app.storage.summaries.find({}) == []
    assert clock.now_ms == start


def test_clock_checkpoint_restore():
    clock = SimulationClock(1000.0)
    mark = clock.checkpoint()
    clock.advance(500.0)
    clock.restore(mark)
    assert clock.now_ms == 1000.0
    with pytest.raises(ValueError):
        clock.restore(2000.0)  # cannot restore into the future


# ---------------------------------------------------------------------------
# fleet-level determinism
# ---------------------------------------------------------------------------


def _strip_ids(documents):
    for document in documents:
        document.pop("_id", None)
    return documents


def _snapshot(app: HBold) -> str:
    """Canonical JSON of everything update_all stored (sans storage _ids,
    which come from a process-global counter unrelated to the batch)."""
    return json.dumps(
        {
            "endpoints": _strip_ids(app.storage.endpoints.find({})),
            "indexes": _strip_ids(app.storage.indexes.find({})),
            "summaries": _strip_ids(app.storage.summaries.find({})),
            "clusters": _strip_ids(app.storage.clusters.find({})),
        },
        sort_keys=True,
        default=str,
    )


def _fresh_app(seed: int = 11, broken: int = 3):
    world = build_world(
        indexable=8, broken=broken, portal_new_indexable=0, seed=seed, flaky=False
    )
    app = HBold(world.network, store=DocumentStore())
    app.bootstrap_registry(world.listed_urls)
    return world, app


def _run_update_all(parallelism: int, sabotage: bool = False):
    world, app = _fresh_app()
    if sabotage:
        # One endpoint raising mid-batch (a bug, not a modelled outage)
        # must not take the batch down or perturb the other endpoints.
        victim = world.indexable_urls[3]
        original = app.extractor.extract

        def extract(url):
            if url == victim:
                raise RuntimeError("mid-batch explosion")
            return original(url)

        app.extractor.extract = extract
    clock = world.network.clock
    start = clock.now_ms
    results = app.update_all(parallelism=parallelism)
    return results, clock.now_ms - start, _snapshot(app)


@pytest.mark.parametrize("sabotage", [False, True], ids=["clean", "mid-batch-raise"])
def test_update_all_parallelism_is_byte_identical(sabotage):
    results_1, elapsed_1, stored_1 = _run_update_all(1, sabotage=sabotage)
    results_4, elapsed_4, stored_4 = _run_update_all(4, sabotage=sabotage)
    assert results_1 == results_4
    assert stored_1 == stored_4
    # same work, overlapped: simulated latency must drop, and by a real
    # margin on 8+ similar endpoints over 4 workers
    assert elapsed_4 < elapsed_1 / 1.5
    if sabotage:
        failed = [url for url, ok in results_1.items() if not ok]
        assert any("lod3" in url for url in failed)
        # every other indexable endpoint still succeeded
        assert sum(results_1.values()) == 7


def test_update_all_records_mid_batch_failure():
    results, _, _ = _run_update_all(4, sabotage=True)
    world, app = _fresh_app()
    victim = world.indexable_urls[3]
    original = app.extractor.extract

    def extract(url):
        if url == victim:
            raise RuntimeError("mid-batch explosion")
        return original(url)

    app.extractor.extract = extract
    app.update_all(parallelism=4)
    record = app.storage.endpoint_record(victim)
    assert record["last_error"] == "RuntimeError: mid-batch explosion"


def test_crawl_portals_parallelism_equivalent():
    def crawl(parallelism):
        world = build_world(indexable=6, broken=2, portal_new_indexable=3,
                            seed=5, flaky=False)
        app = HBold(world.network, store=DocumentStore())
        app.bootstrap_registry(world.listed_urls)
        clock = world.network.clock
        start = clock.now_ms
        found = app.crawl_portals(world.portal_urls, parallelism=parallelism)
        return found, clock.now_ms - start

    found_1, elapsed_1 = crawl(1)
    found_3, elapsed_3 = crawl(3)
    assert found_1 == found_3
    assert elapsed_3 < elapsed_1


def test_scheduler_records_post_extraction_failures():
    """A bug after extraction (summarize/cluster/store) is isolated to its
    endpoint AND leaves a diagnostic trail on the registry record."""
    world, app = _fresh_app()
    scheduler = UpdateScheduler(app.storage, app.extractor, policy="daily")
    victim = world.indexable_urls[2]
    original = app.storage.save_summary

    def save_summary(summary):
        if summary.endpoint_url == victim:
            raise ValueError("clustering pipeline bug")
        return original(summary)

    app.storage.save_summary = save_summary
    report = scheduler.run_day(parallelism=4)
    assert victim in report.failed
    assert len(report.succeeded) == 7
    record = app.storage.endpoint_record(victim)
    assert record["last_error"] == "ValueError: clustering pipeline bug"


def test_crawl_all_reraises_programming_errors():
    """Modelled outages crawl to []; an actual bug must surface loudly."""
    world, app = _fresh_app()

    def broken_crawl(url, portal_key=""):
        raise AttributeError("row parsing bug")

    app.crawler.crawl_portal = broken_crawl
    with pytest.raises(AttributeError):
        app.crawler.crawl_all({"edp": "http://portal/sparql"}, parallelism=2)


def test_scheduler_day_parallelism_equivalent():
    def run(parallelism):
        world = build_world(indexable=8, broken=4, portal_new_indexable=0,
                            seed=7, flaky=False)
        app = HBold(world.network, store=DocumentStore())
        app.bootstrap_registry(world.listed_urls)
        scheduler = UpdateScheduler(app.storage, app.extractor, policy="daily")
        report = scheduler.run_day(parallelism=parallelism)
        return report, _snapshot(app)

    report_1, stored_1 = run(1)
    report_4, stored_4 = run(4)
    assert report_1.attempted == report_4.attempted
    assert report_1.succeeded == report_4.succeeded
    assert report_1.failed == report_4.failed
    assert stored_1 == stored_4
    # the day's cost is the pool makespan, not the sequential sum
    assert report_4.elapsed_ms < report_1.elapsed_ms / 1.5
