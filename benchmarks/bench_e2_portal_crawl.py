"""E2 (§3.3): growing the registry by crawling open data portals.

Paper numbers: the Listing 1 DCAT query discovers 65 endpoints on the
European Data Portal, 9 on the EU Open Data Portal and 15 on IO Data
Science of Paris; 19 were already listed, so the registry grows by 70
(610 -> 680 listed); 20 of the new endpoints extract successfully
(110 -> 130 indexed).
"""

from __future__ import annotations

import pytest

from repro.core import HBold
from repro.docstore import DocumentStore

PAPER = {
    "edp": 65,
    "euodp": 9,
    "iodata": 15,
    "new": 70,
    "listed_before": 610,
    "listed_after": 680,
    "indexed_before": 110,
    "indexed_after": 130,
}


@pytest.fixture(scope="module")
def crawled(census_world):
    """A fresh HBold (own store) that bootstraps, indexes, crawls, re-indexes."""
    app = HBold(census_world.network, store=DocumentStore())
    app.bootstrap_registry(census_world.listed_urls)
    app.update_all(census_world.indexable_urls)
    before = app.counts()
    found = app.crawl_portals(census_world.portal_urls)
    results = app.update_all(census_world.portal_new_indexable)
    after = app.counts()
    return app, before, found, results, after


def test_e2_census_matches_paper(crawled, record_table):
    app, before, found, results, after = crawled

    lines = [
        "E2 (§3.3): SPARQL endpoint discovery by crawling open data portals",
        "",
        f"{'portal':<28} {'paper':>6} {'measured':>9}",
        f"{'European Data Portal':<28} {PAPER['edp']:>6} {found['edp']:>9}",
        f"{'EU Open Data Portal':<28} {PAPER['euodp']:>6} {found['euodp']:>9}",
        f"{'IO Data Science of Paris':<28} {PAPER['iodata']:>6} {found['iodata']:>9}",
        f"{'net new endpoints':<28} {PAPER['new']:>6} {found['new']:>9}",
        "",
        f"{'registry':<28} {'paper':>6} {'measured':>9}",
        f"{'listed before crawl':<28} {PAPER['listed_before']:>6} {before['listed']:>9}",
        f"{'listed after crawl':<28} {PAPER['listed_after']:>6} {after['listed']:>9}",
        f"{'indexed before crawl':<28} {PAPER['indexed_before']:>6} {before['indexed']:>9}",
        f"{'indexed after crawl':<28} {PAPER['indexed_after']:>6} {after['indexed']:>9}",
    ]
    record_table("e2_portal_crawl", "\n".join(lines))

    assert found["edp"] == PAPER["edp"]
    assert found["euodp"] == PAPER["euodp"]
    assert found["iodata"] == PAPER["iodata"]
    assert found["new"] == PAPER["new"]
    assert before["listed"] == PAPER["listed_before"]
    assert after["listed"] == PAPER["listed_after"]
    assert before["indexed"] == PAPER["indexed_before"]
    assert after["indexed"] == PAPER["indexed_after"]


def test_e2_crawl_is_idempotent(crawled, census_world):
    app = crawled[0]
    again = app.crawl_portals(census_world.portal_urls)
    assert again["new"] == 0


# -- parallel fleet extraction ---------------------------------------------
#
# The multi-endpoint hot path of the daily-update loop.  Latency in this
# reproduction is simulated-clock time (the same metric E3/E4 report), so
# the worker pool's win shows up as the batch's simulated makespan
# shrinking while the stored artifacts stay byte-identical.

PARALLELISMS = (1, 2, 4, 8)


def _update_all_run(parallelism: int):
    from repro.datagen import build_world
    from repro.docstore import DocumentStore

    world = build_world(indexable=24, broken=6, portal_new_indexable=0,
                        seed=13, flaky=False)
    app = HBold(world.network, store=DocumentStore())
    app.bootstrap_registry(world.listed_urls)
    clock = world.network.clock
    start_ms = clock.now_ms
    results = app.update_all(parallelism=parallelism)
    return sum(results.values()), clock.now_ms - start_ms


def test_e2_bench_parallel_update_all(record_table):
    """update_all over 30 endpoints: simulated time vs parallelism."""
    timings = {}
    indexed = {}
    for parallelism in PARALLELISMS:
        indexed[parallelism], timings[parallelism] = _update_all_run(parallelism)

    base = timings[1]
    lines = [
        "E2+ (PR2): parallel multi-endpoint extraction (update_all)",
        "24 indexable + 6 dead endpoints, simulated worker pool",
        "",
        f"{'parallelism':>12} {'sim time':>12} {'speedup':>9} {'indexed':>8}",
    ]
    for parallelism in PARALLELISMS:
        lines.append(
            f"{parallelism:>12} {timings[parallelism] / 1000:>10.1f}s "
            f"{base / timings[parallelism]:>8.2f}x {indexed[parallelism]:>8}"
        )
    record_table("e2_parallel_update_all", "\n".join(lines))

    # every parallelism level indexes the same endpoints...
    assert len(set(indexed.values())) == 1
    assert indexed[1] == 24
    # ...and >1 workers must overlap endpoint latency by >= 1.5x
    assert base / timings[4] >= 1.5
    # dead-endpoint retries overlap too: more workers never slower
    assert timings[8] <= timings[4] <= timings[2] <= timings[1]


def test_e2_bench_parallel_crawl(record_table):
    """The three-portal Listing 1 crawl with portals fanned out."""
    from repro.datagen import build_world

    def crawl_run(parallelism: int):
        world = build_world(flaky=False, seed=2020)
        app = HBold(world.network, store=DocumentStore())
        app.bootstrap_registry(world.listed_urls)
        clock = world.network.clock
        start_ms = clock.now_ms
        found = app.crawl_portals(world.portal_urls, parallelism=parallelism)
        return found, clock.now_ms - start_ms

    found_1, elapsed_1 = crawl_run(1)
    found_3, elapsed_3 = crawl_run(3)

    lines = [
        "E2+ (PR2): parallel portal crawling",
        "",
        f"{'parallelism':>12} {'sim time':>12} {'speedup':>9}",
        f"{1:>12} {elapsed_1 / 1000:>10.2f}s {1.0:>8.2f}x",
        f"{3:>12} {elapsed_3 / 1000:>10.2f}s {elapsed_1 / elapsed_3:>8.2f}x",
    ]
    record_table("e2_parallel_crawl", "\n".join(lines))

    assert found_1 == found_3  # deterministic merge, §3.3 numbers intact
    assert found_1["new"] == PAPER["new"]
    assert elapsed_3 < elapsed_1
