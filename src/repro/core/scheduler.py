"""The daily update scheduler (§3.1).

The paper's policy, verbatim:

* indexes need refreshing at most weekly ("LD do not change daily"),
* but endpoints flap, so availability must be rechecked often;
* therefore: store the date of the last extraction per endpoint; skip
  endpoints whose last *successful* extraction is <= 7 days old; retry
  *failed* endpoints every day (an endpoint down yesterday "might work
  again after 1 or 2 days").

:class:`UpdateScheduler` implements exactly that policy plus the naive
alternatives the E3 benchmark compares it against.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from .index_extraction import IndexExtractor
from .parallel import run_parallel
from .persistence import HboldStorage
from .pipeline import index_endpoint

__all__ = ["UpdateScheduler", "DailyReport", "POLICIES"]

#: freshness rule from the paper: re-extract after this many days
FRESHNESS_DAYS = 7


class DailyReport:
    """What one scheduler day did."""

    __slots__ = (
        "day",
        "attempted",
        "succeeded",
        "failed",
        "skipped_fresh",
        "reclusters_skipped",
        "elapsed_ms",
    )

    def __init__(self, day: int):
        self.day = day
        self.attempted: List[str] = []
        self.succeeded: List[str] = []
        self.failed: List[str] = []
        self.skipped_fresh = 0
        #: §3.2's rule applied server-side: extractions whose Schema Summary
        #: was identical to the stored one, so the Cluster Schema (and the
        #: community detection run) was reused instead of recomputed
        self.reclusters_skipped = 0
        self.elapsed_ms = 0.0

    def __repr__(self) -> str:
        return (
            f"<DailyReport day={self.day} attempted={len(self.attempted)} "
            f"ok={len(self.succeeded)} failed={len(self.failed)} "
            f"fresh={self.skipped_fresh}>"
        )


def _policy_paper(record: Dict, today: int) -> bool:
    """The §3.1 policy: weekly refresh + daily retry after failure."""
    last_success = record.get("last_success_day")
    last_attempt = record.get("last_attempt_day")
    if last_success is None:
        # never extracted successfully -> try daily (but not twice a day)
        return last_attempt is None or last_attempt < today
    attempt_failed_since_success = (
        last_attempt is not None and last_attempt > last_success
    )
    if attempt_failed_since_success:
        return last_attempt < today  # daily retry after a failure
    return today - last_success >= FRESHNESS_DAYS


def _policy_daily(record: Dict, today: int) -> bool:
    """Naive baseline: extract everything every day."""
    last_attempt = record.get("last_attempt_day")
    return last_attempt is None or last_attempt < today


def _policy_weekly_rigid(record: Dict, today: int) -> bool:
    """Strict weekly schedule with no failure retry (the ablation's loser:
    an endpoint down on its weekly slot stays stale for a whole week)."""
    last_attempt = record.get("last_attempt_day")
    if last_attempt is None:
        return True
    return today - last_attempt >= FRESHNESS_DAYS


POLICIES: Dict[str, Callable[[Dict, int], bool]] = {
    "paper": _policy_paper,
    "daily": _policy_daily,
    "weekly-rigid": _policy_weekly_rigid,
}


class UpdateScheduler:
    """Runs the §3.1 daily update over the registry."""

    def __init__(
        self,
        storage: HboldStorage,
        extractor: IndexExtractor,
        policy: str = "paper",
        cluster_algorithm: str = "louvain",
    ):
        if policy not in POLICIES:
            raise KeyError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}")
        self.storage = storage
        self.extractor = extractor
        self.policy_name = policy
        self.policy = POLICIES[policy]
        self.cluster_algorithm = cluster_algorithm
        self.reports: List[DailyReport] = []

    def run_day(
        self, urls: Optional[List[str]] = None, parallelism: int = 1
    ) -> DailyReport:
        """Execute one scheduler day over *urls* (default: whole registry).

        The policy pass is sequential (it only reads registry records);
        the due endpoints then run the server pipeline (:mod:`.pipeline`)
        across the simulated worker pool, so the day's elapsed time is the
        ``parallelism``-worker makespan of the batch and a flapping
        endpoint's retries no longer delay everyone behind it in the
        registry.  A failed endpoint is recorded and isolated to its task.
        """
        clock = self.extractor.client.network.clock
        today = clock.today
        report = DailyReport(today)
        start_ms = clock.now_ms

        records = self.storage.list_endpoints()
        if urls is not None:
            wanted = set(urls)
            records = [record for record in records if record["url"] in wanted]

        due: List[str] = []
        for record in records:
            if not self.policy(record, today):
                report.skipped_fresh += 1
                continue
            due.append(record["url"])

        tasks = [
            (url, partial(index_endpoint, self.storage, self.extractor, url,
                          self.cluster_algorithm))
            for url in due
        ]
        outcomes, _ = run_parallel(clock, tasks, parallelism)
        for outcome in outcomes:
            report.attempted.append(outcome.key)
            if outcome.error is not None or not outcome.value.ok:
                report.failed.append(outcome.key)
                continue
            report.succeeded.append(outcome.key)
            if not outcome.value.reclustered:
                report.reclusters_skipped += 1

        report.elapsed_ms = clock.now_ms - start_ms
        self.reports.append(report)
        return report

    def run_days(
        self,
        days: int,
        urls: Optional[List[str]] = None,
        parallelism: int = 1,
    ) -> List[DailyReport]:
        """Run the scheduler for *days* consecutive simulated days."""
        clock = self.extractor.client.network.clock
        out: List[DailyReport] = []
        for _ in range(days):
            out.append(self.run_day(urls, parallelism=parallelism))
            clock.sleep_until_day(clock.today + 1)
        return out

    # -- staleness metric for E3 ---------------------------------------------------

    def staleness_profile(self, horizon_days: int) -> Dict[str, float]:
        """Summary statistics over the run: query cost vs freshness."""
        total_attempts = sum(len(report.attempted) for report in self.reports)
        total_success = sum(len(report.succeeded) for report in self.reports)
        total_failures = sum(len(report.failed) for report in self.reports)
        records = self.storage.list_endpoints()
        staleness: List[int] = []
        for record in records:
            last_success = record.get("last_success_day")
            if last_success is None:
                staleness.append(horizon_days)
            else:
                staleness.append(max(0, horizon_days - 1 - last_success))
        mean_staleness = sum(staleness) / len(staleness) if staleness else 0.0
        return {
            "policy": self.policy_name,
            "attempts": total_attempts,
            "successes": total_success,
            "failures": total_failures,
            "mean_staleness_days": mean_staleness,
        }
