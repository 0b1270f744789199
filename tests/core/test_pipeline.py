"""One server pipeline, four doors: doors x scenarios as one table.

§2.1's pipeline (extract -> Schema Summary -> Cluster Schema -> store) is
``repro.core.pipeline.index_endpoint``; the bulk indexer
(``HBold.update_all``), manual insertion (§3.4, ``EndpointRegistry.submit``)
and the daily scheduler (§3.1, ``UpdateScheduler.run_day``) are doors into
it.  Every scenario below is run through every door, each cell pins what
the pipeline promises, and the last test pins that the four doors leave
equal documents behind -- which is what "one pipeline" means.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import HBold, UpdateScheduler
from repro.core.cluster_schema import ALGORITHMS
from repro.datagen import build_world
from repro.docstore import DocumentStore
from repro.endpoint import AlwaysAvailable, AvailabilityModel
from repro.rdf import IRI, RDF

ADDRESS = "user@example.org"
NEW_CLASS = "http://mut.example.org/BrandNewClass"


# -- the doors: (app, url) -> (ok, reclustered or None when the door hides it)


def _door_index_endpoint(app, url):
    from repro.core.pipeline import index_endpoint

    outcome = index_endpoint(app.storage, app.extractor, url, app.cluster_algorithm)
    assert outcome.url == url
    assert (outcome.indexes is not None) == outcome.ok == (outcome.error is None)
    return outcome.ok, outcome.reclustered


def _door_update_all(app, url):
    return app.update_all([url], parallelism=2)[url], None


def _door_submit(app, url):
    # §3.4 turns away a URL that is already `indexed`; a re-submission is
    # of a dataset the list does not show as available
    record = app.storage.endpoint_record(url)
    if record["status"] == "indexed":
        app.storage.upsert_endpoint(url, status="listed")
    result = app.submit_endpoint(url, ADDRESS)
    assert result.accepted
    assert app.registry.pending_address_count() == 0
    assert app.outbox.messages_for(ADDRESS)
    return result.indexed, None


def _door_run_day(app, url):
    scheduler = UpdateScheduler(
        app.storage, app.extractor, policy="daily",
        cluster_algorithm=app.cluster_algorithm,
    )
    report = scheduler.run_day([url])
    assert report.attempted == [url]
    ok = report.succeeded == [url]
    assert ok != (report.failed == [url])
    return ok, ok and report.reclusters_skipped == 0


DOORS = {
    "index_endpoint": _door_index_endpoint,
    "update_all": _door_update_all,
    "submit": _door_submit,
    "run_day": _door_run_day,
}


class _Down(AvailabilityModel):
    def is_available(self, day: int) -> bool:
        return False


class _Run:
    """One endpoint, one store, one door; every door call is a new day."""

    def __init__(self, door: str):
        self.world = build_world(
            indexable=1, broken=0, portal_new_indexable=0, seed=6, flaky=False
        )
        self.url = self.world.indexable_urls[0]
        self.endpoint = self.world.network.get(self.url)
        self.store = DocumentStore()
        self.door = DOORS[door]
        self.app = self.new_app("louvain")

    def new_app(self, algorithm: str) -> HBold:
        app = HBold(self.world.network, store=self.store, cluster_algorithm=algorithm)
        app.registry.add_listed(self.url, source="manual")
        return app

    def index(self, app=None):
        clock = self.world.network.clock
        clock.sleep_until_day(clock.today + 1)
        return self.door(app or self.app, self.url)

    def add_class(self) -> None:
        self.endpoint.graph.add_triple(
            IRI("http://mut.example.org/thing1"), RDF.type, IRI(NEW_CLASS)
        )

    def documents(self):
        """The four stored documents for the endpoint, sans ``_id``."""
        storage = self.app.storage
        out = {}
        for name in ("indexes", "summaries", "clusters"):
            out[name] = getattr(storage, name).find_one({"endpoint_url": self.url})
        out["endpoints"] = storage.endpoints.find_one({"url": self.url})
        for document in out.values():
            if document is not None:
                document.pop("_id")
        return out

    @property
    def record(self):
        return self.app.storage.endpoint_record(self.url)


def _artifacts(documents):
    return {name: documents[name] for name in ("indexes", "summaries", "clusters")}


def _sans_timestamps(documents):
    return {
        name: document and {
            key: value for key, value in document.items()
            if key not in ("extracted_at_ms", "computed_at_ms")
        }
        for name, document in documents.items()
    }


# -- the scenarios: each runs one door and returns the documents it left -----


def first_index(run: _Run):
    ok, reclustered = run.index()
    assert ok and reclustered in (True, None)
    documents = run.documents()
    assert all(document is not None for document in documents.values())
    assert documents["clusters"]["algorithm"] == "louvain"
    record = documents["endpoints"]
    assert record["status"] == "indexed" and record["last_error"] is None
    today = run.world.network.clock.today
    assert record["last_success_day"] == record["last_attempt_day"] == today
    return documents


def unchanged_reindex(run: _Run):
    """§3.2: the stored Cluster Schema is kept, not recomputed or rewritten."""
    run.index()
    before = run.documents()
    ok, reclustered = run.index()
    assert ok and reclustered in (False, None)
    after = run.documents()
    assert after["clusters"] == before["clusters"]  # computed_at_ms unmoved
    # the summary and indexes were stored afresh, with equal content
    assert after["summaries"]["computed_at_ms"] > before["summaries"]["computed_at_ms"]
    assert after["indexes"]["extracted_at_ms"] > before["indexes"]["extracted_at_ms"]
    assert _sans_timestamps(_artifacts(after)) == _sans_timestamps(_artifacts(before))
    assert after["endpoints"]["last_success_day"] == run.world.network.clock.today
    return after


def class_added(run: _Run):
    run.index()
    before = run.documents()
    run.add_class()
    ok, reclustered = run.index()
    assert ok and reclustered in (True, None)
    after = run.documents()
    assert after["clusters"]["computed_at_ms"] > before["clusters"]["computed_at_ms"]
    clustered = [
        iri for cluster in after["clusters"]["clusters"] for iri in cluster["class_iris"]
    ]
    assert NEW_CLASS in clustered and NEW_CLASS not in str(before["clusters"])
    assert len(after["indexes"]["classes"]) == len(before["indexes"]["classes"]) + 1
    return after


def other_algorithm(run: _Run):
    """A stored schema is reusable only by the algorithm that made it."""
    run.index()
    before = run.documents()
    other = run.new_app("label-propagation")
    ok, reclustered = run.index(other)
    assert ok and reclustered in (True, None)
    after = run.documents()
    assert before["clusters"]["algorithm"] == "louvain"
    assert after["clusters"]["algorithm"] == "label-propagation"
    assert after["clusters"]["computed_at_ms"] > before["clusters"]["computed_at_ms"]
    # ...and from then on it is that algorithm's to reuse
    ok, reclustered = run.index(other)
    assert ok and reclustered in (False, None)
    assert run.documents()["clusters"] == after["clusters"]
    return run.documents()


def endpoint_unavailable(run: _Run):
    run.endpoint.availability = _Down()
    ok, reclustered = run.index()
    assert not ok and not reclustered
    never_indexed = run.documents()
    assert _artifacts(never_indexed) == dict.fromkeys(_artifacts(never_indexed))
    assert never_indexed["endpoints"]["status"] == "broken"
    assert never_indexed["endpoints"]["last_error"] == "endpoint unavailable"

    run.endpoint.availability = AlwaysAvailable()
    assert run.index()[0]
    before = run.documents()
    run.endpoint.availability = _Down()
    ok, reclustered = run.index()
    assert not ok and not reclustered
    after = run.documents()
    assert _artifacts(after) == _artifacts(before)  # nothing stored moves
    record = after["endpoints"]
    assert record["status"] == "stale"
    assert record["last_error"] == "endpoint unavailable"
    assert record["last_success_day"] == before["endpoints"]["last_success_day"]
    assert record["last_attempt_day"] == run.world.network.clock.today
    return after


def stage_raises(run: _Run):
    """Compute, then store: a stage failing after extraction leaves the
    previous run's three documents, not a torn set."""
    run.index()
    before = run.documents()
    run.add_class()  # so the run cannot reuse the stored schema

    def louvain_bug(graph):
        raise RuntimeError("louvain bug")

    detector = ALGORITHMS["louvain"]
    ALGORITHMS["louvain"] = louvain_bug
    try:
        ok, reclustered = run.index()
    finally:
        ALGORITHMS["louvain"] = detector
    assert not ok and not reclustered
    after = run.documents()
    assert _artifacts(after) == _artifacts(before)
    assert len(after["indexes"]["classes"]) == len(after["summaries"]["nodes"])
    assert after["endpoints"]["status"] == "stale"
    assert after["endpoints"]["last_error"] == "RuntimeError: louvain bug"
    return after


SCENARIOS = (
    first_index, unchanged_reindex, class_added, other_algorithm,
    endpoint_unavailable, stage_raises,
)


@functools.lru_cache(maxsize=None)
def _left_behind(scenario, door: str):
    return scenario(_Run(door))


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_every_door_runs_the_one_pipeline(scenario, door):
    _left_behind(scenario, door)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_the_doors_leave_equal_documents(scenario):
    left = [_sans_timestamps(_left_behind(scenario, door)) for door in DOORS]
    assert all(documents == left[0] for documents in left[1:])


# -- what only one door can show ------------------------------------------------


def test_a_pipeline_bug_still_mails_the_submitter_and_deletes_the_address():
    """§3.4: the address lives only until the notification is sent --
    also when the failure is not a modelled extraction failure."""
    run = _Run("submit")

    def save_summary(summary):
        raise ValueError("summary store bug")

    run.app.storage.save_summary = save_summary
    result = run.app.submit_endpoint(run.url, ADDRESS)
    assert (result.accepted, result.indexed) == (True, False)
    assert result.message == "ValueError: summary store bug"
    (mail,) = run.app.outbox.messages_for(ADDRESS)
    assert mail.subject == "H-BOLD: extraction failed"
    assert result.message in mail.body
    assert run.app.registry.pending_address_count() == 0
    assert run.record["status"] == "broken"
    assert run.record["last_error"] == result.message


def test_update_all_isolates_a_dead_endpoint_in_input_order():
    world = build_world(
        indexable=2, broken=1, portal_new_indexable=0, seed=6, flaky=False
    )
    app = HBold(world.network)
    urls = [world.indexable_urls[0], world.broken_urls[0], world.indexable_urls[1]]
    results = app.update_all(urls, parallelism=4)
    assert list(results.items()) == list(zip(urls, (True, False, True)))
