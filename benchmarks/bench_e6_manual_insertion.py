"""E6 (§3.4): manual endpoint insertion with e-mail notification.

Workflow under test: user uploads a SPARQL endpoint URL + e-mail address;
the (time-consuming) extraction runs; the user is notified of the outcome;
the address is deleted ("we do not want to keep person data"); the dataset
appears in the list.
"""

from __future__ import annotations

import pytest

from repro.core import HBold
from repro.datagen import build_world
from repro.docstore import DocumentStore


@pytest.fixture(scope="module")
def submission_world():
    return build_world(indexable=8, broken=2, portal_new_indexable=0,
                       seed=31, flaky=False)


def test_e6_submission_workflow(submission_world, record_table):
    app = HBold(submission_world.network, store=DocumentStore())
    listed_before = app.counts()["listed"]

    good = submission_world.indexable_urls[0]
    dead = submission_world.broken_urls[0]

    ok = app.submit_endpoint(good, "alice@example.org")
    fail = app.submit_endpoint(dead, "bob@example.org")

    lines = [
        "E6 (§3.4): manual endpoint insertion with e-mail notification",
        "",
        f"submission of live endpoint: accepted={ok.accepted} indexed={ok.indexed}",
        f"  -> {ok.message}",
        f"submission of dead endpoint: accepted={fail.accepted} indexed={fail.indexed}",
        f"  -> {fail.message}",
        "",
        f"mails sent: {len(app.outbox)}",
    ]
    for message in app.outbox.sent:
        lines.append(f"  {message.subject}")
    lines += [
        f"personal addresses retained after workflow: "
        f"{app.registry.pending_address_count()}",
        f"datasets listed: {listed_before} -> {app.counts()['listed']}",
        f"datasets indexed: {app.counts()['indexed']}",
    ]
    record_table("e6_manual_insertion", "\n".join(lines))

    assert ok.indexed and ok.accepted
    assert fail.accepted and not fail.indexed
    assert len(app.outbox) == 2
    subjects = [m.subject for m in app.outbox.sent]
    assert any("available" in s for s in subjects)
    assert any("failed" in s for s in subjects)
    # privacy: no addresses retained, not even in the outbox
    assert app.registry.pending_address_count() == 0
    assert app.outbox.messages_for("alice@example.org")  # only hash comparison works
    # the new dataset is listed among the others
    urls = {record["url"] for record in app.registry.dataset_list()}
    assert good in urls and dead in urls
