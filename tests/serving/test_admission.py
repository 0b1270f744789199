"""Admission control: capacity bound and per-tenant fairness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import FairAdmissionQueue, Request


def _request(tenant, seq):
    return Request(0, tenant, seq, 0.0, "q", "ASK { ?s ?p ?o }")


def test_capacity_bound_rejects():
    queue = FairAdmissionQueue(capacity=2)
    assert queue.offer(_request("a", 0))
    assert queue.offer(_request("a", 1))
    assert not queue.offer(_request("a", 2))
    assert queue.rejected == 1
    assert queue.offered == 3
    assert len(queue) == 2


def test_round_robin_interleaves_tenants():
    queue = FairAdmissionQueue(capacity=16)
    # chatty tenant floods first, quiet tenant queues two
    for seq in range(6):
        queue.offer(_request("chatty", seq))
    queue.offer(_request("quiet", 0))
    queue.offer(_request("quiet", 1))

    order = []
    while True:
        request = queue.take()
        if request is None:
            break
        order.append((request.tenant, request.seq))

    # the quiet tenant's requests are served 1:1 with the chatty one's,
    # not after all six of them
    assert order[:4] == [
        ("chatty", 0), ("quiet", 0), ("chatty", 1), ("quiet", 1)
    ]
    # per-tenant FIFO holds throughout
    chatty = [seq for tenant, seq in order if tenant == "chatty"]
    assert chatty == list(range(6))


def test_rotation_cursor_persists_across_takes():
    queue = FairAdmissionQueue(capacity=16)
    queue.offer(_request("a", 0))
    queue.offer(_request("b", 0))
    assert queue.take().tenant == "a"
    # "b" is next even though "a" refills before the take
    queue.offer(_request("a", 1))
    assert queue.take().tenant == "b"
    assert queue.take().tenant == "a"
    assert queue.take() is None


def test_depth_and_info():
    queue = FairAdmissionQueue(capacity=8)
    queue.offer(_request("a", 0))
    queue.offer(_request("a", 1))
    queue.offer(_request("b", 0))
    assert queue.depth("a") == 2
    assert queue.depth("b") == 1
    assert queue.depth("ghost") == 0
    assert queue.info() == {
        "depth": 3, "capacity": 8, "offered": 3, "rejected": 0
    }


def test_capacity_validation():
    with pytest.raises(ValueError):
        FairAdmissionQueue(capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, True])
def test_a_capacity_that_is_not_a_count_is_refused(capacity):
    """A NaN capacity compared false against every size and never filled;
    each of these is refused, naming the parameter."""
    with pytest.raises(ValueError, match="capacity"):
        FairAdmissionQueue(capacity=capacity)


def test_cursor_survives_tenant_drain_and_reenqueue():
    # a tenant that empties keeps its rotation slot; when it refills, it
    # is neither skipped nor served twice in one sweep
    queue = FairAdmissionQueue(capacity=16)
    queue.offer(_request("a", 0))
    queue.offer(_request("b", 0))
    queue.offer(_request("c", 0))
    assert queue.take().tenant == "a"
    assert queue.take().tenant == "b"
    # "a" and "b" are drained; "a" re-enqueues before the next take
    queue.offer(_request("a", 1))
    # rotation resumes at "c" (the cursor's position), then wraps to "a"
    assert queue.take().tenant == "c"
    assert queue.take().tenant == "a"
    assert queue.take() is None
    assert len(queue) == 0


def test_drained_then_refilled_queue_serves_every_request_once():
    queue = FairAdmissionQueue(capacity=64)
    for round_number in range(3):
        for tenant in ("a", "b", "c"):
            for seq in range(2):
                queue.offer(_request(tenant, round_number * 10 + seq))
        seen = []
        while True:
            request = queue.take()
            if request is None:
                break
            seen.append((request.tenant, request.seq))
        # exactly one serve per offer, no skips, no doubles
        assert sorted(seen) == sorted(
            (tenant, round_number * 10 + seq)
            for tenant in ("a", "b", "c") for seq in range(2)
        )


# -- property: overflow under bursty multi-tenant load ------------------------


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    offers=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.booleans()),
        max_size=80,
    ),
)
def test_overflow_under_burst_conserves_every_request(capacity, offers):
    """Any interleaving of offers and takes keeps the books exact.

    Invariants under arbitrary bursty traffic: depth never exceeds
    capacity, an offer fails iff the queue is full, every admitted
    request is served exactly once, per-tenant FIFO order holds, and the
    offered/rejected counters reconcile with what actually happened.
    """
    queue = FairAdmissionQueue(capacity=capacity)
    admitted = []
    served = []
    sequence = 0
    for tenant, also_take in offers:
        request = _request(tenant, sequence)
        sequence += 1
        was_full = len(queue) >= capacity
        accepted = queue.offer(request)
        assert accepted == (not was_full)
        if accepted:
            admitted.append(request)
        assert len(queue) <= capacity
        if also_take:
            taken = queue.take()
            if taken is not None:
                served.append(taken)
    while True:
        taken = queue.take()
        if taken is None:
            break
        served.append(taken)
    assert len(queue) == 0
    # conservation: exactly the admitted requests come out, once each
    assert sorted(r.seq for r in served) == sorted(r.seq for r in admitted)
    # per-tenant FIFO: each tenant's serves preserve its admission order
    for tenant in ("a", "b", "c", "d"):
        admitted_seqs = [r.seq for r in admitted if r.tenant == tenant]
        served_seqs = [r.seq for r in served if r.tenant == tenant]
        assert served_seqs == admitted_seqs
    assert queue.offered == len(offers)
    assert queue.rejected == len(offers) - len(admitted)
