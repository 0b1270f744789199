"""Admission control: a bounded queue with per-tenant fair dequeue.

A public endpoint under load does two things this module models: it
**bounds** how much work it will hold (anything beyond the queue capacity
is rejected immediately -- the serving analogue of the endpoint layer's
:class:`~repro.endpoint.errors.QueryRejected`), and it keeps one chatty
tenant from starving everyone else.  Dequeue is deficit-free round-robin
over tenants in first-seen order: each turn serves the next tenant with
queued work, so a tenant that queues 100 requests interleaves 1:1 with a
tenant that queues 2 instead of running them first.

Everything is plain deterministic data structure work -- no RNG, no wall
clock -- so the scheduler above it stays reproducible.  ``offer`` and
``take`` run once per queued request, and on a warm server nearly every
request queues, so the rotation holds the tenants' deques themselves (a
take looks no tenant up by name) and the cursor wraps by comparison,
not by a modulo.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..endpoint.errors import check_count
from .workload import Request

__all__ = ["FairAdmissionQueue"]


class FairAdmissionQueue:
    """Bounded FIFO-per-tenant queue with round-robin dequeue.

    ``offer`` returns False when the queue is at capacity (the caller
    rejects the request); ``take`` returns the next request under the
    fairness rotation, or None when empty.
    """

    __slots__ = ("capacity", "_by_tenant", "_rotation", "_cursor", "_size",
                 "offered", "rejected")

    def __init__(self, capacity: int = 64):
        check_count("capacity", capacity)
        self.capacity = capacity
        #: tenant -> its waiting requests, in arrival order
        self._by_tenant: Dict[str, Deque[Request]] = {}
        #: the tenants' queues in first-seen order; the rotation walks this
        #: list, and ``_cursor`` is where the next take starts
        self._rotation: List[Deque[Request]] = []
        self._cursor = 0
        self._size = 0
        self.offered = 0
        self.rejected = 0

    def __len__(self) -> int:
        return self._size

    def depth(self, tenant: str) -> int:
        queue = self._by_tenant.get(tenant)
        return len(queue) if queue is not None else 0

    def offer(self, request: Request) -> bool:
        """Enqueue *request*, or refuse it when the queue is full."""
        self.offered += 1
        if self._size >= self.capacity:
            self.rejected += 1
            return False
        queue = self._by_tenant.get(request.tenant)
        if queue is None:
            queue = self._by_tenant[request.tenant] = deque()
            self._rotation.append(queue)
        queue.append(request)
        self._size += 1
        return True

    def take(self) -> Optional[Request]:
        """The next request under round-robin fairness, or None.

        The rotation remembers where it stopped: after serving tenant i,
        the next take starts at tenant i+1, so burst tenants cannot
        monopolize consecutive dequeues while others wait.
        """
        if not self._size:
            return None
        rotation = self._rotation
        last = len(rotation) - 1
        cursor = self._cursor
        queue = rotation[cursor]
        while not queue:  # some queue holds a request: _size > 0
            cursor = 0 if cursor == last else cursor + 1
            queue = rotation[cursor]
        self._cursor = 0 if cursor == last else cursor + 1
        self._size -= 1
        return queue.popleft()

    def info(self) -> Dict[str, int]:
        return {
            "depth": self._size,
            "capacity": self.capacity,
            "offered": self.offered,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:
        return f"<FairAdmissionQueue {self._size}/{self.capacity}>"
