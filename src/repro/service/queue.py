"""Bounded fair-share admission queue with reject-with-retry-after.

Fairness is per *tenant* (the submitter identity a transport supplies —
one CLI connection, one API caller): each tenant gets its own FIFO lane
and the dispatcher round-robins across lanes, so a tenant that dumps a
thousand jobs cannot starve one that submits a single run.  Capacity is
global; an admission beyond it raises :class:`QueueFullError` carrying
a ``retry_after`` estimate instead of growing without bound — the
backpressure contract the load bench exercises.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Optional

__all__ = ["QueueFullError", "FairShareQueue"]


class QueueFullError(Exception):
    """Admission rejected: the queue is at capacity.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    frees up — transports surface it verbatim (HTTP would call this a
    429 with ``Retry-After``).
    """

    def __init__(self, retry_after: float, depth: int):
        self.retry_after = float(retry_after)
        self.depth = int(depth)
        super().__init__(
            f"queue full ({depth} queued); retry after {retry_after:.2f}s"
        )


class FairShareQueue:
    """Bounded multi-lane FIFO with round-robin dispatch.

    Not thread-safe: the owner serializes every call (the manager holds
    its lock, on the submitting threads and the slot threads alike) and
    wakes its own consumers, so the queue holds no lock and no event.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lanes: "OrderedDict[str, Deque[Any]]" = OrderedDict()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def put_nowait(
        self, item: Any, *, tenant: str = "anon",
        retry_after: float = 1.0,
    ) -> None:
        """Admit one item to the tenant's lane or reject with backpressure."""
        if self._size >= self.capacity:
            raise QueueFullError(retry_after, self._size)
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = self._lanes[tenant] = deque()
        lane.append(item)
        self._size += 1

    def get_nowait(self) -> Optional[Any]:
        """Next item, round-robin across tenants; ``None`` when empty.

        The served tenant's lane moves to the back, so lanes take turns
        regardless of their depth.
        """
        for tenant, lane in self._lanes.items():
            item = lane.popleft()
            self._size -= 1
            if lane:
                self._lanes.move_to_end(tenant)
            else:
                del self._lanes[tenant]
            return item
        return None

    def remove(self, item: Any) -> bool:
        """Withdraw a queued item (job cancellation); True if found."""
        for tenant, lane in list(self._lanes.items()):
            try:
                lane.remove(item)
            except ValueError:
                continue
            self._size -= 1
            if not lane:
                del self._lanes[tenant]
            return True
        return False

    def depths(self) -> Dict[str, int]:
        """Per-tenant queue depths (diagnostics / ``repro jobs``)."""
        return {tenant: len(lane) for tenant, lane in self._lanes.items()}
