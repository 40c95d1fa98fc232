"""Centralized workforce pool: hiring, FIFO assignment, release.

Workers are pooled for the whole network. Assignment pops the longest-idle
pooled worker whose daily working hours still fit the cap, hiring a fresh
worker when none qualifies (the labor market is elastic; short notice is
penalized downstream, not refused). The hiring payment is due once per
worker per day.

Pooled workers sit in one FIFO bucket per whole hour of remaining daily
budget, ``floor(daily_cap_h - hours_worked)``, each entry tagged with a
release sequence number. A shift's working hours are whole slots, so a
worker fits it exactly when the worker's bucket is at least the shift's
working hours; the longest-idle fitting worker is the smallest-sequence head
among those buckets. That is the worker a scan of one release-ordered queue
would find first, but each assignment looks at ``daily_cap_h + 1`` bucket
heads instead of every pooled worker, most of whom have used up their day.
Busy workers sit in a heap by shift end, so a release pops only the workers
whose shift has ended instead of walking every worker hired so far.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .shifts import Shift


@dataclass
class Worker:
    id: int
    pooled: bool = False  # False from an assignment until the worker's release
    busy_until_h: float = 0.0
    hours_worked: float = 0.0


def _oldest(heads: list, need: int) -> int:
    """Index of the smallest non-None entry of ``heads[need:]``, or -1."""
    best, best_head = -1, None
    for b in range(need, len(heads)):
        head = heads[b]
        if head is not None and (best_head is None or head < best_head):
            best, best_head = b, head
    return best


class WorkforcePool:
    """Single-writer pool driven by the engine's sequential step."""

    def __init__(self, daily_cap_h: float):
        self.daily_cap_h = daily_cap_h
        self.workers: list[Worker] = []
        # _buckets[b]: (release_seq, worker id) of the pooled workers with b
        # whole hours of budget left, longest idle first
        n_buckets = max(0, math.floor(daily_cap_h)) + 1
        self._buckets: list[deque[tuple[int, int]]] = [deque() for _ in range(n_buckets)]
        self._released = 0
        self._pooled = 0
        # (busy_until_h, worker id) of each assignment, until release_finished pops it
        self._busy: list[tuple[float, int]] = []

    def assign(self, shift: Shift, now_h: float) -> tuple[Worker, float, bool]:
        """Assign a worker to a fixed shift.

        Returns (worker, lead_time_h, is_new_hire). Reuses the longest-idle
        pooled worker whose daily hours allow the shift, else hires.
        """
        if shift.start_h < now_h:
            raise ValueError("cannot assign a shift that starts in the past")
        working_h = shift.working_h
        worker = None
        if self._pooled:
            b = _oldest([q[0] if q else None for q in self._buckets], working_h)
            if b >= 0:
                worker = self.workers[self._buckets[b].popleft()[1]]
                self._pooled -= 1
        is_new_hire = worker is None
        if is_new_hire:
            worker = Worker(id=len(self.workers))
            self.workers.append(worker)
        worker.pooled = False
        worker.busy_until_h = shift.end_h
        worker.hours_worked += working_h
        heapq.heappush(self._busy, (shift.end_h, worker.id))
        return worker, shift.start_h - now_h, is_new_hire

    def simulate_hires(self, working_hours: list[int]) -> int:
        """How many fresh hires assigning shifts with these working hours in
        order would need, without touching the pool. Used to bound the
        cross-hub merge pass.

        A simulated assignment uses each pooled worker at most once, so a
        read-only cursor per bucket stands for the workers still unused."""
        if not self._pooled:
            return len(working_hours)
        cursors = [iter(q) for q in self._buckets]
        heads = [next(c, None) for c in cursors]
        hires = 0
        for working_h in working_hours:
            b = _oldest(heads, working_h)
            if b < 0:
                hires += 1
            else:
                heads[b] = next(cursors[b], None)
        return hires

    def release(self, worker: Worker, now_h: float) -> None:
        """Return a worker to the pool once the assigned shift has ended."""
        if worker.pooled:
            raise ValueError(f"worker {worker.id} is not assigned")
        if now_h < worker.busy_until_h:
            raise ValueError(f"worker {worker.id} is busy until h={worker.busy_until_h}")
        worker.pooled = True
        budget = math.floor(self.daily_cap_h - worker.hours_worked)
        if budget >= 0:  # a worker hired past the cap never fits again
            self._buckets[budget].append((self._released, worker.id))
        self._released += 1
        self._pooled += 1

    def release_finished(self, now_h: float) -> list[Worker]:
        """Release every busy worker whose shift has ended by now, in
        worker-id order."""
        busy = self._busy
        ids = set()
        while busy and busy[0][0] <= now_h:
            ids.add(heapq.heappop(busy)[1])
        workers = self.workers
        # an entry is stale if its worker was released by a direct call
        done = [w for w in (workers[i] for i in sorted(ids)) if not w.pooled and w.busy_until_h <= now_h]
        for w in done:
            self.release(w, now_h)
        return done

    @property
    def pooled(self) -> int:
        return self._pooled

    @property
    def hires(self) -> int:
        return len(self.workers)
