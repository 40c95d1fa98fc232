"""Centralized workforce pool: hiring, FIFO assignment, release.

Workers are pooled for the whole network. A worker is the index of its
hire, and the pool keeps the hours each one has worked today. Assignment
takes the longest-idle pooled worker whose daily working hours still fit
the cap, hiring a fresh worker when none qualifies (the labor market is
elastic; short notice is penalized downstream, not refused). The hiring
payment is due once per worker per day.

Pooled workers sit in one FIFO bucket per whole hour of remaining daily
budget, ``floor(daily_cap_h - hours)``, each entry tagged with a release
sequence number. A shift's working hours are whole slots, at least one, so
a worker fits it exactly when the worker's bucket is at least the shift's
working hours; the longest-idle fitting worker is the smallest-sequence
head among those buckets. That is the worker a scan of one release-ordered
queue would find first, but each pick looks at no more than
``floor(daily_cap_h)`` bucket heads instead of every pooled worker, most of
whom have used up their day. A worker without a whole hour left fits no
shift, so it counts as pooled but is never queued. One pick, ``_take``,
serves both ``assign`` (on the live buckets) and the hire budget
``simulate_hires`` (on a copy, so each pooled worker is used once). Busy
workers sit in a heap by shift end, so a release pops only the workers
whose shift has ended instead of walking every worker hired so far.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from .shifts import Shift


def _take(buckets: list[deque[tuple[int, int]]], need: int) -> int | None:
    """Pop the longest-idle worker among ``buckets[need:]`` (the
    smallest-sequence head) and return its id, or None if they are empty."""
    oldest = None
    for q in buckets[need:]:
        if q and (oldest is None or q[0] < oldest[0]):
            oldest = q
    return None if oldest is None else oldest.popleft()[1]


class WorkforcePool:
    """Single-writer pool driven by the engine's sequential step."""

    def __init__(self, daily_cap_h: float):
        self.daily_cap_h = daily_cap_h
        self.hours: list[int] = []  # hours worked today, per worker id
        # _buckets[b]: (release_seq, worker id) of the pooled workers with b
        # whole hours of budget left, longest idle first; _buckets[0] stays empty
        n_buckets = max(0, math.floor(daily_cap_h)) + 1
        self._buckets: list[deque[tuple[int, int]]] = [deque() for _ in range(n_buckets)]
        self._released = 0
        self._pooled = 0
        # (shift end, worker id) of each assignment, until release_finished pops it
        self._busy: list[tuple[float, int]] = []

    def assign(self, shift: Shift, now_h: float) -> tuple[int, float, bool]:
        """Assign a worker to a fixed shift.

        Returns (worker id, lead_time_h, is_new_hire). Reuses the
        longest-idle pooled worker whose daily hours allow the shift, else
        hires.
        """
        start_h = shift.start_h
        if start_h < now_h:
            raise ValueError("cannot assign a shift that starts in the past")
        working_h = shift.working_h
        if working_h < 1:
            raise ValueError("cannot assign a shift with no working hours")
        worker = _take(self._buckets, working_h) if self._pooled else None
        is_new_hire = worker is None
        if is_new_hire:
            worker = len(self.hours)
            self.hours.append(working_h)
        else:
            self._pooled -= 1
            self.hours[worker] += working_h
        heapq.heappush(self._busy, (shift.end_h, worker))
        return worker, start_h - now_h, is_new_hire

    def simulate_hires(self, working_hours: list[int]) -> int:
        """How many fresh hires assigning shifts with these working hours in
        order would need, without touching the pool. Used to bound the
        cross-hub merge pass."""
        if working_hours and min(working_hours) < 1:
            raise ValueError("cannot count hires for a shift with no working hours")
        if not self._pooled or not working_hours:
            return len(working_hours)
        buckets = [deque(q) for q in self._buckets]
        return sum(_take(buckets, working_h) is None for working_h in working_hours)

    def release_finished(self, now_h: float) -> list[int]:
        """Return to the pool every busy worker whose shift has ended by
        now; returns their ids in id order. Each busy worker has exactly one
        heap entry, pushed when it was assigned, so every popped entry is a
        release."""
        busy = self._busy
        ids = []
        while busy and busy[0][0] <= now_h:
            ids.append(heapq.heappop(busy)[1])
        ids.sort()
        for i in ids:
            budget = math.floor(self.daily_cap_h - self.hours[i])
            if budget > 0:  # a worker without a whole hour left never fits again
                self._buckets[budget].append((self._released, i))
            self._released += 1
        self._pooled += len(ids)
        return ids

    @property
    def pooled(self) -> int:
        return self._pooled

    @property
    def hires(self) -> int:
        return len(self.hours)
