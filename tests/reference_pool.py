"""Linear-scan workforce pool: the reference the bucketed pool must match.

One queue of pooled worker ids in release order; assignment takes the first
worker whose hours still fit the cap, so every call scans the queue. It
keeps its own hours per worker id, its own set of busy workers and their
shift ends, so it stays independent of the pool under test.
"""

from __future__ import annotations

from collections import deque


class ScanPool:
    def __init__(self, daily_cap_h: float):
        self.daily_cap_h = daily_cap_h
        self.hours_worked: list[float] = []  # per worker id
        self._queue: deque[int] = deque()  # pooled worker ids, longest idle first
        self.busy: set[int] = set()  # ids of the workers whose shift runs
        self.busy_until: dict[int, float] = {}  # worker id -> end of its last shift

    def assign(self, shift, now_h: float):
        if shift.start_h < now_h:
            raise ValueError("cannot assign a shift that starts in the past")
        worker = None
        for idx, wid in enumerate(self._queue):
            if self.hours_worked[wid] + shift.working_h <= self.daily_cap_h:
                del self._queue[idx]
                worker = wid
                break
        is_new_hire = worker is None
        if is_new_hire:
            worker = len(self.hours_worked)
            self.hours_worked.append(0.0)
        self.busy.add(worker)
        self.busy_until[worker] = shift.end_h
        self.hours_worked[worker] += shift.working_h
        return worker, shift.start_h - now_h, is_new_hire

    def simulate_hires(self, shifts) -> int:
        budgets = {wid: self.daily_cap_h - self.hours_worked[wid] for wid in self._queue}
        order = list(self._queue)
        hires = 0
        for shift in shifts:
            for idx, wid in enumerate(order):
                if budgets[wid] >= shift.working_h:
                    budgets[wid] -= shift.working_h
                    del order[idx]
                    break
            else:
                hires += 1
        return hires

    def release(self, worker: int, now_h: float) -> None:
        if worker not in self.busy:
            raise ValueError(f"worker {worker} is not assigned")
        if now_h < self.busy_until[worker]:
            raise ValueError(f"worker {worker} is busy until h={self.busy_until[worker]}")
        self.busy.remove(worker)
        self._queue.append(worker)

    def release_finished(self, now_h: float) -> list[int]:
        done = sorted(wid for wid in self.busy if self.busy_until[wid] <= now_h)
        for wid in done:
            self.release(wid, now_h)
        return done

    @property
    def pooled(self) -> int:
        return len(self._queue)

    @property
    def hires(self) -> int:
        return len(self.hours_worked)
