"""Linear-scan workforce pool: the reference the bucketed pool must match.

One queue of pooled worker ids in release order; assignment takes the first
worker whose hours still fit the cap, so every call scans the queue.
"""

from __future__ import annotations

from collections import deque

from hubroster.pool import ASSIGNED, IN_POOL, RELEASED_FOR_DAY, Worker


class ScanPool:
    def __init__(self, daily_cap_h: float):
        self.daily_cap_h = daily_cap_h
        self.workers: list[Worker] = []
        self._queue: deque[int] = deque()  # pooled worker ids, longest idle first
        self.hires = 0

    def assign(self, shift, now_h: float, shift_id: int):
        if shift.start_h < now_h:
            raise ValueError("cannot assign a shift that starts in the past")
        worker = None
        for idx, wid in enumerate(self._queue):
            cand = self.workers[wid]
            if cand.hours_worked + shift.working_h <= self.daily_cap_h:
                del self._queue[idx]
                worker = cand
                break
        is_new_hire = worker is None
        if is_new_hire:
            worker = Worker(id=len(self.workers))
            self.workers.append(worker)
            self.hires += 1
        worker.state = ASSIGNED
        worker.assigned_shift = shift_id
        worker.notified_at_h = now_h
        worker.busy_until_h = shift.end_h
        worker.hours_worked += shift.working_h
        return worker, shift.start_h - now_h, is_new_hire

    def simulate_hires(self, shifts) -> int:
        budgets = {wid: self.daily_cap_h - self.workers[wid].hours_worked for wid in self._queue}
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

    def release(self, worker: Worker, now_h: float) -> None:
        if worker.state != ASSIGNED:
            raise ValueError(f"worker {worker.id} is not assigned")
        if now_h < worker.busy_until_h:
            raise ValueError(f"worker {worker.id} is busy until h={worker.busy_until_h}")
        worker.state = IN_POOL
        worker.assigned_shift = None
        self._queue.append(worker.id)

    def release_finished(self, now_h: float):
        done = [w for w in self.workers if w.state == ASSIGNED and w.busy_until_h <= now_h]
        for w in done:
            self.release(w, now_h)
        return done

    def end_of_day(self) -> None:
        for w in self.workers:
            w.state = RELEASED_FOR_DAY
            w.assigned_shift = None
        self._queue.clear()

    @property
    def pooled(self) -> int:
        return len(self._queue)
