"""Linear-scan workforce pool: the reference the bucketed pool must match.

One queue of pooled worker ids in release order; assignment takes the first
worker whose hours still fit the cap, so every call scans the queue. It
keeps its own set of busy workers, their shift ends and its own hire count
instead of reading ``Worker.pooled``, so it stays independent of the pool
under test.
"""

from __future__ import annotations

from collections import deque

from hubroster.pool import Worker


class ScanPool:
    def __init__(self, daily_cap_h: float):
        self.daily_cap_h = daily_cap_h
        self.workers: list[Worker] = []
        self._queue: deque[int] = deque()  # pooled worker ids, longest idle first
        self.busy: set[int] = set()  # ids of the workers whose shift runs
        self.busy_until: dict[int, float] = {}  # worker id -> end of its last shift
        self.hires = 0

    def assign(self, shift, now_h: float):
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
        self.busy.add(worker.id)
        self.busy_until[worker.id] = shift.end_h
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
        if worker.id not in self.busy:
            raise ValueError(f"worker {worker.id} is not assigned")
        if now_h < self.busy_until[worker.id]:
            raise ValueError(f"worker {worker.id} is busy until h={self.busy_until[worker.id]}")
        self.busy.remove(worker.id)
        self._queue.append(worker.id)

    def release_finished(self, now_h: float):
        done = [w for w in self.workers if w.id in self.busy and self.busy_until[w.id] <= now_h]
        for w in done:
            self.release(w, now_h)
        return done

    @property
    def pooled(self) -> int:
        return len(self._queue)
