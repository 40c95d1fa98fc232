"""Workforce pool: FIFO assignment, hiring, release rules."""

import random

import pytest

from hubroster.pool import ASSIGNED, IN_POOL, RELEASED_FOR_DAY, WorkforcePool
from hubroster.shifts import Segment, Shift
from reference_pool import ScanPool


def _shift(start, working, hub=0):
    return Shift([Segment(hub, start, start + working, "working")])


def test_assign_reuses_idle_worker():
    pool = WorkforcePool(daily_cap_h=8)
    w, lead, new = pool.assign(_shift(2, 3), 0, shift_id=0)
    assert new and lead == 2
    pool.release(w, 5)
    w2, lead2, new2 = pool.assign(_shift(10, 3), 5, shift_id=1)
    assert w2.id == w.id and not new2 and lead2 == 5
    assert pool.hires == 1  # reassignment costs no second hire


def test_assign_hires_on_empty_pool():
    pool = WorkforcePool(daily_cap_h=8)
    w, lead, new = pool.assign(_shift(1, 2), 0.5, shift_id=0)
    assert new and lead == 0.5
    assert pool.hires == 1


def test_sequential_assigns_use_distinct_workers():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(2, 3), 0, shift_id=0)
    b, _, _ = pool.assign(_shift(2, 3), 0, shift_id=1)
    assert a.id != b.id


def test_fifo_longest_idle_first():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(1, 2), 0, shift_id=0)
    b, _, _ = pool.assign(_shift(2, 2), 0, shift_id=1)
    pool.release(a, 3)
    pool.release(b, 4)
    c, _, _ = pool.assign(_shift(6, 2), 4, shift_id=2)
    assert c.id == a.id  # released first, longest idle


def test_daily_hours_cap_forces_new_hire():
    pool = WorkforcePool(daily_cap_h=8)
    w, _, _ = pool.assign(_shift(0, 6), 0, shift_id=0)
    pool.release(w, 6)
    w2, _, new = pool.assign(_shift(7, 4), 6, shift_id=1)
    assert new and w2.id != w.id  # 6 + 4 would breach the cap
    w3, _, new3 = pool.assign(_shift(7, 2), 6, shift_id=2)
    assert not new3 and w3.id == w.id  # 6 + 2 fits


def test_release_contract_violations():
    pool = WorkforcePool(daily_cap_h=8)
    w, _, _ = pool.assign(_shift(0, 4), 0, shift_id=0)
    with pytest.raises(ValueError):
        pool.release(w, 3)  # before shift end
    pool.release(w, 4)
    with pytest.raises(ValueError):
        pool.release(w, 5)  # already pooled


def test_release_finished_and_states():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(0, 2), 0, shift_id=0)
    b, _, _ = pool.assign(_shift(0, 5), 0, shift_id=1)
    done = pool.release_finished(3)
    assert [w.id for w in done] == [a.id]
    assert a.state == IN_POOL and b.state == ASSIGNED
    pool.end_of_day()
    assert all(w.state == RELEASED_FOR_DAY for w in pool.workers)


def test_accounting_identity():
    pool = WorkforcePool(daily_cap_h=8)
    shifts = [_shift(t, 2) for t in (0, 0, 1, 5, 6)]
    for i, s in enumerate(shifts):
        pool.release_finished(s.start_h)
        pool.assign(s, s.start_h, shift_id=i)
    assert pool.hires == len(pool.workers)
    assert pool.pooled + pool.assigned == len(pool.workers)


def test_assign_rejects_past_start():
    pool = WorkforcePool(daily_cap_h=8)
    with pytest.raises(ValueError):
        pool.assign(_shift(1, 2), 2, shift_id=0)


def _random_shift(rng, start, cap):
    """A shift starting at ``start`` whose working hours are 1..cap+1, split
    around an optional rest; cap+1 hours is a hire no pooled worker fits."""
    working = rng.choice([rng.randint(1, int(cap)), int(cap), int(cap) + 1])
    if working > 1 and rng.random() < 0.4:
        first = rng.randint(1, working - 1)
        rest = rng.randint(1, 3)
        return Shift([
            Segment(0, start, start + first, "working"),
            Segment(0, start + first, start + first + rest, "resting"),
            Segment(0, start + first + rest, start + working + rest, "working"),
        ])
    return _shift(start, working)


def test_bucketed_pool_matches_linear_scan():
    rng = random.Random(20260)
    exhausted = 0
    for _ in range(1200):
        cap = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 7.5, 8.5])
        fast, ref = WorkforcePool(daily_cap_h=cap), ScanPool(daily_cap_h=cap)
        shift_id = 0
        for now in range(0, 24, rng.choice([1, 1, 2, 3])):
            assert [w.id for w in fast.release_finished(now)] == [
                w.id for w in ref.release_finished(now)
            ]
            assert fast.pooled == ref.pooled
            batch = [_random_shift(rng, now + rng.randint(0, 2), cap) for _ in range(rng.randint(0, 6))]
            assert fast.simulate_hires([s.working_h for s in batch]) == ref.simulate_hires(batch)
            for s in batch:
                wf, lead_f, new_f = fast.assign(s, now, shift_id)
                wr, lead_r, new_r = ref.assign(s, now, shift_id)
                assert (wf.id, lead_f, new_f) == (wr.id, lead_r, new_r)
                exhausted += not new_f and wf.hours_worked == cap
                shift_id += 1
            assert fast.hires == ref.hires
        fast.end_of_day()
        ref.end_of_day()
        assert fast.pooled == ref.pooled == 0
    assert exhausted > 1000  # reuses that use up the rest of a budget were exercised


def test_simulate_hires_equals_hires_of_assigning_in_order():
    rng = random.Random(7)
    for _ in range(300):
        pool = WorkforcePool(daily_cap_h=8)
        for now in range(0, 12, 2):
            pool.release_finished(now)
            for _ in range(rng.randint(0, 5)):
                pool.assign(_random_shift(rng, now, 8), now, shift_id=0)
        pool.release_finished(12)
        batch = [_random_shift(rng, 12, 8) for _ in range(rng.randint(1, 10))]
        predicted = pool.simulate_hires([s.working_h for s in batch])
        before = pool.hires
        for i, s in enumerate(batch):
            pool.assign(s, 12, shift_id=i)
        assert predicted == pool.hires - before
