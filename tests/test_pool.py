"""Workforce pool: FIFO assignment, hiring, release rules."""

import itertools
import random

import pytest

from hubroster.pool import WorkforcePool
from hubroster.shifts import Segment, Shift
from reference_pool import ScanPool


def _shift(start, working, hub=0):
    return Shift([Segment(hub, start, start + working, "working")])


def test_assign_reuses_idle_worker():
    pool = WorkforcePool(daily_cap_h=8)
    w, lead, new = pool.assign(_shift(2, 3), 0)
    assert new and lead == 2
    assert pool.release_finished(5) == [w]
    w2, lead2, new2 = pool.assign(_shift(10, 3), 5)
    assert w2 == w and not new2 and lead2 == 5
    assert pool.hires == 1  # reassignment costs no second hire


def test_assign_hires_on_empty_pool():
    pool = WorkforcePool(daily_cap_h=8)
    w, lead, new = pool.assign(_shift(1, 2), 0.5)
    assert new and lead == 0.5
    assert pool.hires == 1


def test_sequential_assigns_use_distinct_workers():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(2, 3), 0)
    b, _, _ = pool.assign(_shift(2, 3), 0)
    assert a != b


def test_fifo_longest_idle_first():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(1, 2), 0)
    b, _, _ = pool.assign(_shift(2, 2), 0)
    assert pool.release_finished(3) == [a]
    assert pool.release_finished(4) == [b]
    c, _, _ = pool.assign(_shift(6, 2), 4)
    assert c == a  # released first, longest idle


def test_daily_hours_cap_forces_new_hire():
    pool = WorkforcePool(daily_cap_h=8)
    w, _, _ = pool.assign(_shift(0, 6), 0)
    assert pool.release_finished(6) == [w]
    w2, _, new = pool.assign(_shift(7, 4), 6)
    assert new and w2 != w  # 6 + 4 would breach the cap
    w3, _, new3 = pool.assign(_shift(7, 2), 6)
    assert not new3 and w3 == w  # 6 + 2 fits


def test_release_contract_violations():
    pool = WorkforcePool(daily_cap_h=8)
    w, _, _ = pool.assign(_shift(0, 4), 0)
    assert pool.release_finished(3) == [] and pool.pooled == 0  # before shift end: still busy
    assert pool.release_finished(4) == [w] and pool.pooled == 1
    assert pool.release_finished(5) == [] and pool.pooled == 1  # already pooled: not released again


def test_release_finished_and_states():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(0, 2), 0)
    b, _, _ = pool.assign(_shift(0, 5), 0)
    assert pool.pooled == 0
    assert pool.release_finished(3) == [a]
    assert pool.pooled == 1
    assert pool.release_finished(5) == [b]
    assert pool.pooled == 2
    c, _, new = pool.assign(_shift(6, 2), 5)
    assert c == a and not new and pool.pooled == 1
    assert pool.release_finished(8) == [a] and pool.pooled == 2


def test_release_finished_waits_for_a_reassigned_workers_new_end():
    pool = WorkforcePool(daily_cap_h=8)
    a, _, _ = pool.assign(_shift(0, 2), 0)
    b, _, _ = pool.assign(_shift(0, 2), 0)
    assert pool.release_finished(2) == [a, b]
    again, _, new = pool.assign(_shift(2, 3), 2)  # a's second shift, ending at 5
    assert again == a and not new
    assert pool.release_finished(3) == [] and pool.pooled == 1  # only b is pooled
    assert pool.release_finished(5) == [a] and pool.pooled == 2


def test_accounting_identity():
    pool = WorkforcePool(daily_cap_h=8)
    shifts = [_shift(t, 2) for t in (0, 0, 1, 5, 6)]
    busy = set()  # ids assigned and not released since
    for s in shifts:
        released = pool.release_finished(s.start_h)
        assert set(released) <= busy
        busy.difference_update(released)
        worker, _, _ = pool.assign(s, s.start_h)
        assert worker not in busy
        busy.add(worker)
    assert pool.pooled + len(busy) == pool.hires == 3


def test_assign_rejects_past_start():
    pool = WorkforcePool(daily_cap_h=8)
    with pytest.raises(ValueError):
        pool.assign(_shift(1, 2), 2)


def test_assign_and_hire_count_reject_a_shift_without_working_hours():
    # every pick asks for at least one hour, so a worker with less left is
    # never queued; a rest-only shift is the one input that could ask for less
    pool = WorkforcePool(daily_cap_h=8)
    w, _, _ = pool.assign(_shift(0, 8), 0)
    assert pool.release_finished(8) == [w]
    with pytest.raises(ValueError, match="no working hours"):
        pool.assign(Shift([Segment(0, 9, 11, "resting")]), 8)
    with pytest.raises(ValueError, match="no working hours"):
        pool.simulate_hires([2, 0])
    assert (pool.pooled, pool.hires) == (1, 1)


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
    exhausted = out_of_order = 0
    for _ in range(1200):
        cap = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 7.5, 8.5])
        fast, ref = WorkforcePool(daily_cap_h=cap), ScanPool(daily_cap_h=cap)
        assigned = {}  # worker id -> when the worker's last shift was assigned
        busy = set()  # ids assigned and not released since
        order = itertools.count()
        for now in range(0, 24, rng.choice([1, 1, 2, 3])):
            released = fast.release_finished(now)
            assert released == ref.release_finished(now)
            assert set(released) <= busy
            busy.difference_update(released)
            # released together in id order, though assigned in another order
            out_of_order += [assigned[i] for i in released] != sorted(assigned[i] for i in released)
            assert fast.pooled == ref.pooled
            assert busy == ref.busy
            queued = [w for q in fast._buckets for _seq, w in q]
            assert all(cap - fast.hours[w] >= 1 for w in queued)
            if rng.random() < 0.3:  # shifts that all end together
                end = now + rng.randint(1, 4)
                batch = [_shift(end - w, w) for w in (rng.randint(1, end - now) for _ in range(rng.randint(2, 6)))]
            else:
                batch = [_random_shift(rng, now + rng.randint(0, 2), cap) for _ in range(rng.randint(0, 6))]
            assert fast.simulate_hires([s.working_h for s in batch]) == ref.simulate_hires(batch)
            for s in batch:
                wf, lead_f, new_f = fast.assign(s, now)
                wr, lead_r, new_r = ref.assign(s, now)
                assert (wf, lead_f, new_f) == (wr, lead_r, new_r)
                busy.add(wf)
                assigned[wf] = next(order)
                exhausted += not new_f and fast.hours[wf] == cap
            assert fast.hires == ref.hires
        assert fast.release_finished(99) == ref.release_finished(99) == sorted(busy)
        assert fast.pooled == ref.pooled == fast.hires
    assert exhausted > 1000  # reuses that use up the rest of a budget were exercised
    assert out_of_order > 500, out_of_order


def test_simulate_hires_equals_hires_of_assigning_in_order():
    rng = random.Random(7)
    for _ in range(300):
        pool = WorkforcePool(daily_cap_h=8)
        for now in range(0, 12, 2):
            pool.release_finished(now)
            for _ in range(rng.randint(0, 5)):
                pool.assign(_random_shift(rng, now, 8), now)
        pool.release_finished(12)
        assert pool.simulate_hires([]) == 0
        batch = [_random_shift(rng, 12, 8) for _ in range(rng.randint(1, 10))]
        predicted = pool.simulate_hires([s.working_h for s in batch])
        before = pool.hires
        for s in batch:
            pool.assign(s, 12)
        assert predicted == pool.hires - before


def test_simulate_hires_leaves_the_pool_untouched():
    rng = random.Random(11)
    for _ in range(200):
        cap = rng.choice([4, 8, 8.5])
        probed, twin = WorkforcePool(daily_cap_h=cap), WorkforcePool(daily_cap_h=cap)
        for now in range(0, 16, 2):
            released = probed.release_finished(now)
            assert released == twin.release_finished(now)
            batch = [_random_shift(rng, now + rng.randint(0, 2), cap) for _ in range(rng.randint(0, 6))]
            probed.simulate_hires([s.working_h for s in batch])  # called on one twin only
            for s in batch:
                assert probed.assign(s, now) == twin.assign(s, now)
            assert probed.pooled == twin.pooled and probed.hours == twin.hours
        assert probed.release_finished(99) == twin.release_finished(99)
