"""Shift construction: maximal runs, dwell smoothing, greedy cross-hub merge."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import reference_kernels
from hubroster import _kernels as kernels
from hubroster._kernels import _trial
from hubroster.config import ScenarioParams
from hubroster.engine import RollingEngine, ScenarioConfig
from hubroster.ledger import HIRING_PER_DAY, MOVING_FAR, MOVING_NEAR, MOVING_TIER_M, moving_payment
from hubroster.network import Hub, HubNetwork, build_moving_pairs
from hubroster.shifts import Segment, Shift, combine_within_hub_detail, merge_across_hubs
from oracle_enum import min_workers_single_hub, min_workers_two_hub
from shift_checks import validate_shift

RHO = 8


def _has_move(shift):
    return any(shift.moves())


def _runs(x, dwell):
    return combine_within_hub_detail(x, dwell, RHO)[0]


def _residual(x, cap, dwell):
    """The FIFO residual kernel on one hub's row, walked from slot 0."""
    cleared = np.zeros((1, len(x)), np.int64)
    return kernels.fifo_match_units(np.array([x]), np.array([cap]), dwell, 0, cleared)[0].tolist()


def _merge(runs_by_hub, pairs):
    """merge_across_hubs of each hub's ``(start, end)`` runs as one-hub
    working shifts; every pair within the 3000 m radius pays 10 Yuan to
    move, under the 50-Yuan hire, so every pair is eligible."""
    runs = sorted((s, h, e) for h, hub_runs in runs_by_hub.items() for s, e in hub_runs)
    shifts = [Shift([Segment(h, s, e, "working")]) for s, h, e in runs]
    return merge_across_hubs(shifts, pairs, RHO, 2)


def _two_hub_net(dist_m, d_max_m=3000, speed=15000):
    net = HubNetwork(
        [Hub(0, "A", 0, 0, "local"), Hub(1, "B", dist_m, 0, "local")],
        d_max_m=d_max_m,
        speed_m_per_h=speed,
    )
    return net, build_moving_pairs(net)


# ---------------------------------------------------------------- max runs


def test_part1_runs_hand_trace():
    assert reference_kernels.part1_runs([2, 1, 0, 1], RHO) == [(0, 2), (0, 1), (3, 4)]


def test_part1_runs_empty():
    assert reference_kernels.part1_runs([0, 0, 0], RHO) == []


def test_part1_runs_length_cap():
    assert reference_kernels.part1_runs([1] * 10, RHO) == [(0, 8), (8, 10)]


def test_part1_runs_conserves_demand():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = [int(v) for v in rng.integers(0, 5, int(rng.integers(1, 30)))]
        runs = reference_kernels.part1_runs(x, RHO)
        assert sum(e - s for s, e in runs) == sum(x)
        assert all(0 < e - s <= RHO for s, e in runs)


def test_combine_rejects_negative_demand():
    with pytest.raises(ValueError):
        combine_within_hub_detail([1, -1], 1, RHO)


def test_combine_rejects_negative_dwell():
    with pytest.raises(ValueError, match="dwell_h must be >= 0"):
        combine_within_hub_detail([1, 1], -1, RHO)


def test_combine_leaves_its_row_unchanged():
    # full-length runs, shorter runs, expired units and a stop all touch the row's units
    values = [3, 0, 2, 5, 5, 5, 5, 5, 5, 5, 5, 1, 0, 4, 2, 0, 0, 1]
    expected = combine_within_hub_detail(list(values), 1, RHO, 2, 15)
    assert expected[0] and expected[2] and any(expected[1])
    for row in (list(values), tuple(values), np.array(values, dtype=np.int64)):
        runs, left, dropped = combine_within_hub_detail(row, 1, RHO, 2, 15)
        assert list(row) == values
        assert (runs, list(left), dropped) == expected
        assert left is not row


# ---------------------------------------------------------- within-hub mix


def test_combine_bridges_gap_into_one_shift():
    # one unit per slot at 0, 1 and 3: deferring by <= 1 slot yields a single
    # contiguous 3-hour shift with no resting
    [(start, end)] = _runs([1, 1, 0, 1], 1)
    assert end - start == 3


def test_combine_cannot_bridge_two_slot_gap():
    assert _runs([1, 0, 0, 1], 1) == [(0, 1), (3, 4)]


def test_combine_extracts_full_shifts_first():
    assert _runs([1] * 9, 1) == [(0, 8), (8, 9)]


def test_combine_smooths_peak_into_valley():
    # the second unit at slot 0 defers into the empty slot, one worker total
    [(start, end)] = _runs([2, 0, 1], 1)
    assert end - start == 3


def test_combine_dwell_zero_equals_max_shifts():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = [int(v) for v in rng.integers(0, 4, 12)]
        assert _runs(x, 0) == sorted(reference_kernels.part1_runs(x, RHO))


def test_combine_conservation_dwell_bound_and_cap():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        x = [int(v) for v in rng.integers(0, 4, n)]
        dwell = int(rng.integers(0, 4))
        runs, left, dropped = combine_within_hub_detail(x, dwell, RHO)
        assert dropped == []
        assert left == [0] * n
        assert sum(e - s for s, e in runs) + sum(left) == sum(x)
        # the runs' capacity serves every unit within its dwell window
        cap = [0] * n
        for s, e in runs:
            for t in range(s, e):
                cap[t] += 1
        assert _residual(x, cap, dwell) == [0] * n
        assert runs == sorted(runs)
        for s, e in runs:
            assert 0 < e - s <= RHO


def test_combine_beats_plain_extraction_on_unit_demand():
    # with at most one unit per slot the smoothing pass never fragments worse
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = [int(v) for v in rng.integers(0, 2, 16)]
        dwell = int(rng.integers(0, 3))
        assert len(_runs(x, dwell)) <= len(reference_kernels.part1_runs(x, RHO))


def test_combine_reduces_shift_count_overall():
    # multiplicity corner cases may cost a shift; the suite-wide net must win
    rng = np.random.default_rng(3)
    delta = 0
    for _ in range(500):
        x = [int(v) for v in rng.integers(0, 3, 16)]
        delta += len(_runs(x, 1)) - len(reference_kernels.part1_runs(x, RHO))
    assert delta < -1000


def test_combine_deterministic():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = [int(v) for v in rng.integers(0, 4, 20)]
        assert combine_within_hub_detail(x, 2, RHO) == combine_within_hub_detail(x, 2, RHO)


def _edf_trial_run(avail, t0, dwell, max_run, n):
    """Literal earliest-deadline scan: each slot serves the open origin with
    the smallest deadline min(s + dwell, n - 1), ties to the freshest origin.
    Also returns how many picks broke a tie."""
    left = list(avail)
    out, ties = [], 0
    for t in range(t0, min(n, t0 + max_run)):
        deadline = {s: min(s + dwell, n - 1) for s in range(max(0, t - dwell), t + 1) if left[s] > 0}
        if not deadline:
            break
        best = min(deadline.values())
        tied = [s for s, dl in deadline.items() if dl == best]
        ties += len(tied) > 1
        left[max(tied)] -= 1
        out.append((max(tied), t))
    return out, ties


def test_trial_run_matches_earliest_deadline_scan():
    # short horizons and long dwell windows make many origins clamp their
    # deadline at the horizon end, where only the tie rule decides the pick
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(4000):
        n = int(rng.integers(1, 14))
        avail = [int(v) for v in rng.integers(0, 3, n)]
        dwell = int(rng.integers(0, 6))
        max_run = int(rng.integers(1, 9))
        t0 = int(rng.integers(0, n))
        expected, k = _edf_trial_run(avail, t0, dwell, max_run, n)
        row = list(avail)
        assert _trial(avail, t0, dwell, max_run, n) == [origin for origin, _slot in expected]
        assert avail == row
        ties += k
    assert ties > 500


def _counting(fn, calls):
    """Count the calls of a trial function, which must leave its row unchanged."""

    def wrapper(avail, *args):
        calls[0] += 1
        row = list(avail)
        picks = fn(avail, *args)
        assert avail == row
        return picks

    return wrapper


def _left_of(x, served, dropped):
    """The units per origin that no served entry and no drop accounts for."""
    left = list(x)
    for origin, _slot, count in served:
        left[origin] -= count
    for origin, count in dropped:
        left[origin] -= count
    return left


def test_within_hub_runs_matches_full_scan(monkeypatch):
    # the start search ends at the first full-length run; the full scan tries
    # every start of the window, so fewer trials show the early exit fired.
    # Half the cases cut the search at a stop, so left holds units.
    new_calls, ref_calls = [0], [0]
    monkeypatch.setattr(kernels, "_trial", _counting(_trial, new_calls))
    monkeypatch.setattr(
        reference_kernels, "_trial_run", _counting(reference_kernels._trial_run, ref_calls)
    )
    rng = np.random.default_rng(6)
    stops = np.random.default_rng(16)  # its own stream keeps rng's cases as they were
    early = cut = 0
    for _ in range(3000):
        n = int(rng.integers(1, 30))
        x = [int(v) for v in rng.integers(0, 4, n)]
        dwell = int(rng.integers(0, 5))
        max_run = int(rng.integers(1, 9))
        start_min = int(rng.integers(0, 4))
        stop = int(stops.integers(start_min + 1, n + 4)) if stops.random() < 0.5 else None
        new_calls[0] = ref_calls[0] = 0
        runs, left, dropped = kernels.within_hub_runs(x, dwell, max_run, start_min, stop)
        ref_runs, ref_served, ref_dropped = reference_kernels.within_hub_runs(
            x, dwell, max_run, start_min, stop
        )
        assert (runs, dropped) == (ref_runs, ref_dropped)
        assert left == _left_of(x, ref_served, ref_dropped)
        early += new_calls[0] < ref_calls[0]
        cut += any(left)
    assert early > 1000 and cut > 500


def _early_exit_trials(trials, max_run):
    """The trials a start search that ends only at the first full-length run
    makes, given the reference's ``(row, start, length)`` trials in order. A
    window's trials all see the same row, and each window takes units off
    it (or drops them), so a changed row starts the next window."""
    count = 0
    window = None
    for row, _t0, length in trials:
        if row != window:
            window, done = row, False
        if not done:
            count += 1
            done = length == max_run
    return count


def test_within_hub_runs_trial_bounds_match_full_scan(monkeypatch):
    # short rows and long dwell windows, so windows clamp at the horizon end
    # and one window's starts come back in the next. A start whose last trial
    # is no longer than the window's best run is not tried again: the runs
    # stay the full scan's, and the bounds save trials on many rows
    new_calls = [0]
    monkeypatch.setattr(kernels, "_trial", _counting(_trial, new_calls))
    trials = []
    ref_trial = reference_kernels._trial_run

    def recording(avail, t0, *args):
        out = ref_trial(avail, t0, *args)
        trials.append((tuple(avail), t0, len(out)))
        return out

    monkeypatch.setattr(reference_kernels, "_trial_run", recording)
    rng = np.random.default_rng(23)
    rows = cut = 0
    for _ in range(4000):
        n = int(rng.integers(1, 15))
        x = [int(v) for v in rng.integers(0, 4, n)]
        dwell = int(rng.integers(0, 10))
        max_run = int(rng.integers(1, 10))
        start_min = int(rng.integers(0, n + 1))
        stop = int(rng.integers(start_min + 1, n + 3)) if rng.random() < 0.5 else None
        new_calls[0] = 0
        trials.clear()
        runs, left, dropped = kernels.within_hub_runs(x, dwell, max_run, start_min, stop)
        ref_runs, ref_served, ref_dropped = reference_kernels.within_hub_runs(
            x, dwell, max_run, start_min, stop
        )
        assert (runs, dropped) == (ref_runs, ref_dropped)
        assert left == _left_of(x, ref_served, ref_dropped)
        early = _early_exit_trials(trials, max_run)
        assert new_calls[0] <= early
        rows += early > 0
        cut += new_calls[0] < early
    assert cut > 0.2 * rows, (cut, rows)


def test_within_hub_runs_emits_repeated_runs_at_once(monkeypatch):
    # rows of 5-40 units per slot leave several units per origin after the
    # full-length runs, so the same shorter run repeats. Fewer trials than
    # runs left to the one-run-at-a-time phase (each of its searches tries
    # at least one start) show that many runs were emitted more than once
    # per search; runs, left and drops stay the full scan's
    calls = [0]
    monkeypatch.setattr(kernels, "_trial", _counting(_trial, calls))
    rng = np.random.default_rng(37)
    repeated = 0
    for _ in range(1500):
        n = int(rng.integers(1, 30))
        x = [int(v) for v in rng.integers(5, 41, n)]
        dwell = int(rng.integers(0, 4))
        max_run = int(rng.integers(1, 9))
        start_min = int(rng.integers(0, n + 1))
        stop = int(rng.integers(start_min + 1, n + 3)) if rng.random() < 0.5 else None
        calls[0] = 0
        runs, left, dropped = kernels.within_hub_runs(x, dwell, max_run, start_min, stop)
        ref_runs, ref_served, ref_dropped = reference_kernels.within_hub_runs(
            x, dwell, max_run, start_min, stop
        )
        assert (runs, dropped) == (ref_runs, ref_dropped)
        assert left == _left_of(x, ref_served, ref_dropped)
        level = [r for r in reference_kernels.part1_runs(x, max_run, start_min) if r[1] - r[0] == max_run]
        repeated += calls[0] < len(ref_runs) - len(level)
    assert repeated > 500, repeated


def _sorted_runs(rng, n_runs, horizon):
    runs = []
    for _ in range(n_runs):
        s = int(rng.integers(0, horizon))
        runs.append((s, s + int(rng.integers(1, 9))))
    return sorted(runs)


def test_merge_runs_matches_all_pairs_scan():
    rng = np.random.default_rng(7)
    merged = 0
    for _ in range(3000):
        n_hubs = int(rng.integers(2, 5))
        horizon = int(rng.integers(4, 25))
        runs_by_hub = [_sorted_runs(rng, int(rng.integers(0, 12)), horizon) for _ in range(n_hubs)]
        pairs = [
            (int(a), int(b), float(rng.choice([0.0, 1.0, rng.uniform(0, 3)])))
            for a, b in (rng.choice(n_hubs, 2, replace=False) for _ in range(int(rng.integers(1, 6))))
        ]
        max_work = int(rng.integers(1, 13))
        max_gap = int(rng.integers(0, 4))
        max_merges = int(rng.choice([-1, 0, 1, 3, 100]))
        got = kernels.merge_runs(runs_by_hub, pairs, max_work, max_gap, max_merges)
        assert got == reference_kernels.merge_runs(runs_by_hub, pairs, max_work, max_gap, max_merges)
        merged += len(got[0])
    assert merged > 2000


def test_combine_respects_start_min():
    runs, _left, dropped = combine_within_hub_detail([1, 1, 0, 0], 1, RHO, start_min=1)
    # slot-0 demand can still be served at slot 1; nothing starts before 1
    assert all(s >= 1 for s, _e in runs)
    assert sum(e - s for s, e in runs) + sum(c for _, c in dropped) == 2


def test_combine_drops_expired_units():
    _runs, _left, dropped = combine_within_hub_detail([1, 0, 0, 1], 1, RHO, start_min=3)
    assert dropped == [(0, 1)]


def test_within_hub_runs_stop_keeps_the_runs_and_drops_before_it():
    # the cut must return the full scan's runs that start before stop and
    # its drops; start_min reaches past the row's start so units do drop
    rng = np.random.default_rng(13)
    cut = drops = 0
    for _ in range(2000):
        n = int(rng.integers(1, 30))
        x = [int(v) for v in rng.integers(0, 4, n)]
        dwell = int(rng.integers(0, 4))
        max_run = int(rng.integers(1, 9))
        start_min = int(rng.integers(0, n + 1))
        stop = int(rng.integers(start_min + 1, n + 3))
        full, _served, full_dropped = reference_kernels.within_hub_runs(x, dwell, max_run, start_min)
        runs, left, dropped = kernels.within_hub_runs(x, dwell, max_run, start_min, stop)
        assert [r for r in runs if r[0] < stop] == [r for r in full if r[0] < stop]
        assert Counter(runs) <= Counter(full)
        assert dropped == full_dropped
        assert not any(left[:stop])
        cut += len(full) - len(runs)
        drops += bool(dropped)
    assert cut > 1000 and drops > 300


def test_within_hub_runs_matches_full_scan_on_gateway_rows():
    # engine-shaped rows: a day of 24-36 slots, a gateway's 0-60 units per
    # slot (some slots empty or light), a replan's start_min and a stop past
    # it. Many starts hold more than one full-length run.
    rng = np.random.default_rng(17)
    stacked = cut = 0
    for _ in range(300):
        n = int(rng.integers(24, 37))
        top = rng.choice([0, 4, 61], n, p=[0.15, 0.25, 0.6])
        x = [int(rng.integers(0, t)) if t else 0 for t in top]
        dwell = int(rng.integers(0, 7))
        max_run = int(rng.integers(4, 9))
        start_min = int(rng.integers(0, n))
        stop = int(rng.integers(start_min + 1, n + 2))
        runs, left, dropped = kernels.within_hub_runs(x, dwell, max_run, start_min, stop)
        ref_runs, ref_served, ref_dropped = reference_kernels.within_hub_runs(
            x, dwell, max_run, start_min, stop
        )
        assert (runs, dropped) == (ref_runs, ref_dropped)
        assert left == _left_of(x, ref_served, ref_dropped)
        full = Counter(r for r in runs if r[1] - r[0] == max_run)
        stacked += max(full.values(), default=0) > 1
        cut += any(left)
    assert stacked > 150 and cut > 150


# ------------------------------------------------------------ cross-hub mix


def test_merge_happy_path():
    _net, pairs = _two_hub_net(2000)
    out = _merge({0: [(0, 4)], 1: [(5, 9)]}, pairs)
    assert len(out) == 1
    merged = out[0]
    assert [(seg.kind, seg.hub_id) for seg in merged.segments] == [
        ("working", 0),
        ("travel", 1),
        ("working", 1),
    ]
    assert merged.working_h == 8
    assert merged.move_distance_m == 2000.0
    validate_shift(merged, RHO)


def test_merge_leaves_rest_for_long_gap():
    _net, pairs = _two_hub_net(2000)
    out = _merge({0: [(0, 4)], 1: [(6, 9)]}, pairs)
    assert len(out) == 1
    kinds = [seg.kind for seg in out[0].segments]
    assert kinds == ["working", "travel", "resting", "working"]
    assert out[0].resting_h == 1


def test_merge_rejects_overlap():
    _net, pairs = _two_hub_net(2000)
    out = _merge({0: [(0, 4)], 1: [(0, 4)]}, pairs)
    assert len(out) == 2 and not any(_has_move(s) for s in out)


def test_merge_rejects_hour_cap():
    _net, pairs = _two_hub_net(2000)
    out = _merge({0: [(0, 4)], 1: [(5, 11)]}, pairs)
    assert not any(_has_move(s) for s in out)


def test_merge_rejects_gap_beyond_max():
    _net, pairs = _two_hub_net(2000)
    out = _merge({0: [(0, 2)], 1: [(7, 9)]}, pairs)
    assert not any(_has_move(s) for s in out)


def test_merge_rejects_travel_longer_than_gap():
    # 2800 m at 2000 m/h is a 1.4 h trip; a 1 h gap cannot absorb it
    _net, pairs = _two_hub_net(2800, speed=2000)
    out = _merge({0: [(0, 4)], 1: [(5, 8)]}, pairs)
    assert not any(_has_move(s) for s in out)


def test_merge_requires_saving_over_hire():
    # a move at either distance tier costs less than a hire, so the engine
    # keeps every pair: scenario 1 merges over a near and a far pair, and
    # scenario 2 over neither
    assert max(MOVING_NEAR, MOVING_FAR) < HIRING_PER_DAY
    for distance in (2000, 4000):
        assert (moving_payment(distance) == MOVING_NEAR) == (distance <= MOVING_TIER_M)
        net, _pairs = _two_hub_net(distance, d_max_m=5000)
        for scenario, merged in ((1, True), (2, False)):
            cfg = ScenarioConfig(
                scenario,
                net,
                {h: [0] * 12 for h in (0, 1)},
                ScenarioParams(horizon_h=12),
            )
            runs = [(0, 0, 4), (5, 1, 9)]
            kept = [Shift([Segment(h, s, e, "working")]) for s, h, e in runs]
            out = RollingEngine(cfg)._fixed_shifts(kept)
            assert any(_has_move(s) for s in out) == merged, (distance, scenario)


def test_merge_never_increases_count_and_conserves_hours():
    rng = np.random.default_rng(5)
    for _ in range(100):
        net, pairs = _two_hub_net(int(rng.integers(500, 2900)))
        per_hub = {}
        for hub in (0, 1):
            x = [int(v) for v in rng.integers(0, 3, 12)]
            per_hub[hub] = _runs(x, 1)
        before = sum(len(v) for v in per_hub.values())
        hours = sum(e - s for v in per_hub.values() for s, e in v)
        out = _merge(per_hub, pairs)
        assert len(out) <= before
        assert sum(s.working_h for s in out) == hours
        for s in out:
            validate_shift(s, RHO)
            if _has_move(s):
                w1, w2 = [seg for seg in s.segments if seg.kind == "working"]
                rest = [seg for seg in s.segments if seg.kind == "resting"]
                assert s.working_h == w1.hours + w2.hours
                assert s.resting_h == sum(seg.hours for seg in rest)
                gap = w2.start_h - w1.end_h
                travel = next(p for p in pairs).travel_time_h
                assert travel <= gap <= 2
                assert s.working_h <= RHO
                assert s.move_distance_m <= net.d_max_m
                assert moving_payment(s.move_distance_m) < HIRING_PER_DAY


def test_merge_deterministic():
    rng = np.random.default_rng(6)
    for _ in range(30):
        _net, pairs = _two_hub_net(1500)
        per_hub = {
            0: _runs([int(v) for v in rng.integers(0, 3, 10)], 1),
            1: _runs([int(v) for v in rng.integers(0, 3, 10)], 1),
        }
        a = _merge(per_hub, pairs)
        b = _merge(per_hub, pairs)
        assert [(s.start_h, s.end_h) for s in a] == [(s.start_h, s.end_h) for s in b]


# ------------------------------------------------------- tiny-case optimum


def test_single_hub_heuristic_vs_exhaustive_spot():
    cases = [
        ([1, 1, 0, 1], 1),
        ([2, 0, 1], 1),
        ([1, 0, 0, 1], 1),
        ([2, 2, 1, 0, 1, 1], 1),
        ([1, 2, 0, 2, 0, 1], 2),
    ]
    for x, dwell in cases:
        got = len(_runs(x, dwell))
        assert got >= min_workers_single_hub(x, dwell, RHO)


def test_two_hub_heuristic_vs_exhaustive_spot():
    _net, pairs = _two_hub_net(2000)
    travel = pairs[0].travel_time_h
    xa, xb = [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]
    per_hub = {
        0: _runs(xa, 1),
        1: _runs(xb, 1),
    }
    out = _merge(per_hub, pairs)
    best = min_workers_two_hub(xa, xb, 1, RHO, travel, 2, merge_allowed=True)
    assert any(_has_move(s) for s in out)
    assert len(out) >= best


# ------------------------------------------------------------ shift checks


@pytest.mark.parametrize(
    "start, end, kind, message",
    [
        (3, 3, "working", "positive length"),
        (4, 2, "resting", "positive length"),
        (0, 2, "idle", "unknown segment kind 'idle'"),
    ],
    ids=["empty", "reversed", "kind"],
)
def test_segment_rejects_bad_fields(start, end, kind, message):
    with pytest.raises(ValueError, match=message):
        Segment(0, start, end, kind)


@pytest.mark.parametrize(
    "segments, message",
    [
        ([], "no segments"),
        ([Segment(0, 0, 2, "working"), Segment(0, 3, 5, "working")], "contiguous"),
        ([Segment(0, 0, 2, "resting")], "no working hours"),
        ([Segment(0, 0, 6, "working"), Segment(0, 6, 9, "working")], "working hours 9 exceed cap 8"),
        ([Segment(0, 0, 2, "working"), Segment(1, 2, 4, "working")], "hub change without a travel"),
    ],
    ids=["empty", "gap", "no-work", "cap", "no-travel"],
)
def test_validate_shift_rejects_each_breach(segments, message):
    with pytest.raises(ValueError, match=message):
        validate_shift(Shift(segments), RHO)


def test_shift_rejects_assignment():
    shift = Shift([Segment(0, 0, 2, "working")])
    assert shift.segments == (Segment(0, 0, 2, "working"),)
    for name, value in (
        ("segments", ()),
        ("move_distance_m", 1.0),
        ("working_h", 3),
        ("resting_h", 1),
        ("start_h", 1),
        ("end_h", 3),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shift, name, value)
    assert (shift.working_h, shift.resting_h, shift.move_distance_m) == (2, 0, 0.0)
    assert (shift.start_h, shift.end_h) == (0, 2)
    # the stored bounds follow from the segments: equality and hashing
    # read the same fields as before they were stored
    compared = [f.name for f in dataclasses.fields(Shift) if f.compare]
    assert compared == ["segments", "move_distance_m", "working_h", "resting_h"]
    assert Shift([Segment(0, 0, 2, "working")]) == shift
    assert hash(Shift([Segment(0, 0, 2, "working")])) == hash(shift)
    assert (Shift([]).start_h, Shift([]).end_h) == (0, 0)
    # engines on one plan share its segments too
    segment = shift.segments[0]
    for name, value in (("hub_id", 1), ("start_h", 1), ("end_h", 3), ("kind", "resting")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(segment, name, value)
    assert segment == Segment(0, 0, 2, "working")
