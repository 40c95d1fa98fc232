"""Rolling engine: stepping, fixing, scenarios, execution replay."""

import csv
import dataclasses
import gc
import io
import math
import re
import weakref

import numpy as np
import pytest

from hubroster import _kernels as kernels
from hubroster import engine as engine_module
from hubroster import network as network_module
from hubroster.config import ScenarioParams
from hubroster.demand import (
    GeneratorConfig,
    generate_arrivals,
    write_arrivals_csv,
    write_forecast_csv,
)
from hubroster.engine import (
    RollingEngine,
    RollingPlan,
    RosterEntry,
    ScenarioConfig,
    SimReport,
    replay_execution,
    roster_tables,
    run_scenario,
    write_flows_csv,
    write_roster_csv,
    write_series_csv,
)
from hubroster.ledger import (
    CATEGORIES,
    HIRING_PER_DAY,
    LATENESS_PER_PARCEL,
    UNIT_PRICES,
    CostLedger,
    moving_payment,
    write_ledger_csv,
)
from hubroster.network import Hub, HubNetwork, build_moving_pairs, random_network
from hubroster.shifts import RESTING, TRAVEL, WORKING, Segment, Shift, merge_across_hubs
from hubroster.valuation import shift_value, should_fix
import reference_engine
import reference_merge
from reference_selection import fix_reach, with_weights
from shift_checks import validate_shift

RATE = 150


def _net(n_hubs=1, spread_m=2000.0):
    hubs = [Hub(i, f"H{i}", i * spread_m, 0.0, "local") for i in range(n_hubs)]
    return HubNetwork(hubs, d_max_m=3000, speed_m_per_h=15000)


def _cfg(net, rows, scenario=1, noise="perfect", **params):
    params.setdefault("horizon_h", len(next(iter(rows.values()))))
    actuals = {h: list(row) for h, row in rows.items()}
    return ScenarioConfig(scenario, net, actuals, ScenarioParams(**params), noise)


def _needed(rows):
    return sum(math.ceil(a / RATE) for row in rows.values() for a in row)


def _ledger(engine):
    """The ledger of the roster an engine has fixed so far."""
    return roster_tables(engine.roster, engine.hub_ids, engine.n)[0]


def test_zero_demand_is_noop():
    net = _net()
    report = run_scenario(_cfg(net, {0: [0] * 24}))
    assert report.roster == []
    assert report.ledger.total == 0
    assert report.late_parcels == 0


def test_forced_fix_books_emergency_tier():
    # demand only in the slot right after the first replan: forced fix, 1 h lead
    net = _net()
    rows = {0: [0, 150] + [0] * 22}
    engine = RollingEngine(_cfg(net, rows))
    engine.step()
    assert len(engine.roster) == 1
    entry = engine.roster[0]
    assert entry.lead_time_h == 1
    assert _ledger(engine).emergency == 15
    assert entry.shift.start_h == 1 and entry.shift.working_h == 1


def test_value_fix_happens_before_forced_window():
    # a full continuous shift 5 h out scores 0.92 >= 0.9 and fixes at step 0
    net = _net()
    rows = {0: [0] * 5 + [1200] * 8 + [0] * 11}
    engine = RollingEngine(_cfg(net, rows))
    engine.step()
    leads = {e.lead_time_h for e in engine.roster}
    assert leads == {5.0}
    assert _ledger(engine).emergency == 5 * len(engine.roster)


def test_low_value_shift_waits_for_forced_window():
    # a lone 1 h shift never reaches the threshold; it fixes one step ahead
    net = _net()
    rows = {0: [0] * 10 + [150] + [0] * 13}
    report = run_scenario(_cfg(net, rows))
    assert len(report.roster) == 1
    assert report.roster[0].lead_time_h == 1
    assert report.roster[0].fixed_at_h == 9.0


def test_perfect_prediction_zero_lateness_and_conservation():
    rng = np.random.default_rng(0)
    for seed in range(5):
        net = random_network(n_hubs=4, n_gateways=1, area_m=5000, seed=seed)
        rows = {
            h.id: [int(v) for v in rng.integers(0, 900, 24)] for h in net.hubs
        }
        for scenario in (1, 2, 3):
            report = run_scenario(_cfg(net, rows, scenario=scenario))
            assert report.late_parcels == 0
            got = sum(e.shift.working_h for e in report.roster)
            assert got == _needed(rows)


def test_per_hub_conservation_perfect():
    rng = np.random.default_rng(1)
    net = random_network(n_hubs=5, n_gateways=2, area_m=6000, seed=1)
    rows = {h.id: [int(v) for v in rng.integers(0, 600, 24)] for h in net.hubs}
    report = run_scenario(_cfg(net, rows))
    for hub in net.hubs:
        got = sum(
            seg.hours
            for e in report.roster
            for seg in e.shift.segments
            if seg.kind == "working" and seg.hub_id == hub.id
        )
        assert got == sum(math.ceil(a / RATE) for a in rows[hub.id])


def test_rolling_scenarios_zero_late_under_noise():
    # the last refresh before each slot sees the exact count, so rolling
    # scenarios always cover demand within the dwell window
    for seed in range(4):
        net = random_network(n_hubs=4, n_gateways=1, area_m=5000, seed=seed)
        prof = GeneratorConfig(daily_volume=40_000)
        rows = generate_arrivals(net, prof, seed)
        for scenario in (1, 2):
            report = run_scenario(_cfg(net, rows, scenario=scenario, noise="paper", seed=seed))
            assert report.late_parcels == 0


def test_scenario2_never_moves_workers():
    net = random_network(n_hubs=6, n_gateways=2, area_m=4000, seed=7)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 7)
    report = run_scenario(_cfg(net, rows, scenario=2, noise="paper", seed=7))
    assert report.ledger.moving == 0
    assert not any(any(e.shift.moves()) for e in report.roster)
    assert report.flows == {}


def test_scenario3_fixes_everything_at_day_start():
    net = _net()
    rows = {0: [150] * 6 + [0] * 6 + [150] * 6 + [0] * 6}
    report = run_scenario(_cfg(net, rows, scenario=3))
    assert all(e.fixed_at_h == 0.0 for e in report.roster)


def test_determinism_same_seed_same_report():
    net = random_network(n_hubs=5, n_gateways=2, area_m=5000, seed=11)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=50_000), 11)

    def run():
        rep = run_scenario(_cfg(net, rows, scenario=1, noise="paper", seed=11))
        roster = [
            (e.worker_id, e.lead_time_h, e.is_new_hire, tuple(
                (s.hub_id, s.start_h, s.end_h, s.kind) for s in e.shift.segments
            ))
            for e in rep.roster
        ]
        return roster, rep.ledger.to_dict()

    assert run() == run()


def test_noise_streams_differ_across_seeds():
    net = random_network(n_hubs=3, n_gateways=1, area_m=4000, seed=2)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=30_000), 2)
    a = run_scenario(_cfg(net, rows, noise="paper", seed=1)).ledger.to_dict()
    b = run_scenario(_cfg(net, rows, noise="paper", seed=2)).ledger.to_dict()
    assert a != b


# ------------------------------------------------------------------ replay


def test_replay_no_late_when_capacity_covers():
    assert kernels.fifo_replay([150, 150], [1, 1], 1, RATE) == 0
    assert replay_execution({0: [150, 150]}, {0: [1, 1]}, 1, RATE) == 0


def test_replay_all_late_when_capacity_too_late():
    arrivals = {0: [0, 0, 0, 150, 0, 0]}
    workers = {0: [0, 0, 0, 0, 0, 1]}
    late = replay_execution(arrivals, workers, 1, RATE)
    assert late == 150


def test_replay_dwell_window_service_is_on_time():
    # arrivals split across the dwell window with exactly matching deferred capacity
    arrivals = {0: [150, 150, 0]}
    workers = {0: [0, 1, 1]}
    late = replay_execution(arrivals, workers, 1, RATE)
    assert late == 0


def test_replay_unserved_past_deadline_counts_late():
    late = replay_execution({0: [100, 0, 0]}, {0: [0, 0, 0]}, 1, RATE)
    assert late == 100


def test_replay_unserved_with_deadline_beyond_horizon_rolls_over():
    late = replay_execution({0: [0, 0, 100]}, {0: [0, 0, 0]}, 1, RATE)
    assert late == 0  # deadline falls after the horizon: next day's problem


def test_engine_validates_config():
    net = _net(2)
    with pytest.raises(ValueError):
        run_scenario(_cfg(net, {0: [0] * 24}))  # missing hub 1
    with pytest.raises(ValueError):
        run_scenario(_cfg(net, {0: [0] * 10, 1: [0] * 24}))  # wrong length
    cfg = _cfg(net, {0: [0] * 24, 1: [0] * 24})
    cfg.noise = "sometimes"
    with pytest.raises(ValueError):
        run_scenario(cfg)


def test_engine_refuses_an_arrival_count_that_is_negative_or_not_an_integer():
    # a float count used to run: the plan's integer matrix truncated 150.5
    # to 150 while the replay read 150.5, so half a parcel was late
    net = _net(1)
    for count, message in (
        (-1, "hub 0: arrival counts must be non-negative"),
        (150.5, "hub 0 slot 3: arrival count must be an integer, got 150.5"),
        (150.0, "hub 0 slot 3: arrival count must be an integer, got 150.0"),
        (True, "hub 0 slot 3: arrival count must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_scenario(_cfg(net, {0: [0, 0, 0, count, 0, 0]}, scenario=2))
    # a numpy integer is a count
    rows = {0: [0, 0, 0, 150, 0, 0]}
    assert run_scenario(_cfg(net, {0: np.array(rows[0])})) == run_scenario(_cfg(net, rows))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dwell_h": -1}, "dwell_h must be >= 0, got -1"),
        ({"max_work_h": 0}, "max_work_h must be positive, got 0"),
        ({"work_rate": 0}, "work_rate must be positive, got 0"),
        ({"replan_min": 0}, "replan_min must be positive, got 0"),
        ({"horizon_h": 0}, "horizon_h must be >= 1, got 0"),
        ({"max_gap_h": -1}, "max_gap_h must be >= 0, got -1"),
        # the config file's number rule (``check_number``): these three
        # used to fail with a TypeError deep inside the plan
        ({"max_work_h": 2.5}, "max_work_h must be an integer, got 2.5"),
        ({"dwell_h": 1.5}, "dwell_h must be an integer, got 1.5"),
        ({"horizon_h": 24.0}, "horizon_h must be an integer, got 24.0"),
        # these three used to run
        ({"max_gap_h": 1.5}, "max_gap_h must be an integer, got 1.5"),
        ({"replan_min": 30.5}, "replan_min must be an integer, got 30.5"),
        ({"work_rate": 150.5}, "work_rate must be an integer, got 150.5"),
        # a bool is an int to Python: this one used to run as a 1 h cap
        ({"max_work_h": True}, "max_work_h must be an integer, got true"),
        ({"fix_lead_h": math.inf}, "fix_lead_h must be finite, got Infinity"),
    ],
    ids=[
        "dwell", "max-work", "work-rate", "replan", "horizon", "max-gap",
        "max-work-float", "dwell-float", "horizon-float", "max-gap-float",
        "replan-float", "work-rate-float", "max-work-bool", "fix-lead-infinite",
    ],
)
def test_scenario_params_reject_out_of_range(overrides, message):
    with pytest.raises(ValueError, match=message):
        ScenarioParams(**overrides)


def _merge_showcase_rows():
    # gateway fragment right before a nearby local hub's six-hour block:
    # both commit in the same pass, one worker covers both via relocation
    return {0: [0, 150, 150] + [0] * 21, 1: [0] * 4 + [150] * 6 + [0] * 14}


def test_merge_replaces_hire_and_beats_split_scenario():
    net = _net(2, spread_m=800)
    rows = _merge_showcase_rows()
    r1 = run_scenario(_cfg(net, rows, scenario=1))
    r2 = run_scenario(_cfg(net, rows, scenario=2))
    assert r1.merged_shift_count == 1
    assert r1.hires == r2.hires - 1  # the merge stood in for a hire
    assert r1.ledger.moving == 10
    assert r1.ledger.total < r2.ledger.total
    merged = next(e.shift for e in r1.roster if any(e.shift.moves()))
    assert [s.kind for s in merged.segments] == ["working", "travel", "working"]


def test_no_merge_when_pool_covers_for_free():
    # same geometry, but a released worker can take the block: merging would
    # pay a move to save nothing, so the pass must leave the shifts apart
    net = _net(2, spread_m=800)
    rows = _merge_showcase_rows()
    rows[1] = list(rows[1])
    rows[0] = [150, 150] + [0] * 22  # fragment moved to [0,2): worker frees at 2
    cov = dict(rows)
    report = run_scenario(_cfg(net, cov, scenario=1))
    assert report.late_parcels == 0


def test_flow_windows_aggregate_by_six_hours():
    net = _net(2, spread_m=800)
    report = run_scenario(_cfg(net, _merge_showcase_rows(), scenario=1))
    assert report.merged_shift_count == 1
    assert all(window % 6 == 0 for (_s, _d, window) in report.flows)
    assert sum(report.flows.values()) == report.merged_shift_count
    assert (0, 1, 0) in report.flows


def test_merged_shift_rests_end_to_end():
    # hub 1's run starts two slots after hub 0's ends and the 800 m walk
    # takes under an hour, so the merged shift travels one slot and rests one
    net = _net(2, spread_m=800)
    rows = {0: [150] * 4 + [0] * 8, 1: [0] * 6 + [150] * 3 + [0] * 3}
    report = run_scenario(_cfg(net, rows, scenario=3, dwell_h=0))
    assert report.merged_shift_count == 1 and len(report.roster) == 1
    shift = report.roster[0].shift
    assert [(s.kind, s.hub_id, s.start_h, s.end_h) for s in shift.segments] == [
        ("working", 0, 0, 4),
        ("travel", 1, 4, 5),
        ("resting", 1, 5, 6),
        ("working", 1, 6, 9),
    ]
    assert shift.resting_h == 1
    assert report.series[0]["resting"] == [0] * 12
    assert report.series[1]["resting"] == [0] * 5 + [1] + [0] * 6
    assert report.ledger.waiting == 5 * shift.resting_h
    assert report.flows == {(0, 1, 0): 1}
    assert report.late_parcels == 0


def _shapes(shifts):
    return [(tuple(s.segments), s.move_distance_m) for s in shifts]


def _random_merge_case(rng):
    """A small network with fractional travel times, a random scenario's
    engine, and sorted kept runs with repeated starts at a hub."""
    n_hubs = int(rng.integers(2, 6))
    ids = sorted(int(h) for h in rng.choice(20, n_hubs, replace=False))
    hubs = [Hub(h, f"H{h}", float(rng.uniform(0, 5000)), float(rng.uniform(0, 2000)), "local") for h in ids]
    net = HubNetwork(hubs, d_max_m=6000, speed_m_per_h=float(rng.choice([1800.0, 2500.0, 15000.0])))
    horizon = int(rng.integers(6, 13))
    params = ScenarioParams(
        horizon_h=horizon, max_work_h=int(rng.integers(1, 9)), max_gap_h=int(rng.integers(0, 4))
    )
    scenario = int(rng.choice([1, 1, 1, 2, 3]))
    arrivals = {h: [0] * horizon for h in ids}
    engine = RollingEngine(ScenarioConfig(scenario, net, arrivals, params))
    kept = []
    for _ in range(int(rng.integers(0, 24))):
        h = ids[int(rng.integers(n_hubs))]
        start = int(rng.integers(0, horizon - 1))
        end = min(horizon, start + int(rng.integers(1, params.max_work_h + 1)))
        kept.append((start, h, end))
        if rng.random() < 0.5:  # another run from the same start at the same hub
            kept.append((start, h, min(horizon, start + int(rng.integers(1, params.max_work_h + 1)))))
    kept.sort()
    return net, engine, kept


def _plan_shifts(kept):
    """One-hub working shifts of the sorted runs ``kept`` as the plan builds
    them: copies of one run share one ``Shift``."""
    shifts = []
    for k, (s, h, e) in enumerate(kept):
        shifts.append(shifts[-1] if k and kept[k - 1] == kept[k] else Shift([Segment(h, s, e, WORKING)]))
    return shifts


def _positions(shifts, pool):
    """The positions in ``pool`` of ``shifts``, each matched by identity at
    the first position after the previous one's; fails if one has none."""
    positions = []
    k = 0
    for shift in shifts:
        while k < len(pool) and pool[k] is not shift:
            k += 1
        assert k < len(pool), "a shift is not the pool's object past the previous one"
        positions.append(k)
        k += 1
    return positions


def test_merge_returns_untouched_shifts_by_identity_in_order():
    # the merge builds a Shift only for a merged pair: every other input
    # shift comes back as itself, at the place the shift-based reference
    # puts it and in input order, in (start, first hub, end) order with
    # merged shifts first on a tie; without a merge the input list itself
    rng = np.random.default_rng(16)
    seen = dict.fromkeys(("empty", "full", "short", "equal runs", "tie with a merge", "no merge"), 0)
    for case in range(1500):
        net, engine, kept = _random_merge_case(rng)
        p = engine.cfg.params
        shifts = _plan_shifts(kept)
        by_hub = {h: [x for x in shifts if x.segments[0].hub_id == h] for h in engine.hub_ids}
        budget = int(rng.choice([len(shifts), 0, 1, 3, 100]))  # len(shifts): no cap binds
        got = merge_across_hubs(shifts, engine.pairs, p.max_work_h, p.max_gap_h, budget)
        expected = reference_merge.merge_across_hubs(
            by_hub,
            build_moving_pairs(net) if engine.cfg.allow_cross_hub else [],
            p.max_work_h,
            p.max_gap_h,
            HIRING_PER_DAY,
            moving_payment,
            budget,
        )
        assert len(got) == len(expected), case
        for a, b in zip(got, expected):
            if len(b.segments) == 1:
                assert a is b, case
            else:
                assert _shapes([a]) == _shapes([b]), case
        untouched = [x for x in got if len(x.segments) == 1]
        _positions(untouched, shifts)
        n_merged = len(got) - len(untouched)
        assert len(untouched) == len(shifts) - 2 * n_merged, case
        if not n_merged:
            assert got is shifts, case
            seen["no merge"] += 1
        keys = [reference_merge.sort_key(x) for x in got]
        assert keys == sorted(keys), case
        for a, b, key_a, key_b in zip(got, got[1:], keys, keys[1:]):
            if key_a == key_b:
                assert len(a.segments) > 1 or len(b.segments) == 1, case
                seen["tie with a merge"] += len(a.segments) > 1 and len(b.segments) == 1
        seen["empty"] += not kept
        seen["full"] += any(e - s == p.max_work_h for s, _h, e in kept)
        seen["short"] += any(e - s < p.max_work_h for s, _h, e in kept)
        seen["equal runs"] += len(set(kept)) < len(kept)
    assert min(seen.values()) > 20, seen


def test_fixed_shifts_skip_the_budget_without_pairs_and_the_merge_without_a_hire_to_save(monkeypatch):
    # the engine's two shortcuts fire: without moving pairs (scenario 2) a
    # step fixes the plan's list itself without counting the hire budget,
    # and with a budget of 0 it fixes the list itself without merging. A
    # step whose runs are all full length, or whose short runs sit at hubs
    # no moving pair joins, counts the budget, and the merge's own filter
    # then calls no kernel; a budget of one hire still merges
    calls = {"simulate_hires": 0, "merge_runs": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(engine_module.WorkforcePool, "simulate_hires")
    counted(kernels, "merge_runs")
    net = _net(3)  # moving pairs (0, 1) and (1, 2), 2 km apart; hubs 0 and 2 lie 4 km apart

    def fixed(runs, pooled=0, scenario=1):
        """Whether the step fixes the plan's list itself, with the budget
        counts and kernel calls it made, after ``pooled`` released workers
        with 3 of their 4 hours left."""
        rows = {h: [0] * 12 for h in range(3)}
        engine = RollingEngine(_cfg(net, rows, scenario, max_work_h=4, max_gap_h=2))
        for _ in range(pooled):
            engine.pool.assign(Shift((Segment(0, 0, 1, WORKING),)), 0)
        engine.pool.release_finished(1.0)
        shifts = _plan_shifts(runs)
        calls.update(simulate_hires=0, merge_runs=0)
        return engine._fixed_shifts(shifts) is shifts, calls["simulate_hires"], calls["merge_runs"]

    assert fixed([(1, 0, 3), (4, 1, 6)], scenario=2) == (True, 0, 0)  # no moving pairs
    assert fixed([(1, 0, 5), (6, 1, 10)]) == (True, 1, 0)  # full length
    assert fixed([(1, 0, 3), (4, 2, 6)]) == (True, 1, 0)  # no pair joins hubs 0 and 2
    assert fixed([(1, 0, 3), (4, 1, 6)], pooled=2) == (True, 1, 0)  # no hire to save
    assert fixed([(1, 0, 3), (4, 1, 6)], pooled=1) == (False, 1, 1)  # one hire to save
    assert fixed([(1, 0, 3), (4, 1, 6)]) == (False, 1, 1)  # two hires to save


def test_fix_lengths_keep_exactly_the_runs_whose_value_reaches_the_threshold():
    # every (start, length) under random weights: the table keeps a run
    # exactly when it starts before the next replan or its value reaches
    # the threshold, so the table's end (the step's stop) cuts off no run
    # that would be fixed. Some thresholds equal a value a run attains, some
    # (1.0) only urgent full-length runs meet, and half the cases pad the
    # table to the horizon end with a length no run has, as a step with its
    # cut turned off would
    rng = np.random.default_rng(19)
    boundary = unfixable = 0
    for case in range(1200):
        horizon = int(rng.integers(6, 25))
        params = dict(
            horizon_h=horizon,
            max_work_h=int(rng.integers(1, 9)),
            replan_min=int(rng.choice([15, 45, 60, 90])),
        )
        plan = RollingPlan(_cfg(_net(1), {0: [0] * horizon}, **params))
        p = plan.cfg.params
        cap = p.max_work_h
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        lead = float(rng.uniform(0.5, 6.0))
        now_h = int(rng.integers(0, math.ceil(horizon / p.replan_h))) * p.replan_h
        fix_all = bool(rng.random() < 0.1)
        kind = case % 3
        if kind == 0:
            threshold = float(rng.random())
        elif kind == 1:  # a value some run attains
            start = int(rng.integers(math.floor(now_h), horizon))
            length = int(rng.integers(1, cap + 1))
            weights = with_weights(p, urgency, utilization, continuity, lead, 0.5)
            threshold = min(1.0, shift_value(start, length, 0, now_h, weights))
        else:
            threshold = 1.0
        plan.cfg.params = weights = with_weights(p, urgency, utilization, continuity, lead, threshold)
        if fix_all:
            plan.replan_h = float(plan.n)
        need = plan._fix_lengths(now_h, math.ceil(now_h - 1e-9))
        if rng.random() < 0.5:
            need += [cap + 1] * (plan.n - len(need))
        edge = now_h + p.replan_h + 1e-9
        for start in range(math.ceil(now_h), horizon):
            for length in range(1, cap + 1):
                value = shift_value(start, length, 0, now_h, weights)
                expected = fix_all or start <= edge or should_fix(value, threshold)
                assert (start < len(need) and length >= need[start]) == expected, (case, start, length)
                boundary += start > edge and value == threshold and not fix_all
        unfixable += cap + 1 in need
    assert boundary > 100 and unfixable > 200, (boundary, unfixable)


@pytest.mark.parametrize("replan_min", [7, 15, 45])
def test_fix_lengths_read_back_from_the_lead_memo_equal_a_fresh_plans(monkeypatch, replan_min):
    # a plan values each start lead once and reads the entry back at later
    # steps (``_lengths``); at every step of the day its table equals the
    # one a plan with an empty memo builds. At 7 min the step times, and so
    # the leads, are inexact floats
    real = engine_module.shift_value
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(engine_module, "shift_value", counting)
    rng = np.random.default_rng(29)
    memo_calls = fresh_calls = 0
    for case in range(12):
        horizon = int(rng.integers(12, 37))
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        lead = float(rng.uniform(0.5, 6.0))
        params = ScenarioParams(horizon_h=horizon, max_work_h=int(rng.integers(1, 9)), replan_min=replan_min)
        params = with_weights(params, urgency, utilization, continuity, lead, 0.5)
        if case % 2:  # the value of a drawn run at hour 0
            start, length = int(rng.integers(1, horizon)), int(rng.integers(1, params.max_work_h + 1))
            threshold = min(1.0, shift_value(start, length, 0, 0.0, params))
        else:
            threshold = float(rng.uniform(0.5, 1.0))
        params = dataclasses.replace(params, fix_threshold=threshold)
        cfg = ScenarioConfig(1, _net(1), {0: [0] * horizon}, params, "perfect")
        plan = RollingPlan(cfg)
        for now_h in plan.times:
            first_slot = math.ceil(now_h - 1e-9)
            before = calls
            need = plan._fix_lengths(now_h, first_slot)
            memo_calls += calls - before
            before = calls
            assert need == RollingPlan(cfg)._fix_lengths(now_h, first_slot), (case, now_h)
            fresh_calls += calls - before
    assert memo_calls < fresh_calls, (memo_calls, fresh_calls)


def _outputs(report):
    """What a day reports."""
    roster = [
        (e.worker_id, e.lead_time_h, e.is_new_hire, e.fixed_at_h, tuple(e.shift.segments))
        for e in report.roster
    ]
    return (
        roster,
        report.ledger.to_dict(),
        report.late_parcels,
        report.series,
        report.flows,
        report.hires,
    )


def _same_forecasts(a, b) -> bool:
    """Whether two ``RollingPlan.forecasts`` sequences yield equal steps."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(t == u and np.array_equal(x, y) for (t, x), (u, y) in zip(a, b))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"fix_threshold": 0.6},
        {"urgency_weight": 0.0, "utilization_weight": 0.5, "continuity_weight": 0.5},
        {"fix_threshold": 1.0},
        {"replan_min": 45, "dwell_h": 3},
        {"replan_min": 20, "fix_lead_h": 2.5, "fix_threshold": 0.8},
    ],
    ids=["defaults", "threshold-eq-util-cont", "no-urgency", "threshold-1", "replan-45", "replan-20"],
)
def test_fix_reach_cut_leaves_every_output_unchanged(monkeypatch, overrides):
    # a step searches for runs before its stop (the fix-length table's end)
    # only: it builds fewer candidates than a search of the same rows to the
    # horizon end exactly when runs past the fix reach cannot be fixed, which
    # scenario 3, fixing everything, never has; and the day is the one the
    # reference engine, which has no cut, reports
    combine = engine_module.combine_within_hub_detail
    built = [0, 0]  # candidates built with the stop, and without it

    def counting(row, dwell_h, max_work_h, first_slot, stop):
        runs = combine(row, dwell_h, max_work_h, first_slot, stop)
        built[0] += len(runs[0])
        built[1] += len(combine(row, dwell_h, max_work_h, first_slot)[0])
        return runs

    monkeypatch.setattr(engine_module, "combine_within_hub_detail", counting)
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=5)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 5)
    for scenario in (1, 2, 3):
        cfg = _cfg(net, rows, scenario=scenario, noise="paper", seed=5, **overrides)
        built[:] = [0, 0]
        report = run_scenario(cfg)
        cut, full = built
        assert cut <= full
        assert (cut < full) == (fix_reach(cfg.params) is not None and scenario != 3), scenario
        assert reference_engine.day_of(report) == reference_engine.run(cfg), scenario


def test_engine_rosters_pass_validate_shift():
    # every shift the engine fixes, merged ones included, keeps the
    # structural invariants: contiguous segments, 1..cap working hours, and
    # a travel segment at every hub change
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=3)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=40_000), 3)
    merged = 0
    for replan_min in (15, 60):
        for scenario in (1, 2, 3):
            cfg = _cfg(net, rows, scenario=scenario, noise="paper", seed=3, replan_min=replan_min)
            report = run_scenario(cfg)
            assert report.roster
            for entry in report.roster:
                validate_shift(entry.shift, cfg.params.max_work_h)
            merged += report.merged_shift_count
    assert merged >= 3


def test_rolling_steps_skip_the_hubs_and_runs_they_cannot_fix(monkeypatch):
    # a step searches no hub whose residual can give no kept run, and values
    # no run starting past the fix reach; the days are those of the
    # fix-reach test, replanned every 15 and 60 minutes
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=5)
    rows = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 5)
    combine = engine_module.combine_within_hub_detail
    value = engine_module.shift_value
    searches, valued = [0], []

    def counting_combine(*args):
        searches[0] += 1
        return combine(*args)

    def counting_value(start, working, resting, now_h, params):
        valued.append((start, now_h))
        return value(start, working, resting, now_h, params)

    monkeypatch.setattr(engine_module, "combine_within_hub_detail", counting_combine)
    monkeypatch.setattr(engine_module, "shift_value", counting_value)
    for replan_min in (15, 60):
        cfg = _cfg(net, rows, scenario=1, noise="paper", seed=5, replan_min=replan_min)
        p = cfg.params
        reach = fix_reach(p)
        searches[0] = 0
        valued.clear()
        run_scenario(cfg)
        assert 0 < searches[0] < len(net) * math.ceil(p.horizon_h / p.replan_h)
        assert valued
        for start, now_h in valued:
            assert start < math.ceil(now_h + max(p.replan_h, reach)) + 1, (start, now_h)


# ------------------------------------------------------------ shared plans


def _working_from_roster(report, n):
    rows = {h: [0] * n for h in report.series}
    for entry in report.roster:
        for seg in entry.shift.segments:
            if seg.kind == WORKING:
                for t in range(seg.start_h, seg.end_h):
                    rows[seg.hub_id][t] += 1
    return rows


def test_scenarios_on_a_shared_plan_equal_their_runs_alone():
    # scenarios 1 and 2, run one after the other on one plan in either
    # order, give the outputs of each run alone, forecasts included; each
    # report's working rows are its own roster's working slots
    rng = np.random.default_rng(31)
    merged = 0
    for i in range(50):
        horizon = int(rng.integers(6, 37))
        net = random_network(
            n_hubs=int(rng.integers(2, 9)), n_gateways=1, area_m=float(rng.uniform(1000, 6000)), seed=i
        )
        # sparse rows leave gaps that a merge can bridge
        arrivals = {
            h: [int(v) for v in rng.integers(0, 600, horizon) * (rng.random(horizon) < 0.3)]
            for h in net.hub_ids
        }
        params = ScenarioParams(
            horizon_h=horizon,
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            max_gap_h=int(rng.integers(0, 3)),
            replan_min=int(rng.choice([15, 20, 45, 60, 90, 180, 360, 1440])),
            seed=i,
        )
        noise = str(rng.choice(["paper", "perfect"]))
        rng.random()  # a spare draw keeps this stream's days, which merge over 30 runs
        cfgs = [ScenarioConfig(n, net, arrivals, params, noise) for n in (1, 2)]
        plan = RollingPlan(cfgs[0])
        order = cfgs if rng.random() < 0.5 else cfgs[::-1]
        shared = {cfg.label: run_scenario(cfg, plan) for cfg in order}
        for cfg in cfgs:
            report = shared[cfg.label]
            own = RollingPlan(cfg)
            alone = run_scenario(cfg, own)
            assert report == alone, (i, cfg.label)
            assert _same_forecasts(plan.forecasts(), own.forecasts()), (i, cfg.label)
            working = {h: rows["working"] for h, rows in report.series.items()}
            assert working == _working_from_roster(report, horizon), (i, cfg.label)
            merged += report.merged_shift_count
        s1, s2 = (shared[cfg.label].series for cfg in cfgs)
        assert all(s1[h]["working"] is not s2[h]["working"] for h in s1)
    assert merged > 30, merged


def test_engines_on_one_plan_book_its_shifts(monkeypatch):
    # each step builds one Shift per distinct kept run, shared by its
    # copies; every engine on the plan books the plan's Shift for each kept
    # run it does not merge, at strictly increasing positions of the plan's
    # shifts: scenario 2 books the plan's list element for element,
    # scenarios 1 and 3 build a Shift only per merged pair; and each gives
    # the outputs of an engine that builds its own plan
    shift_cls = engine_module.Shift
    select = RollingPlan._select
    builds = []
    selected = []  # the sorted (start, hub, end) runs of each planned step

    def counting(*args, **kwargs):
        builds.append(len(plan.steps))  # the step being planned
        return shift_cls(*args, **kwargs)

    def recording(this, *args):
        runs = select(this, *args)
        selected.append(runs)
        return runs

    monkeypatch.setattr(engine_module, "Shift", counting)
    monkeypatch.setattr(RollingPlan, "_select", recording)
    rng = np.random.default_rng(16)
    merged = shared = copies = 0
    for i in range(60):
        horizon = int(rng.integers(6, 25))
        net = random_network(
            n_hubs=int(rng.integers(2, 9)), n_gateways=1, area_m=float(rng.uniform(1000, 6000)), seed=i
        )
        arrivals = {
            h: [int(v) for v in rng.integers(0, 600, horizon) * (rng.random(horizon) < 0.4)]
            for h in net.hub_ids
        }
        params = ScenarioParams(
            horizon_h=horizon,
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            max_gap_h=int(rng.integers(0, 3)),
            replan_min=int(rng.choice([15, 45, 60])),
            seed=i,
        )
        noise = str(rng.choice(["paper", "perfect"]))
        cfgs = {n: ScenarioConfig(n, net, arrivals, params, noise) for n in (1, 2, 3)}
        for group in ((cfgs[1], cfgs[2]), (cfgs[3], dataclasses.replace(cfgs[3]))):
            builds.clear()
            selected.clear()
            plan = RollingPlan(group[0])
            reports = [run_scenario(cfg, plan) for cfg in group]
            assert len(selected) == len(plan.steps), i
            for k, (runs, shifts) in enumerate(zip(selected, plan.steps)):
                assert builds.count(k) == len(set(runs)), (i, k)
                assert [x.segments for x in shifts] == [(Segment(h, s, e, WORKING),) for s, h, e in runs], (i, k)
                for a, b, run_a, run_b in zip(shifts, shifts[1:], runs, runs[1:]):
                    assert (a is b) == (run_a == run_b), (i, k)
                copies += len(runs) - len(set(runs))
            planned = [shift for shifts in plan.steps for shift in shifts]
            for cfg, report in zip(group, reports):
                unmerged = [e.shift for e in report.roster if len(e.shift.segments) == 1]
                _positions(unmerged, planned)
                if not cfg.allow_cross_hub:
                    assert len(report.roster) == len(planned), (i, cfg.label)
                    assert all(e.shift is x for e, x in zip(report.roster, planned)), (i, cfg.label)
                merged += report.merged_shift_count
                shared += len(unmerged)
            for cfg, report in zip(group, reports):
                assert report == run_scenario(cfg), (i, cfg.label)
    assert merged > 30 and shared > 1000 and copies > 100, (merged, shared, copies)


def _random_day(rng, i, replan_choices, high=600, density=0.4):
    """A random small day: network, arrivals and params; sparse rows leave
    gaps that a merge can bridge."""
    horizon = int(rng.integers(6, 25))
    net = random_network(
        n_hubs=int(rng.integers(2, 8)), n_gateways=1, area_m=float(rng.uniform(1000, 6000)), seed=i
    )
    arrivals = {
        h: [int(v) for v in rng.integers(0, high, horizon) * (rng.random(horizon) < density)]
        for h in net.hub_ids
    }
    params = ScenarioParams(
        horizon_h=horizon,
        dwell_h=int(rng.integers(0, 3)),
        max_work_h=int(rng.integers(1, 9)),
        max_gap_h=int(rng.integers(0, 3)),
        replan_min=int(rng.choice(replan_choices)),
        seed=i,
    )
    return net, arrivals, params


def test_a_plan_replays_its_capacity_once_for_every_engine(monkeypatch):
    # after its last step the plan replays its capacity against the actual
    # arrivals once; both engines on it report that count, and it is the
    # replay of the plan's capacity, also on dwell-0 days with late parcels
    real = engine_module.replay_execution
    replays = 0

    def counting(*args):
        nonlocal replays
        replays += 1
        return real(*args)

    monkeypatch.setattr(engine_module, "replay_execution", counting)
    rng = np.random.default_rng(23)
    late_plans = dwell0_late_plans = 0
    for i in range(30):
        net, arrivals, params = _random_day(rng, i, [15, 20, 60, 90], high=900, density=0.7)
        noise = str(rng.choice(["paper", "perfect"]))
        cfgs = {n: ScenarioConfig(n, net, arrivals, params, noise) for n in (1, 2, 3)}
        for group in ((cfgs[1], cfgs[2]), (cfgs[3], dataclasses.replace(cfgs[3]))):
            plan = RollingPlan(group[0])
            replays = 0
            reports = [run_scenario(cfg, plan) for cfg in group]
            assert replays == 1, i
            p = group[0].params
            late = real(arrivals, dict(zip(plan.hub_ids, plan.capacity.T.tolist())), p.dwell_h, p.work_rate)
            assert plan.late_parcels == late, i
            for report in reports:
                assert report.late_parcels == late, (i, report.label)
                assert report.ledger.lateness == late * LATENESS_PER_PARCEL
            late_plans += late > 0
            dwell0_late_plans += late > 0 and p.dwell_h == 0
    assert late_plans > 5 and dwell0_late_plans > 2, (late_plans, dwell0_late_plans)


def test_plan_kept_rejects_a_step_outside_the_plan_before_planning():
    # a step past the last planned every step and then failed with a
    # TypeError, -1 raised an IndexError on a fresh plan and returned the
    # last step of a finished one
    plan = RollingPlan(_cfg(_net(2), {0: [RATE] * 8, 1: [2 * RATE] * 8}, replan_min=120))
    steps = len(plan.times)
    for k in (steps, -1):
        with pytest.raises(ValueError, match=f"step {k} is not a step of the plan: it has {steps} steps"):
            plan.kept(k)
        assert plan.steps == []
    last = plan.kept(steps - 1)
    for k in (steps, -1):
        with pytest.raises(ValueError, match=f"step {k} is not a step of the plan"):
            plan.kept(k)
    assert len(plan.steps) == steps and plan.steps[-1] is last


def test_run_takes_only_the_steps_not_yet_taken():
    # run() after any number of step() calls, and a second run(), report the
    # day a plain run reports; a step past the plan's last raises and
    # changes nothing
    rng = np.random.default_rng(29)
    for i in range(24):
        net, arrivals, params = _random_day(rng, i, [15, 20, 60, 90])
        cfg = ScenarioConfig(int(rng.integers(1, 4)), net, arrivals, params, noise="paper")
        plain_plan = RollingPlan(cfg)
        plain = run_scenario(cfg, plain_plan)
        engine = RollingEngine(cfg, RollingPlan(cfg))
        steps = len(engine.plan.times)
        for _ in range(int(rng.integers(0, steps + 1))):
            engine.step()
        assert engine.run() == plain, i
        assert engine.run() == plain, i
        with pytest.raises(ValueError, match=f"all {steps} steps of the plan have been taken"):
            engine.step()
        assert engine.steps_taken == steps
        assert engine.run() == plain, i
        assert _same_forecasts(engine.plan.forecasts(), plain_plan.forecasts()), i


def test_a_plan_plans_with_the_forecasts_it_yields(monkeypatch):
    # the matrices the steps turn into demand units are the ones
    # ``forecasts`` yields (what ``--debug-forecasts`` writes), in both noise
    # modes, and ``forecasts`` yields the same before any step and after the
    # run
    real = engine_module.labor_demand
    planned = []

    def recording(full, work_rate):
        planned.append(full.copy())
        return real(full, work_rate)

    monkeypatch.setattr(engine_module, "labor_demand", recording)
    rng = np.random.default_rng(37)
    for i in range(24):
        net, arrivals, params = _random_day(rng, i, [15, 20, 45, 60, 90, 1440])
        noise = ["paper", "perfect"][i % 2]
        plan = RollingPlan(ScenarioConfig(int(rng.integers(1, 4)), net, arrivals, params, noise))
        before = list(plan.forecasts())
        planned.clear()
        run_scenario(plan.cfg, plan)
        assert len(planned) == len(plan.times) == len(before), i
        assert _same_forecasts(zip(plan.times, planned), before), i
        assert _same_forecasts(plan.forecasts(), before), i
        if noise == "paper" and params.horizon_h > 1:
            assert not np.array_equal(before[0][1], plan.actual_matrix), i


def test_a_finished_plan_is_freed_without_the_cycle_collector():
    # a plan holds the suspended generator of its forecasts, whose frame
    # holds the plan; after its last step the plan lets the generator go, so
    # reference counting frees it. Left to the cycle collector, plans piled
    # up between collections: 30 paper52 days in one process peaked 4 MB higher
    rng = np.random.default_rng(41)
    net, arrivals, params = _random_day(rng, 0, [15, 60])
    gc.disable()
    try:
        plan = RollingPlan(ScenarioConfig(1, net, arrivals, params, "paper"))
        run_scenario(plan.cfg, plan)
        freed = weakref.ref(plan)
        del plan
        assert freed() is None
    finally:
        gc.enable()


def test_a_second_run_reports_an_equal_day():
    # two reports of one day compare equal although their runtimes differ;
    # every other field takes part in the comparison
    net, arrivals, params, plan = _plan_case()
    engine = RollingEngine(plan.cfg, plan)
    first = engine.run()
    second = engine.run()
    assert second == first
    assert dataclasses.replace(first, runtime_s=first.runtime_s + 1.0) == first
    assert dataclasses.replace(first, late_parcels=first.late_parcels + 1) != first
    assert dataclasses.replace(first, hires=first.hires + 1) != first
    assert dataclasses.replace(first, label="other") != first


@pytest.mark.parametrize("number", [0, 1, 2, 3, 4])
def test_a_scenario_is_its_number(number):
    # the number sets the label, the cross-hub moves and, for scenario 3, a
    # copy of params that replans once over the horizon; 0 and 4 are refused
    net, arrivals, params, _plan = _plan_case()
    if number not in (1, 2, 3):
        with pytest.raises(ValueError, match=f"unknown scenario {number}: the scenarios are 1, 2 and 3"):
            ScenarioConfig(number, net, arrivals, params)
        return
    cfg = ScenarioConfig(number, net, arrivals, params)
    assert [f.name for f in dataclasses.fields(cfg)] == ["number", "network", "actuals", "params", "noise"]
    assert cfg.label == f"scenario{number}"
    assert cfg.allow_cross_hub == (number != 2)
    if number == 3:
        assert cfg.params == dataclasses.replace(params, replan_min=60 * params.horizon_h) != params
    else:
        assert cfg.params is params


def test_every_shift_stores_its_bounds():
    # a plan's one-hub shifts and every booked shift, merged ones included,
    # store the first segment's start and the last one's end
    rng = np.random.default_rng(37)
    merged = 0
    for i in range(20):
        net, arrivals, params = _random_day(rng, i, [15, 45, 60])
        cfgs = [ScenarioConfig(n, net, arrivals, params, "paper") for n in (1, 3)]
        for cfg in cfgs:
            plan = RollingPlan(cfg)
            report = run_scenario(cfg, plan)
            shifts = [x for step in plan.steps for x in step] + [e.shift for e in report.roster]
            for shift in shifts:
                assert (shift.start_h, shift.end_h) == (shift.segments[0].start_h, shift.segments[-1].end_h)
            merged += report.merged_shift_count
    assert merged > 10, merged


def _plan_case():
    net = random_network(n_hubs=4, n_gateways=1, area_m=3000, seed=4)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=20_000), 4)
    params = ScenarioParams(seed=4)
    return net, arrivals, params, RollingPlan(ScenarioConfig(1, net, arrivals, params, "paper"))


@pytest.mark.parametrize("case", ["network", "actuals", "params", "noise", "scenario3"])
def test_a_plan_refuses_an_engine_that_plans_other_steps(case):
    net, arrivals, params, plan = _plan_case()
    cfg = ScenarioConfig(2, net, arrivals, params, "paper")
    other_net = random_network(n_hubs=4, n_gateways=1, area_m=3000, seed=4)
    field, other = {
        "network": ("network", dataclasses.replace(cfg, network=other_net)),
        "actuals": ("actuals", dataclasses.replace(cfg, actuals=dict(arrivals))),
        "params": ("params", dataclasses.replace(cfg, params=ScenarioParams(seed=4, dwell_h=2))),
        "noise": ("noise", dataclasses.replace(cfg, noise="perfect")),
        # scenario 3 replans once a day: its params differ in replan_min
        "scenario3": ("params", ScenarioConfig(3, net, arrivals, params, "paper")),
    }[case]
    with pytest.raises(ValueError, match=field):
        RollingEngine(other, plan=plan)


@pytest.mark.parametrize("replan_min", [15, 45, 60, 1440])
def test_a_plan_steps_every_replan_interval_or_once_fixing_everything(monkeypatch, replan_min):
    # scenarios 1 and 2 replan at every multiple of the interval inside the
    # horizon, also when the horizon is not a multiple of it; scenario 3
    # plans once at hour 0 and fixes every run. An engine takes one step per
    # planned time
    step = RollingEngine.step
    steps = 0

    def counting(engine):
        nonlocal steps
        steps += 1
        return step(engine)

    monkeypatch.setattr(RollingEngine, "step", counting)
    rng = np.random.default_rng(replan_min)
    net = _net(3)
    for horizon in (6, 7, 13, 24, 25, 36):
        rows = {h: [int(v) for v in rng.integers(0, 400, horizon)] for h in net.hub_ids}
        for scenario in (1, 2, 3):
            plan = RollingPlan(_cfg(net, rows, scenario=scenario, replan_min=replan_min))
            if scenario == 3:
                assert plan.times == [0.0]
                assert plan._fix_lengths(0.0, 0) == [0] * horizon
            else:
                assert plan.times == [m / 60 for m in range(0, horizon * 60, replan_min)], horizon
            steps = 0
            run_scenario(plan.cfg, plan)
            assert steps == len(plan.times) == len(plan.steps), (horizon, scenario)


@pytest.mark.parametrize("noise", ["paper", "perfect"])
def test_a_rolling_plan_that_replans_past_the_horizon_is_scenario_3(noise):
    # scenario 3 is scenario 1 with one replan interval over the whole
    # horizon: a scenario-1 config whose interval reaches the horizon end
    # (1440 min) or passes it (2000 min) gives the same roster, ledger, late
    # parcels, series, flows and forecasts. Building scenario 3
    # leaves the caller's params as they were
    rng = np.random.default_rng(21)
    moved = late = 0
    for i in range(12):
        horizon = int(rng.integers(6, 25))
        net = random_network(n_hubs=int(rng.integers(2, 7)), n_gateways=1, area_m=float(rng.uniform(1000, 5000)), seed=i)
        rows = {h: [int(v) for v in rng.integers(0, 600, horizon) * (rng.random(horizon) < 0.5)] for h in net.hub_ids}
        params = dict(
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            max_gap_h=int(rng.integers(0, 3)),
            seed=i,
        )
        scenario1 = _cfg(net, rows, scenario=1, noise=noise, **params)
        before = dataclasses.replace(scenario1.params)
        baseline = ScenarioConfig(3, net, scenario1.actuals, scenario1.params, noise)
        assert scenario1.params == before
        assert baseline.params == dataclasses.replace(before, replan_min=60 * horizon)
        plan = RollingPlan(baseline)
        expected = _outputs(run_scenario(baseline, plan))
        for replan_min in (1440, 2000):
            cfg = dataclasses.replace(scenario1, params=dataclasses.replace(scenario1.params, replan_min=replan_min))
            own = RollingPlan(cfg)
            assert _outputs(run_scenario(cfg, own)) == expected, (i, replan_min)
            assert _same_forecasts(own.forecasts(), plan.forecasts()), (i, replan_min)
        moved += bool(expected[4])
        late += expected[2] > 0
    assert moved > 3 and (late > 0) == (noise == "paper"), (moved, late)


def test_a_plan_serves_scenario_2_and_equal_params():
    net, arrivals, params, plan = _plan_case()
    cfg = ScenarioConfig(1, net, arrivals, params, "paper")
    for other in (
        dict(number=2),
        dict(params=ScenarioParams(seed=4)),  # an equal copy
    ):
        run_scenario(dataclasses.replace(cfg, **other), plan)
    assert len(plan.steps) == 24


def test_moving_pairs_are_built_once_per_network(monkeypatch):
    # an engine reads the pairs its network already built: a second engine
    # on the same network measures no distance, and a caller that changes
    # the list it got does not change what the next call returns
    calls = 0
    real = network_module.distance

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(network_module, "distance", counting)
    net = random_network(n_hubs=12, n_gateways=1, area_m=6000, seed=5)
    rows = {h: [0] * 6 for h in net.hub_ids}
    first = RollingEngine(_cfg(net, rows, scenario=1))
    assert calls == 12 * 11 // 2
    calls = 0
    second = RollingEngine(_cfg(net, rows, scenario=3))
    assert calls == 0
    assert second.pairs == first.pairs and second.pairs
    pairs = build_moving_pairs(net)
    expected = list(pairs)
    pairs.reverse()
    pairs.pop()
    assert build_moving_pairs(net) == expected
    assert build_moving_pairs(net) is not build_moving_pairs(net)
    assert calls == 0
    RollingEngine(_cfg(random_network(n_hubs=12, n_gateways=1, area_m=6000, seed=5), rows))
    assert calls == 12 * 11 // 2  # another network builds its own


def _csv_writer_rendering(header, head, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(head)
    writer.writerows(rows)
    return (header + buf.getvalue()).encode()


def test_writers_render_the_rows_csv_writer_would(tmp_path):
    # every CSV file is byte for byte what csv.writer writes (excel
    # dialect): merged shifts with travel and rest, fractional fix times,
    # the ledger, arrivals and a plan's forecasts, headers or none (one
    # holding a '%', which the row template must not read)
    merged = Shift(
        [
            Segment(0, 0, 4, WORKING),
            Segment(1, 4, 5, TRAVEL),
            Segment(1, 5, 6, RESTING),
            Segment(1, 6, 9, WORKING),
        ],
        move_distance_m=800.0,
    )
    one_hub = Shift([Segment(2, 3, 11, WORKING)])
    roster = [
        RosterEntry(merged, 0, 0.25, True),
        RosterEntry(one_hub, 1, 0.0, True),
        RosterEntry(one_hub, 0, 1.5, False),
        RosterEntry(Shift([Segment(1, 12, 13, WORKING)]), 2, 11.75, False),
    ]
    series = {
        h: {"arrivals": [h * 100 + t for t in range(14)], "working": [t % 3 for t in range(14)], "resting": [h] * 14}
        for h in (2, 0, 1)
    }
    ledger = CostLedger(hiring=150.0, hourly=1234.5, waiting=0.125, moving=30.0, lateness=5.0, emergency=0.005)
    report = SimReport("s", ledger, roster, 0, series, {(1, 0, 6): 2, (0, 1, 0): 1}, 0.0, 3)
    # and real days: one that merges, one that replans every 15 minutes
    merging = run_scenario(_cfg(_net(2, spread_m=800), _merge_showcase_rows(), scenario=1))
    net = random_network(n_hubs=4, n_gateways=1, area_m=3000, seed=4)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=20_000), 4)
    params = ScenarioParams(seed=4, replan_min=15)
    quarter_cfg = ScenarioConfig(1, net, arrivals, params, "paper")
    quarter = run_scenario(quarter_cfg)
    plan = RollingPlan(quarter_cfg)
    assert merging.merged_shift_count == 1
    assert any(e.fixed_at_h % 1 for e in quarter.roster)
    arrival_rows = [[h, t, count] for h, counts in sorted(arrivals.items()) for t, count in enumerate(counts)]
    forecasts = list(plan.forecasts())
    forecast_rows = [
        [made_at_h, h, t, f"{value:.3f}"]
        for made_at_h, full in forecasts
        for h, row in zip(plan.hub_ids, full)
        for t, value in enumerate(row)
    ]
    assert any(made_at_h % 1 for made_at_h, *_rest in forecast_rows)
    files = [
        (write_arrivals_csv, arrivals, ["hub_id", "slot_h", "arrivals"], arrival_rows),
        (
            lambda path, forecasts, header: write_forecast_csv(path, plan.hub_ids, forecasts, header),
            forecasts,
            ["made_at_h", "hub_id", "slot_h", "arrivals"],
            forecast_rows,
        ),
    ]
    for rep in (report, merging, quarter):
        roster_rows = [
            [shift_id, e.worker_id, idx, seg.hub_id, seg.kind, seg.start_h, seg.end_h, f"{e.fixed_at_h:g}"]
            for shift_id, e in enumerate(rep.roster)
            for idx, seg in enumerate(e.shift.segments)
        ]
        series_rows = [
            [h, t, rows["arrivals"][t], rows["working"][t], rows["resting"][t]]
            for h, rows in sorted(rep.series.items())
            for t in range(len(rows["arrivals"]))
        ]
        flow_rows = [[src, dst, window, count] for (src, dst, window), count in sorted(rep.flows.items())]
        costs = rep.ledger.to_dict()
        ledger_rows = [[name, UNIT_PRICES.get(name, "-"), f"{costs[name]:.2f}"] for name in (*CATEGORIES, "total")]
        files += [
            (
                write_roster_csv,
                rep,
                ["shift_id", "worker_id", "segment_idx", "hub_id", "kind", "start_h", "end_h", "fixed_at_h"],
                roster_rows,
            ),
            (write_series_csv, rep, ["hub_id", "slot_h", "arrivals", "workers_working", "workers_resting"], series_rows),
            (write_flows_csv, rep, ["from_hub", "to_hub", "window_start_h", "worker_moves"], flow_rows),
            (write_ledger_csv, rep.ledger, ["cost_type", "unit_price_yuan", "cost_yuan"], ledger_rows),
        ]
    for header in ("", "# seed=42 config=abc\n", "# 100% of 5%s\n"):
        for k, (write, data, head, rows) in enumerate(files):
            path = tmp_path / f"{k}.csv"
            write(path, data, header)
            assert path.read_bytes() == _csv_writer_rendering(header, head, rows), (k, header)
    assert b"0.25\r\n" in (tmp_path / "2.csv").read_bytes()
    assert b",0.01\r\n" in (tmp_path / "5.csv").read_bytes()


def _fstring_roster_csv(path, report, header=""):
    """The roster writer as it was before the one-template rendering, one
    f-string per row: the reference its output must match."""
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(header)
        write("shift_id,worker_id,segment_idx,hub_id,kind,start_h,end_h,fixed_at_h\r\n")
        for shift_id, entry in enumerate(report.roster):
            tail = f"{entry.fixed_at_h:g}\r\n"
            for idx, seg in enumerate(entry.shift.segments):
                write(f"{shift_id},{entry.worker_id},{idx},{seg.hub_id},{seg.kind},{seg.start_h},{seg.end_h},{tail}")


def _fstring_series_csv(path, report, header=""):
    """The series writer as it was before the one-template rendering."""
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(header)
        write("hub_id,slot_h,arrivals,workers_working,workers_resting\r\n")
        for h in sorted(report.series):
            rows = report.series[h]
            for t, (arrived, working, resting) in enumerate(zip(rows["arrivals"], rows["working"], rows["resting"])):
                write(f"{h},{t},{arrived},{working},{resting}\r\n")


def test_templated_writers_match_the_fstring_writers_on_random_days(tmp_path):
    # the one-template roster and series writers give the bytes of the
    # f-string writers they replaced on random days: merged shifts with
    # travel and rest, fix times that are fractional at 15 and 20 minutes,
    # an empty roster, and headers with and without a '%'
    rng = np.random.default_rng(41)
    kinds = set()
    fractional = 0
    for i in range(24):
        net, arrivals, params = _random_day(rng, i, [15, 20, 60])
        cfg = ScenarioConfig(int(rng.choice([1, 3])), net, arrivals, params, noise="paper")
        report = run_scenario(cfg)
        kinds |= {seg.kind for e in report.roster for seg in e.shift.segments}
        fractional += sum(e.fixed_at_h % 1 != 0 for e in report.roster)
        for header in ("", "# seed=42 config=abc\n", "# 100% of 5%s\n"):
            for new, old in ((write_roster_csv, _fstring_roster_csv), (write_series_csv, _fstring_series_csv)):
                new(tmp_path / "new.csv", report, header)
                old(tmp_path / "old.csv", report, header)
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), (i, new.__name__)
    assert kinds == {WORKING, TRAVEL, RESTING} and fractional > 100, (kinds, fractional)
    empty = SimReport("s", CostLedger(), [], 0, {}, {}, 0.0, 0)
    for new, old in ((write_roster_csv, _fstring_roster_csv), (write_series_csv, _fstring_series_csv)):
        new(tmp_path / "new.csv", empty, "# h\n")
        old(tmp_path / "old.csv", empty, "# h\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
