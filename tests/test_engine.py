"""Rolling engine: stepping, fixing, scenarios, execution replay."""

import dataclasses
import math

import numpy as np
import pytest

from hubroster import _kernels as kernels
from hubroster import engine as engine_module
from hubroster.config import ScenarioParams
from hubroster.demand import ArrivalSeries, GeneratorConfig, generate_arrivals
from hubroster.engine import (
    RollingEngine,
    RollingPlan,
    ScenarioConfig,
    replay_execution,
    roster_tables,
    run_scenario,
)
from hubroster.ledger import CostRates, moving_payment
from hubroster.network import Hub, HubNetwork, build_moving_pairs, random_network
from hubroster.shifts import WORKING, Segment, Shift, merge_across_hubs
from hubroster.valuation import ValueWeights, shift_value, should_fix
import reference_kernels
import reference_merge
from reference_selection import fix_reach
from reference_selection import select as reference_select
from reference_selection import shift_value as reference_value
from shift_checks import validate_shift

RATE = 150


def _net(n_hubs=1, spread_m=2000.0):
    hubs = [Hub(i, f"H{i}", i * spread_m, 0.0, "local") for i in range(n_hubs)]
    return HubNetwork(hubs, d_max_m=3000, speed_m_per_h=15000)


def _arrivals(net, rows):
    return {hid: ArrivalSeries(hid, list(row)) for hid, row in rows.items()}


def _cfg(net, rows, scenario=1, noise="perfect", **params):
    params.setdefault("horizon_h", len(next(iter(rows.values()))))
    return ScenarioConfig.for_scenario(
        scenario, net, _arrivals(net, rows), ScenarioParams(**params), noise=noise
    )


def _needed(rows):
    return sum(math.ceil(a / RATE) for row in rows.values() for a in row)


def _ledger(engine):
    """The ledger of the roster an engine has fixed so far."""
    return roster_tables(engine.roster, engine.hub_ids, engine.n, engine.cfg.rates)[0]


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
        arrivals = generate_arrivals(net, prof, seed)
        rows = {h: s.arrivals for h, s in arrivals.items()}
        for scenario in (1, 2):
            report = run_scenario(_cfg(net, rows, scenario=scenario, noise="paper", seed=seed))
            assert report.late_parcels == 0


def test_scenario2_never_moves_workers():
    net = random_network(n_hubs=6, n_gateways=2, area_m=4000, seed=7)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 7)
    rows = {h: s.arrivals for h, s in arrivals.items()}
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
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=50_000), 11)
    rows = {h: s.arrivals for h, s in arrivals.items()}

    def run():
        rep = run_scenario(_cfg(net, rows, scenario=1, noise="paper", seed=11))
        roster = [
            (e.shift_id, e.worker_id, e.lead_time_h, e.is_new_hire, tuple(
                (s.hub_id, s.start_h, s.end_h, s.kind) for s in e.shift.segments
            ))
            for e in rep.roster
        ]
        return roster, rep.ledger.to_dict()

    assert run() == run()


def test_noise_streams_differ_across_seeds():
    net = random_network(n_hubs=3, n_gateways=1, area_m=4000, seed=2)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=30_000), 2)
    rows = {h: s.arrivals for h, s in arrivals.items()}
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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dwell_h": -1}, "dwell_h must be >= 0"),
        ({"max_work_h": 0}, "max_work_h must be positive"),
        ({"work_rate": 0}, "work_rate must be positive"),
        ({"replan_min": 0}, "replan_min must be positive"),
        ({"horizon_h": 0}, "horizon_h must be >= 1"),
        ({"max_gap_h": -1}, "max_gap_h must be >= 0"),
    ],
    ids=["dwell", "max-work", "work-rate", "replan", "horizon", "max-gap"],
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
    """A small network with fractional travel times, a cost filter that
    drops some pairs, and sorted kept runs with repeated starts at a hub."""
    n_hubs = int(rng.integers(2, 6))
    ids = sorted(int(h) for h in rng.choice(20, n_hubs, replace=False))
    hubs = [Hub(h, f"H{h}", float(rng.uniform(0, 5000)), float(rng.uniform(0, 2000)), "local") for h in ids]
    net = HubNetwork(hubs, d_max_m=6000, speed_m_per_h=float(rng.choice([1800.0, 2500.0, 15000.0])))
    horizon = int(rng.integers(6, 13))
    params = ScenarioParams(
        horizon_h=horizon, max_work_h=int(rng.integers(1, 9)), max_gap_h=int(rng.integers(0, 4))
    )
    # moving pays 10 up to 3000 m and 20 beyond: a 15- or 20-Yuan hire drops
    # the far pairs, a 10-Yuan hire every pair
    rates = CostRates(hiring_per_day=float(rng.choice([50.0, 50.0, 20.0, 15.0, 10.0])))
    scenario = int(rng.choice([1, 1, 1, 2, 3]))
    arrivals = {h: ArrivalSeries(h, [0] * horizon) for h in ids}
    engine = RollingEngine(ScenarioConfig.for_scenario(scenario, net, arrivals, params, rates=rates))
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


def test_merge_on_runs_matches_shift_based_reference():
    rng = np.random.default_rng(2024)
    merged = ties = 0
    for case in range(2400):
        net, engine, kept = _random_merge_case(rng)
        p, rates = engine.cfg.params, engine.cfg.rates
        shifts = [Shift([Segment(h, s, e, WORKING)]) for s, h, e in kept]
        pairs = build_moving_pairs(net) if engine.cfg.allow_cross_hub else []

        # the merge itself, at every kind of cap
        budget = int(rng.choice([-1, 0, 1, 3, 100]))
        by_hub = {h: [x for x in shifts if x.segments[0].hub_id == h] for h in engine.hub_ids}
        got = merge_across_hubs(by_hub, engine.pairs, p.max_work_h, p.max_gap_h, budget)
        expected = reference_merge.merge_across_hubs(
            by_hub,
            pairs,
            p.max_work_h,
            p.max_gap_h,
            rates.hiring_per_day,
            lambda d: moving_payment(d, rates),
            budget,
        )
        assert _shapes(got) == _shapes(expected), case
        keys = [reference_merge.sort_key(x) for x in expected]
        merged_keys = {k for k, x in zip(keys, expected) if any(x.moves())}
        merged += sum(any(x.moves()) for x in expected)
        ties += any(k in merged_keys for k, x in zip(keys, expected) if not any(x.moves()))

        # the engine's step, with the hire budget of a partly used pool
        for _ in range(int(rng.integers(0, 25))):
            start = int(rng.integers(0, 3))
            end = start + int(rng.integers(1, p.max_work_h + 1))
            engine.pool.assign(Shift([Segment(engine.hub_ids[0], start, end, WORKING)]), 0)
        engine.pool.release_finished(float(p.horizon_h))
        got = engine._fixed_shifts(shifts)
        expected = reference_merge.merge_selected(engine, shifts, pairs)
        assert _shapes(got) == _shapes(expected), case
    assert merged > 1000 and ties > 100, (merged, ties)


def test_merge_returns_untouched_shifts_by_identity_in_order():
    # the merge builds a Shift only for a merged pair: every other input
    # shift comes back as itself, where the shift-based reference puts it,
    # in (start, first hub, end) order with merged shifts first on a tie
    rng = np.random.default_rng(16)
    seen = dict.fromkeys(("empty", "full", "short", "equal runs", "tie with a merge"), 0)
    for case in range(1500):
        net, engine, kept = _random_merge_case(rng)
        p, rates = engine.cfg.params, engine.cfg.rates
        shifts = [Shift([Segment(h, s, e, WORKING)]) for s, h, e in kept]
        by_hub = {h: [x for x in shifts if x.segments[0].hub_id == h] for h in engine.hub_ids}
        budget = int(rng.choice([-1, 0, 1, 3, 100]))
        got = merge_across_hubs(by_hub, engine.pairs, p.max_work_h, p.max_gap_h, budget)
        expected = reference_merge.merge_across_hubs(
            by_hub,
            build_moving_pairs(net) if engine.cfg.allow_cross_hub else [],
            p.max_work_h,
            p.max_gap_h,
            rates.hiring_per_day,
            lambda d: moving_payment(d, rates),
            budget,
        )
        inputs = {id(x) for x in shifts}

        def identities(out):
            return [id(x) if id(x) in inputs else _shapes([x]) for x in out]

        assert identities(got) == identities(expected), case
        assert all((id(x) in inputs) == (len(x.segments) == 1) for x in got), case
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


def _plan_select(plan, residual, now_h, fix_all):
    """The plan's selection of ``residual`` at ``now_h``, all fixed or not."""
    plan.fix_all = fix_all
    first_slot = math.ceil(now_h - 1e-9)
    return plan._select(residual, first_slot, plan._fix_lengths(now_h, first_slot))


def test_selection_matches_shift_based_reference():
    # fractional replan times, fix_all, dwell 0-3, caps 1-8 and random
    # weights; half the thresholds equal a value some candidate attains, so
    # the inclusive boundary and the exact float expression both decide
    rng = np.random.default_rng(8)
    boundary_fixes = 0
    for _ in range(1500):
        n_hubs = int(rng.integers(1, 5))
        horizon = int(rng.integers(8, 25))
        params = dict(
            horizon_h=horizon,
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            replan_min=int(rng.choice([15, 45, 60])),
        )
        plan = RollingPlan(_cfg(_net(n_hubs), {h: [0] * horizon for h in range(n_hubs)}, **params))
        p = plan.cfg.params
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        lead = float(rng.choice([4.0, float(rng.uniform(0.5, 6.0))]))
        residual = {h: [int(v) for v in rng.integers(0, 4, horizon)] for h in range(n_hubs)}
        now_h = int(rng.integers(0, math.ceil(horizon / p.replan_h))) * p.replan_h
        fix_all = bool(rng.random() < 0.1)

        threshold = float(rng.random())
        weights = ValueWeights(urgency, utilization, continuity, lead, threshold)
        edge = now_h + p.replan_h + 1e-9
        deferrable = [
            v
            for c in reference_select(residual, plan.hub_ids, now_h, p, weights, fix_all=True)
            if c.start_h > edge and (v := reference_value(c, now_h, weights, p.max_work_h)) <= 1.0
        ]
        if deferrable and rng.random() < 0.5:
            threshold = deferrable[int(rng.integers(len(deferrable)))]
            boundary_fixes += not fix_all
        plan.weights = ValueWeights(urgency, utilization, continuity, lead, threshold)

        expected = reference_select(residual, plan.hub_ids, now_h, p, plan.weights, fix_all)
        got = _plan_select(plan, residual, now_h, fix_all)
        assert got == [(s.start_h, s.segments[0].hub_id, s.end_h) for s in expected]
    assert boundary_fixes > 300


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
            weights = ValueWeights(urgency, utilization, continuity, lead, 0.5)
            threshold = min(1.0, shift_value(start, length, 0, now_h, weights, cap))
        else:
            threshold = 1.0
        plan.weights = weights = ValueWeights(urgency, utilization, continuity, lead, threshold)
        plan.fix_all = fix_all
        need = plan._fix_lengths(now_h, math.ceil(now_h - 1e-9))
        if rng.random() < 0.5:
            need += [cap + 1] * (plan.n - len(need))
        edge = now_h + p.replan_h + 1e-9
        for start in range(math.ceil(now_h), horizon):
            for length in range(1, cap + 1):
                value = shift_value(start, length, 0, now_h, weights, cap)
                expected = fix_all or start <= edge or should_fix(value, threshold)
                assert (start < len(need) and length >= need[start]) == expected, (case, start, length)
                boundary += start > edge and value == threshold and not fix_all
        unfixable += cap + 1 in need
    assert boundary > 100 and unfixable > 200, (boundary, unfixable)


def test_plan_residual_walks_on_from_the_last_step(monkeypatch):
    # each step walks the FIFO residual on from the state the last step
    # settled: for every hub it returns, the row equals the full walk over
    # the step's demand and the capacity fixed so far, and it leaves out
    # exactly the hubs whose full residual holds no unit before the stop
    residual = RollingPlan._residual
    returned = left_out = 0

    def checking(plan, demand, first_slot, stop):
        nonlocal returned, left_out
        got = residual(plan, demand, first_slot, stop)
        for h in plan.hub_ids:
            full = reference_kernels.fifo_match_units(demand[h], plan.capacity[h], plan.cfg.params.dwell_h)
            assert (h in got) == any(full[:stop])
            if h in got:
                assert got[h] == full
                returned += 1
            else:
                left_out += 1
        return got

    monkeypatch.setattr(RollingPlan, "_residual", checking)
    rng = np.random.default_rng(29)
    for i in range(12):
        net = random_network(n_hubs=int(rng.integers(3, 9)), n_gateways=1, area_m=3000, seed=i)
        arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=int(rng.integers(5_000, 60_000))), i)
        cfg = _cfg(
            net,
            {h: s.arrivals for h, s in arrivals.items()},
            scenario=int(rng.choice([1, 3])),
            noise="paper",
            seed=i,
            dwell_h=int(rng.integers(0, 4)),
            replan_min=int(rng.choice([15, 20, 45, 60, 90])),
        )
        run_scenario(cfg)
    assert returned > 200 and left_out > 200, (returned, left_out)


def _outputs(report):
    roster = [
        (e.shift_id, e.worker_id, e.lead_time_h, e.is_new_hire, e.fixed_at_h, tuple(e.shift.segments))
        for e in report.roster
    ]
    return (
        roster,
        report.ledger.to_dict(),
        report.late_parcels,
        report.series,
        report.flows,
        report.hires,
        report.forecast_snapshots,
    )


def _candidates_with_and_without_cut(monkeypatch, cfg):
    """Run one day with each step cut at its stop and once with the stop at
    the horizon end (the fix-length table padded with a length no run has),
    check that every output agrees, and return the candidates each run
    built."""
    built = []
    combine = engine_module.combine_within_hub_detail
    fix_lengths = RollingPlan._fix_lengths

    def padded(plan, now_h, first_slot):
        need = fix_lengths(plan, now_h, first_slot)
        return need + [plan.cfg.params.max_work_h + 1] * (plan.n - len(need))

    def counting(*args):
        out = combine(*args)
        built[-1] += len(out[0])
        return out

    outputs = []
    with monkeypatch.context() as m:
        m.setattr(engine_module, "combine_within_hub_detail", counting)
        for disabled in (False, True):
            if disabled:
                m.setattr(RollingPlan, "_fix_lengths", padded)
            built.append(0)
            outputs.append(_outputs(run_scenario(cfg)))
    assert outputs[0] == outputs[1]
    return built


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
    # the same days with the candidate search cut at each step's stop and
    # with the cut disabled: rosters, ledgers, lateness, series and flows agree,
    # and the cut builds fewer candidates exactly when there is a reach
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=5)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 5)
    rows = {h: s.arrivals for h, s in arrivals.items()}
    for scenario in (1, 2, 3):
        cfg = _cfg(net, rows, scenario=scenario, noise="paper", seed=5, **overrides)
        reach = fix_reach(ValueWeights.from_params(cfg.params))
        cut, full = _candidates_with_and_without_cut(monkeypatch, cfg)
        assert cut <= full
        assert (cut < full) == (reach is not None and scenario != 3)


def test_fix_reach_cut_matches_full_scan_on_random_days(monkeypatch):
    # random weights, thresholds, fix leads, dwell, caps and replan steps
    rng = np.random.default_rng(21)
    cut_days = 0
    for i in range(40):
        horizon = int(rng.choice([12, 24, 36]))
        net = random_network(n_hubs=int(rng.integers(3, 9)), n_gateways=1, area_m=3000, seed=i)
        arrivals = generate_arrivals(
            net, GeneratorConfig(daily_volume=int(rng.integers(5_000, 60_000)), horizon_h=horizon), i
        )
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        cfg = _cfg(
            net,
            {h: s.arrivals for h, s in arrivals.items()},
            scenario=int(rng.integers(1, 3)),
            noise="paper",
            seed=i,
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            replan_min=int(rng.choice([15, 20, 45, 60, 90])),
            urgency_weight=urgency,
            utilization_weight=utilization,
            continuity_weight=continuity,
            fix_lead_h=float(rng.uniform(0.5, 6.0)),
            fix_threshold=float(rng.uniform(0.5, 1.0)),
        )
        cut, full = _candidates_with_and_without_cut(monkeypatch, cfg)
        cut_days += cut < full
    assert cut_days > 15


def test_engine_rosters_pass_validate_shift():
    # every shift the engine fixes, merged ones included, keeps the
    # structural invariants: contiguous segments, 1..cap working hours, and
    # a travel segment at every hub change
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=3)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=40_000), 3)
    rows = {h: s.arrivals for h, s in arrivals.items()}
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
    # a step builds no candidates for a hub whose residual is empty before
    # the stop, and values no run starting at or after the stop (the table
    # values one full-length run per slot up to the stop, all before the
    # padded reach here); the days are those of the fix-reach test,
    # replanned every 15 and 60 minutes
    net = random_network(n_hubs=6, n_gateways=2, area_m=3000, seed=5)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=60_000), 5)
    rows = {h: s.arrivals for h, s in arrivals.items()}
    combine = engine_module.combine_within_hub_detail
    value = engine_module.shift_value
    stops, valued = [], []
    at_stop = 0

    def counting_combine(*args):
        nonlocal at_stop
        out = combine(*args)
        stop = args[4]
        stops.append(stop)
        at_stop += sum(start == stop for start, _end in out[0])
        return out

    def counting_value(start, working, resting, now_h, weights, cap):
        valued.append((start, now_h))
        return value(start, working, resting, now_h, weights, cap)

    for replan_min in (15, 60):
        for scenario in (1, 2):
            cfg = _cfg(net, rows, scenario=scenario, noise="paper", seed=5, replan_min=replan_min)
            p = cfg.params
            reach = fix_reach(ValueWeights.from_params(p))
            stops.clear()
            valued.clear()
            with monkeypatch.context() as m:
                m.setattr(engine_module, "combine_within_hub_detail", counting_combine)
                m.setattr(engine_module, "shift_value", counting_value)
                run_scenario(cfg)
            steps = math.ceil(p.horizon_h / p.replan_h)
            assert 0 < len(stops) < len(net) * steps
            assert valued
            for start, now_h in valued:
                assert start < math.ceil(now_h + max(p.replan_h, reach)) + 1, (start, now_h)
            cut, full = _candidates_with_and_without_cut(monkeypatch, cfg)
            assert cut < full
    assert at_stop > 0  # runs at the stop exist, so the valuation guard decides some


def test_select_skips_agree_with_full_scan_at_the_stop():
    # residuals empty before a slot next to the stop. A hub whose first unit
    # lies at stop - 1 can still give a kept run (forced, or a full-length
    # run that reaches the threshold), one whose first unit lies at the stop
    # cannot, and with fix_all every hub's runs are kept
    rng = np.random.default_rng(12)
    edge_runs = fix_all_late = 0
    for _ in range(1500):
        n_hubs = int(rng.integers(1, 5))
        horizon = int(rng.integers(12, 37))
        params = dict(
            horizon_h=horizon,
            dwell_h=int(rng.integers(0, 4)),
            max_work_h=int(rng.integers(1, 9)),
            replan_min=int(rng.choice([15, 60, 90, 180, 360])),
        )
        plan = RollingPlan(_cfg(_net(n_hubs), {h: [0] * horizon for h in range(n_hubs)}, **params))
        p = plan.cfg.params
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        threshold = utilization + continuity + float(rng.uniform(0.01, 0.99)) * urgency
        plan.weights = ValueWeights(urgency, utilization, continuity, float(rng.uniform(0.25, 6.0)), threshold)
        now_h = int(rng.integers(0, math.ceil(horizon / p.replan_h))) * p.replan_h
        stop = len(plan._fix_lengths(now_h, math.ceil(now_h - 1e-9)))
        fix_all = bool(rng.random() < 0.2)
        residual = {}
        for h in range(n_hubs):
            first = min(max(0, stop + int(rng.integers(-2, 2))), horizon)
            row = [0] * first + [int(v) for v in rng.integers(0, 4, horizon - first)]
            if first < horizon:
                row[first] = max(row[first], 1)
            residual[h] = row

        expected = reference_select(residual, plan.hub_ids, now_h, p, plan.weights, fix_all)
        got = _plan_select(plan, residual, now_h, fix_all)
        assert got == [(s.start_h, s.segments[0].hub_id, s.end_h) for s in expected]
        for start, h, _end in got:
            if not any(residual[h][:stop]):
                fix_all_late += fix_all
            elif not any(residual[h][: stop - 1]):
                edge_runs += start == stop - 1 and not fix_all
    assert edge_runs > 80 and fix_all_late > 800, (edge_runs, fix_all_late)


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
    # order, give the outputs of each run alone, forecast snapshots
    # included; each report's working rows are its own roster's working slots
    rng = np.random.default_rng(31)
    merged = snapshots = 0
    for i in range(50):
        horizon = int(rng.integers(6, 37))
        net = random_network(
            n_hubs=int(rng.integers(2, 9)), n_gateways=1, area_m=float(rng.uniform(1000, 6000)), seed=i
        )
        # sparse rows leave gaps that a merge can bridge
        arrivals = {
            h: ArrivalSeries(h, [int(v) for v in rng.integers(0, 600, horizon) * (rng.random(horizon) < 0.3)])
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
        collect = bool(rng.random() < 0.5)
        cfgs = [ScenarioConfig.for_scenario(n, net, arrivals, params, noise=noise) for n in (1, 2)]
        plan = RollingPlan(cfgs[0], collect_forecasts=collect)
        order = cfgs if rng.random() < 0.5 else cfgs[::-1]
        shared = {cfg.label: run_scenario(cfg, plan) for cfg in order}
        for cfg in cfgs:
            report = shared[cfg.label]
            alone = run_scenario(cfg, RollingPlan(cfg, collect_forecasts=collect))
            assert _outputs(report) == _outputs(alone), (i, cfg.label)
            working = {h: rows["working"] for h, rows in report.series.items()}
            assert working == _working_from_roster(report, horizon), (i, cfg.label)
            merged += report.merged_shift_count
            snapshots += len(report.forecast_snapshots)
        s1, s2 = (shared[cfg.label].series for cfg in cfgs)
        assert all(s1[h]["working"] is not s2[h]["working"] for h in s1)
    assert merged > 30 and snapshots > 0, (merged, snapshots)


def test_engines_on_one_plan_book_its_shifts():
    # every engine on a plan books the one-hub Shift the plan built for each
    # kept run it does not merge, in the plan's order: scenario 2 books
    # nothing else, scenarios 1 and 3 build a Shift only per merged pair;
    # and each gives the outputs of an engine that builds its own plan
    rng = np.random.default_rng(16)
    merged = shared = 0
    for i in range(60):
        horizon = int(rng.integers(6, 25))
        net = random_network(
            n_hubs=int(rng.integers(2, 9)), n_gateways=1, area_m=float(rng.uniform(1000, 6000)), seed=i
        )
        arrivals = {
            h: ArrivalSeries(h, [int(v) for v in rng.integers(0, 600, horizon) * (rng.random(horizon) < 0.4)])
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
        cfgs = {n: ScenarioConfig.for_scenario(n, net, arrivals, params, noise=noise) for n in (1, 2, 3)}
        for group in ((cfgs[1], cfgs[2]), (cfgs[3], dataclasses.replace(cfgs[3], label="again"))):
            plan = RollingPlan(group[0])
            reports = [run_scenario(cfg, plan) for cfg in group]
            built = {id(shift): k for k, shift in enumerate(shift for step in plan.steps for shift in step)}
            for cfg, report in zip(group, reports):
                assert _outputs(report) == _outputs(run_scenario(cfg)), (i, cfg.label)
                unmerged = [e.shift for e in report.roster if len(e.shift.segments) == 1]
                positions = [built[id(shift)] for shift in unmerged]
                assert positions == sorted(set(positions)), (i, cfg.label)
                if not cfg.allow_cross_hub:
                    assert len(unmerged) == len(report.roster), (i, cfg.label)
                    assert positions == list(range(len(built))), (i, cfg.label)
                merged += report.merged_shift_count
                shared += len(unmerged)
    assert merged > 30 and shared > 1000, (merged, shared)


def _plan_case():
    net = random_network(n_hubs=4, n_gateways=1, area_m=3000, seed=4)
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=20_000), 4)
    params = ScenarioParams(seed=4)
    return net, arrivals, params, RollingPlan(ScenarioConfig.for_scenario(1, net, arrivals, params, noise="paper"))


@pytest.mark.parametrize("field", ["network", "actuals", "params", "noise", "rolling"])
def test_a_plan_refuses_an_engine_that_plans_other_steps(field):
    net, arrivals, params, plan = _plan_case()
    other = {
        "network": dict(network=random_network(n_hubs=4, n_gateways=1, area_m=3000, seed=4)),
        "actuals": dict(actuals=dict(arrivals)),
        "params": dict(params=ScenarioParams(seed=4, dwell_h=2)),
        "noise": dict(noise="perfect"),
        "rolling": dict(rolling=False),
    }[field]
    cfg = ScenarioConfig.for_scenario(2, net, arrivals, params, noise="paper")
    with pytest.raises(ValueError, match=field):
        RollingEngine(dataclasses.replace(cfg, **other), plan=plan)


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


def test_a_plan_serves_other_rates_labels_and_moves():
    net, arrivals, params, plan = _plan_case()
    cfg = ScenarioConfig.for_scenario(1, net, arrivals, params, noise="paper")
    for other in (
        dict(rates=CostRates(hiring_per_day=20.0)),
        dict(label="another"),
        dict(allow_cross_hub=False),
        dict(params=ScenarioParams(seed=4)),  # an equal copy
    ):
        run_scenario(dataclasses.replace(cfg, **other), plan)
    assert len(plan.steps) == 24
