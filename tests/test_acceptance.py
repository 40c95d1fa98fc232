"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The randomized suite is fixed-seed (0..199) and the
merge showcase instances exercise cross-hub relocation deterministically.
"""

import json
import math
import time

import numpy as np
import pytest

from hubroster.config import ScenarioParams
from hubroster.demand import GeneratorConfig, forecast_matrix, generate_arrivals
from hubroster.engine import ScenarioConfig, replay_execution, run_scenario
from hubroster.ledger import (
    HIRING_PER_DAY,
    HOURLY,
    LATENESS_PER_PARCEL,
    WAITING_HOURLY,
    CostLedger,
    accrue_shift,
    emergency_penalty,
    lateness_penalty,
    moving_payment,
)
from hubroster.network import Hub, HubNetwork, random_network
from hubroster.shifts import Segment, Shift, combine_within_hub_detail, merge_across_hubs
from hubroster.valuation import shift_value, should_fix
from oracle_enum import min_workers_single_hub, min_workers_two_hub

RATE = 150
RHO = 8
DWELL = 1
MAX_GAP = 2


def _combined(x, dwell, rho, hub=0):
    """A hub's within-hub runs as single-segment working shifts."""
    runs, _left, _dropped = combine_within_hub_detail(x, dwell, rho)
    return [Shift([Segment(hub, s, e, "working")]) for s, e in runs]


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


# ------------------------------------------------------------ shared suites


def _suite_instance(seed):
    n_hubs = 2 + seed % 9
    net = random_network(n_hubs=n_hubs, n_gateways=max(1, n_hubs // 3), area_m=3500.0, seed=seed)
    volume = 3000 + (seed * 997) % 25000
    arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=volume), seed)
    return net, arrivals


def _showcase_instance(seed):
    """Complementary cross-hub peaks: a short gateway fragment commits in the
    same pass as a nearby local hub's six-hour block, so the greedy merge
    relocates one worker instead of hiring a second."""
    rng = np.random.default_rng(seed)
    frag_len = int(rng.integers(1, 3))
    frag_start = int(rng.integers(1, 8))
    dist = float(rng.integers(600, 2800))
    block_start = frag_start + frag_len + (3 - frag_len)  # same-pass commitment
    net = HubNetwork(
        [Hub(0, "G00", 0.0, 0.0, "gateway"), Hub(1, "L01", dist, 0.0, "local")],
        d_max_m=3000,
        speed_m_per_h=15000,
    )
    rows = {0: [0] * 24, 1: [0] * 24}
    for t in range(frag_start, frag_start + frag_len):
        rows[0][t] = 150
    for t in range(block_start, block_start + 6):
        rows[1][t] = 150
    return net, rows


@pytest.fixture(scope="module")
def suite200():
    out = []
    for seed in range(200):
        net, arrivals = _suite_instance(seed)
        cfg = ScenarioConfig(1, net, arrivals, ScenarioParams(seed=seed), "perfect")
        out.append((net, arrivals, run_scenario(cfg)))
    return out


@pytest.fixture(scope="module")
def showcase():
    out = []
    for seed in range(300, 310):
        net, arrivals = _showcase_instance(seed)
        params = ScenarioParams(seed=seed)
        r1 = run_scenario(ScenarioConfig(1, net, arrivals, params, "perfect"))
        r2 = run_scenario(ScenarioConfig(2, net, arrivals, params, "perfect"))
        out.append((net, arrivals, r1, r2))
    return out


# -------------------------------------------------------------- criterion 1


def test_criterion_01_price_table():
    def check():
        assert HIRING_PER_DAY == 50  # per person per day
        assert HOURLY == 20  # per person per hour
        assert WAITING_HOURLY == 5  # per person per hour at hubs
        for dist, fee in [(0, 10), (2999, 10), (3000, 10), (3001, 20), (10_000, 20)]:
            assert moving_payment(dist) == fee
        assert LATENESS_PER_PARCEL == 5
        for lead, fee in [(0, 20), (0.99, 20), (1, 15), (1.99, 15), (2, 10), (3.5, 10),
                          (4, 5), (7.99, 5), (8, 0), (24, 0)]:
            assert emergency_penalty(lead) == fee

    _report(1, "unit price table pinned exactly", check)


# -------------------------------------------------------------- criterion 2


def test_criterion_02_conservation(suite200):
    def check():
        for net, arrivals, report in suite200:
            for hub in net.hubs:
                got = sum(
                    seg.hours
                    for e in report.roster
                    for seg in e.shift.segments
                    if seg.kind == "working" and seg.hub_id == hub.id
                )
                need = sum(math.ceil(a / RATE) for a in arrivals[hub.id])
                assert got == need, (hub.id, got, need)

    _report(2, "perfect-prediction rosters conserve ceil(arrivals/rate) per hub, 200 seeds", check)


# -------------------------------------------------------------- criterion 3


def test_criterion_03_constraints(suite200, showcase):
    def check():
        reports = [(net, rep) for net, _a, rep in suite200]
        reports += [(net, r1) for net, _a, r1, _r2 in showcase]
        merged_seen = 0
        for net, report in reports:
            for e in report.roster:
                shift = e.shift
                assert shift.working_h <= RHO
                work = [seg for seg in shift.segments if seg.kind == "working"]
                for a, b in zip(work, work[1:]):
                    assert a.end_h <= b.start_h  # no overlapping hours
                if len({seg.hub_id for seg in work}) > 1:
                    merged_seen += 1
                    first, second = work
                    gap = second.start_h - first.end_h
                    dist = net.distance_m(first.hub_id, second.hub_id)
                    travel_h = dist / net.speed_m_per_h
                    assert travel_h <= gap <= MAX_GAP
                    assert dist <= net.d_max_m
                    assert moving_payment(dist) < HIRING_PER_DAY
        assert merged_seen >= 5  # the audit actually exercised merged shifts

    _report(3, "every roster shift satisfies hour cap and merge feasibility", check)


# -------------------------------------------------------------- criterion 4


def _hall_violation(arrivals, capacity, dwell, n):
    """Certificate that lateness is unavoidable: parcels arriving in some
    window [t1, t2] can only be served in [t1, t2 + dwell]; if the scheduled
    capacity there cannot absorb them, at least one parcel misses its
    deadline no matter how service is ordered."""
    cum_a = np.concatenate([[0], np.cumsum(arrivals)])
    cum_c = np.concatenate([[0], np.cumsum(capacity)])
    for t1 in range(n):
        for t2 in range(t1, n):
            if t2 + dwell > n - 1:
                break  # deadline beyond the horizon rolls to the next day
            window_arrivals = cum_a[t2 + 1] - cum_a[t1]
            window_capacity = (cum_c[t2 + dwell + 1] - cum_c[t1]) * RATE
            if window_arrivals > window_capacity:
                return True
    return False


def test_criterion_04_dwell_lateness():
    def check():
        for seed in (0, 1, 2):
            net = random_network(n_hubs=5, n_gateways=2, area_m=5000, seed=seed)
            arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=120_000), seed)
            for scenario in (1, 2, 3):
                cfg = ScenarioConfig(
                    scenario, net, arrivals, ScenarioParams(seed=seed), noise="perfect"
                )
                assert run_scenario(cfg).late_parcels == 0
        # under forecast noise, a day-start plan that provably under-provisions
        # some hub must pay lateness (dense hubs: little rounding slack)
        flagged = checked = 0
        for seed in range(6):
            net = random_network(n_hubs=6, n_gateways=2, area_m=6000, seed=seed)
            arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=3_000_000), seed)
            cfg = ScenarioConfig(
                3, net, arrivals, ScenarioParams(seed=seed), noise="paper"
            )
            report = run_scenario(cfg)
            checked += 1
            capacity = {h: report.series[h]["working"] for h in report.series}
            if any(
                _hall_violation(arrivals[h], capacity[h], DWELL, 24)
                for h in capacity
            ):
                flagged += 1
                assert report.late_parcels > 0
        assert flagged > 0, f"no under-provisioned instance among {checked}"

    _report(4, "lateness is zero under perfect prediction, positive for under-provisioned day-start plans", check)


# -------------------------------------------------------------- criterion 5


def test_criterion_05_scenario_ordering(suite200, showcase):
    def check():
        fired = 0
        for idx, (net, arrivals, r1) in enumerate(suite200):
            if r1.merged_shift_count == 0:
                continue
            fired += 1
            cfg = ScenarioConfig(
                2, net, arrivals, ScenarioParams(seed=idx), noise="perfect"
            )
            r2 = run_scenario(cfg)
            assert r1.ledger.total <= r2.ledger.total, (idx, r1.ledger.total, r2.ledger.total)
        for _net, _arrivals, r1, r2 in showcase:
            if r1.merged_shift_count == 0:
                continue
            fired += 1
            assert r1.ledger.total <= r2.ledger.total
        assert fired >= 3, "no instances with cross-hub merges to compare"

    _report(5, "allowing relocation never costs more whenever a merge fires", check)


# -------------------------------------------------------------- criterion 6


def test_criterion_06_small_instance_oracle():
    def check():
        t0 = time.perf_counter()
        single_cases = [
            ([1, 1, 0, 1], 1, 8),
            ([1, 0, 0, 1], 1, 8),
            ([2, 0, 1], 1, 8),
            ([2, 2, 1, 0, 1, 1], 1, 8),
            ([1, 2, 0, 2, 0, 1], 2, 8),
            ([2, 1, 2, 1, 2, 1], 1, 8),
            ([1, 1, 1, 1, 1, 1], 0, 3),
            ([2, 0, 0, 2, 0, 0], 2, 8),
            ([0, 2, 2, 0, 1, 0], 1, 4),
            ([1, 0, 1, 0, 1, 0], 1, 8),
            ([2, 2, 2, 2, 0, 0], 1, 3),
            ([1, 2, 1, 0, 0, 2], 2, 8),
        ]
        for x, dwell, rho in single_cases:
            shifts = _combined(x, dwell, rho)
            assert sum(s.working_h for s in shifts) == sum(x)
            assert all(s.working_h <= rho for s in shifts)
            best = min_workers_single_hub(x, dwell, rho)
            assert len(shifts) >= best, (x, dwell, rho, len(shifts), best)

        net = HubNetwork(
            [Hub(0, "A", 0, 0, "local"), Hub(1, "B", 2000, 0, "local")], 3000, 15000
        )
        from hubroster.network import build_moving_pairs

        pairs = build_moving_pairs(net)
        travel = pairs[0].travel_time_h
        two_hub_cases = [
            ([1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0], 1),
            ([2, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], 1),
            ([1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1], 1),
            ([1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 2, 0], 2),
            ([0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], 1),
        ]
        for xa, xb, dwell in two_hub_cases:
            runs = sorted(
                (s, h, e) for h, x in ((0, xa), (1, xb)) for s, e in combine_within_hub_detail(x, dwell, RHO)[0]
            )
            shifts = [Shift([Segment(h, s, e, "working")]) for s, h, e in runs]
            # both hubs 2000 m apart: a 10-Yuan move under the 50-Yuan hire;
            # no merge count reaches the shift count
            out = merge_across_hubs(shifts, pairs, RHO, MAX_GAP, len(shifts))
            assert sum(s.working_h for s in out) == sum(xa) + sum(xb)
            best = min_workers_two_hub(xa, xb, dwell, RHO, travel, MAX_GAP, True)
            assert len(out) >= best, (xa, xb, len(out), best)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"

    _report(6, "exhaustive tiny-instance search confirms heuristic feasibility and bound", check)


# -------------------------------------------------------------- criterion 7


def test_criterion_07_value_regression():
    def check():
        params = ScenarioParams(max_work_h=RHO)  # 0.4 / 0.3 / 0.3, fix lead 4 h

        def value(shift):
            return shift_value(shift.start_h, shift.working_h, shift.resting_h, 0, params)

        full = Shift([Segment(0, 4, 12, "working")])
        assert abs(value(full) - 1.0) < 1e-9
        rest_heavy = Shift(
            [Segment(0, 16, 18, "working"), Segment(0, 18, 24, "resting")]
        )
        assert abs(value(rest_heavy) - 0.275) < 1e-9
        assert should_fix(1.0, 0.9)
        assert not should_fix(0.275, 0.9)
        assert should_fix(0.9, 0.9)

    _report(7, "value-function worked examples reproduce to 1e-9", check)


# -------------------------------------------------------------- criterion 8


def test_criterion_08_forecast_convergence():
    def check():
        rng = np.random.default_rng(8)
        for _ in range(1000):
            actuals = rng.integers(0, 1_000_000, size=(1, 24))
            t = int(rng.integers(0, 24))
            u = rng.uniform(-1.0, 1.0, size=(1, 24 - t))
            assert forecast_matrix(actuals, float(t), t, u)[0, 0] == actuals[0, t]

    _report(8, "forecast at zero lead equals the actual count exactly, 1000 draws", check)


# -------------------------------------------------------------- criterion 9


def test_criterion_09_scale_runtime():
    def check():
        net = random_network(n_hubs=52, n_gateways=3, area_m=24_000, seed=42)
        arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=1_173_253), 42)
        total = sum(map(sum, arrivals.values()))
        assert total == 1_173_253
        cfg = ScenarioConfig(1, net, arrivals, ScenarioParams(seed=42), "paper")
        t0 = time.perf_counter()
        report = run_scenario(cfg)
        elapsed = time.perf_counter() - t0
        print(f"\n    52-hub day: {len(report.roster)} shifts in {elapsed:.2f}s", end=" ")
        assert elapsed < 120.0, f"paper-scale run took {elapsed:.1f}s (budget 120s)"
        assert sum(e.shift.working_h for e in report.roster) > 0

    _report(9, "52-hub, 1.17M-arrival day schedules within the runtime budget", check)


# ------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    def check():
        from hubroster.cli import main

        cfg = {
            "seed": 5,
            "network": {"hubs": 6, "gateways": 2, "area_km": 5.0,
                        "move_radius_m": 3000.0, "walk_speed_m_per_h": 15000.0},
            "arrivals": {"daily_volume": 60000, "gateway_weight": 8.0, "hub_jitter": 0.2,
                         "cell_jitter": 0.25, "local_peak_h": 12, "gateway_peak_h": 2},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["run", "--out", str(out), "--scenario", "all", "--noise", "paper"]) == 0
            outs.append(out)
        for k in (1, 2, 3):
            for stem in (f"ledger_s{k}.json", f"ledger_s{k}.csv", f"roster_s{k}.csv"):
                assert (outs[0] / stem).read_bytes() == (outs[1] / stem).read_bytes(), stem

    _report(10, "same seed and config produce byte-identical roster and ledger files", check)


# ------------------------------------------------------------- criterion 11


def _audit_ledger(net, report):
    """Re-book the roster from its segments, fix times and the network.

    Each shift is rebuilt from its segments alone, so the stored
    ``move_distance_m`` is never read: every move is booked here at the
    network's distance between its two hubs, and a merge that stored a
    wrong distance fails the audit."""
    ledger = CostLedger()
    seen_workers = set()
    for e in report.roster:
        is_new = e.worker_id not in seen_workers
        seen_workers.add(e.worker_id)
        accrue_shift(Shift(e.shift.segments), e.shift.start_h - e.fixed_at_h, is_new, ledger)
        for src, dst, _seg in e.shift.moves():
            ledger.moving += moving_payment(net.distance_m(src, dst))
    capacity = {h: [0] * 24 for h in net.hub_ids}
    for e in report.roster:
        for seg in e.shift.segments:
            if seg.kind == "working":
                for t in range(seg.start_h, seg.end_h):
                    capacity[seg.hub_id][t] += 1
    arrivals = {h: report.series[h]["arrivals"] for h in report.series}
    late = replay_execution(arrivals, capacity, DWELL, RATE)
    lateness_penalty(late, ledger)
    return ledger


def test_criterion_11_ledger_audit(suite200, showcase):
    def check():
        picks = [(suite200[i][0], suite200[i][2]) for i in (3, 57, 141)]
        picks += [(net, r1) for net, _a, r1, _r2 in showcase[:3]]
        net = random_network(n_hubs=5, n_gateways=2, area_m=6000, seed=9)
        arrivals = generate_arrivals(net, GeneratorConfig(daily_volume=200_000), 9)
        noisy = run_scenario(
            ScenarioConfig(3, net, arrivals, ScenarioParams(seed=9), "paper")
        )
        picks.append((net, noisy))
        for net_i, report in picks:
            audited = _audit_ledger(net_i, report)
            assert audited.to_dict() == report.ledger.to_dict()

    _report(11, "replaying roster dumps through the accrual ops reproduces every ledger", check)


# ------------------------------------------------ roster-derived outputs


def test_series_and_flows_match_roster_rewalk(suite200, showcase):
    """The working and resting rows of ``series`` and the relocation
    ``flows`` equal a slot-by-slot re-walk of the roster done here, without
    the engine's derivation, and the hires are the roster's workers."""
    reports = [(net, rep) for net, _a, rep in suite200]
    reports += [(net, r) for net, _a, r1, r2 in showcase for r in (r1, r2)]
    rested = moved = 0
    for net, report in reports:
        working = {h: [0] * 24 for h in net.hub_ids}
        resting = {h: [0] * 24 for h in net.hub_ids}
        flows = {}
        for e in report.roster:
            left_from = None  # (hub, travel start) while a worker is on the way
            last_hub = None
            for seg in e.shift.segments:
                for t in range(seg.start_h, seg.end_h):
                    if seg.kind == "working":
                        working[seg.hub_id][t] += 1
                    elif seg.kind == "resting":
                        resting[seg.hub_id][t] += 1
                if seg.kind == "travel":
                    left_from = (last_hub, seg.start_h)
                elif seg.kind == "working":
                    if left_from is not None:
                        src, start = left_from
                        key = (src, seg.hub_id, start - start % 6)
                        flows[key] = flows.get(key, 0) + 1
                        left_from = None
                    last_hub = seg.hub_id
        for h in net.hub_ids:
            assert report.series[h]["working"] == working[h]
            assert report.series[h]["resting"] == resting[h]
        assert report.flows == flows
        # hiring is charged once per worker: one new-hire entry per distinct worker
        roster = report.roster
        assert report.hires == sum(e.is_new_hire for e in roster) == len({e.worker_id for e in roster})
        rested += sum(sum(row) for row in resting.values())
        moved += sum(flows.values())
    assert rested > 0 and moved >= 5
