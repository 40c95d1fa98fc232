#!/usr/bin/env python3
"""Micro-benchmarks of the scheduling kernels in ``hubroster._kernels`` and
of the workforce pool.

Times each hot kernel, pool assignment with hire simulation, and the booking
of roster entries (build each ``Shift``, assign it, append its
``RosterEntry``, then derive the ledger and tables from the whole roster) on
synthetic workloads and prints the fastest of three runs. ``within_hub_runs``
is also timed with its search cut where the engine cuts it at hour 0 under
the default parameters and on gateway-sized rows. ``fifo_match_units``
walks slot-major 24-slot by 52-hub matrices, as the engine does once per
replan step: from slot 0, with capacity zero ahead of the slots fixed so
far; resumed from a settled slot; and resumed at a slot past the last one
with capacity, where the whole walk is the one-call capacity-free tail.
``keepable_rows`` bounds the residual matrices of that from-slot-0 walk
with each step's fix-length table under the default parameters, building
the table's spans on every call as the engine does. ``merge_runs`` is
capped at the run count, which no merge count reaches.
End-to-end timings of the ``hubroster`` command line come from
``perfbench/run.py``:

    python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from hubroster import _kernels as kernels
from hubroster.engine import RollingPlan, RosterEntry, ScenarioConfig, roster_tables
from hubroster.network import random_network
from hubroster.pool import WorkforcePool
from hubroster.shifts import WORKING, Segment, Shift
from hubroster.config import ScenarioParams
from hubroster.valuation import shift_value, should_fix


def _time(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_within_hub(rows, dwell, stop=None):
    def run():
        for x in rows:
            kernels.within_hub_runs(x, dwell, 8, 0, stop)

    return run


def bench_merge(runs_by_hub, pairs):
    cap = sum(map(len, runs_by_hub))

    def run():
        for _ in range(50):
            kernels.merge_runs([list(r) for r in runs_by_hub], pairs, 8, 2, cap)

    return run


def bench_match(demand_mats, cap_mats, dwell=1, starts=None, cleared_mats=None):
    """Walk each slot-major ``(n, hubs)`` demand matrix against its
    capacity, from slot 0 into a scratch matrix, or from ``starts[i]`` on in
    ``cleared_mats[i]``."""
    starts = starts or [0] * len(demand_mats)
    cleared_mats = cleared_mats or [np.zeros_like(demand) for demand in demand_mats]

    def run():
        for demand, cap, start, cleared in zip(demand_mats, cap_mats, starts, cleared_mats):
            kernels.fifo_match_units(demand, cap, dwell, start, cleared)

    return run


def bench_keepable(residual_mats, starts, tables, dwell=3):
    """Bound each slot-major ``(n, hubs)`` residual matrix with the
    fix-length table ``tables[i]`` from slot ``starts[i]`` on."""

    def run():
        for residual, first_slot, need in zip(residual_mats, starts, tables):
            kernels.keepable_rows(residual, first_slot, need, dwell)

    return run


def bench_replay(arrival_rows, cap_rows):
    def run():
        for arr, cap in zip(arrival_rows, cap_rows):
            kernels.fifo_replay(arr, cap, 1, 150)

    return run


def bench_pool(n_workers, batches):
    """A late-day pool: ``n_workers`` hired in the morning, nine in ten of
    them with the whole 8 h budget used, then one replan per batch that
    simulates the batch's hires and assigns it."""
    morning = [Shift([Segment(0, 0, 8 if i % 10 else 4, "working")]) for i in range(n_workers)]

    def run():
        pool = WorkforcePool(daily_cap_h=8)
        for shift in morning:
            pool.assign(shift, 0)
        for now, batch in batches:
            pool.release_finished(now)
            pool.simulate_hires([shift.working_h for shift in batch])
            for shift in batch:
                pool.assign(shift, now)

    return run


def bench_book(steps, hub_ids, horizon_h):
    """Booking roster entries as ``RollingEngine`` does: one replan step per
    ``(now, runs)`` releases the finished workers, then for each
    ``(start, hub, end)`` run builds its one-hub ``Shift``, assigns it a
    pooled worker or a hire and appends its ``RosterEntry``; after the last
    step ``roster_tables`` derives the ledger, resting rows and flows."""

    def run():
        pool = WorkforcePool(daily_cap_h=8)
        roster = []
        for now, runs in steps:
            pool.release_finished(now)
            for start, hub, end in runs:
                shift = Shift((Segment(hub, start, end, WORKING),))
                worker, _lead, new_hire = pool.assign(shift, now)
                roster.append(RosterEntry(shift, worker, now, new_hire))
        roster_tables(roster, hub_ids, horizon_h)

    return run


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    n_rows = 500 if args.quick else 5000
    rows = [[int(v) for v in rng.integers(0, 8, 24)] for _ in range(n_rows)]
    runs_by_hub = []
    for _ in range(52):
        runs = sorted(
            (int(s), int(s) + int(l))
            for s, l in zip(rng.integers(0, 18, 25), rng.integers(1, 8, 25))
        )
        runs_by_hub.append([(s, min(e, 24)) for s, e in runs])
    pairs = []
    for i in range(52):
        for j in range(i + 1, 52):
            if rng.random() < 0.12:
                pairs.append((i, j, float(rng.random())))
    # the engine's stop at hour 0 with the default weights and 1 h replan:
    # the first slot past the replan where a full-length run scores below
    # the threshold (slot 6)
    params = ScenarioParams()
    stop = next(
        s
        for s in range(2, 24)
        if not should_fix(shift_value(s, 8, 0, 0.0, params), params.fix_threshold)
    )
    arrival_rows = [[int(v) for v in rng.integers(0, 3000, 24)] for _ in range(500)]
    cap_rows = [[int(v) for v in rng.integers(0, 20, 24)] for _ in range(500)]
    # the engine's residual input, one slot-major 24-slot by 52-hub matrix
    # per step of a 24 h day (ten days): the fixed roster's capacity up to
    # the step's slot and none ahead of it
    starts = [i % 24 for i in range(240)]
    slots = np.arange(24)[:, None]
    demand_mats = [rng.integers(0, 8, (24, 52)) for _ in starts]
    cap_mats = [rng.integers(0, 20, (24, 52)) for _ in starts]
    engine_cap_mats = [np.where(slots < at, cap, 0) for at, cap in zip(starts, cap_mats)]
    # the engine's resumed walk: the walk's state is settled before the
    # step's slot (here by one walk from slot 0), fixed runs reach at most
    # 8 h past it, and the walk goes on from the slot to the horizon's end
    resumed_cap_mats = [np.where(slots < at + 8, cap, 0) for at, cap in zip(starts, cap_mats)]
    cleared_mats = [np.zeros_like(demand) for demand in demand_mats]
    bench_match(demand_mats, resumed_cap_mats, 3, None, cleared_mats)()
    # the same walk settled up to the step's slot with no capacity from
    # there on: the resumed walk is the capacity-free tail alone
    tail_cleared_mats = [np.zeros_like(demand) for demand in demand_mats]
    bench_match(demand_mats, engine_cap_mats, 3, None, tail_cleared_mats)()
    residual_mats = [
        kernels.fifo_match_units(demand, cap, 3, 0, np.zeros_like(demand))
        for demand, cap in zip(demand_mats, engine_cap_mats)
    ]
    # each step's fix-length table, as the engine builds it (1 h replan)
    net = random_network(n_hubs=1, n_gateways=1)
    plan = RollingPlan(ScenarioConfig(1, net, {h: [0] * 24 for h in net.hub_ids}, params))
    tables = [plan._fix_lengths(at, at) for at in starts]

    n_workers = 130 if args.quick else 1300
    batches = [
        (now, [Shift([Segment(0, now, now + int(w), "working")]) for w in rng.integers(1, 4, 60)])
        for now in range(12, 22)
    ]
    # a day's roster: 24 hourly steps, each fixing runs of 1-8 h that start
    # within 4 h of it at one of 52 hubs, so every run ends by hour 23 + 3 + 8
    per_step = 16 if args.quick else 160
    book_steps = []
    for now in range(24):
        draws = rng.integers((0, 0, 1), (4, 52, 9), (per_step, 3)).tolist()
        book_steps.append((now, sorted((now + s, h, now + s + length) for s, h, length in draws)))
    # gateway hubs hold 30-60 units per slot, so most demand forms stacked full-length runs
    gateway_rows = [[int(v) for v in rng.integers(30, 61, 24)] for _ in range(n_rows)]

    results = {
        "within_hub_runs (dwell 1)": _time(bench_within_hub(rows, 1)),
        "within_hub_runs (dwell 3)": _time(bench_within_hub(rows, 3)),
        "within_hub_runs (dwell 3, stop)": _time(bench_within_hub(rows, 3, stop)),
        "within_hub_runs (dwell 3, gateway rows)": _time(bench_within_hub(gateway_rows, 3)),
        "merge_runs (capped at the run count)": _time(bench_merge(runs_by_hub, pairs)),
        "fifo_match_units": _time(bench_match(demand_mats, cap_mats)),
        "fifo_match_units (dwell 3, engine steps)": _time(bench_match(demand_mats, engine_cap_mats, 3)),
        "fifo_match_units (dwell 3, resumed)": _time(
            bench_match(demand_mats, resumed_cap_mats, 3, starts, cleared_mats)
        ),
        "fifo_match_units (dwell 3, capacity-free tail)": _time(
            bench_match(demand_mats, engine_cap_mats, 3, starts, tail_cleared_mats)
        ),
        "keepable_rows (dwell 3, engine steps, spans built)": _time(
            bench_keepable(residual_mats, starts, tables)
        ),
        "fifo_replay": _time(bench_replay(arrival_rows, cap_rows)),
        f"pool assign + simulate_hires ({n_workers} pooled)": _time(bench_pool(n_workers, batches)),
        f"book {24 * per_step} roster entries: Shift + assign + RosterEntry, then roster_tables": _time(
            bench_book(book_steps, range(52), 24 + 3 + 8)
        ),
    }
    width = max(len(k) for k in results)
    for key, seconds in results.items():
        print(f"{key:<{width}}  {seconds:>9.4f}s")


if __name__ == "__main__":
    main()
