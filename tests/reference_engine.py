"""A whole scenario-day built only from the test references: the oracle the
engine must match end to end.

Each replan step reads its forecast from the engine's own draw
(``RollingPlan(cfg).forecasts()``, the one source of the noise), rounds it
up to demand units, walks every origin of every slot's dwell window from
slot 0 against the capacity fixed so far
(``reference_kernels.fifo_match_units``), selects over every hub's whole
residual (``reference_selection.select``), merges the kept shifts over every
moving pair, capped by the hires a linear-scan pool would need
(``reference_merge.merge_across_hubs``, ``ScanPool.simulate_hires``), and
assigns that pool's workers. None of the engine's exact shortcuts is here:
no ``stop`` cut, no ``keepable_rows`` bound, no resumed walk and no
short-run merge filter. The late count, the series and the flows come from
loops of its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from hubroster.engine import RollingPlan
from hubroster.ledger import HIRING_PER_DAY, moving_payment
from hubroster.network import build_moving_pairs
from hubroster.shifts import RESTING, TRAVEL, WORKING
from reference_kernels import fifo_match_units
from reference_merge import merge_across_hubs
from reference_pool import ScanPool
from reference_selection import select


class Day(NamedTuple):
    """What a scenario-day reports, in the terms both sides can give:
    ``roster`` holds ``(segments, move distance, worker, fixed at, new
    hire)`` per entry in roster order."""

    roster: list[tuple]
    series: dict[int, dict]
    late_parcels: int
    flows: dict[tuple[int, int, int], int]


def day_of(report) -> Day:
    """The engine's ``SimReport`` as a ``Day``."""
    roster = [
        (e.shift.segments, e.shift.move_distance_m, e.worker_id, e.fixed_at_h, e.is_new_hire)
        for e in report.roster
    ]
    return Day(roster, report.series, report.late_parcels, report.flows)


def late_parcels(arrivals, working, dwell, rate) -> int:
    """First-in-first-out replay of one hub's arrivals against its working
    workers: a parcel is late when served after its origin + ``dwell``, or
    never served although that deadline lies inside the horizon."""
    n = len(arrivals)
    left = list(arrivals)
    late = 0
    for t in range(n):
        cap = working[t] * rate
        for origin in range(t + 1):
            take = min(cap, left[origin])
            if t > origin + dwell:
                late += take
            left[origin] -= take
            cap -= take
    return late + sum(left[origin] for origin in range(n) if origin + dwell < n)


def run(cfg) -> Day:
    """Scenario ``cfg``'s day (a ``ScenarioConfig``)."""
    p = cfg.params
    hub_ids = sorted(cfg.network.hub_ids)
    n = p.horizon_h
    working = {h: [0] * n for h in hub_ids}
    pairs = build_moving_pairs(cfg.network) if cfg.allow_cross_hub else []
    pool = ScanPool(p.max_work_h)
    roster = []
    for now_h, full in RollingPlan(cfg).forecasts():
        pool.release_finished(now_h)
        residual = {
            h: fifo_match_units([math.ceil(x / p.work_rate) for x in row], working[h], p.dwell_h)
            for h, row in zip(hub_ids, full.tolist())
        }
        kept = select(residual, hub_ids, now_h, p)
        for shift in kept:
            row = working[shift.segments[0].hub_id]
            for t in range(shift.start_h, shift.end_h):
                row[t] += 1
        if pairs:
            by_hub = {h: [s for s in kept if s.segments[0].hub_id == h] for h in hub_ids}
            budget = pool.simulate_hires(kept)
            kept = merge_across_hubs(
                by_hub, pairs, p.max_work_h, p.max_gap_h, HIRING_PER_DAY, moving_payment, budget
            )
        for shift in kept:
            worker, _lead, new_hire = pool.assign(shift, now_h)
            roster.append((shift.segments, shift.move_distance_m, worker, now_h, new_hire))

    resting = {h: [0] * n for h in hub_ids}
    flows = {}
    for segments, *_ in roster:
        for i, seg in enumerate(segments):
            if seg.kind == RESTING:
                for t in range(seg.start_h, seg.end_h):
                    resting[seg.hub_id][t] += 1
            elif seg.kind == TRAVEL:
                src = [s.hub_id for s in segments[:i] if s.kind == WORKING][-1]
                dst = [s.hub_id for s in segments[i:] if s.kind == WORKING][0]
                key = (src, dst, seg.start_h // 6 * 6)
                flows[key] = flows.get(key, 0) + 1
    series = {
        h: {"arrivals": cfg.actuals[h], "working": working[h], "resting": resting[h]} for h in hub_ids
    }
    late = sum(late_parcels(cfg.actuals[h], working[h], p.dwell_h, p.work_rate) for h in hub_ids)
    return Day(roster, series, late, flows)
