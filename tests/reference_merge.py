"""Shift-based cross-hub merge: the reference the engine's merge must match.

Every kept run is a single-segment ``Shift``; the merge regroups them by
hub, re-sorts each hub's shifts, filters the moving pairs by cost on every
call, copies the runs out for ``merge_runs``, builds the merged shifts from
the input ``Shift``s and sorts the output by ``(start, first hub, end)``.
The engine keeps runs as ``(start, hub, end)`` tuples, filters the pairs
once and builds each output ``Shift`` once.
"""

import math

from hubroster import _kernels as kernels
from hubroster.ledger import moving_payment
from hubroster.shifts import RESTING, TRAVEL, WORKING, Segment, Shift


def sort_key(shift):
    return (shift.start_h, shift.segments[0].hub_id, shift.end_h)


def merge_across_hubs(
    per_hub_shifts, pairs, max_work_h, max_gap_h, hiring_cost, moving_cost_fn, max_merges=-1
):
    hub_ids = sorted(per_hub_shifts)
    runs_by_hub = []
    shifts_by_hub = []
    passthrough = []
    for hid in hub_ids:
        ordered = sorted(per_hub_shifts[hid], key=lambda s: (s.start_h, s.end_h))
        mergeable = []
        for s in ordered:
            if len(s.segments) == 1 and s.segments[0].kind == WORKING:
                mergeable.append(s)
            else:
                passthrough.append(s)
        shifts_by_hub.append(mergeable)
        runs_by_hub.append([(s.start_h, s.end_h) for s in mergeable])

    index = {hid: i for i, hid in enumerate(hub_ids)}
    kernel_pairs = []
    pair_refs = []
    for p in pairs:
        if p.hub_a not in index or p.hub_b not in index:
            continue
        if not moving_cost_fn(p.distance_m) < hiring_cost:
            continue
        kernel_pairs.append((index[p.hub_a], index[p.hub_b], p.travel_time_h))
        pair_refs.append(p)

    merges, used = kernels.merge_runs(runs_by_hub, kernel_pairs, max_work_h, max_gap_h, max_merges)

    out = []
    for p_idx, i, j, a_first in merges:
        pair = pair_refs[p_idx]
        sa = shifts_by_hub[index[pair.hub_a]][i]
        sb = shifts_by_hub[index[pair.hub_b]][j]
        first, second = (sa, sb) if a_first else (sb, sa)
        out.append(_build_merged(first, second, pair))

    for hub_pos, shifts in enumerate(shifts_by_hub):
        for k, s in enumerate(shifts):
            if not used[hub_pos][k]:
                out.append(s)
    out.extend(passthrough)
    out.sort(key=sort_key)
    return out


def _build_merged(first, second, pair):
    travel_slots = math.ceil(pair.travel_time_h)
    dest = second.segments[0].hub_id
    segs = list(first.segments)
    cursor = first.end_h
    if travel_slots > 0:
        segs.append(Segment(dest, cursor, cursor + travel_slots, TRAVEL))
        cursor += travel_slots
    if cursor < second.start_h:
        segs.append(Segment(dest, cursor, second.start_h, RESTING))
    segs.extend(second.segments)
    return Shift(segs, move_distance_m=pair.distance_m)


def merge_selected(engine, selected, pairs):
    """The step's merge of the kept shifts ``selected`` (sorted by
    ``sort_key``), as the engine ran it with the unfiltered moving ``pairs``
    on every step: called for cross-hub scenarios with more than one kept
    shift, capped by the hires the pool would need."""
    if not engine.cfg.allow_cross_hub or len(selected) <= 1:
        return selected
    budget = engine.pool.simulate_hires([s.working_h for s in selected])
    if budget == 0:
        return selected
    p = engine.cfg.params
    rates = engine.cfg.rates
    per_hub = {h: [] for h in engine.hub_ids}
    for s in selected:
        per_hub[s.segments[0].hub_id].append(s)
    return merge_across_hubs(
        per_hub,
        pairs,
        p.max_work_h,
        p.max_gap_h,
        rates.hiring_per_day,
        lambda d: moving_payment(d, rates),
        max_merges=budget,
    )
