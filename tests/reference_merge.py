"""Shift-based cross-hub merge: the reference the engine's merge must match.

Every kept run is a single-segment ``Shift``; the merge regroups them by
hub, re-sorts each hub's shifts, filters the moving pairs by cost on every
call, copies the runs out for the all-pairs scan
(``reference_kernels.merge_runs``), builds the merged shifts from
the input ``Shift``s and sorts the output by ``(start, first hub, end)``.
The engine keeps every pair (a move costs less than a hire), takes the
plan's one-hub shifts already sorted, builds a ``Shift`` only for each merged pair and returns every
other input shift as itself.
"""

import math

from hubroster.shifts import RESTING, TRAVEL, WORKING, Segment, Shift
from reference_kernels import merge_runs


def sort_key(shift):
    return (shift.start_h, shift.segments[0].hub_id, shift.end_h)


def merge_across_hubs(
    per_hub_shifts, pairs, max_work_h, max_gap_h, hiring_cost, moving_cost_fn, max_merges
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

    merges, used = merge_runs(runs_by_hub, kernel_pairs, max_work_h, max_gap_h, max_merges)

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

