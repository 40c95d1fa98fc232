"""Shift-based candidate selection: the reference the engine's selection
must match.

Every within-hub run becomes a single-segment ``Shift``; the whole list is
sorted by (start, hub, end) and walked once, keeping a candidate when it
starts before the next replan (or everything is forced) or when its value,
read off the ``Shift``, reaches the threshold. The engine keeps candidates
as ``(start, hub, end)`` tuples and builds a ``Shift`` only for kept ones.

The value knobs are read from a ``ScenarioParams``, as the engine reads
them; ``with_weights`` replaces the five of them in one.

``fix_reach`` is the closed-form lead past which no run reaches the
threshold; the engine's step stop, the length of its fix-length table
(``RollingPlan._fix_lengths``), must never lie past the slot it gives.
"""

import dataclasses
import math

from hubroster.shifts import WORKING, Segment, Shift
from reference_kernels import within_hub_runs


def with_weights(params, urgency, utilization, continuity, fix_lead_h, fix_threshold):
    """A copy of ``params`` with the value function's weights, target lead
    and threshold replaced (and checked, as every ``ScenarioParams`` is)."""
    return dataclasses.replace(
        params,
        urgency_weight=urgency,
        utilization_weight=utilization,
        continuity_weight=continuity,
        fix_lead_h=fix_lead_h,
        fix_threshold=fix_threshold,
    )


def shift_value(shift, now_h, params):
    working = shift.working_h
    if working == 0:
        raise ValueError("cannot value a shift with no working hours")
    resting = shift.resting_h
    lead = shift.start_h - now_h

    urgency = 1.0 if lead <= params.fix_lead_h else min(1.0, params.fix_lead_h / lead)
    utilization = min(1.0, working / params.max_work_h)
    continuity = 1.0 if resting == 0 else min(1.0, working / resting)
    return (
        params.urgency_weight * urgency
        + params.utilization_weight * utilization
        + params.continuity_weight * continuity
    )


def fix_reach(params):
    """The largest lead (hours ahead of now) at which a run can still reach
    the threshold; no run starting further ahead is fixed by value.

    The utilization and continuity terms are at most 1 (continuity is
    exactly 1 for a within-hub run, which rests 0 h), and past the target
    lead the urgency term is ``fix_lead_h / lead``. A shift's value is
    therefore at most
    ``urgency * fix_lead_h / lead + utilization + continuity``, which
    reaches ``fix_threshold`` only while

        lead <= urgency * fix_lead_h / (fix_threshold - utilization - continuity).

    At the defaults that is 0.4 * 4 / 0.3 = 5.33 h. None when the threshold
    is at most ``utilization + continuity`` (any lead can qualify), or within
    1e-9 of it, so that float rounding of the value never decides a run past
    the reach.
    """
    gap = params.fix_threshold - params.utilization_weight - params.continuity_weight
    if gap <= 1e-9:
        return None
    return params.urgency_weight * params.fix_lead_h / gap


def candidates(residual, hub_ids, dwell_h, max_work_h, start_min):
    out = []
    for h in hub_ids:
        runs, _served, _dropped = within_hub_runs(list(residual[h]), dwell_h, max_work_h, start_min)
        out.extend(Shift([Segment(h, s, e, WORKING)]) for s, e in runs)
    out.sort(key=lambda s: (s.start_h, s.segments[0].hub_id, s.end_h))
    return out


def select(residual, hub_ids, now_h, params, fix_all=False):
    first_slot = math.ceil(now_h - 1e-9)
    horizon_edge = now_h + params.replan_h + 1e-9
    selected = []
    for cand in candidates(residual, hub_ids, params.dwell_h, params.max_work_h, first_slot):
        if cand.start_h <= horizon_edge or fix_all:
            selected.append(cand)
        elif shift_value(cand, now_h, params) >= params.fix_threshold:
            selected.append(cand)
    return selected
