"""Shift scoring and the fix/defer decision.

A candidate shift's value is a weighted sum of three terms, each clamped to
[0, 1] so the total stays in [0, 1] when the weights sum to 1:

  urgency      target fix lead over the actual lead (start - now); 1 once
               the start is within the target lead
  utilization  working hours over the per-shift cap
  continuity   working hours over resting hours; 1 for rest-free shifts

The weights, the target lead ``fix_lead_h``, the cap ``max_work_h`` and the
threshold are ``ScenarioParams`` fields, which checks them. The value
depends only on a shift's start, working and resting hours, so it is
computed from those numbers: the engine scores within-hub candidates as
plain ``(start, end)`` runs (resting 0) and builds a ``Shift`` only for the
ones it fixes. A shift is fixed as soon as its value reaches the threshold
(inclusive).
"""

from __future__ import annotations


def shift_value(start_h: float, working_h: int, resting_h: int, now_h: float, params) -> float:
    """Score a candidate shift at the current time with the weights, target
    lead and cap of ``params`` (a ``ScenarioParams``). Raises on zero
    working hours; shifts already at or past their start are the caller's
    emergency path and score the maximal urgency term here."""
    if working_h == 0:
        raise ValueError("cannot value a shift with no working hours")
    lead = start_h - now_h

    urgency = 1.0 if lead <= params.fix_lead_h else min(1.0, params.fix_lead_h / lead)
    utilization = min(1.0, working_h / params.max_work_h)
    continuity = 1.0 if resting_h == 0 else min(1.0, working_h / resting_h)
    return (
        params.urgency_weight * urgency
        + params.utilization_weight * utilization
        + params.continuity_weight * continuity
    )


def should_fix(value: float, threshold: float) -> bool:
    """Fix once the value reaches the threshold (boundary inclusive)."""
    return value >= threshold
