"""Shift scoring and the fix/defer decision.

A candidate shift's value is a weighted sum of three terms, each clamped to
[0, 1] so the total stays in [0, 1] when the weights sum to 1:

  urgency      target fix lead over the actual lead (start - now); 1 once
               the start is within the target lead
  utilization  working hours over the per-shift cap
  continuity   working hours over resting hours; 1 for rest-free shifts

The value depends only on a shift's start, working and resting hours, so it
is computed from those numbers: the engine scores within-hub candidates as
plain ``(start, end)`` runs (resting 0) and builds a ``Shift`` only for the
ones it fixes. A shift is fixed as soon as its value reaches the threshold
(inclusive).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ValueWeights:
    urgency: float = 0.4
    utilization: float = 0.3
    continuity: float = 0.3
    fix_lead_h: float = 4.0
    fix_threshold: float = 0.9

    def __post_init__(self):
        # each check is written so that a NaN fails it
        weights = (self.urgency, self.utilization, self.continuity)
        if not all(w >= 0 for w in weights):
            raise ValueError(f"value weights must be non-negative, got {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"value weights must sum to 1, got {total}")
        if not 0.0 <= self.fix_threshold <= 1.0:
            raise ValueError("fix_threshold must lie in [0, 1]")
        if not self.fix_lead_h > 0:
            raise ValueError(f"fix_lead_h must be positive, got {self.fix_lead_h}")

    @classmethod
    def from_params(cls, params) -> "ValueWeights":
        return cls(
            urgency=params.urgency_weight,
            utilization=params.utilization_weight,
            continuity=params.continuity_weight,
            fix_lead_h=params.fix_lead_h,
            fix_threshold=params.fix_threshold,
        )


def shift_value(
    start_h: float,
    working_h: int,
    resting_h: int,
    now_h: float,
    weights: ValueWeights,
    max_work_h: int,
) -> float:
    """Score a candidate shift at the current time. Raises on zero working
    hours; shifts already at or past their start are the caller's emergency
    path and score the maximal urgency term here."""
    if working_h == 0:
        raise ValueError("cannot value a shift with no working hours")
    lead = start_h - now_h

    urgency = 1.0 if lead <= weights.fix_lead_h else min(1.0, weights.fix_lead_h / lead)
    utilization = min(1.0, working_h / max_work_h)
    continuity = 1.0 if resting_h == 0 else min(1.0, working_h / resting_h)
    return (
        weights.urgency * urgency
        + weights.utilization * utilization
        + weights.continuity * continuity
    )


def should_fix(value: float, threshold: float) -> bool:
    """Fix once the value reaches the threshold (boundary inclusive)."""
    return value >= threshold
