"""Structural shift invariants the tests check every built roster against."""

from __future__ import annotations

from hubroster.shifts import WORKING, Shift


def validate_shift(shift: Shift, max_work_h: int) -> None:
    """Assert the structural shift invariants; raises ValueError on breach."""
    segs = shift.segments
    if not segs:
        raise ValueError("shift has no segments")
    for a, b in zip(segs, segs[1:]):
        if a.end_h != b.start_h:
            raise ValueError("segments must be contiguous")
    if shift.working_h == 0:
        raise ValueError("shift has no working hours")
    if shift.working_h > max_work_h:
        raise ValueError(f"working hours {shift.working_h} exceed cap {max_work_h}")
    for a, b in zip(segs, segs[1:]):
        if a.kind == WORKING and b.kind == WORKING and a.hub_id != b.hub_id:
            raise ValueError("hub change without a travel segment")
