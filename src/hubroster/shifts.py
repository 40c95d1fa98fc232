"""Shift construction: maximal runs, within-hub combination, cross-hub merging.

A shift is an ordered list of segments (working / resting / travel) assigned
to one worker. Within-hub construction produces single-segment working
shifts; the cross-hub merge pass may join two of them with a travel segment
and, if the gap is longer than the travel, a resting segment at the
destination hub.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels as kernels
from .network import MovingPair

WORKING = "working"
RESTING = "resting"
TRAVEL = "travel"


@dataclass(frozen=True)
class Segment:
    hub_id: int
    start_h: int
    end_h: int  # exclusive
    kind: str  # working / resting / travel

    def __post_init__(self):
        if self.start_h >= self.end_h:
            raise ValueError("segment must have positive length")
        if self.kind not in (WORKING, RESTING, TRAVEL):
            raise ValueError(f"unknown segment kind {self.kind!r}")

    @property
    def hours(self) -> int:
        return self.end_h - self.start_h


@dataclass
class Shift:
    """One worker's plan: contiguous segments from first start to last end."""

    segments: list[Segment]
    fixed_at_h: float | None = None
    move_distance_m: float = 0.0  # total relocation distance, 0 for one-hub shifts

    @property
    def start_h(self) -> int:
        return self.segments[0].start_h

    @property
    def end_h(self) -> int:
        return self.segments[-1].end_h

    @property
    def working_h(self) -> int:
        return sum(s.hours for s in self.segments if s.kind == WORKING)

    @property
    def resting_h(self) -> int:
        return sum(s.hours for s in self.segments if s.kind == RESTING)

    @property
    def travel_h(self) -> int:
        return sum(s.hours for s in self.segments if s.kind == TRAVEL)

    @property
    def hub_ids(self) -> list[int]:
        seen = []
        for s in self.segments:
            if s.kind == WORKING and s.hub_id not in seen:
                seen.append(s.hub_id)
        return seen

    @property
    def is_multi_hub(self) -> bool:
        return len(self.hub_ids) > 1

    def working_segments(self):
        return [s for s in self.segments if s.kind == WORKING]

    def moves(self):
        """Yield ``(from_hub, to_hub, travel_segment)`` for each relocation:
        the hubs are those of the working segments on either side of it."""
        segs = self.segments
        for i, seg in enumerate(segs):
            if seg.kind == TRAVEL:
                src = next(s.hub_id for s in reversed(segs[:i]) if s.kind == WORKING)
                dst = next(s.hub_id for s in segs[i + 1 :] if s.kind == WORKING)
                yield src, dst, seg

    def sort_key(self):
        return (self.start_h, self.segments[0].hub_id, self.end_h)


def combine_within_hub_detail(
    x, dwell_h: int, max_work_h: int, start_min: int = 0, stop: int | None = None
):
    """Combine a hub's demand into few, long working runs via dwell-time
    deferral (``kernels.within_hub_runs``), with service provenance.

    Returns (runs, served, dropped): ``runs`` are sorted ``(start, end)``
    working runs, ``served`` lists (origin_slot, served_slot, count) for
    every demand unit, ``dropped`` lists units whose dwell window closed
    before ``start_min``. No ``Shift`` is built, so the engine pays for one
    only when it fixes the run. A ``stop`` leaves out runs for demand from
    that slot on (see ``kernels.within_hub_runs``); every run starting
    before it is still returned.
    """
    if min(x, default=0) < 0:
        raise ValueError("demand must be non-negative")
    if dwell_h < 0:
        raise ValueError("dwell_h must be >= 0")
    return kernels.within_hub_runs(list(x), dwell_h, max_work_h, start_min, stop)


def merge_across_hubs(
    per_hub_shifts: dict[int, list[Shift]],
    pairs: list[MovingPair],
    max_work_h: int,
    max_gap_h: int,
    hiring_cost: float,
    moving_cost_fn,
    max_merges: int = -1,
) -> list[Shift]:
    """Greedily merge single-hub shifts across nearby hub pairs.

    Pairs are visited in the given (ascending-distance) order; a pair is
    considered only while its moving payment is below ``hiring_cost``. Two
    shifts merge when their hours do not overlap, the travel time fits the
    gap, the gap is at most ``max_gap_h``, and combined working hours stay
    within ``max_work_h``. The earlier shift is worked first; travel occupies
    whole slots right after it and any remaining gap becomes rest at the
    destination hub. Each shift merges at most once; a non-negative
    ``max_merges`` caps how many merges are performed.

    Returns merged shifts plus untouched leftovers, ordered by
    (start, hub, end).
    """
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
                passthrough.append(s)  # multi-segment shifts never re-merge
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
    out.sort(key=Shift.sort_key)
    return out


def _build_merged(first: Shift, second: Shift, pair: MovingPair) -> Shift:
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
