"""Shift construction: maximal runs, within-hub combination, cross-hub merging.

A shift is an ordered tuple of segments (working / resting / travel) assigned
to one worker. Within-hub construction produces single-segment working
shifts; the cross-hub merge pass may join two of them with a travel segment
and, if the gap is longer than the travel, a resting segment at the
destination hub.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from . import _kernels as kernels
from .network import MovingPair

WORKING = "working"
RESTING = "resting"
TRAVEL = "travel"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Shift:
    """One worker's plan: contiguous segments from first start to last end.

    A value: its hours are summed once, when it is built, and a merged
    shift carries the distance of its one move (0 for a one-hub shift)."""

    segments: tuple[Segment, ...]
    move_distance_m: float = 0.0
    working_h: int = field(init=False)
    resting_h: int = field(init=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        working_h = resting_h = 0
        for seg in segments:
            if seg.kind == WORKING:
                working_h += seg.end_h - seg.start_h
            elif seg.kind == RESTING:
                resting_h += seg.end_h - seg.start_h
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "working_h", working_h)
        object.__setattr__(self, "resting_h", resting_h)

    @property
    def start_h(self) -> int:
        return self.segments[0].start_h

    @property
    def end_h(self) -> int:
        return self.segments[-1].end_h

    def moves(self):
        """Yield ``(from_hub, to_hub, travel_segment)`` for each relocation:
        the hubs are those of the working segments on either side of it."""
        segs = self.segments
        for i, seg in enumerate(segs):
            if seg.kind == TRAVEL:
                src = next(s.hub_id for s in reversed(segs[:i]) if s.kind == WORKING)
                dst = next(s.hub_id for s in segs[i + 1 :] if s.kind == WORKING)
                yield src, dst, seg


def combine_within_hub_detail(
    x, dwell_h: int, max_work_h: int, start_min: int = 0, stop: int | None = None
):
    """Combine a hub's demand into few, long working runs via dwell-time
    deferral (``kernels.within_hub_runs``).

    Returns (runs, left, dropped): ``runs`` are sorted ``(start, end)``
    working runs, ``left`` holds the units per origin slot that no returned
    run serves, ``dropped`` lists units whose dwell window closed before
    ``start_min``. No ``Shift`` is built, so the engine pays for one only
    when it fixes the run. A ``stop`` leaves out runs for demand from that
    slot on (see ``kernels.within_hub_runs``); every run starting before it
    is still returned, and ``left`` is zero before it (all zero without a
    ``stop``). ``x`` is read, never written: ``left`` is a new list.
    """
    if min(x, default=0) < 0:
        raise ValueError("demand must be non-negative")
    if dwell_h < 0:
        raise ValueError("dwell_h must be >= 0")
    return kernels.within_hub_runs(x, dwell_h, max_work_h, start_min, stop)


def merge_across_hubs(
    shifts_by_hub: dict[int, list[Shift]],
    pairs: list[tuple[int, int, MovingPair]],
    max_work_h: int,
    max_gap_h: int,
    max_merges: int = -1,
) -> list[Shift]:
    """Greedily merge one-hub working shifts across nearby hub pairs.

    ``shifts_by_hub`` maps each hub to its one-hub working shifts (a single
    ``WORKING`` segment at that hub) sorted by ``(start, end)``. ``pairs``
    are ``(i, j, pair)`` with ``i`` and ``j`` the positions of ``pair``'s two
    hubs in ``shifts_by_hub``, in ascending-distance order and already
    restricted to pairs worth merging over. Two shifts merge when their
    hours do not overlap, the travel time fits the gap, the gap is at most
    ``max_gap_h``, and combined working hours stay within ``max_work_h``
    (``kernels.merge_runs``). The earlier one is worked first; travel
    occupies whole slots right after it and any remaining gap becomes rest
    at the destination hub. Each shift merges at most once; a non-negative
    ``max_merges`` caps how many merges are performed.

    A new ``Shift`` is built only for each merged pair; every untouched
    input shift is returned as the same object. The output is ordered by
    (start, first hub, end); on a tie merged shifts come first, in merge
    order, then untouched shifts in hub and input order.
    """
    hub_ids = list(shifts_by_hub)
    shifts = list(shifts_by_hub.values())
    runs = [[(shift.start_h, shift.end_h) for shift in hub_shifts] for hub_shifts in shifts]
    merges, used = kernels.merge_runs(
        runs, [(i, j, p.travel_time_h) for i, j, p in pairs], max_work_h, max_gap_h, max_merges
    )

    keyed = []
    for p_idx, i, j, a_first in merges:
        ia, ib, pair = pairs[p_idx]
        a = (hub_ids[ia], *runs[ia][i])
        b = (hub_ids[ib], *runs[ib][j])
        (h1, s1, e1), (h2, s2, e2) = (a, b) if a_first else (b, a)
        segs = [Segment(h1, s1, e1, WORKING)]
        cursor = e1 + math.ceil(pair.travel_time_h)
        if cursor > e1:
            segs.append(Segment(h2, e1, cursor, TRAVEL))
        if cursor < s2:
            segs.append(Segment(h2, cursor, s2, RESTING))
        segs.append(Segment(h2, s2, e2, WORKING))
        keyed.append(((s1, h1, e2), Shift(segs, move_distance_m=pair.distance_m)))

    for h, hub_runs, hub_shifts, hub_used in zip(hub_ids, runs, shifts, used):
        for (s, e), shift, merged in zip(hub_runs, hub_shifts, hub_used):
            if not merged:
                keyed.append(((s, h, e), shift))
    keyed.sort(key=itemgetter(0))
    return [shift for _key, shift in keyed]

