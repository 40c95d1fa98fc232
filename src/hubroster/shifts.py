"""Shift construction: maximal runs, within-hub combination, cross-hub merging.

A shift is an ordered tuple of segments (working / resting / travel) assigned
to one worker. Within-hub construction produces single-segment working
shifts; the cross-hub merge pass may join two of them with a travel segment
and, if the gap is longer than the travel, a resting segment at the
destination hub.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

    A value: its hours and its bounds (the first segment's start, the last
    one's end) are set once, when it is built, and a merged shift carries
    the distance of its one move (0 for a one-hub shift). The bounds follow
    from the segments, so they take no part in equality or hashing; a
    shift with no segments has both bounds 0."""

    segments: tuple[Segment, ...]
    move_distance_m: float = 0.0
    working_h: int = field(init=False)
    resting_h: int = field(init=False)
    start_h: int = field(init=False, compare=False)
    end_h: int = field(init=False, compare=False)

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
        object.__setattr__(self, "start_h", segments[0].start_h if segments else 0)
        object.__setattr__(self, "end_h", segments[-1].end_h if segments else 0)

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


def _run_key(shift: Shift) -> tuple[int, int, int]:
    """A shift's place in a step: its (start, first hub, end)."""
    return shift.start_h, shift.segments[0].hub_id, shift.end_h


def merge_across_hubs(
    shifts: list[Shift],
    pairs: list[MovingPair],
    max_work_h: int,
    max_gap_h: int,
    max_merges: int = -1,
) -> list[Shift]:
    """Greedily merge one-hub working shifts across nearby hub pairs.

    ``shifts`` are one-hub working shifts sorted by (start, hub, end); equal
    runs may share one ``Shift``. Each is read through its hub
    (``segments[0].hub_id``), its stored bounds and its ``working_h``.
    ``pairs`` are the moving pairs worth merging over, in ascending-distance
    order. Two shifts merge when their hours do not overlap, the travel
    time fits the gap, the gap is at most ``max_gap_h``, and combined
    working hours stay within ``max_work_h`` (``kernels.merge_runs``). The
    earlier one is worked first; travel occupies whole slots right after it
    and any remaining gap becomes rest at the destination hub. Each shift
    merges at most once; a non-negative ``max_merges`` caps how many merges
    are performed.

    Only shifts shorter than ``max_work_h`` reach the kernel, and only pairs
    with such a shift at both hubs. This is exact: the kernel skips a run
    whose ``room`` (``max_work_h`` less its hours) is below 1, and a partner
    must fit in ``room``, so only short runs ever combine. Leaving the
    others out keeps each hub's runs in their order, so the kernel's
    ``(..., i, j)`` combo keys sort as they would over every run, and a
    pair with no short shift at one hub merges nothing.

    A new ``Shift`` is built only for each merged pair, from the working
    segments of its two inputs; every untouched input shift is returned as
    the same object, and when nothing merges ``shifts`` itself is returned.
    The output is ordered by (start, first hub, end); on a tie merged shifts
    come first, in merge order, then untouched shifts in input order. So
    each merged shift goes in before the first input shift not below its
    key, found by bisecting ``shifts``.
    """
    short: dict[int, list[int]] = {}  # hub -> indices into shifts of its short ones
    for k, shift in enumerate(shifts):
        if shift.working_h < max_work_h:
            short.setdefault(shift.segments[0].hub_id, []).append(k)
    pairs = [p for p in pairs if p.hub_a in short and p.hub_b in short]
    if not pairs:
        return shifts
    pos = {h: i for i, h in enumerate(short)}
    index = list(short.values())
    merges, _used = kernels.merge_runs(
        [[(shifts[k].start_h, shifts[k].end_h) for k in idx] for idx in index],
        [(pos[p.hub_a], pos[p.hub_b], p.travel_time_h) for p in pairs],
        max_work_h,
        max_gap_h,
        max_merges,
    )
    if not merges:
        return shifts

    # (position in shifts, 0 to insert the merged shift before it or 1 to
    # drop the shift there, merged key, shift); the stable sort keeps merge
    # order among equal keys
    edits = []
    for p_idx, i, j, a_first in merges:
        pair = pairs[p_idx]
        ka = index[pos[pair.hub_a]][i]
        kb = index[pos[pair.hub_b]][j]
        first, second = (shifts[ka], shifts[kb]) if a_first else (shifts[kb], shifts[ka])
        e1, s2 = first.end_h, second.start_h
        h2 = second.segments[0].hub_id
        segs = list(first.segments)
        cursor = e1 + math.ceil(pair.travel_time_h)
        if cursor > e1:
            segs.append(Segment(h2, e1, cursor, TRAVEL))
        if cursor < s2:
            segs.append(Segment(h2, cursor, s2, RESTING))
        segs += second.segments
        key = (first.start_h, first.segments[0].hub_id, second.end_h)
        edits.append((bisect_left(shifts, key, key=_run_key), 0, key, Shift(segs, move_distance_m=pair.distance_m)))
        edits.append((ka, 1, (), None))
        edits.append((kb, 1, (), None))
    edits.sort(key=itemgetter(0, 1, 2))

    out = []
    done = 0
    for k, drop, _key, shift in edits:
        out += shifts[done:k]
        if drop:
            done = k + 1
        else:
            out.append(shift)
            done = k
    out += shifts[done:]
    return out
