"""Scheduling kernels: the inner loops of the engine, in plain Python.

Everything here works on plain ints, lists and tuples, except the FIFO
residual (``fifo_match_units``), which walks every hub at once on
slot-major numpy matrices (one row per slot, one column per hub), and the
bound that then rules out the hubs whose residual can give no kept run
(``keepable_rows``), read off the same matrix. The
engine and the shift builders call these functions through the module
(``kernels.<name>``).

Run representation: a run is a half-open slot interval ``(start, end)`` of
contiguous working hours for one worker at one hub.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np


def _trial(avail, t0, dwell, max_run, n):
    """Simulate one run starting at t0: serve one unit per slot, earliest
    effective deadline first (ties to the freshest origin), until no unit
    within its dwell window remains. Returns the origin served at each of
    the run's slots, and leaves ``avail`` as it found it.

    An origin's deadline ``min(s + dwell, n - 1)`` rises strictly with ``s``
    until it clamps at the horizon end, so the pick is the oldest open origin
    in ``[t - dwell, t]``; when that one's deadline is clamped, every open
    origin ties and the freshest wins. The walk takes units from ``avail``
    as it goes: ``oldest`` moves up to ``t - dwell`` and past each empty
    origin and never moves back, since units only leave. The picks are
    put back before returning.
    """
    picks = []
    clamped = n - 1 - dwell  # origins from here on share the deadline n - 1
    oldest = t0 - dwell if t0 > dwell else 0
    for t in range(t0, min(n, t0 + max_run)):
        if oldest < t - dwell:
            oldest = t - dwell
        while oldest <= t and avail[oldest] <= 0:
            oldest += 1
        if oldest > t:
            break
        pick = oldest
        if pick >= clamped:
            pick = t
            while avail[pick] <= 0:
                pick -= 1
        avail[pick] -= 1
        picks.append(pick)
    for pick in picks:
        avail[pick] += 1
    return picks


def within_hub_runs(x, dwell, max_run, start_min=0, stop=None):
    """Combine a hub's demand into few, long runs using dwell-time deferral.

    Full-length (= max_run) runs are extracted first at their on-time
    placement. The remainder is then served one run at a time: each run's
    start is chosen within the dwell window of the earliest unserved unit
    (longest resulting run wins, earliest start on ties) and slots are
    filled earliest-deadline-first, so no unit is served more than
    ``dwell`` slots after its origin. Units whose whole window lies before
    ``start_min`` cannot be scheduled and are reported as dropped.

    The full-length runs are those of a greedy left-to-right extraction
    from ``start_min`` on, which starts ``rest[s]`` runs at slot ``s`` (the
    demand earlier starts left there); its ``i``-th run from ``s`` covers
    slot ``t`` while ``i <= min(rest[s..t])``. So one pass over
    ``[s, s + max_run)`` subtracts the running minimum, and the last
    minimum counts the full-length runs from ``s``. A start after
    ``n - max_run`` yields no full-length run and only touches later slots,
    so those starts are skipped.

    A trial from a start can only get shorter as units leave ``avail``: it
    is the longest earliest-deadline-first prefix of its slots, and fewer
    units cannot lengthen that. So each start keeps the length of its last
    trial as a bound for the rest of the phase, and a start whose bound is
    no longer than the best run of the window is not tried: it could only
    tie, and ties keep the earlier start. Every bound starts at
    ``max_run``, the most a trial picks, so no start after a full-length
    run is tried.

    A run found this way is emitted as often as it can repeat. While every
    origin it picks still holds a unit, the window's search returns it
    unchanged: ``s0`` does not move, since it keeps a unit; earlier starts
    of the window were strictly shorter and trials only get shorter; later
    starts were no longer, or not tried because their bound already ruled
    them out. When the picks are distinct
    origins, the trial from ``first`` makes the same picks on the row
    without them: the row only lost units, so at each slot the origins
    its pick was chosen over for being empty are still empty and the
    oldest open origin stays on the same side of the clamp, while the
    pick, taken once so far, keeps a unit; and the trial ends where it
    ended before. So such a run is emitted ``k = min(avail[o] for o in
    picks)`` times at once, which leaves the row ``k`` single emissions
    would.

    A ``stop`` ends the one-run-at-a-time phase once the earliest unserved
    origin reaches it. That phase emits runs in order of that origin, each
    starting at or after it and consuming only units from it on, so every
    run it emitted before ``stop`` is the full scan's; the runs left out all
    start at or after ``stop``. A unit drops only when its origin lies
    before ``start_min`` (or ``start_min`` is past the row), so for
    ``stop > start_min`` the drops are the full scan's too.

    Returns (runs, left, dropped): sorted runs, the units per origin slot
    that no returned run serves (all zero before ``min(stop, n)``, and all
    zero without a ``stop``) and a list of dropped (origin, count).
    """
    n = len(x)
    avail = list(x)
    runs = []
    dropped = []

    rest = list(x)
    for s in range(start_min, n - max_run + 1):
        low = rest[s]
        if low == 0:
            continue
        for t in range(s, s + max_run):
            r = rest[t]
            if r < low:
                low = r
                if low == 0:
                    break
            rest[t] = r - low
        if low:
            runs.extend([(s, s + max_run)] * low)
            for t in range(s, s + max_run):
                avail[t] -= low

    end = n if stop is None or stop > n else stop
    bound = [max_run] * n  # the length of the last trial from each start
    s0 = 0
    while True:
        while s0 < end and avail[s0] == 0:
            s0 += 1
        if s0 >= end:
            break
        lo = s0 if s0 > start_min else start_min
        hi = s0 + dwell
        if hi > n - 1:
            hi = n - 1
        if lo > hi:
            dropped.append((s0, avail[s0]))
            avail[s0] = 0
            continue
        longest = 0
        for t0 in range(lo, hi + 1):
            if bound[t0] <= longest:
                continue  # this start can no longer beat the best run
            picks = _trial(avail, t0, dwell, max_run, n)
            bound[t0] = len(picks)
            if len(picks) > longest:
                best, first, longest = picks, t0, len(picks)
        for origin in best:
            avail[origin] -= 1
        run = (first, first + len(best))
        runs.append(run)
        if avail[best[0]] and len(set(best)) == len(best):
            more = min(map(avail.__getitem__, best))  # the copies after this one
            if more:
                for origin in best:
                    avail[origin] -= more
                runs.extend([run] * more)

    runs.sort()
    return runs, avail, dropped


def merge_runs(runs_by_hub, pairs, max_work, max_gap, max_merges):
    """Greedy cross-hub merge over distance-ordered pairs.

    ``runs_by_hub`` holds each hub's non-empty runs sorted by start.
    ``pairs`` is a list of (hub_idx_a, hub_idx_b, travel_time_h) already
    sorted ascending by distance and pre-filtered to pairs whose moving
    payment undercuts a fresh hire. For each pair, feasible run combinations
    (no overlap, travel time <= gap <= max_gap, summed hours <= max_work)
    are merged earliest-start-first; each run merges at most once, and at
    most ``max_merges`` (a non-negative int) merges are performed.

    Both orders of a pair, a then b and b then a, are one search: each
    unused first run ``(s1, e1)`` looks only at the second hub's runs that
    start in ``[e1 + lead, e1 + max_gap]``, ``lead = ceil(travel)``, found
    by bisecting that hub's run starts, which are listed once per call.
    For runs of positive length this admits exactly the feasible
    combinations:

    - a gap of whole slots satisfies ``travel <= gap`` exactly when
      ``gap >= lead``, and a second run that starts after the first ends
      cannot overlap it;
    - a b run that goes before an a run ``(s1, e1)`` is one that ends in
      ``[s1 - max_gap, s1 - lead]``, which is the a run starting in that
      b run's forward window;
    - ``hours_a + hours_b <= max_work`` is the same test seen from either
      run, so the first run's ``room`` (``max_work`` less its hours) bounds
      the second's hours.

    Each combination is keyed ``(first start, second start, first end,
    second end, side, i, j)``, with ``side`` 0 when a goes first and ``i``,
    ``j`` indexing the runs of a and b in either order, and the
    combinations are merged in key order.

    Returns (merges, used) where merges is a list of
    (pair_idx, run_idx_a, run_idx_b, a_goes_first) and used marks consumed
    runs per hub.
    """
    used = [[False] * len(r) for r in runs_by_hub]
    starts = [[s for s, _e in runs] for runs in runs_by_hub]
    merges = []
    for p_idx, (ia, ib, travel_h) in enumerate(pairs):
        if len(merges) >= max_merges:
            break
        lead = math.ceil(travel_h) if travel_h > 0 else 0  # fewest whole slots of gap
        combos = []
        for side, h1, h2 in ((0, ia, ib), (1, ib, ia)):
            runs_2, starts_2, used_1, used_2 = runs_by_hub[h2], starts[h2], used[h1], used[h2]
            for k, (s1, e1) in enumerate(runs_by_hub[h1]):
                if used_1[k]:
                    continue
                lo = bisect_left(starts_2, e1 + lead)
                hi = bisect_right(starts_2, e1 + max_gap)
                if lo == hi:
                    continue
                room = max_work - (e1 - s1)
                if room < 1:
                    continue
                for m in range(lo, hi):
                    s2, e2 = runs_2[m]
                    if used_2[m] or e2 - s2 > room:
                        continue
                    combos.append((s1, s2, e1, e2, side, m, k) if side else (s1, s2, e1, e2, 0, k, m))
        combos.sort()
        used_a = used[ia]
        used_b = used[ib]
        for _s1, _s2, _e1, _e2, side, i, j in combos:
            if len(merges) >= max_merges:
                break
            if used_a[i] or used_b[j]:
                continue
            used_a[i] = True
            used_b[j] = True
            merges.append((p_idx, i, j, 1 - side))
    return merges, used


def fifo_match_units(demand, capacity, dwell, start, cleared):
    """Credit per-slot capacity against unit demand within dwell windows,
    for every hub at once.

    ``demand`` and ``capacity`` are slot-major ``(n, hubs)`` integer
    matrices, one row per slot and one column per hub. Capacity at slot t
    serves the oldest unserved units whose origin lies in [t - dwell, t];
    capacity can never be credited to a unit it could only reach late.
    Returns the unserved units per origin slot and hub -- the residual a
    re-planning pass still has to cover (expired origins included).

    Units leave only in origin order: a slot serves the oldest units it can
    reach, and a unit expires only after every older one has. So what has
    left a hub by the end of slot t is a prefix of its units in origin
    order, and ``cleared[t, h]`` (an int64 matrix of the same shape) counts
    it. With ``arrived`` the running sum of the demand down each column,
    the units of the origins before ``t - dwell`` have left by slot t
    (``expired[t] = arrived[t - dwell - 1]``), and the slot's capacity then
    serves units up to those that have arrived::

        cleared[t] = min(arrived[t], max(cleared[t - 1], expired[t]) + capacity[t])

    one contiguous row over all hubs per slot. Past the last slot ``T - 1``
    with any capacity the walk is one call: there ``cleared[t] =
    max(cleared[T - 1], expired[t])``, since without capacity a slot's
    ``cleared`` is ``max(cleared[t - 1], expired[t])`` (both are at most
    ``arrived[t]``: ``cleared`` and ``arrived`` never fall, and ``expired``
    lags ``arrived``), and ``expired`` never falls. The units of origin
    ``o`` still there at the end of its last slot ``min(o + dwell, n - 1)``
    are unserved. The walk writes the rows from ``start`` on and reads the
    one before it, so it resumes where an earlier walk left ``cleared``: a
    row is final once the demand and capacity up to it are.
    """
    n, hubs = demand.shape
    # the running sums after ``lag`` rows of zeros: ``arrived[t]`` is row
    # ``t + lag`` and ``expired[t]`` row ``t``, both views
    lag = min(dwell + 1, n)
    sums = np.zeros((n + lag, hubs), dtype=np.int64)
    np.cumsum(demand, axis=0, out=sums[lag:])
    arrived, expired = sums[lag:], sums[:n]
    staffed = capacity[start:].any(axis=1).tolist()
    # one past the last slot with any capacity, or ``start`` if none has
    tail = n - staffed[::-1].index(True) if True in staffed else start
    prev = cleared[start - 1] if start else 0
    walked = zip(cleared[start:tail], expired[start:tail], capacity[start:tail], arrived[start:tail])
    for row, lapsed, staff, came in walked:
        np.maximum(prev, lapsed, out=row)
        np.add(row, staff, out=row)
        np.minimum(row, came, out=row)
        prev = row
    if tail < n:
        np.maximum(cleared[tail - 1] if tail else 0, expired[tail:], out=cleared[tail:])
    # what has left by each origin's last slot, but not less than the units
    # of the origins before it (``arrived[o - 1]``, row ``o + lag - 1``)
    left = np.empty_like(cleared)
    cut = max(n - dwell, 0)
    left[:cut] = cleared[n - cut :]
    left[cut:] = cleared[n - 1]
    np.maximum(left, sums[lag - 1 : n + lag - 1], out=left)
    np.subtract(arrived, left, out=left)
    return np.maximum(left, 0, out=left)


def keepable_rows(residual, first_slot, need, dwell):
    """Which hubs of a slot-major ``(n, hubs)`` residual matrix can still
    give a kept run: a bound on ``within_hub_runs`` and the step's
    fix-length table ``need`` (``RollingPlan._fix_lengths``), for every hub
    at once.

    A run kept from a hub's residual starts at some ``t0`` in
    ``[first_slot, len(need))`` and lasts at least ``m = max(1, need[t0])``
    slots. A hub qualifies when some such ``t0`` has ``t0 + m <= n`` (the
    span ``[t0, t0 + m)``) and every slot ``t`` of the span is covered: the
    hub holds a unit at an origin in ``[t - dwell, t]``. A hub that does
    not qualify gives no kept run:

    - every run ``within_hub_runs`` emits serves, at each of its slots
      ``t``, one unit whose origin lies in ``[t - dwell, t]``: a full-length
      run serves origin ``t`` itself, and a trial picks only from that
      window;
    - units only ever leave ``avail``, so each slot of a run is covered in
      the row the search was given;
    - runs start at or after ``start_min`` (the engine's ``first_slot``);
    - so a run from ``t0`` of length ``L`` needs ``L`` consecutive covered
      slots from ``t0``, and it is kept only if ``L >= m``.

    The residual is never negative, so a slot is covered when the sum of
    its dwell window is positive: when the running sum down the hub's
    column rose since the slot before the window. With ``gaps`` counting
    the uncovered slots before each slot, the slots ``[t0, t0 + m)`` are
    all covered when ``gaps[t0 + m] == gaps[t0]``: one row lookup per span.
    The spans are listed from plain ints, as the table is short.
    Returns a boolean array, one entry per hub.
    """
    n, hubs = residual.shape
    starts, ends = [], []
    for t0 in range(first_slot, len(need)):
        end = t0 + max(1, need[t0])
        if end <= n:
            starts.append(t0)
            ends.append(end)
    # the running sums after ``lag`` rows of zeros: row ``t + lag`` holds
    # the units up to origin ``t``, row ``t`` those before ``t - dwell``
    lag = min(dwell + 1, n)
    held = np.zeros((n + lag, hubs), dtype=np.int64)
    np.cumsum(residual, axis=0, out=held[lag:])
    uncovered = held[lag:] == held[:n]  # no unit at an origin in [t - dwell, t]
    gaps = np.zeros((n + 1, hubs), dtype=np.int64)
    np.cumsum(uncovered, axis=0, out=gaps[1:])
    return (gaps[ends] == gaps[starts]).any(axis=0)


def fifo_replay(arrivals, workers, dwell, rate):
    """Replay actual arrivals against scheduled worker capacity.

    Parcels queue first-in-first-out; capacity at slot t is workers[t] * rate.
    A parcel is late when served after origin + dwell, or never served while
    its deadline fell inside the horizon (later deadlines roll to the next
    day). Returns the late count.
    """
    n = len(arrivals)
    late = 0
    queue = deque()
    for t in range(n):
        if arrivals[t] > 0:
            queue.append([t, arrivals[t]])
        cap = workers[t] * rate
        while cap > 0 and queue:
            head = queue[0]
            take = cap if cap < head[1] else head[1]
            if t > head[0] + dwell:
                late += take
            head[1] -= take
            cap -= take
            if head[1] == 0:
                queue.popleft()
    for origin, count in queue:
        if origin + dwell < n:
            late += count
    return late
