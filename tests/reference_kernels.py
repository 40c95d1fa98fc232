"""Full-scan kernels: the references the engine's kernels must match.

``within_hub_runs`` extracts full-length runs one demand unit at a time
(``part1_runs``) and tries every start in the dwell window of the earliest
unserved unit on a fresh copy of the row (``_trial_run``), ``merge_runs``
tests every pair of runs of a hub pair, and ``fifo_match_units`` walks
every origin of every slot's dwell window. The kernels in
``hubroster._kernels`` count full-length runs by level, walk each trial in
place, end the start search at the first full-length run, look only at the
runs whose start can give a feasible gap, and walk each origin once; all
three must return exactly what these do.
"""


def part1_runs(x, max_run, start_min=0):
    """Extract maximal-length runs from a demand row, left to right.

    Repeatedly takes the first slot with positive demand at or after
    ``start_min`` and extends while demand stays positive, capped at
    ``max_run`` hours, decrementing demand along the way. The residual row
    is identically zero on return, so total run hours equal total demand.
    """
    x = list(x)
    n = len(x)
    runs = []
    start = start_min
    while start < n:
        if x[start] == 0:
            start += 1
            continue
        x[start] -= 1
        end = start + 1
        while end < n and x[end] > 0 and end - start < max_run:
            x[end] -= 1
            end += 1
        runs.append((start, end))
    return runs


def _trial_run(avail, t0, dwell, max_run, n):
    """Simulate one run starting at t0 on a copy of ``avail``: serve one unit
    per slot, earliest effective deadline first (ties to the freshest
    origin), until no unit within its dwell window remains. Returns the
    (origin, slot) services."""
    out = []
    left = list(avail)
    clamped = n - 1 - dwell  # origins from here on share the deadline n - 1
    for t in range(t0, min(n, t0 + max_run)):
        pick = t - dwell if t > dwell else 0
        while pick <= t and left[pick] <= 0:
            pick += 1
        if pick > t:
            break
        if pick >= clamped:
            pick = t
            while left[pick] <= 0:
                pick -= 1
        left[pick] -= 1
        out.append((pick, t))
    return out


def within_hub_runs(x, dwell, max_run, start_min=0, stop=None):
    """Returns (runs, served, dropped): served is a sorted list of
    (origin_slot, served_slot, count) for every unit a returned run serves.
    A ``stop`` ends the one-run-at-a-time phase once the earliest unserved
    origin reaches it."""
    n = len(x)
    avail = list(x)
    served = {}
    runs = []
    dropped = []

    for s, e in part1_runs(avail, max_run, start_min):
        if e - s == max_run:
            runs.append((s, e))
            for t in range(s, e):
                avail[t] -= 1
                served[(t, t)] = served.get((t, t), 0) + 1

    end = n if stop is None or stop > n else stop
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
        best = None
        for t0 in range(lo, hi + 1):
            trial = _trial_run(avail, t0, dwell, max_run, n)
            if best is None or len(trial) > len(best):
                best = trial
        for origin, slot in best:
            avail[origin] -= 1
            served[(origin, slot)] = served.get((origin, slot), 0) + 1
        runs.append((best[0][1], best[-1][1] + 1))

    runs.sort()
    served_list = sorted((o, t, c) for (o, t), c in served.items())
    return runs, served_list, dropped


def merge_runs(runs_by_hub, pairs, max_work, max_gap, max_merges=-1):
    used = [[False] * len(r) for r in runs_by_hub]
    merges = []
    for p_idx, (ia, ib, travel_h) in enumerate(pairs):
        if max_merges >= 0 and len(merges) >= max_merges:
            break
        runs_a = runs_by_hub[ia]
        runs_b = runs_by_hub[ib]
        if not runs_a or not runs_b:
            continue
        combos = []
        for i, (s1, e1) in enumerate(runs_a):
            if used[ia][i]:
                continue
            for j, (s2, e2) in enumerate(runs_b):
                if used[ib][j]:
                    continue
                if e1 <= s2:
                    gap = s2 - e1
                    key = (s1, s2, e1, e2, 0, i, j)
                    a_first = 1
                elif e2 <= s1:
                    gap = s1 - e2
                    key = (s2, s1, e2, e1, 1, i, j)
                    a_first = 0
                else:
                    continue
                if travel_h > gap or gap > max_gap:
                    continue
                if (e1 - s1) + (e2 - s2) > max_work:
                    continue
                combos.append((key, i, j, a_first))
        combos.sort()
        for _key, i, j, a_first in combos:
            if max_merges >= 0 and len(merges) >= max_merges:
                break
            if used[ia][i] or used[ib][j]:
                continue
            used[ia][i] = True
            used[ib][j] = True
            merges.append((p_idx, i, j, a_first))
    return merges, used


def fifo_match_units(demand, capacity, dwell):
    n = len(demand)
    rem = list(demand)
    for t in range(n):
        cap = capacity[t]
        lo = t - dwell
        if lo < 0:
            lo = 0
        for origin in range(lo, t + 1):
            if cap == 0:
                break
            if rem[origin] > 0:
                take = cap if cap < rem[origin] else rem[origin]
                rem[origin] -= take
                cap -= take
    return rem
