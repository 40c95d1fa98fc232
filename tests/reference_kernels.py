"""Full-scan kernels: the references the engine's kernels must match.

``within_hub_runs`` tries every start in the dwell window of the earliest
unserved unit, ``merge_runs`` tests every pair of runs of a hub pair, and
``fifo_match_units`` walks every origin of every slot's dwell window. The
kernels in ``hubroster._kernels`` end the start search at the first
full-length run, look only at the runs whose start can give a feasible gap,
and walk each origin once; all three must return exactly what these do.
"""

from hubroster._kernels import _trial_run, part1_runs


def within_hub_runs(x, dwell, max_run, start_min=0):
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

    s0 = 0
    while True:
        while s0 < n and avail[s0] == 0:
            s0 += 1
        if s0 == n:
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
