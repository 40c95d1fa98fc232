"""Output checks on the files `hubroster run` writes, made from outside the package.

``digests`` fingerprints each scenario's five output files. ``audit``
recomputes a scenario's ledger from its roster, its series and the
instance's arrivals with the paper's price table, replays the arrivals
against the working series first-in-first-out to count late parcels, and
checks the roster's worker constraints. It imports nothing from hubroster,
so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

OUTPUTS = ("ledger_s{n}.json", "ledger_s{n}.csv", "roster_s{n}.csv", "series_s{n}.csv", "flows_s{n}.csv")
CATEGORIES = ("hiring", "hourly", "waiting", "moving", "lateness", "emergency")

# The paper's price table and default scheduling parameters.
HIRING, HOURLY, WAITING, LATENESS = 50.0, 20.0, 5.0, 5.0
MOVING_NEAR, MOVING_FAR, MOVING_TIER_M = 10.0, 20.0, 3000.0
EMERGENCY_TIERS = ((1.0, 20.0), (2.0, 15.0), (4.0, 10.0), (8.0, 5.0))
DEFAULT_PARAMS = {"dwell_h": 1, "max_work_h": 8, "work_rate": 150, "horizon_h": 24}


def output_files(out_dir: Path, n: int) -> list[Path]:
    return [Path(out_dir) / name.format(n=n) for name in OUTPUTS]


def digests(out_dir: Path, n: int) -> dict[str, str]:
    """sha256 of each output file of scenario ``n``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in output_files(out_dir, n)}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _fifo_late(arrivals: list[int], working: list[int], dwell: int, rate: int) -> int:
    """Parcels served after origin + dwell, or never served although their
    deadline fell inside the horizon."""
    n = len(arrivals)
    queue = []  # [origin, count], oldest first
    head = 0
    late = 0
    for t in range(n):
        if arrivals[t]:
            queue.append([t, arrivals[t]])
        cap = working[t] * rate
        while cap and head < len(queue):
            origin, count = queue[head]
            take = min(cap, count)
            if t > origin + dwell:
                late += take
            queue[head][1] -= take
            cap -= take
            if queue[head][1] == 0:
                head += 1
    return late + sum(c for o, c in queue[head:] if o + dwell < n)


def _emergency(lead_h: float) -> float:
    for bound, penalty in EMERGENCY_TIERS:
        if lead_h < bound:
            return penalty
    return 0.0


def audit(out_dir: Path, n: int) -> list[str]:
    """Problems found in scenario ``n``'s outputs; empty when they all hold."""
    out_dir = Path(out_dir)
    cfg = json.loads((out_dir / "config.json").read_text())
    params = {**DEFAULT_PARAMS, **cfg.get("params", {})}
    horizon, dwell = params["horizon_h"], params["dwell_h"]
    hubs = {h["id"]: (h["x_m"], h["y_m"]) for h in json.loads((out_dir / "network.json").read_text())["hubs"]}
    arrivals = defaultdict(lambda: [0] * horizon)
    for r in _rows(out_dir / "arrivals.csv"):
        arrivals[int(r["hub_id"])][int(r["slot_h"])] = int(r["arrivals"])
    ledger = json.loads((out_dir / f"ledger_s{n}.json").read_text())
    problems = []

    shifts = defaultdict(list)  # shift id -> segment rows in order
    for r in _rows(out_dir / f"roster_s{n}.csv"):
        shifts[int(r["shift_id"])].append(r)
    expect = dict.fromkeys(CATEGORIES, 0.0)
    working = defaultdict(lambda: [0] * horizon)
    resting = defaultdict(lambda: [0] * horizon)
    by_worker = defaultdict(list)  # worker -> [(start, end, working h)]
    for sid, segs in shifts.items():
        worked = 0
        prev_work_hub = None
        for r in segs:
            hub, kind, s, e = int(r["hub_id"]), r["kind"], int(r["start_h"]), int(r["end_h"])
            if kind == "working":
                worked += e - s
                for t in range(s, min(e, horizon)):
                    working[hub][t] += 1
                prev_work_hub = hub
            elif kind == "resting":
                expect["waiting"] += WAITING * (e - s)
                for t in range(s, min(e, horizon)):
                    resting[hub][t] += 1
            elif kind == "travel":
                if prev_work_hub is None:
                    problems.append(f"shift {sid}: travel before any work")
                    continue
                (xa, ya), (xb, yb) = hubs[prev_work_hub], hubs[hub]
                dist = math.hypot(xa - xb, ya - yb)
                expect["moving"] += MOVING_NEAR if dist <= MOVING_TIER_M else MOVING_FAR
            else:
                problems.append(f"shift {sid}: unknown segment kind {kind!r}")
        start, end = int(segs[0]["start_h"]), int(segs[-1]["end_h"])
        expect["hourly"] += HOURLY * worked
        expect["emergency"] += _emergency(start - float(segs[0]["fixed_at_h"]))
        by_worker[int(segs[0]["worker_id"])].append((start, end, worked))

    max_work = params["max_work_h"]
    for wid, plan in by_worker.items():
        plan.sort()
        if any(b[0] < a[1] for a, b in zip(plan, plan[1:])):
            problems.append(f"worker {wid}: overlapping shifts")
        if sum(w for _s, _e, w in plan) > max_work:
            problems.append(f"worker {wid}: works more than {max_work} h")
    expect["hiring"] = HIRING * len(by_worker)

    late = 0
    for r in _rows(out_dir / f"series_s{n}.csv"):
        h, t = int(r["hub_id"]), int(r["slot_h"])
        got = (int(r["arrivals"]), int(r["workers_working"]), int(r["workers_resting"]))
        if got != (arrivals[h][t], working[h][t], resting[h][t]):
            problems.append(f"series hub {h} slot {t}: {got} != roster-derived "
                            f"{(arrivals[h][t], working[h][t], resting[h][t])}")
    for h, row in arrivals.items():
        late += _fifo_late(row, working[h], dwell, params["work_rate"])
    expect["lateness"] = LATENESS * late

    for cat in CATEGORIES:
        if not math.isclose(ledger[cat], expect[cat], abs_tol=1e-6):
            problems.append(f"ledger {cat} = {ledger[cat]} but outputs imply {expect[cat]}")
    if not math.isclose(ledger["total"], sum(ledger[c] for c in CATEGORIES), abs_tol=1e-6):
        problems.append("ledger total is not the sum of its categories")
    csv_ledger = {r["cost_type"]: r["cost_yuan"] for r in _rows(out_dir / f"ledger_s{n}.csv")}
    for cat in (*CATEGORIES, "total"):
        if csv_ledger.get(cat) != f"{ledger[cat]:.2f}":
            problems.append(f"ledger csv {cat} = {csv_ledger.get(cat)} differs from json {ledger[cat]:.2f}")
    return problems
