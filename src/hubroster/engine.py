"""Rolling-horizon scheduling engine and execution replay.

Every replan interval the engine refreshes arrival forecasts, converts them
to integer labor demand, subtracts what the already-fixed roster covers
(first-in-first-out, so dwell-deferred coverage is not double-booked),
rebuilds candidate runs from the residual, fixes the high-value ones plus
everything starting before the next replan (building a ``Shift`` only for
those), assigns pooled workers, and books all payments. After the last step
the roster is replayed against the actual arrivals to count parcels that
missed their dwell deadline.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .config import ScenarioParams
from .demand import ArrivalSeries, ForecastSnapshot, forecast_matrix, labor_demand
from .ledger import CostLedger, CostRates, accrue_shift, lateness_penalty, moving_payment
from .network import HubNetwork, build_moving_pairs
from .pool import WorkforcePool
from .shifts import RESTING, WORKING, Segment, Shift, combine_within_hub_detail, merge_across_hubs
from .valuation import ValueWeights, shift_value, should_fix

SCENARIO_PRESETS = {
    1: {"allow_cross_hub": True, "rolling": True},
    2: {"allow_cross_hub": False, "rolling": True},
    3: {"allow_cross_hub": True, "rolling": False},
}


@dataclass
class ScenarioConfig:
    network: HubNetwork
    actuals: dict[int, ArrivalSeries]
    params: ScenarioParams
    allow_cross_hub: bool = True
    rolling: bool = True
    noise: str = "paper"  # "paper" or "perfect"
    rates: CostRates = field(default_factory=CostRates)
    label: str = ""

    @classmethod
    def for_scenario(cls, number: int, network, actuals, params, noise="paper", rates=None):
        preset = SCENARIO_PRESETS[number]
        return cls(
            network=network,
            actuals=actuals,
            params=params,
            noise=noise,
            rates=rates or CostRates(),
            label=f"scenario{number}",
            **preset,
        )

    def validate(self):
        self.params.validate()
        if self.noise not in ("paper", "perfect"):
            raise ValueError(f"unknown noise mode {self.noise!r}")
        net_ids = set(self.network.hub_ids)
        if set(self.actuals) != net_ids:
            raise ValueError("arrivals must cover exactly the network's hubs")
        n = self.params.horizon_h
        for series in self.actuals.values():
            if len(series.arrivals) != n:
                raise ValueError(f"arrival series length must equal horizon {n}")


@dataclass
class RosterEntry:
    shift_id: int
    shift: Shift
    worker_id: int
    lead_time_h: float
    is_new_hire: bool


@dataclass
class SimReport:
    label: str
    ledger: CostLedger
    roster: list[RosterEntry]
    late_parcels: int
    series: dict[int, dict]  # hub -> {arrivals, working, resting}
    flows: dict[tuple[int, int, int], int]  # (from, to, window_start) -> moves
    runtime_s: float
    hires: int
    forecast_snapshots: list[ForecastSnapshot] = field(default_factory=list)

    @property
    def merged_shift_count(self) -> int:
        return sum(1 for e in self.roster if e.shift.is_multi_hub)


def tally(shifts, working, resting, flows) -> None:
    """Add shifts to the roster-derived tables, in place.

    ``working`` and ``resting`` map hub -> per-slot worker counts; ``flows``
    maps (from hub, to hub, six-hour window of the travel start) -> moves.
    """
    for shift in shifts:
        for seg in shift.segments:
            if seg.kind == WORKING:
                row = working[seg.hub_id]
            elif seg.kind == RESTING:
                row = resting[seg.hub_id]
            else:
                continue
            for t in range(seg.start_h, seg.end_h):
                row[t] += 1
        for src, dst, seg in shift.moves():
            key = (src, dst, (seg.start_h // 6) * 6)
            flows[key] = flows.get(key, 0) + 1


class RollingEngine:
    def __init__(self, cfg: ScenarioConfig, collect_forecasts=False):
        cfg.validate()
        self.cfg = cfg
        p = cfg.params
        self.hub_ids = sorted(cfg.network.hub_ids)
        self.n = p.horizon_h
        self.actual_matrix = np.array(
            [cfg.actuals[h].arrivals for h in self.hub_ids], dtype=np.int64
        )
        # pairs worth a merge, as (hub position, hub position, pair) in
        # distance order: moving there costs less than a fresh hire
        rates = cfg.rates
        pos = {h: i for i, h in enumerate(self.hub_ids)}
        self.pairs = [
            (pos[pair.hub_a], pos[pair.hub_b], pair)
            for pair in (build_moving_pairs(cfg.network) if cfg.allow_cross_hub else [])
            if moving_payment(pair.distance_m, rates) < rates.hiring_per_day
        ]
        self.rng = np.random.default_rng(p.seed)
        self.pool = WorkforcePool(daily_cap_h=p.max_work_h)
        self.ledger = CostLedger(rates=cfg.rates)
        self.roster: list[RosterEntry] = []
        # roster-derived tables, added to by tally() as shifts are fixed
        self.capacity = {h: [0] * self.n for h in self.hub_ids}  # workers working
        self.resting = {h: [0] * self.n for h in self.hub_ids}
        self.flows: dict[tuple[int, int, int], int] = {}
        self.now_h = 0.0
        self.weights = ValueWeights.from_params(p)
        self.collect_forecasts = collect_forecasts
        self.forecast_snapshots: list[ForecastSnapshot] = []

    def _demand_units(self, now_h: float) -> tuple[dict[int, list[int]], np.ndarray]:
        """Predicted arrivals for the whole horizon (actuals up to now, noisy
        forecast beyond) converted to integer worker demand per slot."""
        first_slot = math.ceil(now_h - 1e-9)
        if first_slot < self.n and self.cfg.noise == "paper":
            u = self.rng.uniform(-1.0, 1.0, size=(len(self.hub_ids), self.n - first_slot))
        else:
            u = None
        pred_tail = forecast_matrix(self.actual_matrix, now_h, first_slot, u)
        full = np.concatenate(
            [self.actual_matrix[:, :first_slot].astype(np.float64), pred_tail], axis=1
        )
        rows = dict(zip(self.hub_ids, labor_demand(full, self.cfg.params.work_rate).tolist()))
        if self.collect_forecasts:
            self.forecast_snapshots.append(
                ForecastSnapshot(now_h, {h: [float(v) for v in full[i]] for i, h in enumerate(self.hub_ids)})
            )
        return rows, full

    def _select(
        self, residual: dict[int, list[int]], now_h: float, fix_all: bool = False
    ) -> list[tuple[int, int, int]]:
        """Within-hub candidates for the residual demand, keeping only those
        fixed now: everything when ``fix_all``, runs starting before the next
        replan, and runs whose value reaches the threshold.

        Candidates are built only for demand before ``stop``. Unless
        everything is fixed or any lead can reach the threshold, that is a
        slot at least one hour past both the next replan and the weights' fix
        reach; otherwise it is the horizon end. A run starting at or after
        ``stop`` is neither forced nor able to reach the threshold, so it is
        left unbuilt (or, if it is a full-length run, which is extracted
        first, unvalued), and a hub whose residual holds no unit before
        ``stop`` is skipped: every run it could build starts at or after
        ``stop``. None of this changes the selection.

        Returns the kept runs as sorted ``(start, hub, end)`` tuples; a
        ``Shift`` is built only when the step fixes them (``_fixed_shifts``).
        """
        p = self.cfg.params
        cap = p.max_work_h
        weights = self.weights
        threshold = weights.fix_threshold
        first_slot = math.ceil(now_h - 1e-9)
        horizon_edge = now_h + p.replan_h + 1e-9
        reach = weights.fix_reach
        stop = self.n if fix_all or reach is None else math.ceil(now_h + max(p.replan_h, reach)) + 1
        kept = []
        for h in self.hub_ids:
            row = residual[h]
            if not any(row[:stop]):
                continue
            runs, _left, _dropped = combine_within_hub_detail(
                row, p.dwell_h, cap, first_slot, stop
            )
            for start, end in runs:
                if (
                    fix_all
                    or start <= horizon_edge
                    or (
                        start < stop
                        and should_fix(shift_value(start, end - start, 0, now_h, weights, cap), threshold)
                    )
                ):
                    kept.append((start, h, end))
        kept.sort()
        return kept

    def _fixed_shifts(self, kept: list[tuple[int, int, int]]) -> list[Shift]:
        """The shifts fixed this step for the sorted kept runs.

        Runs merge across hubs only among themselves, capped by the number
        of fresh hires they would otherwise require -- so every merge stands
        in for a hire, never for a free pool reuse. Without an eligible pair,
        a second run or a hire to save, each run is its own shift.
        """
        if self.pairs and len(kept) > 1:
            budget = self.pool.simulate_hires([end - start for start, _h, end in kept])
            if budget:
                runs = {h: [] for h in self.hub_ids}
                for start, h, end in kept:
                    runs[h].append((start, end))
                p = self.cfg.params
                return merge_across_hubs(runs, self.pairs, p.max_work_h, p.max_gap_h, budget)
        return [Shift([Segment(h, start, end, WORKING)]) for start, h, end in kept]

    def step(self, now_h: float, fix_all: bool = False) -> int:
        """One replan pass; returns the number of shifts fixed."""
        p = self.cfg.params
        self.pool.release_finished(now_h)
        demand, _full = self._demand_units(now_h)

        residual = {
            h: kernels.fifo_match_units(demand[h], self.capacity[h], p.dwell_h)
            for h in self.hub_ids
        }
        selected = self._fixed_shifts(self._select(residual, now_h, fix_all))

        for cand in selected:
            worker, lead, new_hire = self.pool.assign(cand, now_h)
            cand.fixed_at_h = now_h
            accrue_shift(cand, lead, new_hire, self.ledger, distance_fn=self.cfg.network.distance_m)
            self.roster.append(RosterEntry(len(self.roster), cand, worker.id, lead, new_hire))
        tally(selected, self.capacity, self.resting, self.flows)

        self.now_h = now_h + p.replan_h
        return len(selected)

    def run(self) -> SimReport:
        t0 = time.perf_counter()
        p = self.cfg.params
        if self.cfg.rolling:
            steps = math.ceil(self.n / p.replan_h)
            for k in range(steps):
                self.step(k * p.replan_h)
        else:
            self.step(0.0, fix_all=True)

        arrivals = {h: self.cfg.actuals[h].arrivals for h in self.hub_ids}
        late = replay_execution(arrivals, self.capacity, p.dwell_h, p.work_rate)
        lateness_penalty(late, self.ledger)
        series = {
            h: {"arrivals": arrivals[h], "working": self.capacity[h], "resting": self.resting[h]}
            for h in self.hub_ids
        }

        return SimReport(
            label=self.cfg.label,
            ledger=self.ledger,
            roster=self.roster,
            late_parcels=late,
            series=series,
            flows=self.flows,
            runtime_s=time.perf_counter() - t0,
            hires=self.pool.hires,
            forecast_snapshots=self.forecast_snapshots,
        )


def replay_execution(
    arrivals: dict[int, list[int]],
    workers_working: dict[int, list[int]],
    dwell_h: int,
    work_rate: int,
) -> int:
    """Replay actual arrivals against scheduled capacity, hub by hub.

    Returns the total late parcels. Parcels are served first-in-first-out;
    one is late when processed after origin + dwell, or never processed
    although its deadline fell inside the horizon.
    """
    return sum(
        kernels.fifo_replay(arrivals[h], workers_working[h], dwell_h, work_rate)
        for h in arrivals
    )


def run_scenario(cfg: ScenarioConfig, **engine_kwargs) -> SimReport:
    """Validate the config and execute one full scenario run."""
    return RollingEngine(cfg, **engine_kwargs).run()


# ---------------------------------------------------------------- reporting


def write_roster_csv(path, report: SimReport, header: str = "") -> None:
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header)
        writer = csv.writer(fh)
        writer.writerow(
            ["shift_id", "worker_id", "segment_idx", "hub_id", "kind", "start_h", "end_h", "fixed_at_h"]
        )
        for entry in report.roster:
            for idx, seg in enumerate(entry.shift.segments):
                writer.writerow(
                    [
                        entry.shift_id,
                        entry.worker_id,
                        idx,
                        seg.hub_id,
                        seg.kind,
                        seg.start_h,
                        seg.end_h,
                        f"{entry.shift.fixed_at_h:g}",
                    ]
                )


def write_series_csv(path, report: SimReport, header: str = "") -> None:
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header)
        writer = csv.writer(fh)
        writer.writerow(["hub_id", "slot_h", "arrivals", "workers_working", "workers_resting"])
        for h in sorted(report.series):
            rows = report.series[h]
            for t in range(len(rows["arrivals"])):
                writer.writerow([h, t, rows["arrivals"][t], rows["working"][t], rows["resting"][t]])


def write_flows_csv(path, report: SimReport, header: str = "") -> None:
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header)
        writer = csv.writer(fh)
        writer.writerow(["from_hub", "to_hub", "window_start_h", "worker_moves"])
        for (src, dst, window), count in sorted(report.flows.items()):
            writer.writerow([src, dst, window, count])
