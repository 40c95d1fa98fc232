"""Rolling-horizon scheduling engine and execution replay.

Every replan interval the engine refreshes arrival forecasts, converts them
to integer labor demand, subtracts what the already-fixed roster covers
(first-in-first-out, so dwell-deferred coverage is not double-booked),
rebuilds candidate runs from the residual and keeps the high-value ones plus
everything starting before the next replan: that is the step's plan
(``RollingPlan``), which builds each kept run's one-hub ``Shift`` once. The
booking half (``RollingEngine``) merges those shifts across hubs, building a
``Shift`` only for each merged pair, assigns pooled workers and appends
the roster entries. After the last step the ledger, the resting rows and the
flows are derived from the finished roster in one pass (``roster_tables``),
and the roster is replayed against the actual arrivals to count parcels that
missed their dwell deadline.
"""

from __future__ import annotations

import csv
import math
import time
from bisect import bisect_left
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


@dataclass(slots=True)
class RosterEntry:
    shift_id: int
    shift: Shift
    worker_id: int
    fixed_at_h: float
    is_new_hire: bool

    @property
    def lead_time_h(self) -> float:
        return self.shift.start_h - self.fixed_at_h


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
        return sum(1 for e in self.roster if e.shift.move_distance_m > 0)


def roster_tables(
    roster: list[RosterEntry], hub_ids: list[int], horizon_h: int, rates: CostRates
) -> tuple[CostLedger, dict[int, list[int]], dict[tuple[int, int, int], int]]:
    """The ledger, resting rows and flows of a roster, in one pass in roster
    order: returns ``(ledger, resting, flows)``.

    Each entry's shift is booked (``accrue_shift``) with its lead time and
    hire flag; lateness is not, as only the replay of the whole day counts
    it. Working slots come from the plan (``RollingPlan.capacity``): a shift
    keeps exactly the working segments of the runs it was built from.
    ``resting`` maps hub -> per-slot worker counts; ``flows`` maps
    (from hub, to hub, six-hour window of the travel start) -> moves.
    """
    ledger = CostLedger(rates=rates)
    resting = {h: [0] * horizon_h for h in hub_ids}
    flows: dict[tuple[int, int, int], int] = {}
    for entry in roster:
        shift = entry.shift
        accrue_shift(shift, entry.lead_time_h, entry.is_new_hire, ledger)
        if len(shift.segments) == 1 and shift.resting_h == 0:
            continue  # a one-hub working shift: no rest, no move
        for seg in shift.segments:
            if seg.kind == RESTING:
                row = resting[seg.hub_id]
                for t in range(seg.start_h, seg.end_h):
                    row[t] += 1
        for src, dst, seg in shift.moves():
            key = (src, dst, (seg.start_h // 6) * 6)
            flows[key] = flows.get(key, 0) + 1
    return ledger, resting, flows


class RollingPlan:
    """The plan half of every replan step: the runs each step fixes.

    The steps run at ``times``: every replan interval when the config is
    rolling, otherwise once at hour 0 with everything fixed (``fix_all``).
    A step's plan is its forecast and demand units, the FIFO residual
    against the capacity fixed so far, and the within-hub selection. It
    reads the network, the arrivals, the parameters, the noise mode and the
    step's time, never the pool, the rates or the merge; and a merged shift
    keeps exactly the working segments of its two runs, so the capacity
    that feeds the next step's residual is the sum of the kept runs whatever
    the booking half does with them. Scenarios 1 and 2 differ only in that
    half and can share one plan. Step ``k`` is computed the first time an
    engine asks for it (``kept``) and recorded for the next.

    The plan builds one ``Shift`` per kept run, a single working segment at
    its hub, when it plans the step; every engine on the plan books those
    same objects unless it merges them (``RollingEngine._fixed_shifts``).
    ``Shift`` and ``Segment`` are frozen values, so engines can share them.

    With ``collect_forecasts`` every step records its ``ForecastSnapshot``
    in ``forecast_snapshots``.
    """

    def __init__(self, cfg: ScenarioConfig, collect_forecasts=False):
        cfg.validate()
        self.cfg = cfg
        p = cfg.params
        self.hub_ids = sorted(cfg.network.hub_ids)
        self.n = p.horizon_h
        self.fix_all = not cfg.rolling
        if cfg.rolling:
            self.times = [k * p.replan_h for k in range(math.ceil(self.n / p.replan_h))]
        else:
            self.times = [0.0]
        self.actual_matrix = np.array(
            [cfg.actuals[h].arrivals for h in self.hub_ids], dtype=np.int64
        )
        self.rng = np.random.default_rng(p.seed)
        self.weights = ValueWeights.from_params(p)
        # workers working per hub and slot, summed over the kept runs
        self.capacity = {h: [0] * self.n for h in self.hub_ids}
        # the FIFO residual per hub of the slots before ``settled_at``: their
        # capacity is final and their demand the actual arrivals
        self.settled_at = 0
        self.settled = {h: [] for h in self.hub_ids}
        self.steps: list[list[Shift]] = []  # the kept runs' shifts of each planned step
        self.collect_forecasts = collect_forecasts
        self.forecast_snapshots: list[ForecastSnapshot] = []

    def check(self, cfg: ScenarioConfig) -> None:
        """Raise ``ValueError`` unless ``cfg`` plans the same steps as the
        config this plan was built for; rates, label and cross-hub moves
        may differ."""
        own = self.cfg
        for name in ("network", "actuals"):
            if getattr(cfg, name) is not getattr(own, name):
                raise ValueError(f"the plan was built for another {name} object")
        for name in ("params", "noise", "rolling"):
            if getattr(cfg, name) != getattr(own, name):
                raise ValueError(f"the plan was built with other {name}")

    def kept(self, k: int) -> list[Shift]:
        """The one-hub working shifts of the runs step ``k`` (at
        ``times[k]``) fixes, sorted by ``(start, hub, end)``; the steps up
        to ``k`` are planned in order. Each run's ``Shift`` is built here,
        once, and every engine on this plan books that same object."""
        while len(self.steps) <= k:
            now_h = self.times[len(self.steps)]
            first_slot = math.ceil(now_h - 1e-9)
            demand = self._demand_units(now_h, first_slot)
            need = self._fix_lengths(now_h, first_slot)
            kept = self._select(self._residual(demand, first_slot, len(need)), first_slot, need)
            for start, h, end in kept:
                row = self.capacity[h]
                for t in range(start, end):
                    row[t] += 1
            self.steps.append([Shift((Segment(h, start, end, WORKING),)) for start, h, end in kept])
        return self.steps[k]

    def _demand_units(self, now_h: float, first_slot: int) -> dict[int, list[int]]:
        """Predicted arrivals for the whole horizon (actuals before
        ``first_slot``, noisy forecast from it) converted to integer worker
        demand per slot."""
        if first_slot < self.n and self.cfg.noise == "paper":
            u = self.rng.uniform(-1.0, 1.0, size=(len(self.hub_ids), self.n - first_slot))
        else:
            u = None
        pred_tail = forecast_matrix(self.actual_matrix, now_h, first_slot, u)
        full = np.concatenate(
            [self.actual_matrix[:, :first_slot].astype(np.float64), pred_tail], axis=1
        )
        if self.collect_forecasts:
            self.forecast_snapshots.append(
                ForecastSnapshot(now_h, {h: [float(v) for v in full[i]] for i, h in enumerate(self.hub_ids)})
            )
        return dict(zip(self.hub_ids, labor_demand(full, self.cfg.params.work_rate).tolist()))

    def _residual(self, demand: dict[int, list[int]], first_slot: int, stop: int) -> dict[int, list[int]]:
        """The FIFO residual of ``demand`` against the capacity fixed so far
        (``kernels.fifo_match_units``), for the hubs that hold a unit before
        ``stop``; the others can fix no run.

        Every run fixed from now on starts at or after ``first_slot``, and
        the demand before it is the actual arrivals, so the walk's state
        there is final: it is kept per hub, and the next step walks on from
        it. The residual before ``stop`` is final once the walk has passed
        ``stop + dwell``, so a hub's row is finished only if that part
        holds a unit.
        """
        dwell = self.cfg.params.dwell_h
        settled_at = self.settled_at
        decided = stop + dwell
        residual = {}
        for h in self.hub_ids:
            row = demand[h]
            cap = self.capacity[h]
            settled = self.settled[h]
            if first_slot > settled_at:
                settled = kernels.fifo_match_units(settled + row[settled_at:first_slot], cap, dwell, settled_at)
                self.settled[h] = settled
            rem = kernels.fifo_match_units(settled + row[first_slot:], cap, dwell, first_slot, decided)
            if any(rem[:stop]):
                residual[h] = kernels.fifo_match_units(rem, cap, dwell, decided)
        self.settled_at = first_slot
        return residual

    def _fix_lengths(self, now_h: float, first_slot: int) -> list[int]:
        """The shortest run each start is fixed with at ``now_h``; a run
        starting at or past the table's end is not fixed, so its length is
        the step's stop. Runs starting before the next replan, and every run
        when ``fix_all``, are fixed whatever their length.

        Past the next replan the table ends at the first start whose
        full-length rest-free run scores below the threshold. That run's
        value is the largest any run starting there can score, and it never
        rises with the start: the urgency term only falls as the lead grows,
        and float division and addition are monotone. Before that start a
        rest-free run's value never falls as it gets longer (utilization
        rises and the weights are not negative), so the lengths a start fixes
        are those from the first one ``should_fix`` accepts, found by
        bisection. Both bounds are read off the very ``shift_value`` that
        decides the fix, so float rounding cannot disagree with them.
        """
        if self.fix_all:
            return [0] * self.n
        cap = self.cfg.params.max_work_h
        weights = self.weights
        threshold = weights.fix_threshold
        lengths = range(1, cap + 1)
        edge = now_h + self.cfg.params.replan_h + 1e-9
        need = [0] * min(self.n, math.floor(edge) + 1)
        for start in range(len(need), self.n):
            if not should_fix(shift_value(start, cap, 0, now_h, weights, cap), threshold):
                break
            first = bisect_left(
                lengths,
                True,
                key=lambda length: should_fix(shift_value(start, length, 0, now_h, weights, cap), threshold),
            )
            need.append(1 + first)
        return need

    def _select(
        self, residual: dict[int, list[int]], first_slot: int, need: list[int]
    ) -> list[tuple[int, int, int]]:
        """Within-hub candidates for the residual demand of each hub given,
        keeping only those the fix-length table ``need`` fixes
        (``_fix_lengths``): a run is kept when it starts before the table's
        end and is at least as long as its start's entry.

        Candidates are built only for demand before that end, the stop; a
        run starting at or after it is left unbuilt (or, if it is a
        full-length run, which is extracted first, not kept). None of this
        changes the selection, and a hub whose residual holds no unit
        before the stop gives no kept run.

        Returns the kept runs as sorted ``(start, hub, end)`` tuples; a
        ``Shift`` is built only for them (``kept``).
        """
        p = self.cfg.params
        stop = len(need)
        kept = []
        for h, row in residual.items():
            runs, _left, _dropped = combine_within_hub_detail(row, p.dwell_h, p.max_work_h, first_slot, stop)
            for start, end in runs:
                if start < stop and end - start >= need[start]:
                    kept.append((start, h, end))
        kept.sort()
        return kept


class RollingEngine:
    """The booking half of every replan step: merge the plan's kept runs
    within the hire budget, assign pooled workers and append the roster
    entries. The payments are booked from the finished roster (``run``).

    Without a ``plan`` the engine builds its own; a plan shared with another
    engine must plan the same steps (``RollingPlan.check``).
    """

    def __init__(self, cfg: ScenarioConfig, plan: RollingPlan | None = None):
        if plan is None:
            plan = RollingPlan(cfg)  # validates cfg
        else:
            plan.check(cfg)  # cfg plans like the plan's own, validated config
        self.cfg = cfg
        self.plan = plan
        p = cfg.params
        self.hub_ids = plan.hub_ids
        self.n = p.horizon_h
        # pairs worth a merge, as (hub position, hub position, pair) in
        # distance order: moving there costs less than a fresh hire
        rates = cfg.rates
        pos = {h: i for i, h in enumerate(self.hub_ids)}
        self.pairs = [
            (pos[pair.hub_a], pos[pair.hub_b], pair)
            for pair in (build_moving_pairs(cfg.network) if cfg.allow_cross_hub else [])
            if moving_payment(pair.distance_m, rates) < rates.hiring_per_day
        ]
        self.pool = WorkforcePool(daily_cap_h=p.max_work_h)
        self.roster: list[RosterEntry] = []
        self.steps_taken = 0

    def _fixed_shifts(self, kept: list[Shift]) -> list[Shift]:
        """The shifts fixed this step for the plan's kept one-hub shifts
        (``RollingPlan.kept``).

        Runs merge across hubs only among themselves, capped by the number
        of fresh hires they would otherwise require -- so every merge stands
        in for a hire, never for a free pool reuse. ``merge_across_hubs``
        builds a ``Shift`` only for each merged pair; every other run, and
        every run without an eligible pair, a second run or a hire to save,
        is fixed as the plan's own ``Shift``.
        """
        if self.pairs and len(kept) > 1:
            budget = self.pool.simulate_hires([shift.working_h for shift in kept])
            if budget:
                by_hub = {h: [] for h in self.hub_ids}
                for shift in kept:
                    by_hub[shift.segments[0].hub_id].append(shift)
                p = self.cfg.params
                return merge_across_hubs(by_hub, self.pairs, p.max_work_h, p.max_gap_h, budget)
        return kept

    def step(self) -> int:
        """The next replan pass, at the plan's next step time; returns the
        number of shifts fixed."""
        now_h = self.plan.times[self.steps_taken]
        self.pool.release_finished(now_h)
        kept = self.plan.kept(self.steps_taken)
        self.steps_taken += 1
        selected = self._fixed_shifts(kept)

        assign, roster = self.pool.assign, self.roster
        for cand in selected:
            worker, _lead, new_hire = assign(cand, now_h)
            roster.append(RosterEntry(len(roster), cand, worker.id, now_h, new_hire))
        return len(selected)

    def run(self) -> SimReport:
        t0 = time.perf_counter()
        p = self.cfg.params
        for _ in self.plan.times:
            self.step()

        ledger, resting, flows = roster_tables(self.roster, self.hub_ids, self.n, self.cfg.rates)
        arrivals = {h: self.cfg.actuals[h].arrivals for h in self.hub_ids}
        capacity = self.plan.capacity
        late = replay_execution(arrivals, capacity, p.dwell_h, p.work_rate)
        lateness_penalty(late, ledger)
        series = {
            h: {"arrivals": arrivals[h], "working": list(capacity[h]), "resting": resting[h]}
            for h in self.hub_ids
        }

        return SimReport(
            label=self.cfg.label,
            ledger=ledger,
            roster=self.roster,
            late_parcels=late,
            series=series,
            flows=flows,
            runtime_s=time.perf_counter() - t0,
            hires=self.pool.hires,
            forecast_snapshots=self.plan.forecast_snapshots[: self.steps_taken],
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


def run_scenario(cfg: ScenarioConfig, plan: RollingPlan | None = None) -> SimReport:
    """Validate the config and execute one full scenario run, on ``plan``
    if one is given (see ``RollingPlan``)."""
    return RollingEngine(cfg, plan).run()


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
                        f"{entry.fixed_at_h:g}",
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
