"""Rolling-horizon scheduling engine and execution replay.

Every replan interval the engine refreshes arrival forecasts, converts them
to integer labor demand, subtracts what the already-fixed roster covers
(first-in-first-out, so dwell-deferred coverage is not double-booked),
rebuilds candidate runs from the residual and keeps the high-value ones plus
everything starting before the next replan: that is the step's plan
(``RollingPlan``), which holds the step's kept runs as one one-hub ``Shift``
per distinct run. The booking half
(``RollingEngine``) merges the short ones across hubs, reading each shift's
hub, stored bounds and hours and building a ``Shift`` only for each merged
pair, assigns pooled workers and appends the roster entries. The value
function reads its weights, target lead and threshold from the scenario's
``ScenarioParams``. After its last step the plan replays the
capacity of its kept runs against the actual arrivals once, to count the
parcels that missed their dwell deadline; every engine on the plan reads
that count. After an engine's last step the ledger, the resting rows and
the flows are derived from its finished roster in one pass
(``roster_tables``).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from . import _kernels as kernels
from .config import ScenarioParams
from .demand import forecast_matrix, labor_demand
from .ledger import CostLedger, accrue_shift, lateness_penalty
from .network import HubNetwork, build_moving_pairs
from .pool import WorkforcePool
from .shifts import RESTING, WORKING, Segment, Shift, combine_within_hub_detail, merge_across_hubs
from .valuation import shift_value, should_fix


@dataclass
class ScenarioConfig:
    """Scenario ``number``'s config on the given instance: 1 replans every
    ``params.replan_min`` with cross-hub moves, 2 without them, and 3 is 1
    replanned once, over the whole horizon (``params`` becomes a copy with
    ``replan_min = 60 * horizon_h``). Any other number is a ``ValueError``.
    ``actuals`` maps each hub's id to its hourly parcel counts."""

    number: int
    network: HubNetwork
    actuals: dict[int, list[int]]
    params: ScenarioParams
    noise: str = "paper"  # "paper" or "perfect"

    def __post_init__(self):
        if self.number not in (1, 2, 3):
            raise ValueError(f"unknown scenario {self.number!r}: the scenarios are 1, 2 and 3")
        if self.number == 3:
            self.params = replace(self.params, replan_min=60 * self.params.horizon_h)

    @property
    def label(self) -> str:
        return f"scenario{self.number}"

    @property
    def allow_cross_hub(self) -> bool:
        return self.number != 2

    def validate(self):
        self.params.validate()
        if self.noise not in ("paper", "perfect"):
            raise ValueError(f"unknown noise mode {self.noise!r}")
        net_ids, arrival_ids = set(self.network.hub_ids), set(self.actuals)
        if arrival_ids != net_ids:
            missing, extra = sorted(net_ids - arrival_ids), sorted(arrival_ids - net_ids)
            raise ValueError(f"arrivals must cover exactly the network's hubs: missing {missing}, extra {extra}")
        n = self.params.horizon_h
        for h, row in self.actuals.items():
            if len(row) != n:
                raise ValueError(f"hub {h} has {len(row)} arrival slots, but params.horizon_h is {n}")
            for t, count in enumerate(row):
                # a bool is no count (``type`` refuses it), and a float
                # count would be truncated by the plan's integer matrix but
                # replayed whole
                if type(count) is not int and not isinstance(count, np.integer):
                    raise ValueError(f"hub {h} slot {t}: arrival count must be an integer, got {count!r}")
                if count < 0:
                    raise ValueError(f"hub {h}: arrival counts must be non-negative")


@dataclass(slots=True)
class RosterEntry:
    shift: Shift
    worker_id: int
    fixed_at_h: float
    is_new_hire: bool

    @property
    def lead_time_h(self) -> float:
        return self.shift.start_h - self.fixed_at_h


@dataclass
class SimReport:
    """One engine's day. Two reports compare equal when everything but
    their ``runtime_s`` is equal."""

    label: str
    ledger: CostLedger
    roster: list[RosterEntry]
    late_parcels: int
    series: dict[int, dict]  # hub -> {arrivals, working, resting}
    flows: dict[tuple[int, int, int], int]  # (from, to, window_start) -> moves
    runtime_s: float = field(compare=False)
    hires: int

    @property
    def merged_shift_count(self) -> int:
        return sum(1 for e in self.roster if e.shift.move_distance_m > 0)


def roster_tables(
    roster: list[RosterEntry], hub_ids: list[int], horizon_h: int
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
    ledger = CostLedger()
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

    The steps run at ``times``, one per replan interval ``replan_h``.
    Scenario 3 replans over the whole horizon, so its one step, at hour 0,
    fixes every run.
    A step's plan is its forecast (``forecasts``) and demand units, the
    FIFO residual against the capacity fixed so far, and the within-hub
    selection. It reads the network, the arrivals, the parameters, the
    noise mode and the step's time, never the pool or the merge; and a
    merged shift keeps exactly the working segments of its two runs, so the capacity
    that feeds the next step's residual is the sum of the kept runs whatever
    the booking half does with them. Scenarios 1 and 2 differ only in that
    half and can share one plan. Step ``k`` is computed the first time an
    engine asks for it (``kept``) and recorded for the next.

    A step holds its kept runs as ``Shift``s, one per distinct run, a
    single working segment at its hub, in ``(start, hub, end)`` order:
    equal runs (copies of one run, adjacent in the sorted step) share one.
    Every engine on the plan books those same objects unless it merges them
    (``RollingEngine._fixed_shifts``). ``Shift`` and ``Segment`` are frozen
    values, so runs and engines can share them.

    ``capacity`` (the kept runs' workers per slot and hub) and ``cleared``
    (the FIFO walk's state) are slot-major ``(n, hubs)`` matrices, columns
    in ``hub_ids`` order: a step walks every hub's residual at once, one
    row per slot (``_residual``).

    A step searches only the hubs whose residual can give a run its
    fix-length table keeps (``kernels.keepable_rows``, in ``_residual``):
    a kept run needs as many consecutive slots with a unit in their dwell
    window as its start's entry, so a hub without them is left out.
    ``_select`` calls the search once for each hub kept.

    After its last step the plan replays its ``capacity`` columns, as lists,
    against the actual arrivals once (``replay_execution``) and keeps the
    late-parcel count in ``late_parcels`` (None until then). The count
    reads only the arrivals, the capacity, ``dwell_h`` and ``work_rate``,
    which ``check`` pins for every engine on the plan, so each engine's
    report reads it instead of replaying the day again.
    """

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        p = cfg.params
        self.hub_ids = sorted(cfg.network.hub_ids)
        self.n = p.horizon_h
        self.replan_h = p.replan_h
        self.times = [k * self.replan_h for k in range(math.ceil(self.n / self.replan_h))]
        self.actual_matrix = np.array([cfg.actuals[h] for h in self.hub_ids], dtype=np.int64)
        # the forecast of each step, drawn in step order (``kept``)
        self._forecasts = self.forecasts()
        self.capacity = np.zeros((self.n, len(self.hub_ids)), dtype=np.int64)
        self._column = {h: i for i, h in enumerate(self.hub_ids)}
        # the FIFO walk's state (``kernels.fifo_match_units``), final before
        # ``settled_at``: capacity is final there and demand the actuals
        self.cleared = np.zeros_like(self.capacity)
        self.settled_at = 0
        # each start lead's fix length (``_fix_lengths``), 0 where the table ends
        self._lengths: dict[float, int] = {}
        # the one-hub shifts of each planned step's kept runs
        self.steps: list[list[Shift]] = []
        self.late_parcels: int | None = None

    def check(self, cfg: ScenarioConfig) -> None:
        """Raise ``ValueError`` unless ``cfg`` plans the same steps as the
        config this plan was built for; the scenario number may differ
        (scenarios 1 and 2 plan alike)."""
        own = self.cfg
        for name in ("network", "actuals"):
            if getattr(cfg, name) is not getattr(own, name):
                raise ValueError(f"the plan was built for another {name} object")
        for name in ("params", "noise"):
            if getattr(cfg, name) != getattr(own, name):
                raise ValueError(f"the plan was built with other {name}")

    def kept(self, k: int) -> list[Shift]:
        """The runs step ``k`` (at ``times[k]``) fixes, as one-hub working
        shifts in ``(start, hub, end)`` order; the steps up to ``k`` are
        planned in order. One ``Shift`` is built here per distinct run,
        shared by its copies, and every engine on this plan books that same
        object. A ``k`` outside ``range(len(times))`` is a ``ValueError``."""
        if not 0 <= k < len(self.times):
            raise ValueError(f"step {k} is not a step of the plan: it has {len(self.times)} steps")
        p = self.cfg.params
        while len(self.steps) <= k:
            now_h, full = next(self._forecasts)
            first_slot = math.ceil(now_h - 1e-9)
            need = self._fix_lengths(now_h, first_slot)
            demand = np.ascontiguousarray(labor_demand(full, p.work_rate).T)  # slot-major
            residual = self._residual(demand, first_slot, need)
            kept = self._select(residual, first_slot, need)
            if kept:  # a run adds one at its start and takes one off at its end: sum down the column
                hubs, column = len(self.hub_ids), self._column
                size = (self.n + 1) * hubs
                change = np.bincount([start * hubs + column[h] for start, h, _ in kept], minlength=size)
                change -= np.bincount([end * hubs + column[h] for _, h, end in kept], minlength=size)
                self.capacity += change.reshape(-1, hubs)[:-1].cumsum(axis=0)
            shifts = []
            last = None
            for run in kept:
                if run != last:
                    start, h, end = last = run
                    shift = Shift((Segment(h, start, end, WORKING),))
                shifts.append(shift)
            self.steps.append(shifts)
            if len(self.steps) == len(self.times):
                # the suspended generator's frame holds the plan: drop it, so
                # a finished plan is freed by reference counting
                self._forecasts = None
                working = dict(zip(self.hub_ids, self.capacity.T.tolist()))
                self.late_parcels = replay_execution(self.cfg.actuals, working, p.dwell_h, p.work_rate)
        return self.steps[k]

    def forecasts(self):
        """Yield ``(now_h, full)`` for every step time in order: ``full`` is
        the predicted arrivals of every hub (rows in ``hub_ids`` order) over
        the whole horizon, the actuals before the step's first slot and the
        forecast (``forecast_matrix``) from it on.

        The noise is drawn from a fresh ``np.random.default_rng(seed)``, one
        ``(hubs, n - first_slot)`` uniform draw per step that has a slot left
        to forecast, so every call yields the forecasts ``kept`` plans with.
        """
        actual = self.actual_matrix
        rng = np.random.default_rng(self.cfg.params.seed)
        noisy = self.cfg.noise == "paper"
        for now_h in self.times:
            first_slot = math.ceil(now_h - 1e-9)
            if first_slot < self.n and noisy:
                u = rng.uniform(-1.0, 1.0, size=(len(self.hub_ids), self.n - first_slot))
            else:
                u = None
            tail = forecast_matrix(actual, now_h, first_slot, u)
            yield now_h, np.concatenate([actual[:, :first_slot].astype(np.float64), tail], axis=1)

    def _residual(self, demand: np.ndarray, first_slot: int, need: list[int]) -> dict[int, list[int]]:
        """The FIFO residual of the slot-major ``(n, hubs)`` ``demand``
        against the capacity fixed so far (``kernels.fifo_match_units``), as
        ``{hub: row}`` for the hubs whose residual can give a run the
        fix-length table ``need`` keeps (``kernels.keepable_rows``); the
        others can fix no run. Only those columns are turned into lists.

        Every run fixed from now on starts at or after ``first_slot``, and
        the demand before it is the actual arrivals, so the walk's state
        there is final and the next step walks on from it; the walk starts
        at the last step's first slot, as that step fixed runs from there.
        """
        dwell = self.cfg.params.dwell_h
        rem = kernels.fifo_match_units(demand, self.capacity, dwell, self.settled_at, self.cleared)
        self.settled_at = first_slot
        cols = np.flatnonzero(kernels.keepable_rows(rem, first_slot, need, dwell))
        return dict(zip([self.hub_ids[i] for i in cols], rem[:, cols].T.tolist()))

    def _fix_lengths(self, now_h: float, first_slot: int) -> list[int]:
        """The shortest run each start is fixed with at ``now_h``; a run
        starting at or past the table's end is not fixed, so its length is
        the step's stop. Runs starting before the next replan are fixed
        whatever their length; with ``replan_h`` the whole horizon that is
        every run.

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

        ``shift_value`` reads a start only through its lead ``start -
        now_h``, so each entry is computed once per plan for that float
        lead and kept (``_lengths``, 0 where the table ends); steps whose
        leads repeat read it back.
        """
        p = self.cfg.params
        cap = p.max_work_h
        threshold = p.fix_threshold
        lengths = range(1, cap + 1)
        memo = self._lengths
        edge = now_h + self.replan_h + 1e-9
        need = [0] * min(self.n, math.floor(edge) + 1)
        for start in range(len(need), self.n):
            lead = start - now_h
            length = memo.get(lead)
            if length is None:
                length = 0  # the table ends here
                if should_fix(shift_value(start, cap, 0, now_h, p), threshold):
                    length = 1 + bisect_left(
                        lengths,
                        True,
                        key=lambda hours: should_fix(shift_value(start, hours, 0, now_h, p), threshold),
                    )
                memo[lead] = length
            if not length:
                break
            need.append(length)
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
        changes the selection; ``_residual`` has already left out the hubs
        whose row can give no kept run.

        Returns the kept runs as sorted ``(start, hub, end)`` tuples, which
        ``kept`` turns into the step's shifts.
        """
        p = self.cfg.params
        stop = len(need)
        kept = []
        for h, row in residual.items():
            for start, end in combine_within_hub_detail(row, p.dwell_h, p.max_work_h, first_slot, stop)[0]:
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
        # a move pays at most MOVING_FAR, less than a hire: every pair is worth a merge
        self.pairs = build_moving_pairs(cfg.network) if cfg.allow_cross_hub else []
        self.pool = WorkforcePool(daily_cap_h=p.max_work_h)
        self.roster: list[RosterEntry] = []
        self.steps_taken = 0

    def _fixed_shifts(self, kept: list[Shift]) -> list[Shift]:
        """The shifts fixed this step for the plan's kept one-hub shifts
        (``RollingPlan.kept``).

        Runs merge across hubs only among themselves, capped by the number
        of fresh hires they would otherwise require -- so every merge stands
        in for a hire, never for a free pool reuse. Without moving pairs
        (scenario 2) the budget is not counted, and with no hire to save
        the merge is not called. ``merge_across_hubs`` decides which runs
        can merge and builds a ``Shift`` only for each merged pair; every
        other run is fixed as the plan's own ``Shift``, and a step that
        merges nothing fixes the plan's list itself.
        """
        if not self.pairs:
            return kept
        budget = self.pool.simulate_hires([x.working_h for x in kept])
        if not budget:
            return kept
        p = self.cfg.params
        return merge_across_hubs(kept, self.pairs, p.max_work_h, p.max_gap_h, budget)

    def step(self) -> int:
        """The next replan pass, at the plan's next step time; returns the
        number of shifts fixed. Raises ``ValueError`` once every step of the
        plan has been taken."""
        k = self.steps_taken
        times = self.plan.times
        if k == len(times):
            raise ValueError(f"all {k} steps of the plan have been taken")
        now_h = times[k]
        self.pool.release_finished(now_h)
        kept = self.plan.kept(k)
        self.steps_taken = k + 1
        selected = self._fixed_shifts(kept)

        assign, roster = self.pool.assign, self.roster
        for cand in selected:
            worker, _lead, new_hire = assign(cand, now_h)
            roster.append(RosterEntry(cand, worker, now_h, new_hire))
        return len(selected)

    def run(self) -> SimReport:
        """Take the steps not yet taken and report the whole day; a second
        call reports the same day again."""
        t0 = time.perf_counter()
        for _ in range(self.steps_taken, len(self.plan.times)):
            self.step()

        ledger, resting, flows = roster_tables(self.roster, self.hub_ids, self.n)
        late = self.plan.late_parcels
        lateness_penalty(late, ledger)
        series = {
            h: {"arrivals": self.cfg.actuals[h], "working": working, "resting": resting[h]}
            for h, working in zip(self.hub_ids, self.plan.capacity.T.tolist())
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


# The writers render the rows ``csv.writer`` would (excel dialect: ``\r\n``
# line ends; no field here is ever quoted). The roster and series writers
# collect every row's fields in one flat list and render the file with one
# ``%`` template repeated per row: ``%s`` is ``str``, as an f-string's ``{}``
# is, and ``%g`` is ``:g``.


def write_roster_csv(path, report: SimReport, header: str = "") -> None:
    fields = []
    add = fields.extend
    for shift_id, entry in enumerate(report.roster):
        worker, fixed = entry.worker_id, entry.fixed_at_h
        for idx, seg in enumerate(entry.shift.segments):
            add((shift_id, worker, idx, seg.hub_id, seg.kind, seg.start_h, seg.end_h, fixed))
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.write("shift_id,worker_id,segment_idx,hub_id,kind,start_h,end_h,fixed_at_h\r\n")
        fh.write("%s,%s,%s,%s,%s,%s,%s,%g\r\n" * (len(fields) // 8) % tuple(fields))


def write_series_csv(path, report: SimReport, header: str = "") -> None:
    fields = []
    for h in sorted(report.series):
        rows = report.series[h]
        arrivals = rows["arrivals"]
        fields += chain.from_iterable(
            zip(repeat(h), range(len(arrivals)), arrivals, rows["working"], rows["resting"])
        )
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.write("hub_id,slot_h,arrivals,workers_working,workers_resting\r\n")
        fh.write("%s,%s,%s,%s,%s\r\n" * (len(fields) // 5) % tuple(fields))


def write_flows_csv(path, report: SimReport, header: str = "") -> None:
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(header)
        write("from_hub,to_hub,window_start_h,worker_moves\r\n")
        for (src, dst, window), count in sorted(report.flows.items()):
            write(f"{src},{dst},{window},{count}\r\n")
