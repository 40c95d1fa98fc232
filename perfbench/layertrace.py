"""Outside-in timing of hubroster's layers.

Nothing here edits the package: the benchmark swaps the public names the
engine calls through (module functions and class methods) for thin wrappers
and puts the originals back afterwards. Two instruments use this:

* ``DayProbe`` is always on. It times each ``run_scenario`` call the CLI
  makes and each replan step of scenario 1, which is all the end-to-end
  metrics need (a few dozen timer pairs per day).
* ``Tracer`` is on only for traced repeats. It records one span per call at
  every layer boundary in ``LAYERS`` (name, start, end, parent, and a
  (workload, scenario, repeat) id), keeps them in memory and derives busy and
  self times from them. Names called tens of thousands of times per day
  (valuation) are counted instead: a span per call there costs ~20% of a
  replan15 day.

A name that no longer exists (after a refactor) is reported as absent, not
an error.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

SPAN = "span"
COUNT = "count"

# (owner, attribute, layer name, mode). The owner is where the caller looks the
# name up: the engine imports most helpers into its own namespace, while the
# kernels are reached through the `hubroster._kernels` module.
LAYERS = [
    ("hubroster.cli", "load_config", "cli.load_config", SPAN),
    ("hubroster.cli", "load_network", "cli.load_network", SPAN),
    ("hubroster.cli", "read_arrivals_csv", "cli.read_arrivals_csv", SPAN),
    ("hubroster.cli", "run_scenario", "cli.run_scenario", SPAN),
    ("hubroster.cli", "write_ledger_json", "cli.write_ledger_json", SPAN),
    ("hubroster.cli", "write_ledger_csv", "cli.write_ledger_csv", SPAN),
    ("hubroster.cli", "write_roster_csv", "cli.write_roster_csv", SPAN),
    ("hubroster.cli", "write_series_csv", "cli.write_series_csv", SPAN),
    ("hubroster.cli", "write_flows_csv", "cli.write_flows_csv", SPAN),
    ("hubroster.engine.RollingEngine", "run", "engine.run", SPAN),
    ("hubroster.engine.RollingEngine", "step", "engine.step", SPAN),
    ("hubroster.engine", "replay_execution", "engine.replay_execution", SPAN),
    ("hubroster.engine", "build_moving_pairs", "network.build_moving_pairs", SPAN),
    ("hubroster.engine", "forecast_matrix", "demand.forecast_matrix", SPAN),
    ("hubroster.engine", "combine_within_hub_detail", "shifts.combine_within_hub_detail", SPAN),
    ("hubroster.engine", "merge_across_hubs", "shifts.merge_across_hubs", SPAN),
    ("hubroster.engine", "shift_value", "valuation.shift_value", COUNT),
    ("hubroster.engine", "should_fix", "valuation.should_fix", COUNT),
    ("hubroster.engine", "accrue_shift", "ledger.accrue_shift", SPAN),
    ("hubroster.pool.WorkforcePool", "assign", "pool.assign", SPAN),
    ("hubroster.pool.WorkforcePool", "simulate_hires", "pool.simulate_hires", SPAN),
    ("hubroster.pool.WorkforcePool", "release_finished", "pool.release_finished", SPAN),
    ("hubroster._kernels", "within_hub_runs", "kernels.within_hub_runs", SPAN),
    ("hubroster._kernels", "fifo_match_units", "kernels.fifo_match_units", SPAN),
    ("hubroster._kernels", "merge_runs", "kernels.merge_runs", SPAN),
    ("hubroster._kernels", "fifo_replay", "kernels.fifo_replay", SPAN),
]


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute ``C``; None if gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Patches:
    """Swapped attributes, restored in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._saved = []

    def wrap(self, owner_path: str, attr: str, make) -> bool:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            return False
        self._saved.append((owner, attr, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, make(fn))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if orig is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


class DayProbe:
    """Per-scenario day time and replan step times of one CLI run."""

    def __init__(self):
        self.days: dict[str, float] = {}
        self.steps: dict[str, list[float]] = {}  # scenario label -> step times in order
        self._label = None
        self._patches = Patches()

    def install(self) -> None:
        for owner, attr, make in (
            ("hubroster.cli", "run_scenario", self._time_day),
            ("hubroster.engine.RollingEngine", "step", self._time_step),
        ):
            if not self._patches.wrap(owner, attr, make):
                self.uninstall()
                raise RuntimeError(f"cannot time {owner}.{attr}: name not found")

    def uninstall(self) -> None:
        self._patches.restore()

    def reset(self) -> None:
        self.days = {}
        self.steps = {}

    def _time_day(self, fn):
        def run_scenario(cfg, *args, **kwargs):
            self._label = cfg.label
            t0 = time.perf_counter()
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self.days[cfg.label] = time.perf_counter() - t0
                self._label = None

        return run_scenario

    def _time_step(self, fn):
        def step(engine, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(engine, *args, **kwargs)
            finally:
                self.steps.setdefault(self._label, []).append(time.perf_counter() - t0)

        return step


# Counts read at a layer boundary, keyed by layer: before(args) and after(args,
# result) each return {count name: increment}.
def _pooled_before(args):
    return {"pool.assign.queue_len_sum": args[0].pooled}


_BEFORE = {"pool.assign": _pooled_before}
_AFTER = {
    "pool.assign": lambda a, r: {"pool.assign.reuses": 0 if r[2] else 1},
    "pool.simulate_hires": lambda a, r: {"engine.merge_budget": r},
    "kernels.merge_runs": lambda a, r: {"kernels.merge_runs.merges": len(r[0])},
    "kernels.within_hub_runs": lambda a, r: {
        "kernels.within_hub_runs.dropped_units": sum(c for _o, c in r[2])
    },
    "shifts.combine_within_hub_detail": lambda a, r: {
        "shifts.combine_within_hub_detail.candidates": len(r[0])
    },
    "valuation.should_fix": lambda a, r: {"valuation.should_fix.true": 1 if r else 0},
    "network.build_moving_pairs": lambda a, r: {"network.build_moving_pairs.pairs": len(r)},
}


class Tracer:
    """Spans and counters at every layer boundary in ``LAYERS``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.absent: list[str] = []
        self.broken: set[str] = set()  # layers whose count hook no longer fits
        self._patches = Patches()
        self.reset(0)

    def reset(self, repeat: int) -> None:
        self.repeat = repeat
        # span: [name, start, end, parent index, (workload, scenario, repeat), counted child time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._set_scenario("cli")

    def _set_scenario(self, label: str) -> None:
        self.scenario = label
        self._run_id = (self.workload, label, self.repeat)

    def install(self) -> None:
        self.absent = []
        for owner, attr, layer, mode in LAYERS:
            make = self._span if mode == SPAN else self._count

            def factory(fn, layer=layer, make=make):
                return make(layer, fn)

            if not self._patches.wrap(owner, attr, factory):
                self.absent.append(layer)

    def uninstall(self) -> None:
        self._patches.restore()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as a span opened by the benchmark itself (e.g. the CLI call)."""
        return self._span(layer, fn)(*args, **kwargs)

    def _hook(self, table, layer, *payload) -> None:
        hook = table.get(layer)
        if hook is None or layer in self.broken:
            return
        try:
            delta = hook(*payload)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.broken.add(layer)
            return
        for name, inc in delta.items():
            self.counts[(self.scenario, name)] += inc

    def _span(self, layer, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if layer == "cli.run_scenario":
                self._set_scenario(getattr(args[0], "label", "?"))
            self._hook(_BEFORE, layer, args)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self._run_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            self._hook(_AFTER, layer, args, result)
            return result

        return wrapper

    def _count(self, layer, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            row = self.counters[(self.scenario, layer)]
            row[0] += 1
            row[1] += dt
            if stack:
                spans[stack[-1]][5] += dt
            self._hook(_AFTER, layer, args, result)
            return result

        return wrapper

    def table(self) -> dict[tuple, list]:
        """(scenario, layer) -> [calls, busy_s, self_s] for the current repeat.

        A span's self time is its duration minus its child spans and the
        counted calls made while it was the innermost open span.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _id, _counted in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _parent, run_id, counted) in enumerate(self.spans):
            row = out[(run_id[1], name)]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i] - counted
        for key, (calls, busy) in self.counters.items():
            row = out[key]
            row[0] += calls
            row[1] += busy
            row[2] += busy
        return dict(out)

    def span_records(self) -> list[list]:
        """Spans of the current repeat, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(t0 - base, 7), round(t1 - base, 7), parent, *run_id]
            for name, t0, t1, parent, run_id, _counted in self.spans
        ]
