"""The engine against the reference engine (``reference_engine``), end to
end: equal days on the golden ``paper52`` instance, and on small drawn days
equal days, structurally valid shifts and CLI-written outputs that pass the
benchmark's outside-in audit (``perfbench/outcheck.py``, imported read-only
from its directory).

``PYTHONPATH=src python tests/test_reference_engine.py`` compares the
engines on all three golden instances (``tests/golden/``), every scenario
in both noise modes.
"""

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hubroster import cli
from hubroster.config import ScenarioParams, load_config, params_from_config
from hubroster.demand import read_arrivals_csv, write_arrivals_csv
from hubroster.engine import ScenarioConfig, run_scenario
from hubroster.network import Hub, HubNetwork, load_network, random_network, save_network
from hubroster.shifts import WORKING, Segment, Shift
import reference_engine
from reference_selection import shift_value, with_weights
from shift_checks import validate_shift

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import outcheck  # noqa: E402

REPLAN_MIN = [15, 20, 45, 60, 90, 180, 360, 1440]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _check_golden_days(instance: str) -> None:
    """Compare the engines on every scenario of a golden instance in both
    noise modes; replan15 stores only its config and runs on paper52's
    network and arrivals."""
    inputs = GOLDEN / instance if (GOLDEN / instance / "network.json").exists() else GOLDEN / "paper52"
    net = load_network(inputs / "network.json")
    arrivals = read_arrivals_csv(inputs / "arrivals.csv")
    params = params_from_config(load_config(GOLDEN / instance / "config.json"))
    for noise in ("paper", "perfect"):
        for number in (1, 2, 3):
            cfg = ScenarioConfig(number, net, arrivals, params, noise)
            assert reference_engine.day_of(run_scenario(cfg)) == reference_engine.run(cfg), (instance, cfg.label)


def test_the_engine_equals_the_reference_engine_on_the_paper_day():
    # the other two golden instances take about 4 s more of the reference's
    # time: running this file checks all three
    _check_golden_days("paper52")


def test_a_one_hire_budget_merges_a_pair():
    # hour 0 fixes hub 0's run [0, 2) with a hire; at hour 3 that worker is
    # pooled and the step fixes [4, 5) at hub 0 and [6, 8) at hub 1, one
    # run more than the pool holds workers: the hire budget is one, and the
    # pair merges into one shift for the pooled worker. Threshold 1 with a
    # half-hour target lead fixes only the runs that start by the next step
    net = HubNetwork([Hub(0, "a", 0.0, 0.0, "local"), Hub(1, "b", 1000.0, 0.0, "local")], 3000.0, 15000.0)
    arrivals = {0: [100, 100, 0, 0, 100] + [0] * 7, 1: [0] * 6 + [100, 100] + [0] * 4}
    params = with_weights(ScenarioParams(horizon_h=12, dwell_h=0, replan_min=180), 0.4, 0.3, 0.3, 0.5, 1.0)
    cfg = ScenarioConfig(1, net, arrivals, params, "perfect")
    report = run_scenario(cfg)
    assert reference_engine.day_of(report) == reference_engine.run(cfg)
    entries = [(e.shift.start_h, e.shift.end_h, e.worker_id, e.fixed_at_h, e.is_new_hire) for e in report.roster]
    assert entries == [(0, 2, 0, 0.0, True), (4, 8, 0, 3.0, False)]
    assert report.merged_shift_count == 1 and report.hires == 1


@st.composite
def days(draw):
    """A small day: ``(network, arrivals, params, noise)``. Some hub pairs
    lie inside the 3 km moving radius, sparse rows leave gaps a merge can
    bridge, and the threshold is either drawn or the value of a drawn run
    at a drawn step, so that the inclusive boundary decides some fixes."""
    horizon = draw(st.integers(6, 36), label="horizon")
    seed = draw(st.integers(0, 2**16), label="seed")
    net = random_network(
        n_hubs=draw(st.integers(2, 8), label="hubs"),
        n_gateways=1,
        area_m=draw(st.sampled_from([1500.0, 3000.0, 6000.0]), label="area"),
        speed_m_per_h=draw(st.sampled_from([2500.0, 15000.0]), label="speed"),
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    high = draw(st.sampled_from([150, 600, 900]), label="most arrivals per slot")
    density = draw(st.sampled_from([0.3, 0.7, 1.0]), label="share of slots with arrivals")
    arrivals = {
        h: [int(v) for v in rng.integers(0, high, horizon) * (rng.random(horizon) < density)]
        for h in net.hub_ids
    }
    params = ScenarioParams(
        horizon_h=horizon,
        dwell_h=draw(st.integers(0, 3), label="dwell"),
        max_work_h=draw(st.integers(1, 8), label="max_work"),
        max_gap_h=draw(st.integers(0, 2), label="max_gap"),
        replan_min=draw(st.sampled_from(REPLAN_MIN), label="replan_min"),
        seed=seed,
    )
    raw = [draw(st.floats(0.01, 1.0), label="weight") for _ in range(3)]
    urgency, utilization, continuity = (w / sum(raw) for w in raw)
    lead = draw(st.floats(0.5, 6.0), label="fix_lead_h")
    params = with_weights(params, urgency, utilization, continuity, lead, 0.5)
    if draw(st.booleans(), label="threshold at a run's value"):
        start = draw(st.integers(0, horizon - 1), label="run start")
        run = Shift([Segment(0, start, start + draw(st.integers(1, params.max_work_h)), WORKING)])
        now_h = draw(st.integers(0, start), label="step") // params.replan_h * params.replan_h
        threshold = min(1.0, shift_value(run, now_h, params))
    else:
        threshold = draw(st.floats(0.0, 1.0), label="threshold")
    params = dataclasses.replace(params, fix_threshold=threshold)
    return net, arrivals, params, draw(st.sampled_from(["paper", "perfect"]), label="noise")


def _cli_run(out: Path, net, arrivals, params, noise) -> None:
    """Write the day as an instance in ``out`` and ``hubroster run`` every
    scenario on it."""
    out.mkdir()
    save_network(net, out / "network.json")
    write_arrivals_csv(out / "arrivals.csv", arrivals)
    knobs = {f.name: getattr(params, f.name) for f in dataclasses.fields(params) if f.name != "seed"}
    (out / "config.json").write_text(json.dumps({"seed": params.seed, "params": knobs}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--out", str(out), "--noise", noise]) == 0


def test_the_engine_equals_the_reference_engine_on_small_days(monkeypatch):
    # each scenario's report is the one `hubroster run` wrote the audited
    # outputs from, so the engine runs once per scenario
    seen = {"merged": 0, "late": 0, "paper": 0, "perfect": 0}
    runs = []

    def recorded(cfg, plan):
        report = run_scenario(cfg, plan)
        runs.append((cfg, report))
        return report

    monkeypatch.setattr(cli, "run_scenario", recorded)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(days())
    def check(day):
        net, arrivals, params, noise = day
        seen[noise] += 1
        runs.clear()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "day")
            _cli_run(out, net, arrivals, params, noise)
            for number in (1, 2, 3):
                assert outcheck.audit(out, number) == [], number
        assert len(runs) == 3
        for cfg, report in runs:
            assert reference_engine.day_of(report) == reference_engine.run(cfg), cfg.label
            for entry in report.roster:
                validate_shift(entry.shift, params.max_work_h)
            seen["merged"] += report.merged_shift_count
            seen["late"] += report.late_parcels

    check()
    assert min(seen.values()) > 0, seen


if __name__ == "__main__":
    for name in ("paper52", "replan15", "dense6"):
        _check_golden_days(name)
        print(f"{name}: the engine equals the reference engine in 3 scenarios x 2 noise modes")
