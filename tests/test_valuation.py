"""Value function scoring and the fix/defer decision."""

import dataclasses
import math

import numpy as np
import pytest

from hubroster.config import ScenarioParams
from hubroster.demand import ArrivalSeries
from hubroster.engine import RollingPlan, ScenarioConfig
from hubroster.network import Hub, HubNetwork
from hubroster.shifts import Segment, Shift
from hubroster.valuation import shift_value, should_fix
from reference_selection import fix_reach, with_weights

W = ScenarioParams()  # 0.4 / 0.3 / 0.3, fix lead 4 h, threshold 0.9, cap 8 h


def _shift(start, working, resting=0):
    segs = [Segment(0, start, start + working, "working")]
    if resting:
        segs.append(Segment(0, start + working, start + working + resting, "resting"))
    return Shift(segs)


def _value(shift):
    return shift_value(shift.start_h, shift.working_h, shift.resting_h, 0, W)


def test_full_continuous_shift_scores_one():
    assert _value(_shift(4, 8)) == pytest.approx(1.0, abs=1e-9)


def test_short_rest_heavy_far_shift():
    value = _value(_shift(16, 2, resting=6))
    assert value == pytest.approx(0.275, abs=1e-9)


def test_imminent_full_shift_caps_at_one():
    assert _value(_shift(1, 8)) == pytest.approx(1.0, abs=1e-9)


def test_should_fix_examples():
    assert should_fix(1.0, 0.9)
    assert not should_fix(0.275, 0.9)
    assert should_fix(0.9, 0.9)  # boundary inclusive


def test_urgency_monotone_as_start_approaches():
    values = [_value(_shift(start, 4)) for start in range(20, 1, -1)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_utilization_monotone_in_working_hours():
    values = [_value(_shift(10, w)) for w in range(1, 9)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_value_bounded_zero_one():
    rng = np.random.default_rng(0)
    for _ in range(300):
        start = int(rng.integers(1, 24))
        working = int(rng.integers(1, 9))
        resting = int(rng.integers(0, 12))
        v = _value(_shift(start, working, resting))
        assert 0.0 <= v <= 1.0 + 1e-12


def test_rest_free_shift_maximizes_continuity_term():
    rested = _value(_shift(10, 4, resting=5))
    continuous = _value(_shift(10, 4))
    assert continuous > rested


def test_fix_reach_is_where_a_full_rest_free_run_meets_the_threshold():
    # at the defaults the reach is 0.4 * 4 / (0.9 - 0.3 - 0.3) = 5.33 h; a
    # full-cap rest-free run scores the threshold there and less past it
    assert fix_reach(W) == pytest.approx(16 / 3, abs=1e-12)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(2000):
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        params = with_weights(
            W, urgency, utilization, continuity, float(rng.uniform(0.5, 6.0)), float(rng.random())
        )
        reach = fix_reach(params)
        if reach is None:
            assert params.fix_threshold <= utilization + continuity + 1e-9
            continue
        params = dataclasses.replace(params, max_work_h=int(rng.integers(1, 9)))
        cap = params.max_work_h
        now = float(rng.uniform(0.0, 24.0))
        at = shift_value(now + reach, cap, 0, now, params)
        assert at == pytest.approx(params.fix_threshold, abs=1e-12)
        past = shift_value(now + reach * (1 + 1e-9) + 1e-9, cap, 0, now, params)
        assert not should_fix(past, params.fix_threshold)
        checked += 1
    assert checked > 500


def test_fix_reach_none_when_any_lead_can_qualify():
    assert fix_reach(ScenarioParams(fix_threshold=0.6)) is None  # == utilization + continuity
    assert fix_reach(ScenarioParams(fix_threshold=0.3)) is None
    assert fix_reach(with_weights(W, 0.0, 0.5, 0.5, 4.0, 1.0)) is None  # no urgency weight
    assert fix_reach(ScenarioParams(fix_threshold=1.0)) == pytest.approx(4.0)  # the target lead itself


def _plan(horizon=24, scenario=1, **params):
    net = HubNetwork([Hub(0, "H0", 0.0, 0.0, "local")], d_max_m=3000, speed_m_per_h=15000)
    cfg = ScenarioConfig(
        scenario, net, {0: ArrivalSeries(0, [0] * horizon)}, ScenarioParams(horizon_h=horizon, **params)
    )
    return RollingPlan(cfg)


def test_step_stop_is_never_past_the_fix_reach():
    # a step builds and values runs only before its stop, the length of its
    # fix-length table: the first slot past the next replan where a
    # full-length rest-free run scores below the threshold. At hour 0 with
    # the defaults a run at slot 5 scores 0.92 and one at slot 6 0.87, one
    # slot before the padded reach ceil(5.33) + 1
    assert len(_plan()._fix_lengths(0.0, 0)) == 6
    assert len(_plan(scenario=3)._fix_lengths(0.0, 0)) == 24
    rng = np.random.default_rng(8)
    below = 0
    for _ in range(2000):
        horizon = int(rng.integers(1, 37))
        cap = int(rng.integers(1, 9))
        plan = _plan(horizon, max_work_h=cap, replan_min=int(rng.choice([15, 20, 45, 60, 90, 360])))
        raw = rng.random(3) + 0.01
        urgency, utilization, continuity = (float(v) for v in raw / raw.sum())
        plan.cfg.params = params = with_weights(
            plan.cfg.params, urgency, utilization, continuity, float(rng.uniform(0.5, 6.0)), float(rng.random())
        )
        replan_h = params.replan_h
        now_h = int(rng.integers(0, math.ceil(horizon / replan_h))) * replan_h
        first_slot = math.ceil(now_h - 1e-9)
        stop = len(plan._fix_lengths(now_h, first_slot))
        for s in range(first_slot, min(stop + 1, horizon)):
            fixable = s <= now_h + replan_h + 1e-9 or should_fix(
                shift_value(s, cap, 0, now_h, params), params.fix_threshold
            )
            assert fixable == (s < stop), (s, stop)
        reach = fix_reach(params)
        if reach is not None:
            padded = math.ceil(now_h + max(replan_h, reach)) + 1
            assert stop <= padded
            below += stop < min(padded, horizon)
    assert below > 150


def test_zero_working_rejected():
    bad = Shift([Segment(0, 0, 2, "resting")])
    with pytest.raises(ValueError):
        _value(bad)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"urgency_weight": 0.6}, "sum to 1, got 1.2"),
        ({"urgency_weight": -0.2, "utilization_weight": 0.6, "continuity_weight": 0.6}, "non-negative"),
        ({"fix_threshold": 1.5}, r"fix_threshold must lie in \[0, 1\]"),
        ({"fix_lead_h": 0}, "fix_lead_h must be positive"),
        ({"urgency_weight": math.nan}, r"non-negative, got \(nan, 0.3, 0.3\)"),
        ({"fix_lead_h": math.nan}, "fix_lead_h must be positive, got nan"),
    ],
    ids=["sum", "negative", "threshold", "fix-lead", "nan-weight", "nan-fix-lead"],
)
def test_scenario_params_apply_the_value_weight_rules(overrides, message):
    with pytest.raises(ValueError, match=message):
        ScenarioParams(**overrides)
