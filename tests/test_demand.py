"""Forecast model, labor conversion, residual demand, and arrival synthesis."""

import math

import numpy as np
import pytest

from hubroster._kernels import fifo_match_units
from hubroster.demand import (
    ArrivalSeries,
    GeneratorConfig,
    forecast_matrix,
    generate_arrivals,
    labor_demand,
    read_arrivals_csv,
    write_arrivals_csv,
)
from hubroster.network import random_network
import reference_kernels

# ---------------------------------------------------------------- forecast


def forecast_with_u(actual_count: float, made_at_h: float, target_h: float, u: float) -> float:
    """Scalar form of the forecast model for one (hub, slot) and one draw u;
    the elementwise reference for ``forecast_matrix``."""
    lead = target_h - made_at_h
    return max(0.0, actual_count * (u * lead + 100.0) / 100.0)


def _snapshot(actuals, made_at_h, rng):
    """Noisy forecast of every slot from ``made_at_h`` on, one fresh u per
    (hub, slot), as the engine draws it."""
    first = math.ceil(made_at_h)
    u = rng.uniform(-1.0, 1.0, size=(actuals.shape[0], actuals.shape[1] - first))
    return forecast_matrix(actuals, made_at_h, first, u)


def test_forecast_exact_at_zero_lead():
    rng = np.random.default_rng(0)
    for _ in range(200):
        actuals = rng.integers(0, 100000, size=(3, 24))
        t = int(rng.integers(0, 24))
        assert (_snapshot(actuals, float(t), rng)[:, 0] == actuals[:, t]).all()


def test_forecast_lead_ten_u_minus_one():
    assert forecast_with_u(100, 0, 10, -1.0) == 90.0
    assert forecast_matrix(np.full((1, 11), 100), 0.0, 10, np.array([[-1.0]]))[0, 0] == 90.0


def test_forecast_zero_actual():
    rng = np.random.default_rng(1)
    pred = _snapshot(np.zeros((4, 24), dtype=np.int64), 2.0, rng)
    assert (pred == 0.0).all()


def test_forecast_u_zero_is_exact_any_lead():
    for c in (0, 1, 331, 150, 987654):
        for lead in range(0, 25):
            assert forecast_with_u(c, 0, lead, 0.0) == c
        row = np.full((1, 25), c)
        assert (forecast_matrix(row, 0.0, 0, np.zeros((1, 25))) == c).all()


def test_forecast_band_and_clamp():
    rng = np.random.default_rng(2)
    for _ in range(50):
        actuals = rng.integers(0, 5000, size=(10, 34))
        pred = _snapshot(actuals, 10.0, rng)
        lead = np.arange(24, dtype=np.float64)
        tail = actuals[:, 10:]
        assert (pred >= 0.0).all()
        assert (np.abs(pred - tail) <= tail * lead / 100.0 + 1e-9).all()


def test_forecast_matrix_matches_scalar():
    rng = np.random.default_rng(4)
    actuals = rng.integers(0, 2000, size=(5, 24))
    u = rng.uniform(-1, 1, size=(5, 24 - 7))
    mat = forecast_matrix(actuals, 7.0, 7, u)
    for i in range(5):
        for t in range(7, 24):
            assert mat[i, t - 7] == forecast_with_u(actuals[i, t], 7.0, t, u[i, t - 7])
    perfect = forecast_matrix(actuals, 7.0, 7, None)
    assert (perfect == actuals[:, 7:]).all()


# ------------------------------------------------------------ labor demand


def test_labor_demand_examples():
    assert labor_demand([300, 0, 301], 150).tolist() == [2, 0, 3]
    assert labor_demand(np.array([[0.0, 149.9], [150.0, 150.0001]]), 150).tolist() == [[0, 1], [1, 2]]


def test_labor_demand_monotone_and_covering():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 10000, 2000)
    b = a + rng.uniform(0, 500, 2000)
    xa, xb = labor_demand(a, 150), labor_demand(b, 150)
    assert xa.dtype == np.int64
    assert (xb >= xa).all()
    assert (xa * 150 >= a).all()
    assert xa.tolist() == [math.ceil(c / 150) for c in a]


def test_labor_demand_rejects_bad_rate():
    with pytest.raises(ValueError):
        labor_demand([1], 0)


# ------------------------------------------- residual demand (FIFO in dwell)


def test_deduct_basic():
    assert fifo_match_units([2, 2, 0], [1, 1, 0], 0) == [1, 1, 0]


def test_deduct_clamps_at_zero():
    assert fifo_match_units([1, 0], [1, 1], 0) == [0, 0]
    assert fifo_match_units([1, 0], [3, 3], 1) == [0, 0]


def test_deduct_identity_without_shifts():
    demand, capacity = [3, 3], [0, 0]
    out = fifo_match_units(demand, capacity, 1)
    assert out == [3, 3]
    fifo_match_units(demand, [2, 2], 1)
    out[0] = 99
    assert demand == [3, 3] and capacity == [0, 0]  # never mutates input


def test_deduct_serves_oldest_origin_within_dwell():
    # capacity at slot t serves origin t - dwell before fresher units
    assert fifo_match_units([1, 1, 1], [0, 0, 1], 2) == [0, 1, 1]
    assert fifo_match_units([1, 1, 1], [0, 0, 2], 1) == [1, 0, 0]
    # and never a unit it would reach after its deadline
    assert fifo_match_units([2, 0, 0], [0, 0, 2], 1) == [2, 0, 0]
    assert fifo_match_units([0, 0, 1], [5, 0, 0], 3) == [0, 0, 1]


def _unit_scan(demand, capacity, dwell):
    """Literal unit-at-a-time matching: each worker-slot serves one unit, the
    oldest unserved one whose origin lies in [t - dwell, t]."""
    rem = list(demand)
    for t, workers in enumerate(capacity):
        for _ in range(workers):
            for origin in range(max(0, t - dwell), t + 1):
                if rem[origin] > 0:
                    rem[origin] -= 1
                    break
    return rem


def test_fifo_match_units_matches_unit_scan():
    rng = np.random.default_rng(6)
    partial = 0
    for _ in range(3000):
        n = int(rng.integers(1, 25))
        demand = [int(v) for v in rng.integers(0, 5, n)]
        capacity = [int(v) for v in rng.integers(0, 4, n)]
        dwell = int(rng.integers(0, 4))
        out = fifo_match_units(demand, capacity, dwell)
        assert out == _unit_scan(demand, capacity, dwell), (demand, capacity, dwell)
        partial += 0 < sum(out) < sum(demand)
    assert partial > 1000


def test_fifo_match_units_matches_window_scan_on_engine_rows():
    # the engine's input: demand over a 24-36 h horizon and the fixed
    # roster's capacity, which is zero ahead of the steps fixed so far.
    # Sparse capacity leaves units behind that a later slot must jump past
    # (the oldest-origin reset); capacity far above demand empties origins
    # the pass then never walks again
    rng = np.random.default_rng(31)
    paths = {"reset": 0, "sparse": 0, "surplus": 0}
    for case in range(6000):
        n = int(rng.integers(24, 37))
        dwell = int(rng.integers(0, 7))
        demand = [int(v) for v in rng.integers(0, 9, n) * (rng.random(n) < 0.7)]
        fixed_to = int(rng.integers(0, n + 1))
        shape = case % 3
        if shape == 0:  # mostly zero
            capacity = [int(v) for v in rng.integers(1, 6, n) * (rng.random(n) < 0.2)]
        elif shape == 1:  # far above demand
            capacity = [d + int(v) for d, v in zip(demand, rng.integers(5, 30, n))]
        else:
            capacity = [int(v) for v in rng.integers(0, 9, n)]
        capacity[fixed_to:] = [0] * (n - fixed_to)
        out = fifo_match_units(demand, capacity, dwell)
        assert out == reference_kernels.fifo_match_units(demand, capacity, dwell), (demand, capacity, dwell)
        # an origin still holding units that a later slot with capacity
        # could not reach: the pass moved its oldest origin past it
        paths["reset"] += any(
            left and any(capacity[o + dwell + 1 :]) for o, left in enumerate(out)
        )
        paths["sparse"] += 2 * capacity.count(0) > n and any(capacity)
        paths["surplus"] += sum(capacity) > 2 * sum(demand) > 0 and not any(out[:fixed_to])
    assert paths["reset"] > 1500 and paths["sparse"] > 3000 and paths["surplus"] > 1000, paths


# ------------------------------------------------------------- generation


def test_generate_zero_volume():
    net = random_network(n_hubs=4, n_gateways=1, seed=0)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=0), seed=0)
    assert all(s.total == 0 for s in series.values())


def test_generate_deterministic():
    net = random_network(n_hubs=6, n_gateways=2, seed=1)
    a = generate_arrivals(net, GeneratorConfig(daily_volume=5000), seed=42)
    b = generate_arrivals(net, GeneratorConfig(daily_volume=5000), seed=42)
    assert {h: s.arrivals for h, s in a.items()} == {h: s.arrivals for h, s in b.items()}


def test_generate_paper_scale_volume():
    net = random_network(n_hubs=52, n_gateways=3, seed=0)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=1_173_253), seed=0)
    total = sum(s.total for s in series.values())
    assert abs(total - 1_173_253) <= 0.01 * 1_173_253
    assert total == 1_173_253  # largest-remainder apportionment is exact


def test_generate_rejects_negative_volume():
    net = random_network(n_hubs=2, n_gateways=1, seed=0)
    with pytest.raises(ValueError):
        generate_arrivals(net, GeneratorConfig(daily_volume=-1), seed=0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"daily_volume": -1}, "daily_volume must be >= 0"),
        ({"horizon_h": 0}, "horizon_h must be >= 1"),
        ({"gateway_weight": 0.0}, "gateway_weight must be positive"),
        ({"hub_jitter": 1.0}, r"jitter fractions must lie in \[0, 1\)"),
        ({"cell_jitter": -0.1}, r"jitter fractions must lie in \[0, 1\)"),
    ],
    ids=["volume", "horizon", "gateway-weight", "hub-jitter", "cell-jitter"],
)
def test_generator_config_validate_rejects_out_of_range(overrides, message):
    with pytest.raises(ValueError, match=message):
        GeneratorConfig(**overrides).validate()


def test_tier_peaks_are_phase_shifted():
    net = random_network(n_hubs=20, n_gateways=4, seed=3)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=200_000), seed=3)
    gw = np.zeros(24)
    loc = np.zeros(24)
    for hub in net.hubs:
        target = gw if hub.tier == "gateway" else loc
        target += np.array(series[hub.id].arrivals)
    offset = abs(int(np.argmax(gw)) - int(np.argmax(loc)))
    offset = min(offset, 24 - offset)
    assert 6 <= offset <= 12
    assert gw.sum() > loc.sum() / 16 * 4  # gateways carry outsized volume


def test_arrivals_csv_round_trip(tmp_path):
    net = random_network(n_hubs=3, n_gateways=1, seed=2)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=900), seed=2)
    path = tmp_path / "arrivals.csv"
    write_arrivals_csv(path, series, "# seed=2 config=abc\n")
    back = read_arrivals_csv(path)
    assert {h: s.arrivals for h, s in back.items()} == {h: s.arrivals for h, s in series.items()}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:5] + rows[6:], "missing row for hub 0 slot 5"),
        (lambda rows: rows[:-1], "missing row for hub 2 slot 23"),
        (lambda rows: rows + ["1,7,99\n"], "duplicate row for hub 1 slot 7"),
        (lambda rows: rows + ["1,-1,5\n"], "negative slot for hub 1 slot -1"),
    ],
    ids=["missing-inner", "missing-last", "duplicate", "negative-slot"],
)
def test_arrivals_csv_rejects_missing_and_duplicate_rows(tmp_path, edit, message):
    net = random_network(n_hubs=3, n_gateways=1, seed=2)
    path = tmp_path / "arrivals.csv"
    write_arrivals_csv(path, generate_arrivals(net, GeneratorConfig(daily_volume=900), seed=2))
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(edit(rows)))
    with pytest.raises(ValueError, match=message):
        read_arrivals_csv(path)


def test_arrival_series_rejects_negative():
    with pytest.raises(ValueError):
        ArrivalSeries(0, [1, -1])
