"""Forecast model, labor conversion, deduction, and arrival synthesis."""

import numpy as np
import pytest

from hubroster.demand import (
    ArrivalSeries,
    GeneratorConfig,
    deduct_assigned,
    forecast,
    forecast_matrix,
    forecast_with_u,
    generate_arrivals,
    labor_demand,
    read_arrivals_csv,
    write_arrivals_csv,
)
from hubroster.network import random_network
from hubroster.shifts import Segment, Shift


def _working(hub, s, e):
    return Shift([Segment(hub, s, e, "working")])


# ---------------------------------------------------------------- forecast


def test_forecast_exact_at_zero_lead():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = int(rng.integers(0, 100000))
        t = float(rng.integers(0, 24))
        assert forecast(c, t, t, rng) == c


def test_forecast_lead_ten_u_minus_one():
    assert forecast_with_u(100, 0, 10, -1.0) == 90.0


def test_forecast_zero_actual():
    rng = np.random.default_rng(1)
    for lead in (0, 3, 17):
        assert forecast(0, 2, 2 + lead, rng) == 0.0


def test_forecast_u_zero_is_exact_any_lead():
    for c in (0, 1, 331, 150, 987654):
        for lead in range(0, 25):
            assert forecast_with_u(c, 0, lead, 0.0) == c


def test_forecast_band_and_clamp():
    rng = np.random.default_rng(2)
    for _ in range(500):
        c = int(rng.integers(0, 5000))
        lead = float(rng.integers(0, 24))
        p = forecast(c, 10.0, 10.0 + lead, rng)
        assert p >= 0.0
        assert abs(p - c) <= c * lead / 100.0 + 1e-9


def test_forecast_rejects_past_slot():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        forecast(10, 5, 4, rng)
    with pytest.raises(ValueError):
        forecast(-1, 0, 0, rng)


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
    assert labor_demand([300], 150) == [2]
    assert labor_demand([0], 150) == [0]
    assert labor_demand([301], 150) == [3]


def test_labor_demand_monotone_and_covering():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.integers(0, 10000))
        b = a + int(rng.integers(0, 500))
        xa, xb = labor_demand([a], 150)[0], labor_demand([b], 150)[0]
        assert xb >= xa
        assert xa * 150 >= a


def test_labor_demand_rejects_bad_rate():
    with pytest.raises(ValueError):
        labor_demand([1], 0)


# ---------------------------------------------------------------- deduction


def test_deduct_basic():
    out = deduct_assigned({0: [2, 2, 0]}, [_working(0, 0, 2)])
    assert out == {0: [1, 1, 0]}


def test_deduct_clamps_at_zero():
    out = deduct_assigned({0: [1, 0]}, [_working(0, 0, 2)])
    assert out == {0: [0, 0]}


def test_deduct_identity_without_shifts():
    src = {0: [3, 3]}
    out = deduct_assigned(src, [])
    assert out == {0: [3, 3]}
    out[0][0] = 99
    assert src == {0: [3, 3]}  # never mutates input


def test_deduct_order_independent_disjoint():
    shifts = [_working(0, 0, 2), _working(0, 3, 5), _working(1, 1, 3)]
    demand = {0: [2, 2, 2, 2, 2], 1: [1, 1, 1, 1, 1]}
    fwd = deduct_assigned(demand, shifts)
    rev = deduct_assigned(demand, list(reversed(shifts)))
    assert fwd == rev


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
