"""Forecast model, labor conversion, residual demand, and arrival synthesis."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hubroster import _kernels as kernels
from hubroster.demand import (
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


def fifo_match_units(demand, capacity, dwell):
    """The FIFO residual kernel on one hub's column, walked from slot 0."""
    cleared = np.zeros((len(demand), 1), np.int64)
    return kernels.fifo_match_units(np.array([demand]).T, np.array([capacity]).T, dwell, 0, cleared)[:, 0].tolist()


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


def test_fifo_match_units_resumed_from_a_settled_prefix_matches_the_full_walk():
    # the engine's steps: the walk's state is kept, then demand and capacity
    # change from a split slot on (a new forecast, newly fixed runs) and the
    # walk resumes there, leaving the state before the split as it was
    rng = np.random.default_rng(41)
    splits = {"start": 0, "inside": 0, "end": 0}
    partial = 0
    for _ in range(4000):
        n = int(rng.integers(1, 30))
        dwell = int(rng.integers(0, 4))
        split = int(rng.integers(0, n + 1))
        old_demand = [int(v) for v in rng.integers(0, 6, n) * (rng.random(n) < 0.7)]
        old_capacity = [int(v) for v in rng.integers(0, 5, n) * (rng.random(n) < 0.5)]
        demand = old_demand[:split] + [int(v) for v in rng.integers(0, 6, n - split)]
        capacity = old_capacity[:split] + [
            c + int(v) for c, v in zip(old_capacity[split:], rng.integers(0, 4, n - split))
        ]
        cleared = np.zeros((n, 1), np.int64)
        kernels.fifo_match_units(np.array([old_demand]).T, np.array([old_capacity]).T, dwell, 0, cleared)
        settled = cleared[:split].copy()
        rem = kernels.fifo_match_units(np.array([demand]).T, np.array([capacity]).T, dwell, split, cleared)
        full = reference_kernels.fifo_match_units(demand, capacity, dwell)
        assert rem[:, 0].tolist() == full, (demand, capacity, dwell, split)
        assert (cleared[:split] == settled).all()
        splits["start" if split == 0 else "end" if split == n else "inside"] += 1
        partial += 0 < sum(rem) < sum(demand)
    assert min(splits.values()) > 200 and partial > 1000, (splits, partial)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_fifo_match_units_rows_match_the_reference_fresh_and_resumed(data):
    # every column of the slot-major matrix walk is the one-hub reference
    # walk, from slot 0 and resumed at a slot after an earlier walk whose
    # demand and capacity agree with these before that slot
    hubs = data.draw(st.integers(1, 8), label="hubs")
    n = data.draw(st.integers(1, 30), label="slots")
    dwell = data.draw(st.integers(0, 4), label="dwell")
    resume = data.draw(st.integers(0, n), label="resume")
    cells = arrays(np.int64, (n, hubs), elements=st.integers(0, 6))
    demand, capacity, old_demand, old_capacity = (data.draw(cells) for _ in range(4))

    def reference(h):
        return reference_kernels.fifo_match_units(demand[:, h].tolist(), capacity[:, h].tolist(), dwell)

    fresh = kernels.fifo_match_units(demand, capacity, dwell, 0, np.full((n, hubs), -1, np.int64))
    assert [fresh[:, h].tolist() for h in range(hubs)] == [reference(h) for h in range(hubs)]

    old_demand[:resume] = demand[:resume]
    old_capacity[:resume] = capacity[:resume]
    cleared = np.zeros((n, hubs), np.int64)
    kernels.fifo_match_units(old_demand, old_capacity, dwell, 0, cleared)
    settled = cleared[:resume].copy()
    resumed = kernels.fifo_match_units(demand, capacity, dwell, resume, cleared)
    assert [resumed[:, h].tolist() for h in range(hubs)] == [reference(h) for h in range(hubs)]
    assert (cleared[:resume] == settled).all()


def test_fifo_match_units_capacity_free_tail_matches_the_reference():
    # every column of the slot-major walk is the one-hub reference walk,
    # from slot 0 and resumed at a drawn slot after an earlier walk that
    # agrees with this one before it (the state there is left as it was).
    # Capacity is zero from a drawn slot on, so the walk ends in its
    # one-call tail, whose state a resumed walk may read; 1-30 slots, dwell
    # windows past the horizon, and sparse capacity that leaves units out
    # of a later staffed slot's reach
    seen = {"partial": 0, "tail": 0, "out of reach": 0, "resumed inside": 0}

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(st.data())
    def check(data):
        hubs = data.draw(st.integers(1, 6), label="hubs")
        n = data.draw(st.integers(1, 30), label="slots")
        dwell = data.draw(st.one_of(st.integers(0, 4), st.integers(0, n + 2)), label="dwell")
        cells = arrays(np.int64, (n, hubs), elements=st.integers(0, 6))
        staff = arrays(np.int64, (n, hubs), elements=st.sampled_from([0, 0, 0, 1, 2, 6]))
        demand, old_demand = data.draw(cells), data.draw(cells)
        capacity, old_capacity = data.draw(staff), data.draw(staff)
        free_from = data.draw(st.integers(0, n), label="capacity-free from")
        capacity[free_from:] = 0
        old_capacity[data.draw(st.integers(0, n), label="earlier walk capacity-free from") :] = 0
        resume = data.draw(st.one_of(st.integers(0, n), st.integers(free_from, n)), label="resume")
        expected = [
            reference_kernels.fifo_match_units(demand[:, h].tolist(), capacity[:, h].tolist(), dwell)
            for h in range(hubs)
        ]

        fresh = kernels.fifo_match_units(demand, capacity, dwell, 0, np.full((n, hubs), -1, np.int64))
        assert fresh.T.tolist() == expected

        old_demand[:resume] = demand[:resume]
        old_capacity[:resume] = capacity[:resume]
        cleared = np.zeros((n, hubs), np.int64)
        kernels.fifo_match_units(old_demand, old_capacity, dwell, 0, cleared)
        settled = cleared[:resume].copy()
        resumed = kernels.fifo_match_units(demand, capacity, dwell, resume, cleared)
        assert resumed.T.tolist() == expected
        assert (cleared[:resume] == settled).all()

        seen["partial"] += 0 < fresh.sum() < demand.sum()
        seen["tail"] += capacity.any() and free_from < n
        seen["out of reach"] += any(
            fresh[o, h] and capacity[o + dwell + 1 :, h].any() for o in range(n) for h in range(hubs)
        )
        seen["resumed inside"] += 0 < resume < n

    check()
    assert min(seen.values()) > 25, seen


def _keepable_row(row, first_slot, need, dwell):
    """The bound of ``kernels.keepable_rows`` for one row, start by start:
    some ``t0`` in ``[first_slot, len(need))`` has ``m = max(1, need[t0])``
    slots from it inside the row, each with a unit at an origin within
    its dwell window."""
    for t0 in range(first_slot, len(need)):
        m = max(1, need[t0])
        if t0 + m <= len(row) and all(any(row[max(0, t - dwell) : t + 1]) for t in range(t0, t0 + m)):
            return True
    return False


def _kept_runs(row, dwell, max_run, first_slot, need):
    """The runs a fresh ``within_hub_runs`` search of ``row`` gives that the
    fix-length table ``need`` keeps, as the engine filters them."""
    stop = len(need)
    runs = kernels.within_hub_runs(row, dwell, max_run, first_slot, stop)[0]
    return [(start, end) for start, end in runs if start < stop and end - start >= need[start]]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_keepable_rows_rules_out_only_rows_that_keep_no_run(data):
    # the matrix bound equals the hub-by-hub loop, and a hub it rules out
    # gives no run a fresh search keeps, whatever the search's run cap
    hubs = data.draw(st.integers(1, 6), label="hubs")
    n = data.draw(st.integers(1, 30), label="slots")
    dwell = data.draw(st.integers(0, 4), label="dwell")
    max_run = data.draw(st.integers(1, 9), label="max_run")
    first_slot = data.draw(st.integers(0, n), label="first_slot")
    stop = data.draw(st.integers(0, n), label="stop")
    need = data.draw(st.lists(st.integers(0, 10), min_size=stop, max_size=stop), label="need")
    # mostly empty slots, so rows with and without a kept run both occur
    residual = data.draw(arrays(np.int64, (n, hubs), elements=st.sampled_from([0, 0, 0, 1, 2, 5])))

    got = kernels.keepable_rows(residual, first_slot, need, dwell)
    rows = residual.T.tolist()
    assert got.tolist() == [_keepable_row(row, first_slot, need, dwell) for row in rows]
    for row, keepable in zip(rows, got):
        if not keepable:
            assert _kept_runs(row, dwell, max_run, first_slot, need) == [], row


def test_keepable_rows_bound_is_tight():
    # slots 2-4 are covered at dwell 0: a run of exactly need[2] = 3 slots
    # from slot 2 is kept and the bound keeps the row; with need[2] = 4 no
    # run is kept and the bound rules the row out
    row = [0, 0, 1, 1, 1, 0, 0, 0]
    for need_2, keepable, kept in ((3, True, [(2, 5)]), (4, False, [])):
        need = [9, 9, need_2, 9, 9, 9]
        assert kernels.keepable_rows(np.array([row], np.int64).T, 0, need, 0).tolist() == [keepable]
        assert _kept_runs(row, 0, 8, 0, need) == kept


# ------------------------------------------------------------- generation


def test_generate_zero_volume():
    net = random_network(n_hubs=4, n_gateways=1, seed=0)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=0), seed=0)
    assert all(sum(row) == 0 for row in series.values())


def test_generate_deterministic():
    net = random_network(n_hubs=6, n_gateways=2, seed=1)
    a = generate_arrivals(net, GeneratorConfig(daily_volume=5000), seed=42)
    b = generate_arrivals(net, GeneratorConfig(daily_volume=5000), seed=42)
    assert a == b


def test_generate_paper_scale_volume():
    net = random_network(n_hubs=52, n_gateways=3, seed=0)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=1_173_253), seed=0)
    total = sum(map(sum, series.values()))
    assert abs(total - 1_173_253) <= 0.01 * 1_173_253
    assert total == 1_173_253  # largest-remainder apportionment is exact


def test_generate_rejects_negative_volume():
    net = random_network(n_hubs=2, n_gateways=1, seed=0)
    with pytest.raises(ValueError):
        generate_arrivals(net, GeneratorConfig(daily_volume=-1), seed=0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"daily_volume": -1}, "daily_volume must be >= 0, got -1"),
        ({"horizon_h": 0}, "horizon_h must be >= 1, got 0"),
        ({"gateway_weight": 0.0}, "gateway_weight must be positive, got 0.0"),
        ({"hub_jitter": 1.0}, r"hub_jitter must lie in \[0, 1\), got 1.0"),
        ({"cell_jitter": -0.1}, r"cell_jitter must lie in \[0, 1\), got -0.1"),
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
        target += np.array(series[hub.id])
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
    assert back == series
    # and the other way: the bytes of a generated file, written again from
    # what was read with the file's own header line
    source = Path(__file__).resolve().parent / "golden" / "paper52" / "arrivals.csv"
    raw = source.read_bytes()
    header = raw[: raw.index(b"\n") + 1].decode()
    assert header.startswith("# seed=")
    write_arrivals_csv(path, read_arrivals_csv(source), header)
    assert path.read_bytes() == raw


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:5] + rows[6:], "missing row for hub 0 slot 5"),
        (lambda rows: rows[:-1], "missing row for hub 2 slot 23"),
        (lambda rows: rows + ["1,7,99\n"], "duplicate row for hub 1 slot 7"),
        (lambda rows: rows + ["1,-1,5\n"], "negative slot for hub 1 slot -1"),
        (lambda rows: rows[:3] + ["0,3,-2\n"] + rows[4:], r"arrivals.csv: row '0,3,-2': arrivals must be non-negative"),
    ],
    ids=["missing-inner", "missing-last", "duplicate", "negative-slot", "negative-arrivals"],
)
def test_arrivals_csv_rejects_missing_and_duplicate_rows(tmp_path, edit, message):
    net = random_network(n_hubs=3, n_gateways=1, seed=2)
    path = tmp_path / "arrivals.csv"
    write_arrivals_csv(path, generate_arrivals(net, GeneratorConfig(daily_volume=900), seed=2))
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(edit(rows)))
    with pytest.raises(ValueError, match=message):
        read_arrivals_csv(path)


def _dict_reader_arrivals(path):
    """The arrivals reader on ``csv.DictReader`` that ``read_arrivals_csv``
    replaced."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    cols = ("hub_id", "slot_h", "arrivals")
    missing = [c for c in cols if c not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    rows = {}
    for rec in reader:
        text = ",".join(
            v for value in rec.values() for v in (value if isinstance(value, list) else [value]) if v is not None
        )
        if any(rec[c] is None for c in cols):
            raise ValueError(f"{path}: row {text!r} lacks a field")
        values = []
        for c in cols:
            try:
                values.append(int(rec[c]))
            except ValueError:
                raise ValueError(f"{path}: row {text!r}: {c} must be an integer") from None
        if None in rec:
            raise ValueError(f"{path}: row {text!r} has more fields than the header's {len(reader.fieldnames)}")
        hub_id, slot, count = values
        if count < 0:
            raise ValueError(f"{path}: row {text!r}: arrivals must be non-negative")
        by_slot = rows.setdefault(hub_id, {})
        if slot < 0:
            raise ValueError(f"{path}: negative slot for hub {hub_id} slot {slot}")
        if slot in by_slot:
            raise ValueError(f"{path}: duplicate row for hub {hub_id} slot {slot}")
        by_slot[slot] = count
    n = 1 + max((max(by_slot) for by_slot in rows.values()), default=-1)
    out = {}
    for hub_id, by_slot in rows.items():
        for t in range(n):
            if t not in by_slot:
                raise ValueError(f"{path}: missing row for hub {hub_id} slot {t}")
        out[hub_id] = [by_slot[t] for t in range(n)]
    return out


def _read_or_message(path, reader=read_arrivals_csv):
    """The arrivals ``reader`` reads from ``path``, or its error message."""
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


def test_arrivals_csv_reads_columns_in_any_order_beside_others(tmp_path):
    net = random_network(n_hubs=3, n_gateways=1, seed=2)
    series = generate_arrivals(net, GeneratorConfig(daily_volume=900), seed=2)
    path = tmp_path / "arrivals.csv"
    rows = [(h, t, c) for h in sorted(series) for t, c in enumerate(series[h])]
    # another order, a column the reader does not use, comments and blank lines
    lines = ["# made by hand\n", "arrivals,note,slot_h,hub_id\n", "\n"]
    lines += [f"{c},x{h},{t},{h}\r\n" for h, t, c in rows]
    path.write_text("".join(lines[:40] + ["\n", "# halfway\n"] + lines[40:] + ["\r\n"]))
    assert _read_or_message(path) == series
    # a bad field is named by its column, and the row quoted as written
    lines[10] = "5,x0,1.5,0\n"
    path.write_text("".join(lines))
    assert _read_or_message(path) == f"{path}: row '5,x0,1.5,0': slot_h must be an integer"
    lines[10] = "5,x0,1\n"
    path.write_text("".join(lines))
    assert _read_or_message(path) == f"{path}: row '5,x0,1' lacks a field"
    lines[10] = "5,x0,1,0,7\n"
    path.write_text("".join(lines))
    assert _read_or_message(path) == f"{path}: row '5,x0,1,0,7' has more fields than the header's 4"
    # a column named twice reads its last one, as csv.DictReader does
    path.write_text("hub_id,arrivals,slot_h,arrivals\n" + "".join(f"{h},-1,{t},{c}\n" for h, t, c in rows))
    assert _read_or_message(path) == series == _read_or_message(path, _dict_reader_arrivals)


def test_arrivals_csv_matches_the_dict_reader_on_edited_files(tmp_path):
    # random headers (orders, extra and missing columns) and rows (blank,
    # short, long, non-integer, negative, repeated or left out): the same
    # arrivals or the same message as the DictReader-based reader
    rng = np.random.default_rng(11)
    path = tmp_path / "arrivals.csv"
    outcomes = set()
    for _ in range(400):
        names = ["hub_id", "slot_h", "arrivals"] + ["note", "extra"][: int(rng.integers(0, 3))]
        names = [names[i] for i in rng.permutation(len(names))]
        if rng.random() < 0.05:
            names.remove(str(rng.choice(["hub_id", "slot_h", "arrivals"])))
        n_hubs, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        lines = [",".join(names) + "\n"]
        for h in range(n_hubs):
            for t in range(n):
                value = {"hub_id": str(h), "slot_h": str(t), "arrivals": str(int(rng.integers(0, 50)))}
                fields = [value.get(name, "z") for name in names]
                r = rng.random()
                if r < 0.04:
                    fields = fields[: int(rng.integers(0, len(fields)))]
                elif r < 0.08:
                    fields.append("9")
                elif r < 0.12:
                    fields[int(rng.integers(len(fields)))] = str(rng.choice(["1.5", "", "abc", " 7 ", "-2"]))
                elif r < 0.14:
                    continue
                lines.append(",".join(fields) + str(rng.choice(["\n", "\r\n"])))
                if rng.random() < 0.05:
                    lines.append(str(rng.choice(["\n", "\r\n", "# note\n"])))
        if rng.random() < 0.05:
            lines.append(lines[-1])
        path.write_text("".join(lines))
        got = _read_or_message(path)
        assert got == _read_or_message(path, _dict_reader_arrivals), "".join(lines)
        kinds = ("missing column", "lacks a field", "must be an integer", "more fields", "negative slot",
                 "duplicate row", "missing row", "non-negative")
        outcomes.add(next(k for k in kinds if k in got) if isinstance(got, str) else "read")
    assert len(outcomes) == 9, outcomes
