"""Cost accounting: unit rates, tier boundaries, accrual, reports."""

import pytest

from hubroster.ledger import (
    EMERGENCY_TIERS,
    HIRING_PER_DAY,
    HOURLY,
    LATENESS_PER_PARCEL,
    MOVING_FAR,
    MOVING_NEAR,
    MOVING_TIER_M,
    WAITING_HOURLY,
    CostLedger,
    accrue_shift,
    emergency_penalty,
    lateness_penalty,
    moving_payment,
    read_ledger_json,
    write_ledger_csv,
    write_ledger_json,
)
from hubroster.shifts import Segment, Shift


def test_rate_table_pinned():
    assert HIRING_PER_DAY == 50
    assert HOURLY == 20
    assert WAITING_HOURLY == 5
    assert (MOVING_NEAR, MOVING_FAR, MOVING_TIER_M) == (10, 20, 3000)
    assert LATENESS_PER_PARCEL == 5
    assert EMERGENCY_TIERS == ((1, 20), (2, 15), (4, 10), (8, 5))


@pytest.mark.parametrize(
    "distance,expected", [(0, 10), (2500, 10), (3000, 10), (3001, 20), (3500, 20), (90000, 20)]
)
def test_moving_tiers(distance, expected):
    assert moving_payment(distance) == expected


@pytest.mark.parametrize(
    "lead,expected",
    [(0, 20), (0.5, 20), (1, 15), (1.9, 15), (2, 10), (3, 10), (4, 5), (7.9, 5), (8, 0), (10, 0)],
)
def test_emergency_tiers(lead, expected):
    assert emergency_penalty(lead) == expected


def test_emergency_non_increasing():
    leads = [x / 4 for x in range(0, 60)]
    fees = [emergency_penalty(v) for v in leads]
    assert all(b <= a for a, b in zip(fees, fees[1:]))


def test_preconditions():
    with pytest.raises(ValueError):
        moving_payment(-1)
    with pytest.raises(ValueError):
        emergency_penalty(-0.1)
    with pytest.raises(ValueError):
        lateness_penalty(-1, CostLedger())


def test_accrue_new_hire_full_shift():
    # new hire, 8 h working, no rest, no travel, 5 h lead
    ledger = CostLedger()
    shift = Shift([Segment(0, 5, 13, "working")])
    accrue_shift(shift, 5, True, ledger)
    assert ledger.to_dict() == {
        "hiring": 50,
        "hourly": 160,
        "waiting": 0,
        "moving": 0,
        "lateness": 0,
        "emergency": 5,
        "total": 215,
    }


def test_accrue_reused_worker_with_move():
    # reused worker, 3 h work, 1 h rest, one move booked at the shift's own
    # distance (the 3000 m tier boundary pays 10), 9 h lead
    segments = (
        Segment(0, 10, 12, "working"),
        Segment(1, 12, 13, "travel"),
        Segment(1, 13, 14, "resting"),
        Segment(1, 14, 15, "working"),
    )
    for distance, moving in ((2000.0, 10), (3000.0, 10), (3000.5, 20)):
        ledger = CostLedger()
        accrue_shift(Shift(segments, move_distance_m=distance), 9, False, ledger)
        assert ledger.to_dict() == {
            "hiring": 0,
            "hourly": 60,
            "waiting": 5,
            "moving": moving,
            "lateness": 0,
            "emergency": 0,
            "total": 65 + moving,
        }


def test_accrue_rejects_zero_working():
    ledger = CostLedger()
    with pytest.raises(ValueError):
        accrue_shift(Shift([Segment(0, 0, 1, "resting")]), 0, False, ledger)


def test_lateness_accrual():
    ledger = CostLedger()
    lateness_penalty(0, ledger)
    assert ledger.lateness == 0
    lateness_penalty(100, ledger)
    assert ledger.lateness == 500


def test_ledger_total_is_category_sum():
    ledger = CostLedger(hiring=1, hourly=2, waiting=3, moving=4, lateness=5, emergency=6)
    assert ledger.total == 21


def test_json_round_trip(tmp_path):
    ledger = CostLedger(hiring=50, hourly=160, emergency=5)
    path = tmp_path / "ledger.json"
    write_ledger_json(path, ledger, meta={"seed": 1})
    doc = read_ledger_json(path)
    assert doc["total"] == 215
    assert doc["meta"] == {"seed": 1}


def test_json_schema_enforced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"hiring": 1}')
    with pytest.raises(ValueError):
        read_ledger_json(path)


def test_csv_report_layout(tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, CostLedger(hiring=50), "# seed=0 config=x\n")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "cost_type,unit_price_yuan,cost_yuan"
    assert lines[2] == "hiring,50/person/day,50.00"
    assert lines[-1].startswith("total,-,")


def test_csv_prints_the_price_table(tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, CostLedger())
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:7]] == [
        "50/person/day",
        "20/person/hour",
        "5/person/hour",
        "10-20/person",
        "5/parcel",
        "5-20/person",
    ]
