"""Cost accounting: the six payment/penalty categories and the paper's
price table, held as module constants.

Prices (Yuan): hiring 50 per person per day; hourly pay 20 per working hour;
waiting 5 per resting hour at a hub; moving 10 within 3000 m else 20 per
relocation; lateness 5 per parcel; emergency hiring 20/15/10/5 when the
notification lead is under 1/2/4/8 hours (free at 8 h or more). Boundary
convention: an exact tier boundary takes the cheaper side (3000 m pays 10;
a lead of exactly 2 h pays 10, of exactly 8 h pays 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._inputs import check_number, naming, read_json_object, write_csv, write_json
from .shifts import Shift

HIRING_PER_DAY = 50.0
HOURLY = 20.0
WAITING_HOURLY = 5.0
MOVING_NEAR = 10.0
MOVING_FAR = 20.0
MOVING_TIER_M = 3000.0
LATENESS_PER_PARCEL = 5.0
# (lead upper bound, penalty), strictly-less-than semantics, descending cost
EMERGENCY_TIERS = ((1.0, 20.0), (2.0, 15.0), (4.0, 10.0), (8.0, 5.0))


def moving_payment(distance_m: float) -> float:
    """Flat relocation payment by distance tier."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return MOVING_NEAR if distance_m <= MOVING_TIER_M else MOVING_FAR


def emergency_penalty(lead_time_h: float) -> float:
    """Short-notice surcharge by notification lead time."""
    if lead_time_h < 0:
        raise ValueError("lead time must be non-negative")
    for bound, penalty in EMERGENCY_TIERS:
        if lead_time_h < bound:
            return penalty
    return 0.0


CATEGORIES = ("hiring", "hourly", "waiting", "moving", "lateness", "emergency")


@dataclass
class CostLedger:
    hiring: float = 0.0
    hourly: float = 0.0
    waiting: float = 0.0
    moving: float = 0.0
    lateness: float = 0.0
    emergency: float = 0.0

    @property
    def total(self) -> float:
        return self.hiring + self.hourly + self.waiting + self.moving + self.lateness + self.emergency

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in CATEGORIES}
        out["total"] = self.total
        return out


def accrue_shift(shift: Shift, lead_time_h: float, is_new_hire: bool, ledger: CostLedger) -> CostLedger:
    """Book all payments for one fixed-and-assigned shift: a shift with a
    move (``move_distance_m > 0``) pays one relocation at that distance."""
    if shift.working_h == 0:
        raise ValueError("cannot accrue a shift with no working hours")
    if is_new_hire:
        ledger.hiring += HIRING_PER_DAY
    ledger.hourly += HOURLY * shift.working_h
    ledger.waiting += WAITING_HOURLY * shift.resting_h
    if shift.move_distance_m > 0:
        ledger.moving += moving_payment(shift.move_distance_m)
    ledger.emergency += emergency_penalty(lead_time_h)
    return ledger


def lateness_penalty(late_parcels: int, ledger: CostLedger) -> CostLedger:
    """Book the per-parcel lateness penalty."""
    if late_parcels < 0:
        raise ValueError("late parcel count must be non-negative")
    ledger.lateness += LATENESS_PER_PARCEL * late_parcels
    return ledger


def write_ledger_json(path, ledger: CostLedger, meta: dict | None = None) -> None:
    doc = ledger.to_dict()
    if meta:
        doc["meta"] = meta
    write_json(path, doc)


def read_ledger_json(path) -> dict:
    """Read a ledger file; raises ``ValueError`` naming the file (and the
    key) unless it is a JSON object whose categories and total are numbers
    that ``check_number`` accepts."""
    doc = read_json_object(path, "ledger")
    with naming(path):
        for key in (*CATEGORIES, "total"):
            check_number(f"key {key!r}", doc[key])
    return doc


# each category's unit price as the ledger CSV prints it (a range for the
# tiered categories)
UNIT_PRICES = {
    "hiring": f"{HIRING_PER_DAY:g}/person/day",
    "hourly": f"{HOURLY:g}/person/hour",
    "waiting": f"{WAITING_HOURLY:g}/person/hour",
    "moving": f"{MOVING_NEAR:g}-{MOVING_FAR:g}/person",
    "lateness": f"{LATENESS_PER_PARCEL:g}/parcel",
    "emergency": f"{EMERGENCY_TIERS[-1][1]:g}-{EMERGENCY_TIERS[0][1]:g}/person",
}


def write_ledger_csv(path, ledger: CostLedger, header: str = "") -> None:
    """CSV twin of the ledger with one row per cost category and its unit
    price (``UNIT_PRICES``)."""
    fields = [x for name in CATEGORIES for x in (name, UNIT_PRICES[name], getattr(ledger, name))]
    fields += ("total", "-", ledger.total)
    write_csv(path, header, "cost_type,unit_price_yuan,cost_yuan", "%s,%s,%.2f", [fields])
