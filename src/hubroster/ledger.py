"""Cost accounting: the six payment/penalty categories and their unit rates.

Rates (Yuan): hiring 50 per person per day; hourly pay 20 per working hour;
waiting 5 per resting hour at a hub; moving 10 within 3000 m else 20 per
relocation; lateness 5 per parcel; emergency hiring 20/15/10/5 when the
notification lead is under 1/2/4/8 hours (free at 8 h or more). Boundary
convention: an exact tier boundary takes the cheaper side (3000 m pays 10;
a lead of exactly 2 h pays 10, of exactly 8 h pays 0).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .shifts import Shift


@dataclass(frozen=True)
class CostRates:
    hiring_per_day: float = 50.0
    hourly: float = 20.0
    waiting_hourly: float = 5.0
    moving_near: float = 10.0
    moving_far: float = 20.0
    moving_tier_m: float = 3000.0
    lateness_per_parcel: float = 5.0
    # (lead upper bound, penalty), strictly-less-than semantics, descending cost
    emergency_tiers: tuple = ((1.0, 20.0), (2.0, 15.0), (4.0, 10.0), (8.0, 5.0))


DEFAULT_RATES = CostRates()


def moving_payment(distance_m: float, rates: CostRates = DEFAULT_RATES) -> float:
    """Flat relocation payment by distance tier."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return rates.moving_near if distance_m <= rates.moving_tier_m else rates.moving_far


def emergency_penalty(lead_time_h: float, rates: CostRates = DEFAULT_RATES) -> float:
    """Short-notice surcharge by notification lead time."""
    if lead_time_h < 0:
        raise ValueError("lead time must be non-negative")
    for bound, penalty in rates.emergency_tiers:
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
    rates: CostRates = field(default_factory=CostRates)

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
    rates = ledger.rates
    if is_new_hire:
        ledger.hiring += rates.hiring_per_day
    ledger.hourly += rates.hourly * shift.working_h
    ledger.waiting += rates.waiting_hourly * shift.resting_h
    if shift.move_distance_m > 0:
        ledger.moving += moving_payment(shift.move_distance_m, rates)
    ledger.emergency += emergency_penalty(lead_time_h, rates)
    return ledger


def lateness_penalty(late_parcels: int, ledger: CostLedger) -> CostLedger:
    """Book the per-parcel lateness penalty."""
    if late_parcels < 0:
        raise ValueError("late parcel count must be non-negative")
    ledger.lateness += ledger.rates.lateness_per_parcel * late_parcels
    return ledger


def write_ledger_json(path, ledger: CostLedger, meta: dict | None = None) -> None:
    doc = ledger.to_dict()
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_ledger_json(path) -> dict:
    """Read a ledger file; raises ``ValueError`` naming the file (and the
    key) unless it can be read and is a JSON object whose categories and
    total are finite numbers."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"ledger file {path}: cannot read it ({exc.strerror})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"ledger file {path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"ledger file {path} must hold a JSON object, got {json.dumps(doc)}")
    keys = (*CATEGORIES, "total")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"ledger file {path} is missing keys: {missing}")
    for key in keys:
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"ledger file {path}: key {key!r} must be a number, got {json.dumps(value)}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"ledger file {path}: key {key!r} must be finite, got {json.dumps(value)}")
    return doc


def _unit_prices(rates: CostRates) -> dict[str, str]:
    """Each category's unit price as the ledger CSV prints it (a range for
    the tiered categories)."""

    def span(prices):
        low, high = min(prices), max(prices)
        return f"{low:g}" if low == high else f"{low:g}-{high:g}"

    return {
        "hiring": f"{rates.hiring_per_day:g}/person/day",
        "hourly": f"{rates.hourly:g}/person/hour",
        "waiting": f"{rates.waiting_hourly:g}/person/hour",
        "moving": f"{span((rates.moving_near, rates.moving_far))}/person",
        "lateness": f"{rates.lateness_per_parcel:g}/parcel",
        "emergency": f"{span([p for _bound, p in rates.emergency_tiers] or [0.0])}/person",
    }


def write_ledger_csv(path, ledger: CostLedger, header: str = "") -> None:
    """CSV twin of the ledger with one row per cost category, unit prices
    from ``ledger.rates``."""
    prices = _unit_prices(ledger.rates)
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header)
        writer = csv.writer(fh)
        writer.writerow(["cost_type", "unit_price_yuan", "cost_yuan"])
        for name in CATEGORIES:
            writer.writerow([name, prices[name], f"{getattr(ledger, name):.2f}"])
        writer.writerow(["total", "-", f"{ledger.total:.2f}"])
