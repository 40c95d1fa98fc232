"""Arrival synthesis, noisy forecasting, and labor-demand conversion.

Forecast model: a prediction of the arrivals C at slot t1, made at time t0,
is  max(0, C * (u * (t1 - t0) + 100) / 100)  with u drawn once per
(hub, target slot, snapshot) from Uniform[-1, 1]. Lead times are in hours,
so a forecast is exact at lead 0 and off by at most (t1 - t0) percent.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._inputs import read_text, write_csv
from .network import HubNetwork


@dataclass
class GeneratorConfig:
    """Synthetic arrival profile: tiered day curves with seeded jitter.

    Gateway hubs follow a curve phase-shifted from the local one (trunk
    transport arrives off-peak), carry ``gateway_weight`` times the volume
    of a local hub, and every hub/cell gets multiplicative jitter.
    """

    daily_volume: int = 1_173_253
    horizon_h: int = 24
    gateway_weight: float = 8.0
    hub_jitter: float = 0.2
    cell_jitter: float = 0.25
    local_peak_h: int = 12
    gateway_peak_h: int = 2

    def validate(self):
        if self.daily_volume < 0:
            raise ValueError(f"daily_volume must be >= 0, got {self.daily_volume}")
        if self.horizon_h < 1:
            raise ValueError(f"horizon_h must be >= 1, got {self.horizon_h}")
        if self.gateway_weight <= 0:
            raise ValueError(f"gateway_weight must be positive, got {self.gateway_weight}")
        for name in ("hub_jitter", "cell_jitter"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")


def _day_curve(n: int, peak_h: int) -> np.ndarray:
    t = np.arange(n)
    phase = 2.0 * np.pi * (t - peak_h) / 24.0
    curve = 1.0 + 0.85 * np.cos(phase) + 0.35 * np.cos(2.0 * phase)
    return np.maximum(curve, 0.05)


def generate_arrivals(net: HubNetwork, profile: GeneratorConfig, seed: int) -> dict[int, list[int]]:
    """Deterministic synthetic arrivals for every hub in the network: hub
    id -> hourly parcel counts.

    The integer totals are apportioned largest-remainder so the sum over all
    hubs and slots equals ``daily_volume`` exactly.
    """
    profile.validate()
    n = profile.horizon_h
    rng = np.random.default_rng(seed)
    hubs = sorted(net.hubs, key=lambda h: h.id)

    weights = np.empty(len(hubs))
    shapes = np.empty((len(hubs), n))
    local = _day_curve(n, profile.local_peak_h)
    gateway = _day_curve(n, profile.gateway_peak_h)
    for i, hub in enumerate(hubs):
        weights[i] = profile.gateway_weight if hub.tier == "gateway" else 1.0
        shapes[i] = gateway if hub.tier == "gateway" else local
    weights *= rng.uniform(1.0 - profile.hub_jitter, 1.0 + profile.hub_jitter, len(hubs))
    raw = weights[:, None] * shapes
    raw *= rng.uniform(1.0 - profile.cell_jitter, 1.0 + profile.cell_jitter, raw.shape)

    counts = _apportion(raw, profile.daily_volume)
    return {hub.id: counts[i].tolist() for i, hub in enumerate(hubs)}


def _apportion(raw: np.ndarray, total: int) -> np.ndarray:
    """Scale non-negative weights to integers summing exactly to ``total``."""
    if total == 0 or raw.sum() == 0:
        return np.zeros_like(raw, dtype=np.int64)
    scaled = raw * (total / raw.sum())
    floors = np.floor(scaled).astype(np.int64)
    short = total - int(floors.sum())
    if short > 0:
        remainders = (scaled - floors).ravel()
        # deterministic tie-break: larger remainder first, then flat index
        order = np.lexsort((np.arange(remainders.size), -remainders))
        flat = floors.ravel()
        flat[order[:short]] += 1
        floors = flat.reshape(raw.shape)
    return floors


def forecast_matrix(actuals: np.ndarray, made_at_h: float, first_slot: int, u: np.ndarray | None) -> np.ndarray:
    """Vectorized forecast for all hubs and slots >= first_slot.

    ``actuals`` is (hubs, n); ``u`` is (hubs, n - first_slot) or None for a
    perfect (noise-free) forecast. Each (hub, slot) follows the forecast
    model of this module's docstring with its own draw from ``u``.
    """
    tail = actuals[:, first_slot:].astype(np.float64)
    if u is None:
        return tail
    leads = np.arange(first_slot, actuals.shape[1], dtype=np.float64) - made_at_h
    return np.maximum(0.0, tail * (u * leads[None, :] + 100.0) / 100.0)


def labor_demand(counts, work_rate: float) -> np.ndarray:
    """Workers required per slot: non-negative (predicted) arrivals divided
    by the hourly work rate, rounded up so scheduled capacity always covers
    the volume. Works elementwise on an array of any shape."""
    if work_rate <= 0:
        raise ValueError("work_rate must be positive")
    return np.ceil(np.asarray(counts, dtype=np.float64) / work_rate).astype(np.int64)


ARRIVAL_COLUMNS = ("hub_id", "slot_h", "arrivals")


def write_arrivals_csv(path, arrivals: dict[int, list[int]], header: str = "") -> None:
    fields = []
    for hub_id, counts in sorted(arrivals.items()):
        fields += chain.from_iterable(zip(repeat(hub_id), range(len(counts)), counts))
    write_csv(path, header, ",".join(ARRIVAL_COLUMNS), "%s,%s,%s", fields)


def read_arrivals_csv(path) -> dict[int, list[int]]:
    """Read ``hub_id,slot_h,arrivals`` rows into hub id -> hourly counts.
    Every hub must have exactly one row for each slot from 0 to the last
    slot in the file. The columns are
    found by the header's names, in any order and beside other columns;
    lines starting with ``#`` and blank lines are skipped. A file that
    cannot be read or is not text, a bad row and a missing or repeated
    slot raise ``ValueError`` naming the file."""
    rows = {}
    text = io.StringIO(read_text(path, "arrivals CSV"), newline="")
    reader = csv.reader(ln for ln in text if not ln.startswith("#"))
    header = next(reader, [])
    pos = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    missing = [c for c in ARRIVAL_COLUMNS if c not in pos]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    cols = [pos[c] for c in ARRIVAL_COLUMNS]
    i_hub, i_slot, i_count = cols
    needed, width = 1 + max(cols), len(header)
    for row in reader:
        if not row:
            continue
        if len(row) < needed:
            raise ValueError(f"{path}: row {','.join(row)!r} lacks a field")
        try:
            hub_id, slot, count = int(row[i_hub]), int(row[i_slot]), int(row[i_count])
        except ValueError:
            bad = next(c for c, i in zip(ARRIVAL_COLUMNS, cols) if not _is_int(row[i]))
            raise ValueError(f"{path}: row {','.join(row)!r}: {bad} must be an integer") from None
        if len(row) > width:
            raise ValueError(f"{path}: row {','.join(row)!r} has more fields than the header's {width}")
        if count < 0:
            raise ValueError(f"{path}: row {','.join(row)!r}: arrivals must be non-negative")
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


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def write_forecast_csv(path, hub_ids: list[int], forecasts, header: str = "") -> None:
    """Debug dump of a plan's forecasts (same schema as arrivals +
    made_at_h): ``forecasts`` yields ``(made_at_h, full)`` with one
    full-horizon row of ``full`` per hub of ``hub_ids``, in order
    (``RollingPlan.forecasts``)."""
    fields = []
    for made_at_h, full in forecasts:
        for hub_id, row in zip(hub_ids, full.tolist()):
            fields += chain.from_iterable(zip(repeat(made_at_h), repeat(hub_id), range(len(row)), row))
    write_csv(path, header, "made_at_h," + ",".join(ARRIVAL_COLUMNS), "%s,%s,%s,%.3f", fields)
