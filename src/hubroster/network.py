"""Hub network model: hubs, pairwise distances, and permissible worker-moving pairs.

Coordinates are planar meters; distances are Euclidean. Worker relocation is
only considered between hub pairs closer than the network's moving radius
(``d_max_m``); travel time is distance over a single configurable speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HUB_TIERS = ("gateway", "local")


@dataclass(frozen=True)
class Hub:
    """A sorting hub in the network."""

    id: int
    name: str
    x_m: float
    y_m: float
    tier: str  # one of HUB_TIERS


@dataclass(frozen=True)
class MovingPair:
    """Unordered hub pair a worker may relocate between (hub_a < hub_b)."""

    hub_a: int
    hub_b: int
    distance_m: float
    travel_time_h: float


class HubNetwork:
    """Immutable collection of hubs plus the relocation parameters.

    Parameters
    ----------
    hubs : list of Hub
    d_max_m : float
        Largest distance (meters) over which workers may be moved.
    speed_m_per_h : float
        Worker travel speed in meters per hour (finite).
    """

    def __init__(self, hubs, d_max_m, speed_m_per_h):
        hubs = list(hubs)
        ids = [h.id for h in hubs]
        if len(set(ids)) != len(ids):
            raise ValueError("hub ids must be unique")
        # a move between hubs at one place would be a hub change without travel
        at = {}
        for h in hubs:
            if not (math.isfinite(h.x_m) and math.isfinite(h.y_m)):
                raise ValueError(f"hub {h.id} has non-finite coordinates")
            if h.tier not in HUB_TIERS:
                raise ValueError(f"hub {h.id} has unknown tier {h.tier!r}")
            other = at.setdefault((h.x_m, h.y_m), h.id)
            if other != h.id:
                raise ValueError(
                    f"hubs {other} and {h.id} share coordinates ({h.x_m:g}, {h.y_m:g})"
                )
        if not d_max_m > 0:
            raise ValueError("d_max_m must be positive")
        # an infinite speed makes every move take no time: a hub change
        # without a travel segment
        if not 0 < speed_m_per_h < math.inf:
            raise ValueError("speed_m_per_h must be positive and finite")
        self.hubs = hubs
        self.d_max_m = float(d_max_m)
        self.speed_m_per_h = float(speed_m_per_h)
        self._by_id = {h.id: h for h in hubs}
        self._moving_pairs: list[MovingPair] | None = None  # built on first use

    def __len__(self):
        return len(self.hubs)

    @property
    def hub_ids(self):
        return [h.id for h in self.hubs]

    def distance_m(self, id_a: int, id_b: int) -> float:
        return distance(self._by_id[id_a], self._by_id[id_b])


def distance(a: Hub, b: Hub) -> float:
    """Euclidean distance between two hubs in meters."""
    return math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)


def build_moving_pairs(net: HubNetwork) -> list[MovingPair]:
    """All unordered hub pairs within the moving radius, ascending by distance.

    Ties are broken by (min id, max id) so downstream greedy passes are
    deterministic. Travel time is distance / speed.

    The pairs are computed once per network, on the first call, and kept on
    it: a network is immutable, so every engine on it (scenarios 1 and 3 of
    one ``hubroster run``) reads the same pairs. Each call returns a new
    list of the shared, frozen ``MovingPair`` values.
    """
    pairs = net._moving_pairs
    if pairs is None:
        pairs = []
        hubs = sorted(net.hubs, key=lambda h: h.id)
        for i, a in enumerate(hubs):
            for b in hubs[i + 1 :]:
                d = distance(a, b)
                if d <= net.d_max_m:
                    pairs.append(MovingPair(a.id, b.id, d, d / net.speed_m_per_h))
        pairs.sort(key=lambda p: (p.distance_m, p.hub_a, p.hub_b))
        net._moving_pairs = pairs
    return list(pairs)


def save_network(net: HubNetwork, path) -> None:
    doc = {
        "d_max_m": net.d_max_m,
        "speed_m_per_h": net.speed_m_per_h,
        "hubs": [
            {"id": h.id, "name": h.name, "x_m": h.x_m, "y_m": h.y_m, "tier": h.tier}
            for h in net.hubs
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_network(path) -> HubNetwork:
    """Read a network written by ``save_network``. A file that cannot be
    read, is not JSON, lacks a key or holds a bad value (a hub id that is
    not a JSON integer among them) raises ``ValueError`` naming the file
    (and the missing key)."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"{path}: cannot read network ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: network is not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: network must be a JSON object")
    try:
        hubs = []
        for h in doc["hubs"]:
            hub_id = h["id"]
            if isinstance(hub_id, bool) or not isinstance(hub_id, int):
                raise ValueError(f"hub id must be an integer, got {json.dumps(hub_id)}")
            hubs.append(Hub(hub_id, str(h["name"]), float(h["x_m"]), float(h["y_m"]), str(h["tier"])))
        return HubNetwork(hubs, float(doc["d_max_m"]), float(doc["speed_m_per_h"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def random_network(
    n_hubs: int = 52,
    n_gateways: int = 3,
    area_m: float = 24_000.0,
    d_max_m: float = 3_000.0,
    speed_m_per_h: float = 15_000.0,
    seed: int = 0,
) -> HubNetwork:
    """Synthesize a metro-scale network with gateway and local hubs.

    Gateway hubs (the trunk-line entry points) are placed first, then local
    hubs, all uniformly in a square of side ``area_m``. Deterministic for a
    fixed seed.
    """
    if n_gateways > n_hubs:
        raise ValueError("n_gateways cannot exceed n_hubs")
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, area_m, size=(n_hubs, 2))
    hubs = []
    for i in range(n_hubs):
        tier = "gateway" if i < n_gateways else "local"
        prefix = "G" if tier == "gateway" else "L"
        hubs.append(Hub(i, f"{prefix}{i:02d}", float(xy[i, 0]), float(xy[i, 1]), tier))
    return HubNetwork(hubs, d_max_m, speed_m_per_h)
