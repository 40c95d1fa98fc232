"""Run parameters, config file loading, and config hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .valuation import ValueWeights


@dataclass
class ScenarioParams:
    """Scheduling knobs shared by the builders, the valuer, and the engine.

    dwell_h        max hours a parcel may wait at a hub after arrival
    max_work_h     working-hour cap, per shift and per worker-day
    work_rate      parcels one worker processes per hour
    replan_min     minutes between forecast refreshes
    horizon_h      planning horizon in hour slots
    urgency_weight / utilization_weight / continuity_weight
                   value-function weights (must sum to 1)
    fix_lead_h     lead time scale of the urgency term
    fix_threshold  minimum value at which a candidate shift is fixed
    max_gap_h      largest idle gap allowed inside a merged shift
    """

    dwell_h: int = 1
    max_work_h: int = 8
    work_rate: int = 150
    replan_min: int = 60
    horizon_h: int = 24
    urgency_weight: float = 0.4
    utilization_weight: float = 0.3
    continuity_weight: float = 0.3
    fix_lead_h: float = 4.0
    fix_threshold: float = 0.9
    max_gap_h: int = 2
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        ValueWeights.from_params(self)  # weight, threshold and fix-lead rules
        if self.dwell_h < 0:
            raise ValueError("dwell_h must be >= 0")
        if self.max_work_h <= 0:
            raise ValueError("max_work_h must be positive")
        if self.work_rate <= 0:
            raise ValueError("work_rate must be positive")
        if self.replan_min <= 0:
            raise ValueError("replan_min must be positive")
        if self.horizon_h < 1:
            raise ValueError("horizon_h must be >= 1")
        if self.max_gap_h < 0:
            raise ValueError("max_gap_h must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def replan_h(self) -> float:
        return self.replan_min / 60.0


DEFAULT_CONFIG = {
    "seed": 42,
    "network": {
        "hubs": 52,
        "gateways": 3,
        "area_km": 24.0,
        "move_radius_m": 3000.0,
        "walk_speed_m_per_h": 15000.0,
    },
    "arrivals": {
        "daily_volume": 1_173_253,
        "gateway_weight": 8.0,
        "hub_jitter": 0.2,
        "cell_jitter": 0.25,
        "local_peak_h": 12,
        "gateway_peak_h": 2,
    },
    "params": {},  # overrides of ScenarioParams fields
}


def _check_number(name: str, value, default) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a JSON number
    of the default's kind: an integer where the default is one, any number
    where it is a float."""
    if isinstance(default, int):
        ok, kind = isinstance(value, int), "an integer"
    else:
        ok, kind = isinstance(value, (int, float)), "a number"
    if not ok or isinstance(value, bool):
        raise ValueError(f"config key {name!r} must be {kind}, got {json.dumps(value)}")


def load_config(path=None) -> dict:
    """Read a config JSON file and fill in defaults for missing keys.

    Raises ``ValueError`` naming the file and the key for a key that
    ``DEFAULT_CONFIG`` lacks (``params`` keys are checked by
    ``params_from_config``), a section that is not an object, or a value
    outside a section that is not a number of the default's kind."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"{path}: cannot read config ({exc.strerror})") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: config is not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(user, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        try:
            for key, value in user.items():
                if key not in cfg:
                    raise ValueError(f"unknown config key {key!r}")
                if not isinstance(cfg[key], dict):
                    _check_number(key, value, cfg[key])
                    cfg[key] = value
                    continue
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be a JSON object")
                if key != "params":
                    for sub, v in value.items():
                        if sub not in cfg[key]:
                            raise ValueError(f"unknown config key '{key}.{sub}'")
                        _check_number(f"{key}.{sub}", v, cfg[key][sub])
                cfg[key].update(value)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return cfg


def params_from_config(cfg: dict, seed=None) -> ScenarioParams:
    kwargs = dict(cfg.get("params", {}))
    defaults = {f.name: f.default for f in fields(ScenarioParams)}
    unknown = sorted(set(kwargs) - set(defaults))
    if unknown:
        raise ValueError(f"unknown params key(s) in config: {', '.join(unknown)}")
    for key, value in kwargs.items():
        _check_number(f"params.{key}", value, defaults[key])
    kwargs["seed"] = cfg["seed"] if seed is None else seed
    return ScenarioParams(**kwargs)


def check_network(net: dict) -> None:
    """Raise ``ValueError`` naming the key for a ``network`` section that no
    network can be generated from: fewer than one hub, gateways outside
    ``[0, hubs]``, an area or walk speed that is not a positive finite
    number, or a move radius that is not positive."""
    hubs, gateways, area = net["hubs"], net["gateways"], net["area_km"]
    if hubs < 1:
        raise ValueError(f"config key 'network.hubs' must be >= 1, got {hubs}")
    if not 0 <= gateways <= hubs:
        raise ValueError(
            f"config key 'network.gateways' must lie in [0, {hubs}] (network.hubs), got {gateways}"
        )
    if not 0 < area < math.inf:
        raise ValueError(f"config key 'network.area_km' must be positive and finite, got {area}")
    radius, speed = net["move_radius_m"], net["walk_speed_m_per_h"]
    if not radius > 0:
        raise ValueError(f"config key 'network.move_radius_m' must be positive, got {radius}")
    if not 0 < speed < math.inf:
        raise ValueError(f"config key 'network.walk_speed_m_per_h' must be positive and finite, got {speed}")


def config_hash(cfg: dict) -> str:
    """Short stable digest of a config dict, stamped into output files."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def file_header(seed, cfg_hash: str) -> str:
    """Comment line carried at the top of every emitted CSV."""
    return f"# seed={seed} config={cfg_hash}\n"
