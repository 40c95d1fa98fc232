"""Run parameters, config file loading, and config hashing.

``ScenarioParams`` is the one home of every scheduling knob, the value
function's weights, target lead and threshold included: ``shift_value``
reads them from it, and ``ScenarioParams.validate`` checks them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from ._inputs import check_number, naming, read_json_object
from .demand import GeneratorConfig


@dataclass
class ScenarioParams:
    """Scheduling knobs shared by the builders, the valuer, and the engine;
    ``validate`` runs on every construction.

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
        # each value-weight check is written so that a NaN fails it
        weights = (self.urgency_weight, self.utilization_weight, self.continuity_weight)
        if not all(w >= 0 for w in weights):
            raise ValueError(f"value weights must be non-negative, got {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"value weights must sum to 1, got {total}")
        if not 0.0 <= self.fix_threshold <= 1.0:
            raise ValueError(f"fix_threshold must lie in [0, 1], got {self.fix_threshold}")
        if not self.fix_lead_h > 0:
            raise ValueError(f"fix_lead_h must be positive, got {self.fix_lead_h}")
        if self.dwell_h < 0:
            raise ValueError(f"dwell_h must be >= 0, got {self.dwell_h}")
        if self.max_work_h <= 0:
            raise ValueError(f"max_work_h must be positive, got {self.max_work_h}")
        if self.work_rate <= 0:
            raise ValueError(f"work_rate must be positive, got {self.work_rate}")
        if self.replan_min <= 0:
            raise ValueError(f"replan_min must be positive, got {self.replan_min}")
        if self.horizon_h < 1:
            raise ValueError(f"horizon_h must be >= 1, got {self.horizon_h}")
        if self.max_gap_h < 0:
            raise ValueError(f"max_gap_h must be >= 0, got {self.max_gap_h}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the config file's rule for each value, after the range checks so
        # that a NaN weight or lead is still named by its range
        for f in fields(self):
            check_number(f.name, getattr(self, f.name), isinstance(f.default, int))

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
    # GeneratorConfig's defaults; its horizon is ``params.horizon_h``
    "arrivals": {f.name: f.default for f in fields(GeneratorConfig) if f.name != "horizon_h"},
    "params": {},  # overrides of ScenarioParams fields
}


# the default of each key a config file may set; a ``params`` key sets the
# ``ScenarioParams`` field of its name, all but the seed, which is the
# top-level key
_DEFAULTS = {
    **DEFAULT_CONFIG,
    "params": {f.name: f.default for f in fields(ScenarioParams) if f.name != "seed"},
}


def load_config(path=None) -> dict:
    """Read a config JSON file and fill in defaults for missing keys.

    Raises ``ValueError`` naming the file and the key for a key that
    ``_DEFAULTS`` lacks, a section that is not an object, or a value that
    ``check_number`` refuses: an integer is required where the default is
    one. A value out of its range (``ScenarioParams.validate``,
    ``check_network``, ``GeneratorConfig.validate``) raises one naming the
    file, the key and the value. Values are kept as written."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return cfg
    user = read_json_object(path, "config")
    with naming(path):
        for key, value in user.items():
            if key not in _DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            default = _DEFAULTS[key]
            if not isinstance(default, dict):
                check_number(f"config key {key!r}", value, isinstance(default, int))
                cfg[key] = value
                continue
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be a JSON object")
            for sub, v in value.items():
                if sub not in default:
                    raise ValueError(f"unknown config key '{key}.{sub}'")
                check_number(f"config key '{key}.{sub}'", v, isinstance(default[sub], int))
            cfg[key].update(value)
        params = params_from_config(cfg)
        check_network(cfg["network"])
        GeneratorConfig(horizon_h=params.horizon_h, **cfg["arrivals"]).validate()
    return cfg


def params_from_config(cfg: dict, seed=None) -> ScenarioParams:
    """The ``ScenarioParams`` of a config that ``load_config`` returned,
    with ``seed`` in place of the config's own when it is given."""
    return ScenarioParams(**cfg["params"], seed=cfg["seed"] if seed is None else seed)


def check_network(net: dict) -> None:
    """Raise ``ValueError`` naming the key for a ``network`` section that no
    network can be generated from: fewer than one hub, gateways outside
    ``[0, hubs]``, or an area, move radius or walk speed that is not
    positive. Non-finite numbers never get here: ``load_config`` rejects
    them."""
    hubs, gateways, area = net["hubs"], net["gateways"], net["area_km"]
    if hubs < 1:
        raise ValueError(f"config key 'network.hubs' must be >= 1, got {hubs}")
    if not 0 <= gateways <= hubs:
        raise ValueError(
            f"config key 'network.gateways' must lie in [0, {hubs}] (network.hubs), got {gateways}"
        )
    if not area > 0:
        raise ValueError(f"config key 'network.area_km' must be positive, got {area}")
    radius, speed = net["move_radius_m"], net["walk_speed_m_per_h"]
    if not radius > 0:
        raise ValueError(f"config key 'network.move_radius_m' must be positive, got {radius}")
    if not speed > 0:
        raise ValueError(f"config key 'network.walk_speed_m_per_h' must be positive, got {speed}")


def config_hash(cfg: dict) -> str:
    """Short stable digest of a config dict, stamped into output files."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def file_header(seed, cfg_hash: str) -> str:
    """Comment line carried at the top of every emitted CSV."""
    return f"# seed={seed} config={cfg_hash}\n"
