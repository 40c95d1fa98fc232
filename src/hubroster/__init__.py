"""Rolling-horizon workforce scheduling and relocation for parcel hub networks."""

from .config import ScenarioParams
from .demand import ArrivalSeries, GeneratorConfig, forecast_matrix, generate_arrivals, labor_demand
from .engine import RollingPlan, ScenarioConfig, SimReport, replay_execution, run_scenario
from .ledger import CostLedger, emergency_penalty, moving_payment
from .network import Hub, HubNetwork, MovingPair, build_moving_pairs, distance, random_network
from .pool import WorkforcePool
from .shifts import Segment, Shift, combine_within_hub_detail, merge_across_hubs
from .valuation import shift_value, should_fix

__version__ = "0.1.0"


def get_backend() -> str:
    """Name of the kernel implementation; there is one, in plain Python."""
    return "pure"


__all__ = [
    "ArrivalSeries",
    "CostLedger",
    "GeneratorConfig",
    "Hub",
    "HubNetwork",
    "MovingPair",
    "RollingPlan",
    "ScenarioConfig",
    "ScenarioParams",
    "Segment",
    "Shift",
    "SimReport",
    "WorkforcePool",
    "build_moving_pairs",
    "combine_within_hub_detail",
    "distance",
    "emergency_penalty",
    "forecast_matrix",
    "generate_arrivals",
    "get_backend",
    "labor_demand",
    "merge_across_hubs",
    "moving_payment",
    "random_network",
    "replay_execution",
    "run_scenario",
    "shift_value",
    "should_fix",
]
