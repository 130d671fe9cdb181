"""Monte Carlo simulator for machine-type uplink traffic sharing cellular
resource blocks through opportunistic min-interference MTD scheduling."""

from .channel import (
    BS_POSITION,
    Deployment,
    GeometryError,
    Position,
    linear_gain,
    sample_cu_position,
    sample_deployment,
)
from .config import ConfigError, SimConfig, parse_config, parse_config_text, serialize_config
from .montecarlo import (
    DropResult,
    ExperimentSummary,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    run_drop,
    verify_asymptotic,
)
from .phy import (
    LinkBudget,
    outage_indicator,
    sinr_mta,
    throughput,
)
from .scheduler import (
    Assignment,
    cu_power_control,
    match_assignments,
    mtd_power_control,
)

__all__ = [
    "Assignment",
    "BS_POSITION",
    "ConfigError",
    "Deployment",
    "DropResult",
    "ExperimentSummary",
    "GeometryError",
    "LinkBudget",
    "Position",
    "SimConfig",
    "cu_power_control",
    "experiment_outage",
    "experiment_single_rb",
    "experiment_throughput",
    "linear_gain",
    "match_assignments",
    "mtd_power_control",
    "outage_indicator",
    "parse_config",
    "parse_config_text",
    "run_drop",
    "sample_cu_position",
    "sample_deployment",
    "serialize_config",
    "sinr_mta",
    "throughput",
    "verify_asymptotic",
]

__version__ = "0.1.0"
