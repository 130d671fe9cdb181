"""Monte Carlo simulator for machine-type uplink traffic sharing cellular
resource blocks through opportunistic min-interference MTD scheduling."""

from .channel import (
    Deployment,
    GeometryError,
    linear_gain,
    sample_cu_position,
    sample_deployment,
)
from .config import ConfigError, SimConfig, parse_config, parse_config_text
from .montecarlo import (
    DropResult,
    ExperimentSummary,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    run_drop,
    verify_asymptotic,
)
from .phy import outage_indicator, throughput
from .scheduler import Race, cu_power_control, match_assignments, mtd_power_control

__all__ = [
    "ConfigError",
    "Deployment",
    "DropResult",
    "ExperimentSummary",
    "GeometryError",
    "Race",
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
    "throughput",
    "verify_asymptotic",
]

__version__ = "0.1.0"
