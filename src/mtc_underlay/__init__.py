"""Monte Carlo simulator for machine-type uplink traffic sharing cellular
resource blocks through opportunistic min-interference MTD scheduling."""

from .channel import (
    BS_POSITION,
    Deployment,
    GeometryError,
    Position,
    gen_channel,
    gen_channel_block,
    linear_gain,
    pathloss_db,
    sample_cu_position,
    sample_deployment,
)
from .config import ConfigError, SimConfig, parse_config, parse_config_text, serialize_config
from .montecarlo import (
    AsymptoticResult,
    DropResult,
    ExperimentSummary,
    estimate_outage,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    run_drop,
    verify_asymptotic,
)
from .phy import (
    DegenerateChannelError,
    LinkBudget,
    effective_interference,
    interference_criterion,
    mrc_weights,
    outage_indicator,
    sinr_cellular,
    sinr_mta,
    throughput,
)
from .scheduler import (
    Assignment,
    build_interference_matrix,
    cu_power_control,
    match_assignments,
    mtd_power_control,
)

__all__ = [
    "AsymptoticResult",
    "Assignment",
    "BS_POSITION",
    "ConfigError",
    "DegenerateChannelError",
    "Deployment",
    "DropResult",
    "ExperimentSummary",
    "GeometryError",
    "LinkBudget",
    "Position",
    "SimConfig",
    "build_interference_matrix",
    "cu_power_control",
    "effective_interference",
    "estimate_outage",
    "experiment_outage",
    "experiment_single_rb",
    "experiment_throughput",
    "gen_channel",
    "gen_channel_block",
    "interference_criterion",
    "linear_gain",
    "match_assignments",
    "mrc_weights",
    "mtd_power_control",
    "outage_indicator",
    "parse_config",
    "parse_config_text",
    "run_drop",
    "sample_cu_position",
    "sample_deployment",
    "serialize_config",
    "sinr_cellular",
    "sinr_mta",
    "throughput",
    "verify_asymptotic",
]

__version__ = "0.1.0"
