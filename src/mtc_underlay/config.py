"""Simulation configuration and the line-oriented ``key = value`` file format."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .units import db_to_linear, dbm_to_watts

POWER_MODES = ("fixed", "controlled")

_STR_FIELDS = {"mtd_power_mode"}


class ConfigError(ValueError):
    """Invalid configuration value or unparseable config file."""


@dataclass
class SimConfig:
    """Full description of one simulation run.

    dB/dBm fields keep their configured units; linear-scale values are exposed
    through the derived properties below and are the only thing the simulation
    arithmetic touches.
    """

    antennas: int = 4                      # BS receive antennas (M)
    cell_radius_m: float = 500.0           # single-cell radius
    mta_cluster_radius_m: float = 250.0    # MTD cluster radius around the MTA
    n_rb: int = 20                         # shared resource blocks per drop
    noise_figure_db: float = 2.0           # BS receiver noise figure
    noise_psd_dbm_hz: float = -174.0       # thermal noise density
    rb_bandwidth_hz: float = 180e3         # one resource block
    cu_target_sinr_db: float = 10.0        # CU uplink power-control target
    mtd_power_mode: str = "fixed"          # "fixed" | "controlled"
    mtd_fixed_power_dbm: float = 0.0       # MTD TX power in fixed mode
    mtd_target_sinr_db: float = 5.0        # MTD->MTA power-control target
    p_max_dbm: float = 23.0                # TX power cap (CU and MTDs)
    i0_dbm: float | None = None            # MTA interference floor; None -> noise power
    k: int = 100                           # number of MTDs
    n_drops: int = 10_000                  # Monte Carlo drops per point
    seed: int = 12345                      # root seed (64-bit)
    min_distance_m: float = 10.0           # path-loss model validity floor
    cu_mta_exclusion_m: float = 100.0      # CU keep-out radius around the MTA
    delta_th_db: float = 7.0               # CU outage SINR threshold
    delta_i_dbm: float = -100.0            # harmless-interference threshold

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # -inf dBm is 0 W: MTDs that never transmit
            if (isinstance(value, float) and not math.isfinite(value)
                    and (f.name, value) != ("mtd_fixed_power_dbm", -math.inf)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.name in _INT_FIELDS and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.antennas < 1:
            raise ConfigError(f"antennas must be >= 1, got {self.antennas}")
        if self.cell_radius_m <= 0:
            raise ConfigError(f"cell_radius_m must be > 0, got {self.cell_radius_m}")
        if self.mta_cluster_radius_m < 0:
            raise ConfigError(
                f"mta_cluster_radius_m must be >= 0, got {self.mta_cluster_radius_m}"
            )
        if self.n_rb < 1:
            raise ConfigError(f"n_rb must be >= 1, got {self.n_rb}")
        if self.rb_bandwidth_hz <= 0:
            raise ConfigError(f"rb_bandwidth_hz must be > 0, got {self.rb_bandwidth_hz}")
        if self.mtd_power_mode not in POWER_MODES:
            raise ConfigError(
                f"mtd_power_mode must be one of {POWER_MODES}, got {self.mtd_power_mode!r}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n_drops < 1:
            raise ConfigError(f"n_drops must be >= 1, got {self.n_drops}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.min_distance_m <= 0:
            raise ConfigError(f"min_distance_m must be > 0, got {self.min_distance_m}")
        if self.min_distance_m >= self.cell_radius_m:
            raise ConfigError(
                f"min_distance_m ({self.min_distance_m}) must be smaller than "
                f"cell_radius_m ({self.cell_radius_m})"
            )
        if self.cu_mta_exclusion_m < 0:
            raise ConfigError(
                f"cu_mta_exclusion_m must be >= 0, got {self.cu_mta_exclusion_m}"
            )
        if self.cu_mta_exclusion_m >= 2 * self.cell_radius_m:
            raise ConfigError(
                f"cu_mta_exclusion_m ({self.cu_mta_exclusion_m}) covers the whole "
                f"cell (>= 2 * cell_radius_m)"
            )

    # ---- derived linear-scale quantities -------------------------------

    @property
    def noise_power_dbm(self) -> float:
        """Per-RB noise power: PSD integrated over one RB plus the noise figure."""
        return (
            self.noise_psd_dbm_hz
            + 10.0 * math.log10(self.rb_bandwidth_hz)
            + self.noise_figure_db
        )

    @property
    def noise_power_w(self) -> float:
        return float(dbm_to_watts(self.noise_power_dbm))

    @property
    def i0_w(self) -> float:
        """MTA-side interference floor in watts (defaults to the noise power)."""
        if self.i0_dbm is None:
            return self.noise_power_w
        return float(dbm_to_watts(self.i0_dbm))

    @property
    def p_max_w(self) -> float:
        return float(dbm_to_watts(self.p_max_dbm))

    @property
    def mtd_fixed_power_w(self) -> float:
        return float(dbm_to_watts(self.mtd_fixed_power_dbm))

    @property
    def cu_target_sinr(self) -> float:
        return float(db_to_linear(self.cu_target_sinr_db))

    @property
    def mtd_target_sinr(self) -> float:
        return float(db_to_linear(self.mtd_target_sinr_db))

    @property
    def delta_th(self) -> float:
        return float(db_to_linear(self.delta_th_db))

    @property
    def delta_i_w(self) -> float:
        return float(dbm_to_watts(self.delta_i_dbm))

    @property
    def target_rate_bps(self) -> float:
        """Interference-free CU rate: every RB exactly at the SINR target."""
        return self.n_rb * self.rb_bandwidth_hz * math.log2(1.0 + self.cu_target_sinr)


_FIELD_NAMES = {f.name for f in dataclasses.fields(SimConfig)}
# fields parsed and validated as integers; everything else numeric is a float
_INT_FIELDS = {f.name for f in dataclasses.fields(SimConfig) if f.type == "int"}


def _parse_value(key: str, raw: str, lineno: int):
    text = raw.strip()
    # strip a matching unit suffix ("10 dB", "-174 dBm") on dB-flavored keys
    lowered = text.lower()
    for suffix in ("dbm", "db"):
        if lowered.endswith(suffix):
            stem = text[: -len(suffix)].strip()
            if key.endswith("_" + suffix) or (suffix == "dbm" and key.endswith("_dbm_hz")):
                text = stem
                break
            raise ConfigError(
                f"line {lineno}: unit suffix {text[-len(suffix):]!r} not valid for key {key!r}"
            )
    if key in _STR_FIELDS:
        return text
    try:
        if key in _INT_FIELDS:
            return int(text)
        return float(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw.strip()!r} for key {key!r}") from None


def parse_config_text(text: str) -> SimConfig:
    """Parse the ``key = value`` config format (``#`` comments, blank lines ok)."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    config = SimConfig(**values)
    config.validate()
    return config


def parse_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(config: SimConfig) -> str:
    """Inverse of :func:`parse_config_text` (omits unset optional fields)."""
    lines = []
    for f in dataclasses.fields(SimConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_as_dict(config: SimConfig) -> dict:
    return dataclasses.asdict(config)
