"""Config defaults, derived quantities, and the key = value file format."""

import dataclasses
import math

import numpy as np
import pytest

from mtc_underlay import ConfigError, SimConfig, parse_config_text, serialize_config


def test_defaults_match_reference_parameters():
    cfg = SimConfig()
    assert cfg.antennas == 4
    assert cfg.cell_radius_m == 500.0
    assert cfg.mta_cluster_radius_m == 250.0
    assert cfg.n_rb == 20
    assert cfg.noise_figure_db == 2.0
    assert cfg.noise_psd_dbm_hz == -174.0
    assert cfg.rb_bandwidth_hz == 180e3
    assert cfg.cu_target_sinr_db == 10.0
    assert cfg.mtd_power_mode == "fixed"
    assert cfg.p_max_dbm == 23.0
    assert cfg.n_drops == 10_000
    assert cfg.min_distance_m == 10.0
    assert cfg.cu_mta_exclusion_m == 100.0


def test_noise_power_derivation():
    # independent recomputation: PSD + 10 log10(bandwidth) + noise figure
    cfg = SimConfig()
    expected_dbm = -174.0 + 10.0 * math.log10(180e3) + 2.0
    assert cfg.noise_power_dbm == pytest.approx(expected_dbm, abs=1e-12)
    assert cfg.noise_power_dbm == pytest.approx(-119.44727494896694, abs=1e-9)
    assert cfg.noise_power_w == pytest.approx(10 ** ((expected_dbm - 30.0) / 10.0), rel=1e-12)


def test_i0_defaults_to_noise_power():
    cfg = SimConfig()
    assert cfg.i0_dbm is None
    assert cfg.i0_w == cfg.noise_power_w
    explicit = SimConfig(i0_dbm=-110.0)
    assert explicit.i0_w == pytest.approx(1e-14, rel=1e-12)


def test_target_rate():
    cfg = SimConfig()
    expected = 20 * 180e3 * math.log2(1.0 + 10.0)
    assert cfg.target_rate_bps == pytest.approx(expected, rel=1e-12)
    assert cfg.target_rate_bps == pytest.approx(12.45395382709427e6, rel=1e-9)


def test_empty_text_gives_defaults():
    assert parse_config_text("") == SimConfig()
    assert parse_config_text("# just a comment\n\n") == SimConfig()


def test_parse_basic_and_comments():
    cfg = parse_config_text(
        """
        # geometry
        cell_radius_m = 400   # inline comment
        k = 7
        mtd_power_mode = controlled
        """
    )
    assert cfg.cell_radius_m == 400.0
    assert cfg.k == 7
    assert cfg.mtd_power_mode == "controlled"


def test_parse_unit_suffixes():
    cfg = parse_config_text(
        "cu_target_sinr_db = 10 dB\n"
        "mtd_fixed_power_dbm = -3 dBm\n"
        "noise_psd_dbm_hz = -170 dBm\n"
        "p_max_dbm = 20dBm\n"
    )
    assert cfg.cu_target_sinr_db == 10.0
    assert cfg.mtd_fixed_power_dbm == -3.0
    assert cfg.noise_psd_dbm_hz == -170.0
    assert cfg.p_max_dbm == 20.0


def test_unit_suffix_on_wrong_key_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("cell_radius_m = 400 dB\n")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 3.*unknown key"):
        parse_config_text("k = 5\nn_rb = 2\nbogus_key = 1\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("k = 5\nn_drops = many\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("this is not an assignment\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("k = 5\nk = 6\n")


@pytest.mark.parametrize(
    "text",
    [
        "k = 0",
        "n_rb = 0",
        "antennas = 0",
        "n_drops = 0",
        "n_drops = -3",
        "cell_radius_m = -1",
        "min_distance_m = 0",
        "min_distance_m = 600",  # >= cell radius
        "mtd_power_mode = sometimes",
        "cu_mta_exclusion_m = 1000",  # >= 2 * cell radius: covers the cell
        "seed = -1",
        "rb_bandwidth_hz = 0",
    ],
)
def test_out_of_range_values_rejected(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


@pytest.mark.parametrize("key", ["antennas", "n_rb", "k", "n_drops", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_integer_fields_reject_non_integers(key, value):
    # antennas = 2.5 would draw Gamma(2.5) CU gains; n_drops = 10.5 fails deep in the run
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        SimConfig(**{key: value}).validate()


def test_integer_fields_accept_numpy_integers():
    cfg = SimConfig(antennas=np.int64(2), n_rb=np.int32(3), k=np.int16(5), n_drops=np.uint8(7),
                    seed=np.uint64(2**63 + 1))
    cfg.validate()
    assert parse_config_text(serialize_config(cfg)) == cfg


_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(SimConfig) if f.type in ("float", "float | None")
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_FIELDS)
def test_non_finite_values_rejected(key, value):
    text = f"{key} = {value}\n"
    if (key, value) == ("mtd_fixed_power_dbm", "-inf"):
        assert parse_config_text(text).mtd_fixed_power_w == 0.0  # MTDs off
        return
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config_text(text)


def test_serialize_round_trip():
    cfg = SimConfig(k=37, seed=99, mtd_power_mode="controlled", i0_dbm=-115.5)
    assert parse_config_text(serialize_config(cfg)) == cfg
    # None-valued optional fields stay default through the round trip
    assert parse_config_text(serialize_config(SimConfig())) == SimConfig()
