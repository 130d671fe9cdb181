"""Drop mechanics, experiment aggregation, and statistical oracles."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mtc_underlay import (
    ConfigError,
    DropResult,
    SimConfig,
    draw_chunk,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    linear_gain,
    run_drop,
    sample_deployment,
    verify_asymptotic,
)
from mtc_underlay import montecarlo

DATA = Path(__file__).parent / "data"


def _drop(cfg, seed=0, drop_seed=1):
    """One drop, as a block of one: the one-drop chunk of root seed ``drop_seed``."""
    cfg = replace(cfg, n_drops=1, seed=drop_seed)
    dep = sample_deployment(cfg, np.random.default_rng(seed))
    return run_drop(cfg, dep, draw_chunk(cfg, dep, 0))


def test_run_drop_shapes_and_ranges():
    cfg = SimConfig(k=30, n_rb=20)
    d = _drop(cfg)
    assert d.sinr_db.shape == (1, 20)
    assert d.selected_mtd.shape == (1, 20)
    assert d.eff_interference_w.shape == (1, 20)
    assert d.outage.shape == (1, 20)
    assert d.throughput_bps.shape == (1,)
    assert np.all(np.isfinite(d.sinr_db))
    assert np.all(d.eff_interference_w >= 0)
    assert np.all((d.selected_mtd >= 0) & (d.selected_mtd < 30))
    # injective across RBs
    assert len(set(d.selected_mtd[0].tolist())) == 20
    assert d.throughput_bps[0] > 0
    assert d.baseline_throughput_bps is None


def test_run_drop_deterministic():
    cfg = SimConfig(k=12, n_rb=4)
    a = _drop(cfg, seed=3, drop_seed=9)
    b = _drop(cfg, seed=3, drop_seed=9)
    np.testing.assert_array_equal(a.sinr_db, b.sinr_db)
    np.testing.assert_array_equal(a.selected_mtd, b.selected_mtd)
    np.testing.assert_array_equal(a.eff_interference_w, b.eff_interference_w)
    np.testing.assert_array_equal(a.throughput_bps, b.throughput_bps)


@pytest.mark.parametrize("mode", ["fixed", "controlled"])
@pytest.mark.parametrize("n_rb, k", [(20, 5), (3, 40), (1, 7)])
def test_block_equals_its_drops_one_at_a_time(mode, n_rb, k):
    # a block is scored at once; every drop in it must come out as if alone
    cfg = SimConfig(k=k, n_rb=n_rb, mtd_power_mode=mode, seed=5, n_drops=6)
    dep = sample_deployment(cfg, np.random.default_rng(2))
    block = run_drop(cfg, dep, draw_chunk(cfg, dep, 0, with_baseline=True))
    draws = draw_chunk(cfg, dep, 0, with_baseline=True)
    singles = [run_drop(cfg, dep, draws, slice(i, i + 1)) for i in range(6)]
    for f in fields(DropResult):
        stacked = np.concatenate([getattr(d, f.name) for d in singles])
        np.testing.assert_array_equal(getattr(block, f.name), stacked, err_msg=f.name)


def test_run_drop_fewer_mtds_than_rbs():
    cfg = SimConfig(k=5, n_rb=20)
    d = _drop(cfg)
    unassigned = d.selected_mtd == -1
    assert unassigned.sum() == 15
    assert np.all(d.eff_interference_w[unassigned] == 0.0)


def test_zero_mtd_power_hits_cu_target_exactly():
    # interference-free control run: per-RB power control puts every RB at the
    # SINR target, so throughput equals the target rate exactly (uncapped)
    cfg = SimConfig(k=3, n_rb=20, mtd_fixed_power_dbm=-math.inf, p_max_dbm=80.0)
    for drop_seed in range(5):
        d = _drop(cfg, seed=1, drop_seed=drop_seed)
        np.testing.assert_allclose(d.sinr_db, 10.0, atol=1e-9)
        assert d.throughput_bps[0] == pytest.approx(cfg.target_rate_bps, rel=1e-12)
        assert not d.outage.any()


def test_selected_mtd_is_row_argmin_single_rb():
    cfg = SimConfig(k=1, n_rb=1)
    d = _drop(cfg)
    assert d.selected_mtd.tolist() == [[0]]


# --- experiment aggregation ---------------------------------------------------


def test_single_rb_schema_and_rows():
    cfg = SimConfig(n_drops=80)
    s = experiment_single_rb(cfg, [1, 5], power_values=[-10.0, 0.0])
    assert s.columns == [
        "k",
        "mtd_power_dbm",
        "mean_sinr_db",
        "median_sinr_db",
        "outage_rate",
        "ci_halfwidth_db",
    ]
    assert [(r[0], r[1]) for r in s.rows] == [(1, -10.0), (1, 0.0), (5, -10.0), (5, 0.0)]
    for row in s.rows:
        assert 0.0 <= row[4] <= 1.0
        assert row[5] >= 0.0


def test_single_rb_controlled_mode_power_column_nan():
    cfg = SimConfig(n_drops=40, mtd_power_mode="controlled")
    s = experiment_single_rb(cfg, [2])
    assert len(s.rows) == 1
    assert math.isnan(s.rows[0][1])


def test_single_rb_controlled_mode_rejects_power_values():
    cfg = SimConfig(n_drops=10, mtd_power_mode="controlled")
    with pytest.raises(ValueError, match="controlled"):
        experiment_single_rb(cfg, [2], power_values=[0.0])


def test_single_rb_rejects_empty_power_values():
    with pytest.raises(ValueError, match="power_values"):
        experiment_single_rb(SimConfig(n_drops=10), [1], power_values=[])


def test_more_interferer_choices_help():
    cfg = SimConfig(n_drops=400)
    s = experiment_single_rb(cfg, [1, 50], power_values=[0.0])
    degr_1 = 10.0 - s.rows[0][3]
    degr_50 = 10.0 - s.rows[1][3]
    assert degr_1 > degr_50


def test_ci_halfwidth_scales_with_drop_count():
    base = SimConfig(k=1)
    narrow = experiment_single_rb(replace(base, n_drops=6000), [1], [0.0]).rows[0][5]
    wide = experiment_single_rb(replace(base, n_drops=60), [1], [0.0]).rows[0][5]
    ratio = wide / narrow
    assert 5.0 <= ratio <= 20.0  # 1/sqrt(n) within a factor of two over 100x


def test_workers_do_not_change_results():
    # 520 drops > one pool chunk, so ordered multi-chunk merging is exercised
    cfg = SimConfig(n_drops=520)
    serial = experiment_single_rb(cfg, [1, 4], [0.0], workers=1)
    pooled = experiment_single_rb(cfg, [1, 4], [0.0], workers=2)
    assert serial.to_csv_text() == pooled.to_csv_text()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 399, 400, 4001])
def test_median_is_bit_equal_to_numpy(n):
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal(n) * 7.0, np.round(rng.standard_normal(n), 1)):
        assert montecarlo._median(values) == np.median(values)


def test_k_values_must_be_ascending_unique():
    cfg = SimConfig(n_drops=10)
    with pytest.raises(ValueError):
        experiment_single_rb(cfg, [10, 1], [0.0])
    with pytest.raises(ValueError):
        experiment_single_rb(cfg, [1, 1], [0.0])
    with pytest.raises(ValueError):
        experiment_single_rb(cfg, [], [0.0])


def test_throughput_schema_and_target_column():
    cfg = SimConfig(n_drops=30)
    s = experiment_throughput(cfg, [2, 25])
    assert s.columns == ["k", "mean_throughput_bps", "target_rate_bps", "baseline_throughput_bps"]
    for row in s.rows:
        assert row[2] == pytest.approx(cfg.target_rate_bps, rel=1e-12)
        assert 0 < row[1] <= cfg.target_rate_bps * 1.0000001
        assert 0 < row[3] <= row[2]


@pytest.mark.parametrize(
    "run",
    [
        lambda: experiment_single_rb(SimConfig(n_drops=5), [1], power_values=[math.nan]),
        lambda: experiment_single_rb(SimConfig(n_drops=5), [1], power_values=[0.0, math.inf]),
        lambda: experiment_outage(SimConfig(n_drops=5, delta_th_db=math.nan), [1]),
        lambda: experiment_throughput(SimConfig(n_drops=5, rb_bandwidth_hz=math.nan), [1]),
        lambda: verify_asymptotic(SimConfig(n_drops=5, delta_i_dbm=math.nan), [1]),
    ],
    ids=["power-nan", "power-inf", "outage-threshold", "throughput-bandwidth", "asymptotic"],
)
def test_non_finite_inputs_raise_config_error(run):
    with pytest.raises(ConfigError, match="must be finite"):
        run()


# --- outage -------------------------------------------------------------------


def test_outage_trivial_thresholds():
    cfg = SimConfig(n_drops=100, k=1)
    assert experiment_outage(replace(cfg, delta_th_db=-400.0), [1]).rows[0][2] == 0.0
    assert experiment_outage(replace(cfg, delta_th_db=400.0), [1]).rows[0][2] == 1.0


@pytest.mark.parametrize("mode", ["fixed", "controlled"])
def test_outage_is_single_rb_outage_column(mode):
    cfg = SimConfig(n_drops=200, mtd_power_mode=mode)
    single = experiment_single_rb(cfg, [1, 10, 50]).rows
    outage = experiment_outage(cfg, [1, 10, 50]).rows
    assert outage == [(r[0], cfg.delta_th_db, r[4]) for r in single]


def test_outage_matches_quadrature_oracle_without_interference():
    # With MTD power off and the CU power cap forced low, outage is exactly
    # P(||h_c||^2 <= delta_th * n0 / p_max) mixed over the CU distance law.
    # Independent oracle: 1-D quadrature of the regularized gamma CDF against
    # the annulus distance density 2d/(R^2 - r0^2).
    from scipy import integrate, special

    cfg = SimConfig(
        cu_mta_exclusion_m=0.0,
        p_max_dbm=-14.0,
        mtd_fixed_power_dbm=-math.inf,
        n_drops=10_000,
        k=1,
    )
    n0, dth, pmax = cfg.noise_power_w, cfg.delta_th, cfg.p_max_w
    big_r, r0, m = cfg.cell_radius_m, cfg.min_distance_m, cfg.antennas

    def integrand(d):
        g = 10 ** (-(128.1 + 36.7 * math.log10(d / 1000.0)) / 10.0)
        return 2 * d / (big_r**2 - r0**2) * special.gammainc(m, dth * n0 / (pmax * g))

    oracle, quad_err = integrate.quad(integrand, r0, big_r, limit=200)
    assert quad_err < 1e-8
    estimate = experiment_outage(cfg, [1]).rows[0][2]
    sigma = math.sqrt(oracle * (1.0 - oracle) / cfg.n_drops)
    assert abs(estimate - oracle) < 4.0 * sigma + 1e-6


# --- order-statistics check -----------------------------------------------------


def test_asymptotic_closed_form_uses_product_rule():
    cfg = SimConfig(n_drops=2000)
    res = verify_asymptotic(cfg, [1, 2, 5])
    phi = res.manifest["phi_at_delta_i"]
    for k, _, closed in res.rows:
        assert closed == pytest.approx(1.0 - (1.0 - phi) ** k, rel=1e-12)
    # phi is the analytic Exp(1) CDF at delta_I / g, not an estimate
    g = linear_gain(cfg.mta_cluster_radius_m)
    assert phi == pytest.approx(-math.expm1(-cfg.delta_i_w / g), rel=1e-12)
    # half-half single-draw CDF would give the textbook 0.875 at K=3
    assert 1.0 - (1.0 - 0.5) ** 3 == 0.875


def test_asymptotic_estimates_monotone_and_bounded():
    cfg = SimConfig(n_drops=3000)
    p_emp = [p for _, p, _ in verify_asymptotic(cfg, [1, 5, 20, 100]).rows]
    assert all(0.0 <= p <= 1.0 for p in p_emp)
    assert all(b >= a for a, b in zip(p_emp, p_emp[1:]))


def test_asymptotic_deterministic_and_validates_k():
    cfg = SimConfig(n_drops=500)
    a = verify_asymptotic(cfg, [1, 4], delta_i=2e-13)
    b = verify_asymptotic(cfg, [1, 4], delta_i=2e-13)
    assert a == b
    with pytest.raises(ValueError):
        verify_asymptotic(cfg, [4, 1])


@pytest.mark.parametrize("n_samples", [0, -3])
def test_asymptotic_rejects_no_samples(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        verify_asymptotic(SimConfig(n_drops=10), [1], n_samples=n_samples)


@pytest.mark.parametrize("delta_i", [math.nan, math.inf, -1e-13])
def test_asymptotic_rejects_bad_threshold(delta_i):
    with pytest.raises(ValueError, match="delta_i"):
        verify_asymptotic(SimConfig(n_drops=10), [1], delta_i=delta_i)


def test_asymptotic_threshold_override_moves_phi():
    cfg = SimConfig(n_drops=2000)
    low = verify_asymptotic(cfg, [1], delta_i=1e-14)
    high = verify_asymptotic(cfg, [1], delta_i=1e-12)
    assert low.manifest["phi_at_delta_i"] < high.manifest["phi_at_delta_i"]


# --- golden regression -----------------------------------------------------------


def test_golden_single_rb_csv():
    cfg = SimConfig(n_drops=500)
    s = experiment_single_rb(cfg, [1, 10, 100], power_values=[0.0])
    golden = Path(__file__).parent / "data" / "golden_single_rb.csv"
    assert s.to_csv_text() == golden.read_text()


# The two goldens below cover N = 20 with K below, at and above N (random
# baseline included), and controlled MTD power, where some MTDs' power binds
# at the cap. All four drop goldens were last written under RNG contract 3.
_THROUGHPUT_GOLDEN = (SimConfig(n_drops=200), [5, 20, 50])
_OUTAGE_GOLDEN = (
    SimConfig(n_drops=300, mtd_power_mode="controlled", delta_th_db=9.5, mtd_target_sinr_db=45.0),
    [1, 3, 10, 100],
)


def test_golden_throughput_csv():
    s = experiment_throughput(*_THROUGHPUT_GOLDEN)
    assert s.to_csv_text() == (DATA / "golden_throughput.csv").read_text()


def test_golden_outage_controlled_csv():
    s = experiment_outage(*_OUTAGE_GOLDEN)
    assert s.to_csv_text() == (DATA / "golden_outage_controlled.csv").read_text()


# A K-MTD deployment is the prefix of the largest-K one, so the shared sweep
# deployment reproduces a separate deployment per K (the CSV matched an engine
# that sampled one per K until RNG contract 3); fixed power, which the
# controlled golden above does not cover.
def test_golden_outage_fixed_csv():
    s = experiment_outage(SimConfig(n_drops=300, mtd_fixed_power_dbm=-5.0), [1, 7, 64, 300])
    assert s.to_csv_text() == (DATA / "golden_outage_fixed.csv").read_text()


@pytest.mark.parametrize(
    "run",
    [
        lambda w: experiment_throughput(replace(SimConfig(n_drops=300), n_rb=8), [3, 8, 40], w),
        lambda w: experiment_single_rb(SimConfig(n_drops=300), [1, 30], [0.0, -10.0], w),
        lambda w: experiment_outage(_OUTAGE_GOLDEN[0], [1, 3, 10, 100], w),
    ],
    ids=["throughput", "single-rb", "outage-controlled"],
)
def test_block_size_and_workers_do_not_change_csv(run, monkeypatch):
    # 300 drops make two pool chunks at --workers 2
    reference = run(1).to_csv_text()
    monkeypatch.setattr(montecarlo, "BLOCK_ENTRIES", 1)  # one drop per block
    assert run(1).to_csv_text() == reference
    assert run(2).to_csv_text() == reference


def test_chunk_streams_depend_only_on_seed_and_chunk():
    # chunk c's draws are a pure function of (seed, namespace, c): its drops
    # come out the same whether the run starts at drop 0 or at the chunk
    size = montecarlo.CHUNK_DROPS
    cfg = SimConfig(k=30, n_rb=4, n_drops=2 * size, mtd_power_mode="controlled")
    dep = sample_deployment(cfg, np.random.default_rng(3))
    whole = montecarlo._run_drops(cfg, dep, None, with_baseline=True)
    alone = montecarlo._run_chunk((cfg, dep, 1, True, 1))  # drops [256, 512), one per block
    for f in fields(DropResult):
        np.testing.assert_array_equal(
            getattr(alone, f.name), getattr(whole, f.name)[size:], err_msg=f.name
        )
    assert not np.array_equal(whole.sinr_db[:size], whole.sinr_db[size:])
    # a different chunk or seed: different CU draws and differently seeded streams
    ref = draw_chunk(cfg, dep, 1, with_baseline=True)
    other_seed = replace(cfg, seed=cfg.seed + 1)
    for other in (draw_chunk(cfg, dep, 0, True), draw_chunk(other_seed, dep, 1, True)):
        assert not np.array_equal(other.cu_gain, ref.cu_gain)
        for stream in ("projection", "mta", "baseline"):
            state = getattr(other, stream).bit_generator.state
            assert state != getattr(ref, stream).bit_generator.state, stream


def test_fixed_power_chunk_has_no_mta_stream():
    # fixed MTD power reads no MTD-to-MTA gain; the streams both modes read
    # are the same, so the modes stay paired
    cfg = SimConfig(k=30, n_rb=4, n_drops=10)
    dep = sample_deployment(cfg, np.random.default_rng(3))
    fixed = draw_chunk(cfg, dep, 0)
    controlled = draw_chunk(replace(cfg, mtd_power_mode="controlled"), dep, 0)
    assert fixed.mta is None and fixed.baseline is None
    assert controlled.mta is not None
    np.testing.assert_array_equal(fixed.cu_gain, controlled.cu_gain)
    assert fixed.projection.bit_generator.state == controlled.projection.bit_generator.state
