"""Drop mechanics, experiment aggregation, and statistical oracles."""

import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mtc_underlay import (
    ConfigError,
    Deployment,
    DropResult,
    SimConfig,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    linear_gain,
    run_drop,
    sample_deployment,
    verify_asymptotic,
)
from mtc_underlay import match_assignments, montecarlo, mtd_power_control
from oracles import (
    SortedMatrix,
    holm_rejected,
    single_rb_outage_controlled,
    single_rb_outage_fixed,
)

DATA = Path(__file__).parent / "data"


def _drop(cfg, seed=0, drop_seed=1):
    """One drop, as a block of one: the one-drop chunk of root seed ``drop_seed``."""
    cfg = replace(cfg, n_drops=1, seed=drop_seed)
    dep = sample_deployment(cfg, np.random.default_rng(seed))
    return montecarlo._run_chunk(cfg, dep, 0, False)[0]


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
def test_block_equals_its_drops_one_at_a_time(monkeypatch, mode, n_rb, k):
    # a chunk is scored at once, all of its blocks in one run_drop call;
    # every drop in it must come out as if alone
    cfg = SimConfig(k=k, n_rb=n_rb, mtd_power_mode=mode, seed=5, n_drops=6)
    dep = sample_deployment(cfg, np.random.default_rng(2))
    _, inputs, _ = _record_chunk(monkeypatch, cfg, dep, 0, True, 2)
    block = run_drop(cfg, *inputs.values())
    for i in range(6):
        alone = run_drop(cfg, *(a[i:i + 1] for a in inputs.values()))
        for f in fields(DropResult):
            np.testing.assert_array_equal(
                getattr(block, f.name)[i:i + 1], getattr(alone, f.name), err_msg=f.name
            )


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def test_run_drop_scores_hand_written_gains():
    # two drops, three RBs, two MTDs (K < N), matched on the sorted-matrix
    # source. Drop 0, round 1: every RB claims MTD 0 and RB 0 hears it lowest;
    # round 2: RBs 1 and 2 claim MTD 1 and RB 1 wins; RB 2 finds both MTDs
    # taken and carries none. Drop 1 mirrors the MTDs. The baseline puts MTD
    # perms[n] on RB n and leaves RB 2 empty too.
    cfg = SimConfig(n_rb=3)  # MTDs at the default 0 dBm
    n0, p = cfg.noise_power_w, cfg.mtd_fixed_power_w
    cu_gain = np.array([[1e-12, 2e-12, 4e-12], [3e-13, 1e-11, 5e-12]])
    bs_gain = np.array([[[1.0, 5.0], [2.0, 3.0], [4.0, 6.0]],
                        [[5.0, 1.0], [3.0, 2.0], [6.0, 4.0]]]) * 1e-12
    perms = np.array([[1, 0], [0, 1]])
    selected, value = match_assignments(SortedMatrix(bs_gain * p))
    base = np.zeros((2, 3))
    base[:, :2] = np.take_along_axis(bs_gain[:, :2] * p, perms[..., None], 2)[..., 0]
    _read_only(cu_gain, selected, value, base)  # the kernel writes nothing to its inputs
    d = run_drop(cfg, cu_gain, selected, value, base)

    assert d.selected_mtd.tolist() == [[0, 1, -1], [1, 0, -1]]
    interference = np.array([[1.0, 3.0, 0.0], [1.0, 3.0, 0.0]]) * 1e-12 * p
    np.testing.assert_array_equal(d.eff_interference_w, interference)
    signal = np.minimum(cfg.p_max_w, cfg.cu_target_sinr * n0 / cu_gain) * cu_gain
    sinr = signal / (interference + n0)
    np.testing.assert_array_equal(d.sinr_db, 10.0 * np.log10(sinr))
    np.testing.assert_array_equal(d.outage, sinr <= cfg.delta_th)
    rate = cfg.rb_bandwidth_hz * np.log2(1.0 + sinr)
    np.testing.assert_allclose(d.throughput_bps, rate.sum(axis=1), rtol=1e-15)
    # baseline: drop 0 puts MTDs 1, 0 on RBs 0, 1; drop 1 puts MTDs 0, 1
    base_int = np.array([[5.0, 2.0, 0.0], [5.0, 2.0, 0.0]]) * 1e-12 * p
    np.testing.assert_array_equal(base, base_int)
    base_rate = cfg.rb_bandwidth_hz * np.log2(1.0 + signal / (base_int + n0))
    np.testing.assert_allclose(d.baseline_throughput_bps, base_rate.sum(axis=1), rtol=1e-15)
    assert run_drop(cfg, cu_gain, selected, value).baseline_throughput_bps is None


def test_controlled_power_race_rates_read_mta_gains(monkeypatch):
    # under controlled power the race runs at each MTD's interference rate
    # 1 / (p_k g_k), p_k = min(p_max, T_m (i0 + n0) / |h_k|^2) over the drawn
    # MTD-to-MTA gains, one power per drop and MTD
    cfg = SimConfig(k=4, n_rb=2, n_drops=5, mtd_power_mode="controlled", seed=8)
    dep = sample_deployment(cfg, np.random.default_rng(1))
    _, _, races = _record_chunk(monkeypatch, cfg, dep, 0, False, 5)
    floor = cfg.min_distance_m
    g_mta = linear_gain(np.maximum(dep.mtd_mta_distances(), floor), floor)
    mta_gain = montecarlo._generator(cfg.seed, montecarlo._NS_MTA, 0).standard_exponential((5, 4))
    p_mtd = mtd_power_control(mta_gain * g_mta, cfg.noise_power_w, cfg.i0_w,
                              cfg.mtd_target_sinr, cfg.p_max_w)
    g_bs = linear_gain(dep.mtd_bs_distances(), floor)
    assert len(races) == 1 and races[0][1:] == (5, 2)
    np.testing.assert_array_equal(races[0][0], 1.0 / (p_mtd * g_bs))


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


@pytest.mark.parametrize("powers", [[0.0, 0.0], [-10.0, 0.0, -10.0], [-math.inf, -math.inf]])
def test_single_rb_rejects_duplicate_power_values(powers):
    # a repeated power would run every one of its sweep points twice
    with pytest.raises(ValueError, match="distinct"):
        experiment_single_rb(SimConfig(n_drops=10), [1, 3], power_values=powers)
    with pytest.raises(ValueError, match="distinct"):
        montecarlo._single_rb_points(SimConfig(), [1, 3], powers)


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
    # 520 drops are three chunks: at two workers the parent runs chunks 0 and
    # 2, a child chunk 1, and the parent puts them back in order
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


@pytest.mark.parametrize("k_values", [[1.5, 2.7], [1, 2.0], [0, 3]])
def test_k_values_must_be_positive_integers(k_values):
    # int() would truncate 1.5 and 2.7 to rows labelled k = 1, 2
    with pytest.raises(ValueError, match="k_values"):
        experiment_throughput(SimConfig(n_drops=10), k_values)


@pytest.mark.parametrize("workers", [0, -3, 1.5])
def test_workers_must_be_positive_integer(workers):
    with pytest.raises(ValueError, match="workers"):
        experiment_outage(SimConfig(n_drops=10), [1], workers=workers)


def test_workers_without_fork_fail_loudly(monkeypatch):
    monkeypatch.delattr(montecarlo.os, "fork")
    with pytest.raises(RuntimeError, match="fork"):
        experiment_outage(SimConfig(n_drops=10), [1], workers=2)
    assert experiment_outage(SimConfig(n_drops=10), [1]).manifest == {"processes": 1}


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


#: family-wise error rate of the outage-oracle comparison, fixed before any result
_ORACLE_ALPHA = 0.05


def _wilson_score_p(outages: int, n: int, p0: float) -> float:
    """Two-sided p-value of the score test behind the Wilson interval (Wilson,
    JASA 22, 1927): the observed rate against ``p0`` over the null standard error."""
    z = (outages / n - p0) / math.sqrt(p0 * (1.0 - p0) / n)
    return math.erfc(abs(z) / math.sqrt(2.0))


def test_fixed_power_outage_matches_single_rb_law():
    # The engine's outage rate on one RB against the exact law on the same
    # deployment (oracles.single_rb_outage_fixed), over MTD powers and K, all
    # cells one Holm family. At this deployment the outage runs from 0.63
    # (0 dBm, K = 1) to about 1e-10 (MTDs off or far below the CU): a cell
    # with expected count n p0 << 1 fails on any outage at all. The exact
    # family-wise error of the score test over these 12 binomial cells is
    # 0.043, below _ORACLE_ALPHA.
    cfg = SimConfig(cu_mta_exclusion_m=0.0, n_drops=20_000)
    ks = [1, 3, 10, 30]
    rng = montecarlo._generator(cfg.seed, montecarlo._NS_DEPLOYMENT)
    full = sample_deployment(replace(cfg, k=ks[-1]), rng)  # the deployment the sweep samples
    p_values, table = {}, []
    for power in (0.0, -10.0, -math.inf):
        point = replace(cfg, mtd_fixed_power_dbm=power)
        for k, _, rate in experiment_outage(point, ks).rows:
            p0 = single_rb_outage_fixed(replace(point, n_rb=1, k=k), full.subset(k))
            outages = round(rate * cfg.n_drops)
            p_values[(power, k)] = _wilson_score_p(outages, cfg.n_drops, p0)
            table.append((power, k, rate, p0))
    assert not holm_rejected(p_values, _ORACLE_ALPHA), table


def test_controlled_power_outage_matches_single_rb_law():
    # The engine's outage rate on one RB under controlled MTD power against
    # the exact law on the same deployment (oracles.single_rb_outage_controlled),
    # over MTD SINR targets (at 45 dB the p_max cap binds for most MTDs) and
    # K, all cells one Holm family of score tests at _ORACLE_ALPHA. Cells
    # whose expected count n p0 is far below 1 fail on any outage at all.
    cfg = SimConfig(cu_mta_exclusion_m=0.0, n_drops=20_000, mtd_power_mode="controlled")
    ks = [1, 3, 10, 30]
    rng = montecarlo._generator(cfg.seed, montecarlo._NS_DEPLOYMENT)
    full = sample_deployment(replace(cfg, k=ks[-1]), rng)  # the deployment the sweep samples
    p_values, table = {}, []
    for target in (5.0, 25.0, 45.0):
        point = replace(cfg, mtd_target_sinr_db=target)
        for k, _, rate in experiment_outage(point, ks).rows:
            p0 = single_rb_outage_controlled(replace(point, n_rb=1, k=k), full.subset(k))
            outages = round(rate * cfg.n_drops)
            p_values[(target, k)] = _wilson_score_p(outages, cfg.n_drops, p0)
            table.append((target, k, rate, p0))
    assert not holm_rejected(p_values, _ORACLE_ALPHA), table


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
    cfg = SimConfig(n_drops=500, delta_i_dbm=-97.0)
    a = verify_asymptotic(cfg, [1, 4])
    b = verify_asymptotic(cfg, [1, 4])
    assert a == b
    with pytest.raises(ValueError):
        verify_asymptotic(cfg, [4, 1])


@pytest.mark.parametrize("n_samples", [0, -3])
def test_asymptotic_rejects_no_samples(n_samples):
    # the sample count is config.n_drops
    with pytest.raises(ConfigError, match="n_drops"):
        verify_asymptotic(SimConfig(n_drops=n_samples), [1])


@pytest.mark.parametrize("delta_i", [math.nan, math.inf])
def test_asymptotic_rejects_bad_threshold(delta_i):
    with pytest.raises(ConfigError, match="delta_i_dbm"):
        verify_asymptotic(SimConfig(n_drops=10, delta_i_dbm=delta_i), [1])


def test_asymptotic_floors_the_cluster_radius_at_min_distance():
    # a cluster radius below the path-loss floor draws at the floor distance,
    # as the drop engine floors MTD-to-MTA distances, and is no GeometryError
    cfg = SimConfig(n_drops=50, mta_cluster_radius_m=1.0)
    at_floor = verify_asymptotic(replace(cfg, mta_cluster_radius_m=cfg.min_distance_m), [1, 3])
    assert verify_asymptotic(cfg, [1, 3]).to_csv_text() == at_floor.to_csv_text()


def test_asymptotic_threshold_override_moves_phi():
    cfg = SimConfig(n_drops=2000)
    low = verify_asymptotic(replace(cfg, delta_i_dbm=-110.0), [1])
    high = verify_asymptotic(replace(cfg, delta_i_dbm=-90.0), [1])
    assert low.manifest["phi_at_delta_i"] < high.manifest["phi_at_delta_i"]


#: level of the first-hit chi-square test and the MTD-1 KS test, fixed before
#: any result
_FIRST_HIT_ALPHA = 1e-3


def _first_hits(cfg, max_k):
    """``montecarlo._first_hits`` at the mean MTD gain verify_asymptotic gives it."""
    g = float(linear_gain(cfg.mta_cluster_radius_m, cfg.min_distance_m))
    return montecarlo._first_hits(cfg, max_k, g)


def test_asymptotic_first_hits_follow_the_geometric_law():
    # a sample's first hit T is the first of i.i.d. trials that each succeed
    # with probability Phi, so T ~ Geometric(Phi) exactly. Ten bins fixed in
    # advance, at the deciles of that law; the last is open, and holds the
    # samples without a hit by max K (T = max K + 1), P(T > 10^4) ~ 5e-18
    cfg = SimConfig(n_drops=5000)
    first, _ = _first_hits(cfg, 10_000)
    phi = verify_asymptotic(replace(cfg, n_drops=1), [1]).manifest["phi_at_delta_i"]
    edges = [math.ceil(math.log1p(-q / 10) / math.log1p(-phi)) for q in range(1, 10)]
    cdf = [0.0] + [-math.expm1(t * math.log1p(-phi)) for t in edges] + [1.0]
    observed = np.bincount(np.searchsorted(edges, first), minlength=10)
    expected = cfg.n_drops * np.diff(cdf)
    assert observed.sum() == cfg.n_drops
    from scipy import stats

    p = stats.chisquare(observed, expected).pvalue
    assert p > _FIRST_HIT_ALPHA, (p, observed, expected)


def test_asymptotic_mtd_one_projections_are_exponential():
    # rebuilt from the documented (seed, 3) stream: the serving vectors, then
    # MTD 1 for every sample, as standard normals (n, M, 2), (re, im) last.
    # A projection over g, |w^H h|^2 / 2 with parts of variance 1, is Exp(1),
    # and the samples whose projection is below delta_I are those hit at 1.
    cfg = SimConfig(n_drops=5000)
    n, m = cfg.n_drops, cfg.antennas
    rng = montecarlo._generator(cfg.seed, montecarlo._NS_ASYMPTOTIC)
    h_c = rng.standard_normal((n, m, 2)).view(np.complex128)[..., 0]
    h_1 = rng.standard_normal((n, m, 2)).view(np.complex128)[..., 0]
    w = h_c / np.linalg.norm(h_c, axis=1, keepdims=True)
    x = np.abs(np.sum(np.conj(w) * h_1, axis=1)) ** 2 / 2
    from scipy import stats

    assert stats.kstest(x, "expon").pvalue > _FIRST_HIT_ALPHA
    g = linear_gain(cfg.mta_cluster_radius_m)
    first, drawn = _first_hits(cfg, 1)
    assert np.array_equal(first == 1, x * g < cfg.delta_i_w)
    assert drawn == 2 * n


def test_asymptotic_stops_drawing_once_every_sample_has_hit(monkeypatch):
    # Phi is about 0.04 here, so all 400 samples hit long before K = 10^4:
    # the rows from the last first hit on are exactly 1.0, and after the
    # serving vectors the stream draws once per MTD up to that hit, each
    # time for the samples still live, never more
    cfg = SimConfig(n_drops=400, delta_i_dbm=-90.0)
    first, _ = _first_hits(cfg, 10_000)
    shapes = []
    generator = montecarlo._generator

    class Recording:
        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, shape):
            shapes.append(shape)
            return self._rng.standard_normal(shape)

    monkeypatch.setattr(montecarlo, "_generator", lambda *key: Recording(generator(*key)))
    res = verify_asymptotic(cfg, [1, 5, 29, 1000, 10_000])
    last = res.manifest["mtds_drawn"]
    assert 29 < last < 1000 and last == first.max()
    assert [p for _, p, _ in res.rows][-2:] == [1.0, 1.0]
    assert shapes[0] == (400, cfg.antennas, 2)
    live = [s[0] for s in shapes[1:]]
    assert live == [int(np.sum(first >= j)) for j in range(1, last + 1)]
    assert live[0] == 400 and live[-1] >= 1
    assert res.manifest["antenna_vectors_drawn"] == 400 + sum(live)
    # the other stop: the largest K, with samples still live
    shapes.clear()
    res = verify_asymptotic(cfg, [1, 5])
    assert res.manifest["mtds_drawn"] == 5 and len(shapes) == 6


def test_wilson_interval_hand_computed():
    # z = 1.96, n = 20: 3 successes give (0.15 + 0.09604 -+ 0.183613) / 1.19208
    assert montecarlo._wilson_interval(3, 20) == pytest.approx([0.052368, 0.360423], abs=1e-6)
    assert montecarlo._wilson_interval(0, 20) == pytest.approx([0.0, 0.161130], abs=1e-6)
    assert montecarlo._wilson_interval(20, 20)[1] == 1.0
    assert montecarlo._wilson_interval(0, 20)[0] == 0.0


def test_asymptotic_manifest_explains_the_run():
    # the last MTD drawn is the last first hit, or the largest K where a
    # sample is still live; a sample draws its MTDs 1 .. min(T, max K), and
    # every sample a serving vector; one Wilson interval per K
    cfg = SimConfig(n_drops=20, delta_i_dbm=-90.0)
    ks = [1, 10, 40]
    res = verify_asymptotic(cfg, ks)
    first, _ = _first_hits(cfg, ks[-1])
    hits = [int(np.sum(first <= k)) for k in ks]
    assert [p for _, p, _ in res.rows] == [h / 20 for h in hits]
    assert res.manifest["mtds_drawn"] == min(int(first.max()), ks[-1])
    assert res.manifest["antenna_vectors_drawn"] == 20 + int(np.minimum(first, ks[-1]).sum())
    assert res.manifest["p_empirical_ci95"] == [montecarlo._wilson_interval(h, 20) for h in hits]
    for (_, p, _), (lo, hi) in zip(res.rows, res.manifest["p_empirical_ci95"]):
        assert 0.0 <= lo <= p <= hi <= 1.0


#: traced peak bytes allowed for verify_asymptotic at 1000 samples and K up to
#: 10^4, fixed before the bound was first checked
_ASYMPTOTIC_PEAK_BYTES = 16e6


def test_asymptotic_memory_is_bounded():
    tracemalloc.start()
    try:
        verify_asymptotic(SimConfig(n_drops=1000), [1, 10_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _ASYMPTOTIC_PEAK_BYTES, peak


# --- golden regression -----------------------------------------------------------


def test_golden_single_rb_csv():
    cfg = SimConfig(n_drops=500)
    s = experiment_single_rb(cfg, [1, 10, 100], power_values=[0.0])
    golden = Path(__file__).parent / "data" / "golden_single_rb.csv"
    assert s.to_csv_text() == golden.read_text()


# The two goldens below cover N = 20 with K below, at and above N (random
# baseline included), and controlled MTD power, where some MTDs' power binds
# at the cap. The single-RB and outage goldens were last written under RNG
# contract 4 and hold under contract 5, which draws the same variates on one
# RB; the throughput golden was last written under contract 5.
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


# The two goldens below were written under RNG contract 7 by the engine that
# still scored each block of a chunk on its own; they pin scoring a chunk at
# once. Throughput: N = 20 with K < N and 5 to 16 blocks per chunk, baseline
# included. Single-RB: several fixed powers, -inf dBm included, on one race.
def test_golden_throughput_many_blocks_csv():
    s = experiment_throughput(SimConfig(n_drops=300), [5, 300, 1000])
    assert s.to_csv_text() == (DATA / "golden_throughput_blocks.csv").read_text()


def test_golden_single_rb_powers_csv():
    s = experiment_single_rb(SimConfig(n_drops=300), [1, 300], [-math.inf, -10.0, 0.0])
    assert s.to_csv_text() == (DATA / "golden_single_rb_powers.csv").read_text()


@pytest.mark.parametrize(
    "run",
    [
        lambda w: experiment_throughput(replace(SimConfig(n_drops=300), n_rb=8), [3, 8, 40], w),
        lambda w: experiment_single_rb(SimConfig(n_drops=300), [1, 30], [0.0, -10.0], w),
        lambda w: experiment_outage(_OUTAGE_GOLDEN[0], [1, 3, 10, 100], w),
    ],
    ids=["throughput", "single-rb", "outage-controlled"],
)
def test_chunks_and_workers_do_not_change_csv(run):
    # 300 drops make two chunks; each chunk's drops are a function of
    # (seed, chunk) alone, so any worker count returns the same CSV (the
    # block partition within a chunk is part of the RNG contract); three
    # workers run as two processes, one per chunk
    reference = run(1).to_csv_text()
    assert run(2).to_csv_text() == reference
    capped = run(3)
    assert capped.to_csv_text() == reference and capped.manifest["processes"] == 2


def _record_chunk(monkeypatch, cfg, dep, chunk, with_baseline, block):
    """Run one chunk in blocks of ``block`` drops, ``BLOCK_ENTRIES`` set to
    ``block`` times K; return the keys ``_generator`` was called with, the
    arrays the chunk's one ``run_drop`` call received (baseline None when
    not passed), and the (rates, drops, RBs) of each race."""
    keys, calls, races = [], [], []
    generator, kernel, race = montecarlo._generator, montecarlo.run_drop, montecarlo.Race

    def recording_generator(seed, *key):
        keys.append((seed, *key))
        return generator(seed, *key)

    def recording_kernel(config, *inputs):
        calls.append(inputs + (None,) * (4 - len(inputs)))
        return kernel(config, *inputs)

    def recording_race(rates, n_drops, n_rb, rng):
        races.append((rates, n_drops, n_rb))
        return race(rates, n_drops, n_rb, rng)

    monkeypatch.setattr(montecarlo, "_generator", recording_generator)
    monkeypatch.setattr(montecarlo, "run_drop", recording_kernel)
    monkeypatch.setattr(montecarlo, "Race", recording_race)
    monkeypatch.setattr(montecarlo, "BLOCK_ENTRIES", block * dep.n_mtds)
    montecarlo._run_chunk(cfg, dep, chunk, with_baseline)
    monkeypatch.undo()
    assert len(calls) == 1
    return keys, dict(zip(["cu", "selected", "interference", "baseline"], calls[0])), races


def test_chunk_cuts_blocks_of_block_entries_over_k_drops(monkeypatch):
    # a chunk races blocks of max(1, BLOCK_ENTRIES // K) drops, the last one
    # partial: 5 drops at K = 30 and BLOCK_ENTRIES = 60 race 2, 2 and 1, and
    # fewer entries than K still race one drop at a time
    cfg = SimConfig(k=30, n_rb=4, n_drops=5)
    dep = sample_deployment(cfg, np.random.default_rng(3))
    _, _, races = _record_chunk(monkeypatch, cfg, dep, 0, False, 2)
    assert [r[1] for r in races] == [2, 2, 1]
    _, _, races = _record_chunk(monkeypatch, cfg, dep, 0, False, 0)
    assert [r[1] for r in races] == [1] * 5


def test_chunk_is_scored_once_per_power(monkeypatch):
    # the blocks only race: a chunk of 9 drops racing three blocks of 3 is
    # scored by one run_drop call per fixed power, each on all 9 drops
    cfg = SimConfig(k=30, n_rb=4, n_drops=9)
    dep = sample_deployment(cfg, np.random.default_rng(3))
    calls, kernel = [], montecarlo.run_drop

    def recording_kernel(config, cu_gain, *inputs):
        calls.append(cu_gain.shape[0])
        return kernel(config, cu_gain, *inputs)

    monkeypatch.setattr(montecarlo, "run_drop", recording_kernel)
    monkeypatch.setattr(montecarlo, "BLOCK_ENTRIES", 3 * dep.n_mtds)
    powers = [cfg.mtd_fixed_power_w, 0.1 * cfg.mtd_fixed_power_w]
    out = montecarlo._run_chunk(cfg, dep, 0, True, powers)
    assert calls == [9, 9]
    assert [d.throughput_bps.shape for d in out] == [(9,), (9,)]


def test_chunk_streams_depend_only_on_seed_and_chunk(monkeypatch):
    # chunk c's draws are a pure function of (seed, namespace, c): its drops
    # come out the same whether the run starts at drop 0 or at the chunk
    size = montecarlo.CHUNK_DROPS
    cfg = SimConfig(k=30, n_rb=4, n_drops=2 * size, mtd_power_mode="controlled")
    dep = sample_deployment(cfg, np.random.default_rng(3))
    whole = montecarlo._run_drops(cfg, dep, with_baseline=True)
    alone = montecarlo._run_chunk(cfg, dep, 1, True)[0]  # drops [256, 512)
    for f in fields(DropResult):
        np.testing.assert_array_equal(
            getattr(alone, f.name), getattr(whole, f.name)[size:], err_msg=f.name
        )
    assert not np.array_equal(whole.sinr_db[:size], whole.sinr_db[size:])
    # the streams are keyed (seed, namespace, chunk), one per namespace, and
    # a different chunk or seed draws different CU gains, interference and
    # baseline
    keys, ref, _ = _record_chunk(monkeypatch, cfg, dep, 1, True, 8)
    namespaces = [montecarlo._NS_CU, montecarlo._NS_PROJECTION, montecarlo._NS_MTA,
                  montecarlo._NS_BASELINE]
    assert sorted(keys) == sorted((cfg.seed, ns, 1) for ns in namespaces)
    other_seed = replace(cfg, seed=cfg.seed + 1)
    for other_cfg, chunk in ((cfg, 0), (other_seed, 1)):
        _, other, _ = _record_chunk(monkeypatch, other_cfg, dep, chunk, True, 8)
        for name in ("cu", "interference", "baseline"):
            assert not np.array_equal(other[name], ref[name]), name


def test_chunk_draws_floored_link_gains_in_stream_order(monkeypatch):
    # the CU gains are the CU stream's variates in drop order times the mean
    # gains, and each block's race runs at the rates of the MTA stream's
    # gains, block after block; an MTD 5 m from its MTA (below the 10 m
    # path-loss floor) sees the MTA at the floor distance
    mta = (200.0, 0.0)
    dep = Deployment(mta=mta, mtds=np.array([[200.0, 5.0], [150.0, 60.0], [-80.0, 300.0]]))
    cfg = SimConfig(k=3, n_rb=2, n_drops=7, mtd_power_mode="controlled", seed=11)
    _, got, races = _record_chunk(monkeypatch, cfg, dep, 0, False, 2)
    floored = np.maximum(dep.mtd_mta_distances(), cfg.min_distance_m)
    assert dep.mtd_mta_distances()[0] == 5.0 and floored[0] == cfg.min_distance_m
    g_mta = linear_gain(floored, cfg.min_distance_m)
    g_bs = linear_gain(dep.mtd_bs_distances(), cfg.min_distance_m)
    mta_draws = montecarlo._generator(cfg.seed, montecarlo._NS_MTA, 0).standard_exponential((7, 3))
    p_mtd = mtd_power_control(mta_draws * g_mta, cfg.noise_power_w, cfg.i0_w,
                              cfg.mtd_target_sinr, cfg.p_max_w)
    assert [r[1] for r in races] == [2, 2, 2, 1]
    np.testing.assert_array_equal(np.concatenate([r[0] for r in races]), 1.0 / (p_mtd * g_bs))
    cu = montecarlo._generator(cfg.seed, montecarlo._NS_CU, 0)
    r = montecarlo.sample_cu_position(cfg, dep.mta, cu, 7)
    cu_draws = cu.standard_gamma(cfg.antennas, (7, 2))
    np.testing.assert_array_equal(got["cu"], cu_draws * linear_gain(r)[:, None])
    assert got["baseline"] is None


def test_fixed_power_chunk_has_no_mta_stream(monkeypatch):
    # fixed MTD power reads no MTD-to-MTA gain and races at unit power; the
    # CU gains are the same in both modes, so the modes stay paired there
    cfg = SimConfig(k=30, n_rb=4, n_drops=10)
    dep = sample_deployment(cfg, np.random.default_rng(3))
    fixed_keys, fixed, races = _record_chunk(monkeypatch, cfg, dep, 0, False, 4)
    controlled_cfg = replace(cfg, mtd_power_mode="controlled")
    controlled_keys, controlled, _ = _record_chunk(monkeypatch, controlled_cfg, dep, 0, False, 4)
    assert {k[1] for k in fixed_keys} == {montecarlo._NS_CU, montecarlo._NS_PROJECTION}
    assert {k[1] for k in controlled_keys} == {k[1] for k in fixed_keys} | {montecarlo._NS_MTA}
    assert fixed["baseline"] is None and controlled["baseline"] is None
    g_bs = linear_gain(dep.mtd_bs_distances(), cfg.min_distance_m)
    for rates, _, _ in races:
        np.testing.assert_array_equal(rates, 1.0 / g_bs)
    np.testing.assert_array_equal(fixed["cu"], controlled["cu"])


def _single_rb_sweep(cfg, powers, ks):
    """Every drop of a fixed-power single-RB sweep, keyed (power, K), on the
    sweep's own deployment."""
    full = sample_deployment(replace(cfg, k=ks[-1]),
                             montecarlo._generator(cfg.seed, montecarlo._NS_DEPLOYMENT))
    return {(p, k): montecarlo._run_drops(replace(cfg, k=k, mtd_fixed_power_dbm=p), full.subset(k))
            for p in powers for k in ks}


def test_fixed_power_race_ignores_the_power():
    # the race runs at unit power: on one seed every fixed power picks the
    # same MTD in every drop, so the quieter power leaves every drop's SINR
    # at least as high, and at -inf dBm the interference is exactly 0
    powers = (-math.inf, -10.0, 0.0, 10.0)
    drops = _single_rb_sweep(SimConfig(n_drops=600, n_rb=1), powers, [1, 7, 40])
    for k in (1, 7, 40):
        runs = [drops[p, k] for p in powers]
        assert np.all(runs[0].eff_interference_w == 0.0)
        for quiet, loud in zip(runs, runs[1:]):
            np.testing.assert_array_equal(quiet.selected_mtd, loud.selected_mtd)
            assert np.all(quiet.sinr_db >= loud.sinr_db)
            assert np.all(quiet.eff_interference_w <= loud.eff_interference_w)
        assert np.any(runs[2].sinr_db > runs[3].sinr_db)


def test_multi_power_single_rb_draws_each_chunk_once(monkeypatch):
    # points that differ only in fixed power share their draws: on the
    # single-rb-power benchmark's arguments (4 K, 2 powers, 2 chunks) the
    # sweep opens the deployment stream and, per (K, chunk), one CU and one
    # projection stream: 1 + 4 * 2 * 2 = 17 (one sweep per power opens 33)
    calls = []
    generator = montecarlo._generator

    def counting(*key):
        calls.append(key)
        return generator(*key)

    monkeypatch.setattr(montecarlo, "_generator", counting)
    experiment_single_rb(SimConfig(n_drops=400), [1, 10, 100, 1000], [0.0, -10.0])
    assert len(calls) == 17
    assert len(set(calls)) == 5  # deployment, then (CU, projection) x 2 chunks


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_power_rows_equal_single_power_runs(workers):
    # scoring every power on one set of draws changes no row: each power's
    # rows of a multi-power sweep are those of a sweep at that power alone
    cfg, ks = SimConfig(n_drops=300), [1, 7, 40]
    powers = [-math.inf, -10.0, 0.0, 10.0]
    multi = experiment_single_rb(cfg, ks, powers, workers=workers)
    for p in powers:
        alone = experiment_single_rb(cfg, ks, [p])
        assert [r for r in multi.rows if r[1] == p] == alone.rows, p
