"""Geometry, placement, and channel statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mtc_underlay import (
    ConfigError,
    GeometryError,
    SimConfig,
    linear_gain,
    sample_cu_position,
    sample_deployment,
)
from mtc_underlay.montecarlo import _NS_DEPLOYMENT, _generator
from oracles import (
    gen_channel,
    gen_channel_block,
    sample_cu_position_scalar,
    sample_deployment_scalar,
)


# --- path loss -------------------------------------------------------------


def pathloss_db(distance_m, min_distance_m=10.0):
    """The path loss in dB that ``linear_gain`` applies: -10 log10(g)."""
    return -10.0 * math.log10(linear_gain(distance_m, min_distance_m))


def test_pathloss_reference_points():
    assert pathloss_db(1000.0) == pytest.approx(128.1, abs=1e-12)
    assert pathloss_db(100.0) == pytest.approx(91.4, abs=1e-12)
    # independently computed: 128.1 + 36.7 * log10(0.25)
    assert pathloss_db(250.0) == pytest.approx(106.00439831826377, abs=1e-9)


def test_pathloss_domain():
    with pytest.raises(GeometryError):
        pathloss_db(9.999)
    with pytest.raises(GeometryError):
        pathloss_db(0.0)
    assert pathloss_db(10.0) > 0  # boundary is inside the domain
    with pytest.raises(GeometryError):
        pathloss_db(49.0, min_distance_m=50.0)
    assert pathloss_db(49.0, min_distance_m=5.0) < pathloss_db(100.0)


def test_pathloss_strictly_increasing():
    rng = np.random.default_rng(7)
    d = np.sort(rng.uniform(10.0, 5000.0, size=200))
    pl = [pathloss_db(x) for x in d]
    assert all(a < b for a, b in zip(pl, pl[1:]))


def test_linear_gain_matches_pathloss():
    # independent restatement of the model: 128.1 + 36.7 log10(d [km]) dB
    for d in (10.0, 100.0, 250.0, 499.0):
        pl = 128.1 + 36.7 * math.log10(d / 1000.0)
        assert linear_gain(d) == pytest.approx(10 ** (-pl / 10.0), rel=1e-12)
    with pytest.raises(GeometryError):
        linear_gain(np.array([100.0, 3.0]))


# --- channel generation ------------------------------------------------------


def test_gen_channel_shape_and_determinism():
    h1 = gen_channel(100.0, 4, np.random.default_rng(42))
    h2 = gen_channel(100.0, 4, np.random.default_rng(42))
    assert h1.shape == (4,)
    assert h1.dtype.kind == "c"
    np.testing.assert_array_equal(h1, h2)
    assert np.linalg.norm(h1) > 0


def test_gen_channel_mean_square_norm():
    # E[||h||^2] = antennas * g; at 100 m and 4 antennas that is 4e-9.14
    rng = np.random.default_rng(2024)
    n = 100_000
    total = 0.0
    for _ in range(n):
        h = gen_channel(100.0, 4, rng)
        total += float(np.sum(np.abs(h) ** 2))
    expected = 4.0 * 10 ** (-9.14)
    assert total / n == pytest.approx(expected, rel=0.02)


def test_gen_channel_block_statistics():
    # per-entry power equals the distance gain, per RB and per transmitter
    rng = np.random.default_rng(11)
    d = np.full(50_000, 250.0)
    h = gen_channel_block(d, 2, 4, rng)
    assert h.shape == (2, 50_000, 4)
    g = float(linear_gain(250.0))
    per_entry = np.mean(np.abs(h) ** 2)
    assert per_entry == pytest.approx(g, rel=0.02)
    # both RB slices are independent draws, not copies
    assert not np.allclose(h[0], h[1])


def test_gen_channel_block_mixed_distances():
    rng = np.random.default_rng(3)
    h = gen_channel_block(np.array([100.0, 500.0]), 1, 8, rng)
    p100 = np.mean(np.abs(h[0, 0]) ** 2)
    p500 = np.mean(np.abs(h[0, 1]) ** 2)
    assert p100 > p500  # closer transmitter, stronger average channel


# --- deployment sampling -----------------------------------------------------


def test_deployment_invariants():
    cfg = SimConfig(k=1000)
    dep = sample_deployment(cfg, np.random.default_rng(5))
    assert cfg.min_distance_m <= math.hypot(*dep.mta) <= cfg.cell_radius_m
    assert dep.n_mtds == 1000
    assert dep.mtds.shape == (1000, 2)
    bs_d = dep.mtd_bs_distances()
    mta_d = dep.mtd_mta_distances()
    assert np.all(bs_d <= cfg.cell_radius_m)
    assert np.all(bs_d >= cfg.min_distance_m)
    assert np.all(mta_d <= cfg.mta_cluster_radius_m + 1e-9)


def test_deployment_deterministic():
    cfg = SimConfig(k=20)
    d1 = sample_deployment(cfg, np.random.default_rng(123))
    d2 = sample_deployment(cfg, np.random.default_rng(123))
    assert d1.mta == d2.mta
    np.testing.assert_array_equal(d1.mtds, d2.mtds)


def test_deployment_k_zero_rejected():
    with pytest.raises(ConfigError):
        sample_deployment(SimConfig(k=0), np.random.default_rng(0))


def test_degenerate_cluster_radius_zero():
    cfg = SimConfig(k=5, mta_cluster_radius_m=0.0)
    dep = sample_deployment(cfg, np.random.default_rng(9))
    assert np.all(dep.mtds == dep.mta)


def test_deployment_subset_is_nested():
    dep = sample_deployment(SimConfig(k=50), np.random.default_rng(1))
    sub = dep.subset(10)
    np.testing.assert_array_equal(sub.mtds, dep.mtds[:10])
    assert sub.mta == dep.mta
    # cached distances: computed once from the positions, with math.hypot
    np.testing.assert_array_equal(sub.mtd_bs_distances(), [math.hypot(*p) for p in sub.mtds])
    np.testing.assert_array_equal(
        sub.mtd_mta_distances(), [math.hypot(x - dep.mta[0], y - dep.mta[1]) for x, y in sub.mtds]
    )
    assert not dep.mtd_bs_distances().flags.writeable
    with pytest.raises(ValueError):
        dep.subset(51)
    with pytest.raises(ValueError):
        dep.subset(0)


def test_deployment_mtd_gains_cached_per_floor():
    dep = sample_deployment(SimConfig(k=50), np.random.default_rng(1))
    g_bs, g_mta = dep.mtd_gains(10.0)
    np.testing.assert_array_equal(g_bs, linear_gain(dep.mtd_bs_distances(), 10.0))
    floored = np.maximum(dep.mtd_mta_distances(), 10.0)
    np.testing.assert_array_equal(g_mta, linear_gain(floored, 10.0))
    assert dep.mtd_gains(10.0)[0] is g_bs  # computed once
    # a larger floor lifts MTA distances below it, and is cached on its own
    _, g_mta_far = dep.mtd_gains(40.0)
    np.testing.assert_array_equal(g_mta_far, linear_gain(np.maximum(floored, 40.0), 40.0))
    assert dep.mtd_gains(10.0)[1] is g_mta


@pytest.mark.parametrize(
    "cfg, seeds",
    [
        # the MTA misses often here: seeds 5 and 13 fail a sampler that draws
        # past the MTA's first admissible candidate
        (SimConfig(k=300, min_distance_m=420.0), range(25)),
        (SimConfig(k=200), range(10)),
        (SimConfig(k=20, mta_cluster_radius_m=0.0), range(10)),
    ],
    ids=["min-distance-420", "default", "cluster-radius-0"],
)
def test_deployment_equals_scalar_sampler_position_for_position(cfg, seeds):
    # same candidates accepted, and no candidate drawn past the last MTD
    for seed in seeds:
        rng, scalar_rng = (_generator(seed, _NS_DEPLOYMENT) for _ in range(2))
        dep = sample_deployment(cfg, rng)
        mta, mtds = sample_deployment_scalar(cfg, scalar_rng)
        assert dep.mta == mta, seed
        np.testing.assert_array_equal(dep.mtds, mtds, err_msg=f"seed {seed}")
        np.testing.assert_array_equal(dep.mtd_bs_distances(), [p.r for p in mtds])
        np.testing.assert_array_equal(
            dep.mtd_mta_distances(), [p.distance_to(mta) for p in mtds]
        )
        assert rng.bit_generator.state == scalar_rng.bit_generator.state, seed


# --- CU placement ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    exclusion_m=st.sampled_from([0.0, 100.0, 250.0, 400.0]),
)
def test_cu_position_constraints(seed, n, exclusion_m):
    # the vector sampler accepts the candidates the scalar sampler accepts on
    # the same stream, so the scalar positions show where its CUs are
    cfg = SimConfig(cu_mta_exclusion_m=exclusion_m)
    mta = sample_deployment(replace(cfg, k=1), np.random.default_rng(seed)).mta
    r = sample_cu_position(cfg, mta, np.random.default_rng(seed + 1), n)
    scalar_rng = np.random.default_rng(seed + 1)
    positions = [sample_cu_position_scalar(cfg, mta, scalar_rng) for _ in range(n)]
    assert r.shape == (n,)
    assert np.all((cfg.min_distance_m <= r) & (r <= cfg.cell_radius_m))
    np.testing.assert_allclose(r, [p.r for p in positions], rtol=1e-12)
    assert all(p.distance_to(mta) >= cfg.cu_mta_exclusion_m for p in positions)


def test_cu_distances_match_scalar_sampler_in_distribution():
    cfg = SimConfig()
    mta = sample_deployment(cfg, np.random.default_rng(17)).mta
    vector = sample_cu_position(cfg, mta, np.random.default_rng(1), 10_000)
    rng = np.random.default_rng(2)
    scalar = [sample_cu_position_scalar(cfg, mta, rng).r for _ in range(10_000)]
    assert stats.ks_2samp(vector, scalar).pvalue > 1e-3


def test_cu_exclusion_infeasible_raises():
    # exclusion radius passes static validation but exceeds the cell's reach
    # from wherever the MTA landed -> the sampler must give up cleanly
    cfg = SimConfig(cu_mta_exclusion_m=995.0)
    rng = np.random.default_rng(17)
    dep = sample_deployment(cfg, rng)
    assert math.hypot(*dep.mta) + cfg.cell_radius_m < cfg.cu_mta_exclusion_m
    with pytest.raises(ConfigError):
        sample_cu_position(cfg, dep.mta, rng, 1)
