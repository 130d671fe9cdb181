"""Reference engines the tests check the runtime package against.

``run_drop_vector`` is the vector-channel drop engine: it draws every
antenna-level Rayleigh channel, builds unit-norm MRC combiners and projects
each MTD channel onto them. ``mtc_underlay.run_drop`` draws only the
sufficient statistics of those channels (||h_c||^2 ~ g_c Gamma(M, 1) and
|u^H h_k|^2 ~ g_k Exp(1)); ``tests/test_equivalence.py`` checks that both
engines give the same output distributions.
"""

from __future__ import annotations

import numpy as np

from mtc_underlay import (
    Deployment,
    DropResult,
    LinkBudget,
    SimConfig,
    build_interference_matrix,
    cu_power_control,
    gen_channel_block,
    linear_gain,
    match_assignments,
    mrc_weights,
    mtd_power_control,
    outage_indicator,
    sample_cu_position,
    sinr_cellular,
    sinr_mta,
    throughput,
)


def run_drop_vector(
    config: SimConfig,
    deployment: Deployment,
    rng: np.random.Generator,
    baseline_rng: np.random.Generator | None = None,
) -> DropResult:
    """Simulate one drop: move the CU, fade every link, assign MTDs, score.

    Draw order (fixed for reproducibility): CU position, CU channels,
    MTD-to-BS channels, MTD-to-MTA channels. When ``baseline_rng`` is given, a
    uniformly random injective assignment is scored alongside for comparison.
    """
    n_rb, m, k = config.n_rb, config.antennas, deployment.n_mtds
    n0, i0 = config.noise_power_w, config.i0_w

    cu = sample_cu_position(config, deployment.mta, rng)
    h_c = gen_channel_block(cu.r, n_rb, m, rng, config.min_distance_m)[:, 0, :]
    h_kb = gen_channel_block(
        deployment.mtd_bs_distances(), n_rb, m, rng, config.min_distance_m
    )
    # MTA links: one draw per MTD; distances floored to the model's validity
    d_mta = np.maximum(deployment.mtd_mta_distances(), config.min_distance_m)
    h_mta = gen_channel_block(d_mta, 1, 1, rng, config.min_distance_m)[0, :, 0]

    if config.mtd_power_mode == "fixed":
        p_mtd = np.full(k, config.mtd_fixed_power_w)
    else:
        p_mtd = mtd_power_control(
            h_mta,
            LinkBudget(p_c=0.0, p_k=0.0, n0=n0, i0=i0),
            config.mtd_target_sinr,
            config.p_max_w,
        )

    # unit-norm MRC combiners make matrix entries physical (comparable) watts
    w = mrc_weights(h_c)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    matrix = build_interference_matrix(w, h_kb, p_mtd)
    assignment = match_assignments(matrix)

    p_c = cu_power_control(h_c, n0, config.cu_target_sinr, config.p_max_w)

    idx = np.array([-1 if a is None else a for a in assignment.rb_to_mtd], dtype=int)
    sinr = _cellular_sinr_per_rb(h_c, w, h_kb, p_c, p_mtd, idx, n0)
    eff_int = np.where(idx >= 0, matrix[np.arange(n_rb), np.maximum(idx, 0)], 0.0)

    mta_sinr_db = np.full(n_rb, np.nan)
    served = idx >= 0
    if np.any(served):
        mta_budget = LinkBudget(p_c=0.0, p_k=p_mtd[idx[served]], n0=n0, i0=i0)
        with np.errstate(divide="ignore"):  # zero-power MTD -> -inf dB
            mta_sinr_db[served] = 10.0 * np.log10(sinr_mta(h_mta[idx[served]], mta_budget))

    baseline_bps = None
    if baseline_rng is not None:
        b_idx = np.full(n_rb, -1, dtype=int)
        order = baseline_rng.permutation(k)
        take = min(n_rb, k)
        b_idx[:take] = order[:take]
        b_sinr = _cellular_sinr_per_rb(h_c, w, h_kb, p_c, p_mtd, b_idx, n0)
        baseline_bps = throughput(b_sinr, config.rb_bandwidth_hz)

    return DropResult(
        sinr_db=10.0 * np.log10(sinr),
        selected_mtd=idx,
        eff_interference_w=eff_int,
        mta_sinr_db=mta_sinr_db,
        throughput_bps=throughput(sinr, config.rb_bandwidth_hz),
        outage=outage_indicator(sinr, config.delta_th),
        baseline_throughput_bps=baseline_bps,
    )


def _cellular_sinr_per_rb(h_c, w, h_kb, p_c, p_mtd, idx, n0) -> np.ndarray:
    """Per-RB CU SINR for an RB->MTD index vector (-1 = no sharing MTD)."""
    n_rb = h_c.shape[0]
    served = idx >= 0
    safe_idx = np.maximum(idx, 0)
    h_int = h_kb[np.arange(n_rb), safe_idx]
    h_int = np.where(served[:, None], h_int, 0.0 + 0.0j)
    p_k = np.where(served, p_mtd[safe_idx], 0.0)
    budget = LinkBudget(p_c=p_c, p_k=p_k, n0=n0)
    return sinr_cellular(h_c, w, h_int, budget)


def vector_channel_statistics(
    config: SimConfig, deployment: Deployment, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The statistics ``run_drop_vector`` derives from its channel draws, over
    their mean gains: ||h_c||^2 / g_c per RB, shape (N,), and |u^H h_k|^2 / g_k
    per (RB, MTD) with u the unit-norm MRC combiner, shape (N, K).

    Draws in the oracle's order, so a drop seed gives the oracle's channels.
    """
    n_rb, m = config.n_rb, config.antennas
    cu = sample_cu_position(config, deployment.mta, rng)
    h_c = gen_channel_block(cu.r, n_rb, m, rng, config.min_distance_m)[:, 0, :]
    h_kb = gen_channel_block(
        deployment.mtd_bs_distances(), n_rb, m, rng, config.min_distance_m
    )
    w = mrc_weights(h_c)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    g_c = linear_gain(cu.r, config.min_distance_m)
    g_k = linear_gain(deployment.mtd_bs_distances(), config.min_distance_m)
    cu_gain = np.sum(np.abs(h_c) ** 2, axis=-1) / g_c
    proj = np.abs(np.einsum("nm,nkm->nk", w, h_kb)) ** 2 / g_k
    return cu_gain, proj
