"""Monte Carlo experiments: drops, sweeps, outage and order-statistics checks.

One *drop* is a single channel/CU-position realization on a fixed deployment.
Every drop owns an RNG substream keyed by (seed, drop index) only, so results
are bit-reproducible for any worker count and any power mode shares the same
randomness — sweeps differ only where the physics differs. Drops run in
blocks, each drop on its own substream, so block size changes no result either.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import (
    Deployment,
    linear_gain,
    sample_cu_position,
    sample_deployment,
)
from .config import SimConfig
from .phy import (
    LinkBudget,
    outage_indicator,
    sinr_mta,
    throughput,
)
from .scheduler import (
    cu_power_control,
    match_assignments,
    mtd_power_control,
)

#: version of the random-number contract: which variates each substream
#: draws, in which order. Contract 1 drew antenna-level channels per drop;
#: contract 2 draws their sufficient statistics (see run_drop). Every run
#: manifest records it.
RNG_CONTRACT = 2

# substream namespaces under the root seed
_NS_DEPLOYMENT = 0
_NS_DROP = 1
_NS_BASELINE = 2
_NS_ASYMPTOTIC = 3

#: drops per task when running on a process pool
_POOL_CHUNK = 256
#: most (RB, MTD) entries in one block of drops; a block holds at least one drop
BLOCK_ENTRIES = 4096


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


@dataclass
class DropResult:
    """Outcome of a block of D drops: per-RB arrays are (D, N), throughputs
    (D,). An RB with no MTD carries selected_mtd -1, zero interference, NaN MTA SINR."""

    sinr_db: np.ndarray
    selected_mtd: np.ndarray
    eff_interference_w: np.ndarray
    mta_sinr_db: np.ndarray
    throughput_bps: np.ndarray
    outage: np.ndarray
    baseline_throughput_bps: np.ndarray | None = None


@dataclass
class ExperimentSummary:
    """Aggregate table of one experiment: one row per sweep point."""

    experiment: str
    columns: list[str]
    rows: list[tuple]
    n_drops: int
    seed: int

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class AsymptoticResult:
    """Empirical vs closed-form probability that the quietest of K MTDs falls
    below the harmless-interference threshold."""

    k_values: list[int]
    p_empirical: list[float]
    p_closed_form: list[float]
    phi: float  # single-MTD CDF value at the threshold


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def run_drop(
    config: SimConfig,
    deployment: Deployment,
    rngs,
    baseline_rngs=None,
) -> DropResult:
    """Simulate a block of drops, one per generator in ``rngs``: move the CU,
    fade every link, assign MTDs, score.

    Draws the sufficient statistics of the Rayleigh channels rather than the
    channels: with a unit-norm MRC combiner u_n = h_c,n / ||h_c,n||, RB n's CU
    gain ||h_c,n||^2 is g_c Gamma(M, 1) and MTD k's post-combiner gain
    |u_n^H h_k,n|^2 is g_k Exp(1), independent of each other and across RBs
    and MTDs. Each drop draws from its own generator, in an order fixed by the
    RNG contract: CU position, CU gains (N), MTD-to-BS projections (N, K),
    MTD-to-MTA gains (K). Everything after the draws runs once for the block.
    When ``baseline_rngs`` is given (one per drop), a uniformly random
    injective assignment is scored alongside on the same interference matrix.
    """
    n_drops, n_rb, k = len(rngs), config.n_rb, deployment.n_mtds
    n0, i0 = config.noise_power_w, config.i0_w
    d_min = config.min_distance_m
    g_bs, g_mta = deployment.mtd_gains(d_min)
    cu_gain = np.empty((n_drops, n_rb))
    proj = np.empty((n_drops, n_rb, k))
    mta_gain = np.empty((n_drops, k))
    for j, rng in enumerate(rngs):
        cu = sample_cu_position(config, deployment.mta, rng)
        cu_gain[j] = linear_gain(cu.r, d_min) * rng.standard_gamma(config.antennas, n_rb)
        proj[j] = g_bs * rng.standard_exponential((n_rb, k))
        mta_gain[j] = g_mta * rng.standard_exponential(k)
    # power control and the MTA SINR need only |h|^2: real amplitudes with the
    # drawn gains stand in for the channels (h_c as N one-antenna channels)
    h_mta = np.sqrt(mta_gain)

    if config.mtd_power_mode == "fixed":
        p_mtd = np.full((n_drops, k), config.mtd_fixed_power_w)
    else:
        p_mtd = mtd_power_control(
            h_mta,
            LinkBudget(p_c=0.0, p_k=0.0, n0=n0, i0=i0),
            config.mtd_target_sinr,
            config.p_max_w,
        )

    matrix = p_mtd[:, None, :] * proj  # post-combiner interference in watts, (D, N, K)
    idx = match_assignments(matrix)
    p_c = cu_power_control(np.sqrt(cu_gain)[..., None], n0, config.cu_target_sinr, config.p_max_w)
    signal = p_c * cu_gain
    drops, rbs = np.ogrid[:n_drops, :n_rb]

    def interference(idx: np.ndarray) -> np.ndarray:
        """Per-RB interference for (D, N) RB->MTD indices (-1 = no sharing MTD)."""
        return np.where(idx >= 0, matrix[drops, rbs, np.maximum(idx, 0)], 0.0)

    eff_int = interference(idx)
    sinr = signal / (eff_int + n0)

    mta_sinr_db = np.full((n_drops, n_rb), np.nan)
    served, mtd = idx >= 0, np.maximum(idx, 0)
    mta_budget = LinkBudget(p_c=0.0, p_k=p_mtd[drops, mtd][served], n0=n0, i0=i0)
    with np.errstate(divide="ignore"):  # zero-power MTD -> -inf dB
        mta_sinr_db[served] = 10.0 * np.log10(sinr_mta(h_mta[drops, mtd][served], mta_budget))

    baseline_bps = None
    if baseline_rngs is not None:
        b_idx = np.full((n_drops, n_rb), -1)
        take = min(n_rb, k)
        for j, b_rng in enumerate(baseline_rngs):
            b_idx[j, :take] = b_rng.permutation(k)[:take]
        baseline_bps = throughput(signal / (interference(b_idx) + n0), config.rb_bandwidth_hz)

    return DropResult(
        sinr_db=10.0 * np.log10(sinr),
        selected_mtd=idx,
        eff_interference_w=eff_int,
        mta_sinr_db=mta_sinr_db,
        throughput_bps=throughput(sinr, config.rb_bandwidth_hz),
        outage=outage_indicator(sinr, config.delta_th),
        baseline_throughput_bps=baseline_bps,
    )


# ---------------------------------------------------------------------------
# drop execution (serial or process pool)
# ---------------------------------------------------------------------------


def _run_chunk(args) -> DropResult:
    """Drops [start, stop) in blocks of ``block`` drops, each on its own substreams."""
    config, deployment, start, stop, with_baseline, block = args
    parts = []
    for lo in range(start, stop, block):
        ids = range(lo, min(lo + block, stop))
        rngs = [_generator(config.seed, _NS_DROP, i) for i in ids]
        b_rngs = [_generator(config.seed, _NS_BASELINE, i) for i in ids] if with_baseline else None
        parts.append(run_drop(config, deployment, rngs, b_rngs))
    return _concat(parts)


def _concat(parts: list[DropResult]) -> DropResult:
    """One DropResult from consecutive blocks, in order."""
    cols = {f.name: [getattr(p, f.name) for p in parts] for f in fields(DropResult)}
    return DropResult(**{n: None if c[0] is None else np.concatenate(c) for n, c in cols.items()})


def _pool(workers: int):
    """A process pool for a whole experiment; None (serial) at one worker."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _run_drops(config: SimConfig, deployment: Deployment, pool, with_baseline=False) -> DropResult:
    """All ``config.n_drops`` drops of one sweep point, in drop order."""
    n = config.n_drops
    # sized here and sent with each task, so every worker uses the same blocks
    block = max(1, BLOCK_ENTRIES // (config.n_rb * deployment.n_mtds))
    step = n if pool is None else _POOL_CHUNK
    tasks = [(config, deployment, lo, min(lo + step, n), with_baseline, block)
             for lo in range(0, n, step)]
    return _concat(list((map if pool is None else pool.map)(_run_chunk, tasks)))


def _ci_halfwidth(values: np.ndarray) -> float:
    """Normal-approximation 95% half-width for the mean of ``values``."""
    if values.size < 2:
        return 0.0
    return float(1.96 * np.std(values, ddof=1) / math.sqrt(values.size))


def _check_k_values(k_values) -> list[int]:
    ks = [int(k) for k in k_values]
    if not ks or any(k < 1 for k in ks) or sorted(set(ks)) != ks:
        raise ValueError(f"k_values must be ascending unique positive integers, got {k_values}")
    return ks


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def experiment_single_rb(
    config: SimConfig,
    k_values,
    power_values=None,
    workers: int = 1,
) -> ExperimentSummary:
    """Cellular SINR statistics on one shared RB, swept over K (and, in fixed
    power mode, over MTD transmit power in dBm).

    The deployment is sampled once at max(K) and sliced per point, so larger K
    means a strictly richer selection pool. In controlled power mode the
    power column is NaN (power is per-MTD, set by the control law).
    """
    ks = _check_k_values(k_values)
    base = replace(config, n_rb=1)
    if config.mtd_power_mode == "fixed":
        powers = list(power_values) if power_values is not None else [config.mtd_fixed_power_dbm]
    elif power_values is not None:
        raise ValueError("power_values sets fixed MTD powers; controlled power mode has none")
    else:
        powers = [None]
    full = sample_deployment(
        replace(base, k=ks[-1]), _generator(config.seed, _NS_DEPLOYMENT)
    )
    rows = []
    with _pool(workers) as pool:
        for k in ks:
            deployment = full.subset(k)
            for p_dbm in powers:
                cfg = replace(base, k=k)
                if p_dbm is not None:
                    cfg = replace(cfg, mtd_fixed_power_dbm=float(p_dbm))
                drops = _run_drops(cfg, deployment, pool)
                sinr_db = drops.sinr_db[:, 0]
                rows.append(
                    (
                        k,
                        float("nan") if p_dbm is None else float(p_dbm),
                        float(np.mean(sinr_db)),
                        float(np.median(sinr_db)),
                        float(np.mean(drops.outage[:, 0])),
                        _ci_halfwidth(sinr_db),
                    )
                )
    return ExperimentSummary(
        experiment="single-rb",
        columns=[
            "k",
            "mtd_power_dbm",
            "mean_sinr_db",
            "median_sinr_db",
            "outage_rate",
            "ci_halfwidth_db",
        ],
        rows=rows,
        n_drops=config.n_drops,
        seed=config.seed,
    )


def experiment_throughput(
    config: SimConfig,
    k_values,
    workers: int = 1,
) -> ExperimentSummary:
    """Mean CU throughput over ``n_rb`` shared RBs vs K, with the random-
    assignment baseline scored on the same drops."""
    ks = _check_k_values(k_values)
    full = sample_deployment(
        replace(config, k=ks[-1]), _generator(config.seed, _NS_DEPLOYMENT)
    )
    rows = []
    with _pool(workers) as pool:
        for k in ks:
            cfg = replace(config, k=k)
            drops = _run_drops(cfg, full.subset(k), pool, with_baseline=True)
            mean_bps = float(np.mean(drops.throughput_bps))
            base_bps = float(np.mean(drops.baseline_throughput_bps))
            rows.append((k, mean_bps, config.target_rate_bps, base_bps))
    return ExperimentSummary(
        experiment="throughput",
        columns=["k", "mean_throughput_bps", "target_rate_bps", "baseline_throughput_bps"],
        rows=rows,
        n_drops=config.n_drops,
        seed=config.seed,
    )


def estimate_outage(config: SimConfig, k: int, workers: int = 1) -> float:
    """Monte Carlo CU outage probability on one shared RB with K MTDs."""
    with _pool(workers) as pool:
        return _outage_rate(config, k, pool)


def _outage_rate(config: SimConfig, k: int, pool) -> float:
    cfg = replace(config, n_rb=1, k=int(k))
    deployment = sample_deployment(cfg, _generator(config.seed, _NS_DEPLOYMENT))
    return float(np.mean(_run_drops(cfg, deployment, pool).outage[:, 0]))


def experiment_outage(config: SimConfig, k_values, workers: int = 1) -> ExperimentSummary:
    """Outage probability vs K (one row per K value)."""
    ks = _check_k_values(k_values)
    with _pool(workers) as pool:
        rows = [(k, config.delta_th_db, _outage_rate(config, k, pool)) for k in ks]
    return ExperimentSummary(
        experiment="outage",
        columns=["k", "delta_th_db", "outage_rate"],
        rows=rows,
        n_drops=config.n_drops,
        seed=config.seed,
    )


def verify_asymptotic(
    config: SimConfig,
    k_values,
    delta_i: float | None = None,
    n_samples: int | None = None,
    mtd_distance_m: float | None = None,
) -> AsymptoticResult:
    """Check the min-interference order statistic against its product form.

    With all K MTD channels i.i.d. (common BS distance), the probability that
    the quietest MTD projects below ``delta_i`` on the serving direction obeys
    P(X_min < delta_i) = 1 - (1 - Phi(delta_i))^K, Phi being the single-MTD
    CDF. Monte Carlo estimates (nested prefix minima, hence monotone in K) are
    returned next to the closed form at the analytic Phi(delta_i) =
    1 - exp(-delta_i / g): a projection onto a unit-norm direction is g Exp(1).
    The samples are full antenna vectors, so the empirical column is an
    independent check of that law, on which ``run_drop`` relies.
    """
    ks = _check_k_values(k_values)
    delta = config.delta_i_w if delta_i is None else float(delta_i)
    n = int(n_samples) if n_samples is not None else config.n_drops
    distance = (
        config.mta_cluster_radius_m if mtd_distance_m is None else float(mtd_distance_m)
    )
    m = config.antennas
    g = float(linear_gain(distance, config.min_distance_m))
    rng = _generator(config.seed, _NS_ASYMPTOTIC)

    # serving direction per sample; its own gain cancels in the projection ratio
    h_c = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)
    u = np.conj(h_c) / np.linalg.norm(h_c, axis=1, keepdims=True)

    running_min = np.full(n, np.inf)
    p_emp = []
    chunk_cap = max(1, 2_000_000 // n)
    done = 0
    for k in ks:
        while done < k:
            c = min(chunk_cap, k - done)
            h = math.sqrt(g) * (
                (rng.standard_normal((n, c, m)) + 1j * rng.standard_normal((n, c, m)))
                / math.sqrt(2)
            )
            x = np.abs(np.einsum("sm,scm->sc", u, h)) ** 2
            running_min = np.minimum(running_min, x.min(axis=1))
            done += c
        p_emp.append(float(np.mean(running_min < delta)))

    phi = -math.expm1(-delta / g)
    p_closed = [1.0 - (1.0 - phi) ** k for k in ks]
    return AsymptoticResult(
        k_values=ks, p_empirical=p_emp, p_closed_form=p_closed, phi=phi
    )
