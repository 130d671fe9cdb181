"""Monte Carlo experiments: drops, sweeps, outage and order-statistics checks.

One *drop* is a single channel/CU-position realization on a fixed deployment.
Drops come in chunks of CHUNK_DROPS consecutive drops, and each chunk owns one
RNG substream per purpose, keyed by (seed, namespace, chunk index) only, so
results are bit-reproducible for any worker count and any power mode shares
the same randomness — sweeps differ only where the physics differs. All of
the sampling happens in one place, the chunk function ``_run_chunk``: it
draws its CU positions and gains at its start and then, block by block, the
next variates from the chunk's streams, so block size changes no result
either. A drop draws link gains, not channels, and only those its outputs
read: MTD-to-MTA gains only under controlled MTD power, random-baseline
permutations only where the baseline is scored. The drop kernel
:func:`run_drop` draws nothing: it scores a block of drawn gains.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

import numpy as np

from .channel import (
    Deployment,
    linear_gain,
    sample_cu_position,
    sample_deployment,
)
from .config import SimConfig
from .phy import outage_indicator, throughput
from .scheduler import (
    cu_power_control,
    match_assignments,
    mtd_power_control,
)

#: version of the random-number contract: which variates each substream
#: draws, in which order. Contract 1 drew antenna-level channels per drop,
#: contract 2 their sufficient statistics on one substream per drop, and
#: contract 3 the same statistics on one substream per chunk of drops and
#: purpose (see _run_chunk). Every run manifest records it.
RNG_CONTRACT = 3

# substream namespaces under the root seed; a chunk's streams are keyed
# (seed, namespace, chunk index)
_NS_DEPLOYMENT = 0
_NS_CU = 1
_NS_BASELINE = 2
_NS_ASYMPTOTIC = 3
_NS_PROJECTION = 4
_NS_MTA = 5

#: drops per chunk, part of the RNG contract: drop i belongs to chunk
#: i // CHUNK_DROPS, whose substreams it draws from; a chunk is one pool task
CHUNK_DROPS = 256
#: most (RB, MTD) entries in one block of drops; a block holds at least one drop
BLOCK_ENTRIES = 4096


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


@dataclass
class DropResult:
    """Outcome of a block of D drops: per-RB arrays are (D, N), throughputs
    (D,). An RB with no MTD carries selected_mtd -1 and zero interference."""

    sinr_db: np.ndarray
    selected_mtd: np.ndarray
    eff_interference_w: np.ndarray
    throughput_bps: np.ndarray
    outage: np.ndarray
    baseline_throughput_bps: np.ndarray | None = None


@dataclass
class ExperimentSummary:
    """Aggregate table of one experiment, one row per sweep point, and the
    scalars its run manifest records beside the table."""

    columns: list[str]
    rows: list[tuple]
    manifest: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def run_drop(config: SimConfig, cu_gain, bs_gain, mta_gain=None, perms=None) -> DropResult:
    """Score a block of D drops from their drawn link gains; draws nothing.

    The gains are the sufficient statistics of the Rayleigh channels: with a
    unit-norm MRC combiner u_n = h_c,n / ||h_c,n||, RB n's CU gain
    ||h_c,n||^2, ``cu_gain`` (D, N), and MTD k's post-combiner gain
    |u_n^H h_k,n|^2, ``bs_gain`` (D, N, K). ``mta_gain`` (D, K), the
    MTD-to-MTA gains |h_k|^2, is read only under controlled MTD power. With
    ``perms`` (D, K), one MTD permutation per drop, the random baseline, each
    RB n taking MTD perms[n], is scored alongside on the same interference
    matrix. Runs power control, matching, SINR, throughput and outage once for
    the block and writes nothing to its inputs.
    """
    n_drops, n_rb, k = np.shape(bs_gain)
    n0 = config.noise_power_w
    # post-combiner interference in watts, (D, N, K)
    if config.mtd_power_mode == "fixed":
        matrix = bs_gain * config.mtd_fixed_power_w
    else:
        p_mtd = mtd_power_control(
            mta_gain, n0, config.i0_w, config.mtd_target_sinr, config.p_max_w
        )
        matrix = bs_gain * p_mtd[:, None, :]

    idx = match_assignments(matrix)
    p_c = cu_power_control(cu_gain, n0, config.cu_target_sinr, config.p_max_w)
    signal = p_c * cu_gain
    drops, rbs = np.ogrid[:n_drops, :n_rb]

    def interference(idx: np.ndarray) -> np.ndarray:
        """Per-RB interference for (D, N) RB->MTD indices (-1 = no sharing MTD)."""
        return np.where(idx >= 0, matrix[drops, rbs, np.maximum(idx, 0)], 0.0)

    eff_int = interference(idx)
    sinr = signal / (eff_int + n0)

    baseline_bps = None
    if perms is not None:
        b_idx = np.full((n_drops, n_rb), -1)
        take = min(n_rb, k)
        b_idx[:, :take] = perms[:, :take]
        baseline_bps = throughput(signal / (interference(b_idx) + n0), config.rb_bandwidth_hz)

    return DropResult(
        sinr_db=10.0 * np.log10(sinr),
        selected_mtd=idx,
        eff_interference_w=eff_int,
        throughput_bps=throughput(sinr, config.rb_bandwidth_hz),
        outage=outage_indicator(sinr, config.delta_th),
        baseline_throughput_bps=baseline_bps,
    )


# ---------------------------------------------------------------------------
# drop execution (serial or process pool)
# ---------------------------------------------------------------------------


def _run_chunk(
    config: SimConfig, deployment: Deployment, chunk: int, with_baseline: bool, block: int
) -> DropResult:
    """Chunk ``chunk`` of ``config.n_drops`` drops, in blocks of ``block``
    drops: the whole of RNG contract 3.

    The chunk's streams are keyed (seed, namespace, chunk). The CU stream
    draws all of the chunk's CU distances, then its CU gains g_c Gamma(M, 1).
    Then each block, in drop order, draws its MTD-to-BS gains g_k Exp(1) from
    the projection stream, under controlled power its MTD-to-MTA gains
    g_mta Exp(1) from the MTA stream and, with the baseline, one MTD
    permutation per drop from the baseline stream. Each stream is its own
    sequence, so a stream a run does not read is never created and moves no
    other variate.
    """
    n = min(CHUNK_DROPS, config.n_drops - chunk * CHUNK_DROPS)
    n_rb, k, floor = config.n_rb, deployment.n_mtds, config.min_distance_m
    cu = _generator(config.seed, _NS_CU, chunk)
    r = sample_cu_position(config, deployment.mta, cu, n)
    cu_gain = cu.standard_gamma(config.antennas, (n, n_rb))
    cu_gain *= linear_gain(r, floor)[:, None]
    g_bs = linear_gain(deployment.mtd_bs_distances(), floor)
    g_mta = linear_gain(np.maximum(deployment.mtd_mta_distances(), floor), floor)
    projection = _generator(config.seed, _NS_PROJECTION, chunk)
    controlled = config.mtd_power_mode == "controlled"
    mta = _generator(config.seed, _NS_MTA, chunk) if controlled else None
    baseline = _generator(config.seed, _NS_BASELINE, chunk) if with_baseline else None
    parts = []
    for lo in range(0, n, block):
        d = min(block, n - lo)
        bs_gain = projection.standard_exponential((d, n_rb, k))
        bs_gain *= g_bs
        mta_gain = perms = None
        if controlled:
            mta_gain = mta.standard_exponential((d, k))
            mta_gain *= g_mta
        if with_baseline:
            perms = baseline.permuted(np.tile(np.arange(k), (d, 1)), axis=1)
        parts.append(run_drop(config, cu_gain[lo:lo + d], bs_gain, mta_gain, perms))
    return _concat(parts)


def _concat(parts: list[DropResult]) -> DropResult:
    """One DropResult from consecutive blocks, in order."""
    cols = {f.name: [getattr(p, f.name) for p in parts] for f in fields(DropResult)}
    return DropResult(**{n: None if c[0] is None else np.concatenate(c) for n, c in cols.items()})


def _pool(workers: int):
    """A process pool for a whole experiment; None (serial) at one worker."""
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers == 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _run_drops(config: SimConfig, deployment: Deployment, pool, with_baseline=False) -> DropResult:
    """All ``config.n_drops`` drops of one sweep point, chunk by chunk in drop
    order, serially or one chunk per pool task."""
    # sized here and sent with each task, so every worker uses the same blocks
    block = max(1, BLOCK_ENTRIES // (config.n_rb * deployment.n_mtds))
    chunks = range(-(-config.n_drops // CHUNK_DROPS))
    args = repeat(config), repeat(deployment), chunks, repeat(with_baseline), repeat(block)
    return _concat(list((map if pool is None else pool.map)(_run_chunk, *args)))


def _sweep(points: list[SimConfig], row, workers: int = 1, with_baseline=False) -> list[tuple]:
    """Run every sweep point's drops and reduce them to the point's table row.

    ``points`` are configs in ascending K. One deployment is sampled at the
    largest K from the (seed, 0) substream and sliced per point, so larger K
    means a strictly richer selection pool; one pool serves every point.
    ``row(point, drops)`` is applied as soon as a point's drops return, so one
    point's drops are held at a time.
    """
    for point in points:
        point.validate()
    full = sample_deployment(points[-1], _generator(points[-1].seed, _NS_DEPLOYMENT))
    with _pool(workers) as pool:
        return [row(p, _run_drops(p, full.subset(p.k), pool, with_baseline)) for p in points]


def _ci_halfwidth(values: np.ndarray) -> float:
    """Normal-approximation 95% half-width for the mean of ``values``."""
    if values.size < 2:
        return 0.0
    return float(1.96 * np.std(values, ddof=1) / math.sqrt(values.size))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array without NaNs, bit for bit; np.median
    imports ``numpy.ma`` (about 1 MB) for its NaN check."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2])
    return float((part[(n - 1) // 2] + part[n // 2]) / 2)


def _check_k_values(k_values) -> list[int]:
    ks = list(k_values)
    if (not ks or not all(isinstance(k, numbers.Integral) and k >= 1 for k in ks)
            or sorted(set(ks)) != ks):
        raise ValueError(f"k_values must be ascending unique positive integers, got {k_values}")
    return [int(k) for k in ks]


# ---------------------------------------------------------------------------
# experiments: views over one sweep
# ---------------------------------------------------------------------------


def _single_rb_points(config: SimConfig, k_values, power_values=None) -> list[SimConfig]:
    """Sweep points on one shared RB: K and, in fixed power mode, MTD power
    in dBm, K first."""
    ks = _check_k_values(k_values)
    base = replace(config, n_rb=1)
    if config.mtd_power_mode == "fixed":
        powers = [config.mtd_fixed_power_dbm] if power_values is None else list(power_values)
        if not powers:
            raise ValueError("power_values must hold at least one MTD power")
        return [replace(base, k=k, mtd_fixed_power_dbm=float(p)) for k in ks for p in powers]
    if power_values is not None:
        raise ValueError("power_values sets fixed MTD powers; controlled power mode has none")
    return [replace(base, k=k) for k in ks]


def experiment_single_rb(
    config: SimConfig,
    k_values,
    power_values=None,
    workers: int = 1,
) -> ExperimentSummary:
    """Cellular SINR statistics on one shared RB, swept over K (and, in fixed
    power mode, over MTD transmit power in dBm), K first.

    In controlled power mode the power column is NaN (power is per-MTD, set
    by the control law).
    """

    def row(cfg: SimConfig, drops: DropResult) -> tuple:
        sinr_db = drops.sinr_db[:, 0]
        return (
            cfg.k,
            cfg.mtd_fixed_power_dbm if cfg.mtd_power_mode == "fixed" else float("nan"),
            float(np.mean(sinr_db)),
            _median(sinr_db),
            float(np.mean(drops.outage[:, 0])),
            _ci_halfwidth(sinr_db),
        )

    return ExperimentSummary(
        columns=[
            "k",
            "mtd_power_dbm",
            "mean_sinr_db",
            "median_sinr_db",
            "outage_rate",
            "ci_halfwidth_db",
        ],
        rows=_sweep(_single_rb_points(config, k_values, power_values), row, workers),
    )


def experiment_throughput(
    config: SimConfig,
    k_values,
    workers: int = 1,
) -> ExperimentSummary:
    """Mean CU throughput over ``n_rb`` shared RBs vs K, with the random-
    assignment baseline scored on the same drops."""

    def row(cfg: SimConfig, drops: DropResult) -> tuple:
        return (
            cfg.k,
            float(np.mean(drops.throughput_bps)),
            cfg.target_rate_bps,
            float(np.mean(drops.baseline_throughput_bps)),
        )

    points = [replace(config, k=k) for k in _check_k_values(k_values)]
    return ExperimentSummary(
        columns=["k", "mean_throughput_bps", "target_rate_bps", "baseline_throughput_bps"],
        rows=_sweep(points, row, workers, with_baseline=True),
    )


def experiment_outage(config: SimConfig, k_values, workers: int = 1) -> ExperimentSummary:
    """CU outage probability on one shared RB vs K: the drops of
    :func:`experiment_single_rb` at the configured MTD power, reduced to
    their outage rate alone (its rows, median and CI included, raise the peak
    memory of a pooled outage sweep by about 0.3 MB)."""

    def row(cfg: SimConfig, drops: DropResult) -> tuple:
        return (cfg.k, cfg.delta_th_db, float(np.mean(drops.outage[:, 0])))

    return ExperimentSummary(
        columns=["k", "delta_th_db", "outage_rate"],
        rows=_sweep(_single_rb_points(config, k_values), row, workers),
    )


def verify_asymptotic(config: SimConfig, k_values) -> ExperimentSummary:
    """Check the min-interference order statistic against its product form.

    With all K MTD channels i.i.d. at one BS distance (the MTD cluster
    radius), the probability that the quietest MTD projects below delta_I
    (``config.delta_i_dbm``) on the serving direction obeys
    P(X_min < delta_I) = 1 - (1 - Phi(delta_I))^K, Phi being the single-MTD
    CDF. Monte Carlo estimates over ``config.n_drops`` samples (nested prefix
    minima, hence monotone in K) are returned next to the closed form at the
    analytic Phi(delta_I) = 1 - exp(-delta_I / g): a projection onto a
    unit-norm direction is g Exp(1). The samples are full antenna vectors, so
    the empirical column is an independent check of that law, on which the
    drop engine relies.
    """
    config.validate()
    ks = _check_k_values(k_values)
    delta, n, m = config.delta_i_w, config.n_drops, config.antennas
    g = float(linear_gain(config.mta_cluster_radius_m, config.min_distance_m))
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
    return ExperimentSummary(
        columns=["k", "p_empirical", "p_closed_form"],
        rows=[(k, p, 1.0 - (1.0 - phi) ** k) for k, p in zip(ks, p_emp)],
        manifest={"phi_at_delta_i": phi},
    )
