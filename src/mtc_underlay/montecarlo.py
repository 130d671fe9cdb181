"""Monte Carlo experiments: drops, sweeps, outage and order-statistics checks.

One *drop* is a single channel/CU-position realization on a fixed deployment.
Drops come in chunks of CHUNK_DROPS consecutive drops, and each chunk owns one
RNG substream per purpose, keyed by (seed, namespace, chunk index) only, so
results are bit-reproducible for any worker count. All of the sampling
happens in one place, the chunk function ``_run_chunk``: it draws its CU
positions and gains at its start and then, block by block, the next variates
from the chunk's streams. A drop draws link gains, not channels, and only
those its outputs read: the MTD-to-BS interference only as the proposals
the matcher asks for, MTD-to-MTA gains only under controlled MTD power, and
the random baseline's permutations and interference only where the
baseline is scored. The drop kernel :func:`run_drop` draws nothing: it
scores a block of matched interference.
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
from .scheduler import Race, cu_power_control, match_assignments, mtd_power_control

#: version of the random-number contract: which variates each substream
#: draws, in which order. Contract 1 drew antenna-level channels per drop,
#: contract 2 their sufficient statistics on one substream per drop,
#: contract 3 the same statistics on one substream per chunk of drops and
#: purpose, contract 4 the interference only as the order statistics the
#: matcher read, and contract 5 only as its proposals, the random baseline
#: drawing its own (see _run_chunk). Every run manifest records it.
RNG_CONTRACT = 5

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
#: most (drop, MTD) entries in one block of drops, a block holding at least
#: one drop; part of the RNG contract, as the race's variates follow blocks
BLOCK_ENTRIES = 16384


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


def run_drop(config: SimConfig, cu_gain, selected, interference, baseline=None) -> DropResult:
    """Score a block of D drops from their CU gains and matched interference;
    draws nothing.

    ``cu_gain`` (D, N) is each RB's CU gain ||h_c,n||^2, the sufficient
    statistic of the Rayleigh CU channel under a unit-norm MRC combiner.
    ``selected`` (D, N) is each RB's MTD from the matcher (-1: none) and
    ``interference`` (D, N) the watts that MTD injects after the combiner (0
    where none). With ``baseline`` (D, N), the watts of the random
    assignment's MTDs, its throughput is scored alongside. Runs CU power
    control, SINR, throughput and outage once for the block and writes
    nothing to its inputs.
    """
    n0 = config.noise_power_w
    p_c = cu_power_control(cu_gain, n0, config.cu_target_sinr, config.p_max_w)
    signal = p_c * cu_gain
    sinr = signal / (interference + n0)
    baseline_bps = None
    if baseline is not None:
        baseline_bps = throughput(signal / (baseline + n0), config.rb_bandwidth_hz)
    return DropResult(
        sinr_db=10.0 * np.log10(sinr),
        selected_mtd=selected,
        eff_interference_w=interference,
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
    drops: the whole of RNG contract 5.

    The chunk's streams are keyed (seed, namespace, chunk). The CU stream
    draws all of the chunk's CU distances, then its CU gains g_c Gamma(M, 1).
    Then each block, in drop order, draws under controlled power its
    MTD-to-MTA gains g_mta Exp(1) from the MTA stream; matches its RBs on a
    :class:`Race` over the projection stream, the block's MTD-to-BS
    interference |u^H h_k|^2 p_k ~ Exp(1 / (p_k g_k)) drawn as proposals;
    and, with the baseline, draws one MTD permutation per drop and then
    p_k g_k Exp(1) for the MTD it puts on each of the first min(N, K) RBs
    from the baseline stream. Under fixed power the race runs at unit power,
    so every fixed power picks the same MTDs and the picked values are
    scaled by p after. The race reads a data-dependent number of variates,
    so the block partition is part of the contract. Each stream is its own
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
    projection = _generator(config.seed, _NS_PROJECTION, chunk)
    controlled = config.mtd_power_mode == "controlled"
    if controlled:
        g_mta = linear_gain(np.maximum(deployment.mtd_mta_distances(), floor), floor)
        mta = _generator(config.seed, _NS_MTA, chunk)
        scale = 1.0
    else:
        rates, scale = 1.0 / g_bs, config.mtd_fixed_power_w
    baseline = _generator(config.seed, _NS_BASELINE, chunk) if with_baseline else None
    parts = []
    for lo in range(0, n, block):
        d = min(block, n - lo)
        if controlled:
            mta_gain = mta.standard_exponential((d, k))
            mta_gain *= g_mta
            p_mtd = mtd_power_control(
                mta_gain, config.noise_power_w, config.i0_w, config.mtd_target_sinr,
                config.p_max_w,
            )
            rates = np.reciprocal(np.multiply(p_mtd, g_bs, out=p_mtd), out=p_mtd)
        selected, value = match_assignments(Race(rates, d, n_rb, projection))
        base = None
        if with_baseline:
            perms = baseline.permuted(np.tile(np.arange(k), (d, 1)), axis=1)[:, :n_rb]
            base = np.zeros((d, n_rb))
            rate = np.take_along_axis(np.broadcast_to(rates, (d, k)), perms, axis=1)
            base[:, :perms.shape[1]] = baseline.standard_exponential(perms.shape) * scale / rate
        parts.append(run_drop(config, cu_gain[lo:lo + d], selected, value * scale, base))
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
    block = max(1, BLOCK_ENTRIES // deployment.n_mtds)
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
        if not powers or len(set(powers)) != len(powers):
            raise ValueError(f"power_values must hold distinct MTD powers, got {power_values}")
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
