"""Monte Carlo experiments: drops, sweeps, outage and order-statistics checks.

One *drop* is a single channel/CU-position realization on a fixed deployment.
Drops come in chunks of CHUNK_DROPS consecutive drops, and each chunk owns one
RNG substream per purpose, keyed by (seed, namespace, chunk index) only. A
sweep's forked processes share the chunks out and the parent puts them back
in drop order, so results are bit-reproducible for any worker count. All of
the sampling happens in one place, the chunk function ``_run_chunk``: it
draws its CU positions and gains at its start and then, block by block, the
next variates from the chunk's streams. A drop draws link gains, not
channels, and only those its outputs read: the MTD-to-BS interference only
as the proposals the matcher asks for, MTD-to-MTA gains only under
controlled MTD power, and the random baseline's permutations and
interference only where the baseline is scored. The drop kernel
:func:`run_drop` draws nothing: it scores a block of matched interference.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
from dataclasses import dataclass, field, fields, replace

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
#: drawing its own (see _run_chunk); contract 6 drew verify_asymptotic's
#: antenna vectors MTD-major, (re, im) last, and contract 7 draws each MTD
#: only for the samples still above delta_I (see _first_hits). Every run
#: manifest records it.
RNG_CONTRACT = 7

# substream namespaces under the root seed; a chunk's streams are keyed
# (seed, namespace, chunk index)
_NS_DEPLOYMENT = 0
_NS_CU = 1
_NS_BASELINE = 2
_NS_ASYMPTOTIC = 3
_NS_PROJECTION = 4
_NS_MTA = 5

#: drops per chunk, part of the RNG contract: drop i belongs to chunk
#: i // CHUNK_DROPS, whose substreams it draws from; the unit that a sweep's
#: processes share out (see _sweep)
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
# drop execution (serial or sharded over forked processes)
# ---------------------------------------------------------------------------


def _run_chunk(
    config: SimConfig, deployment: Deployment, chunk: int, with_baseline: bool, block: int,
    powers_w=None,
) -> list[DropResult]:
    """Chunk ``chunk`` of ``config.n_drops`` drops, in blocks of ``block``
    drops: all of the RNG contract's drop streams. Returns one DropResult
    per fixed MTD power in ``powers_w`` (W; by default the config's own),
    all scored on the same draws; under controlled power, one.

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
    scaled by each p after. The race reads a data-dependent number of
    variates, so the block partition is part of the contract. Each stream is
    its own sequence, so a stream a run does not read is never created and
    moves no other variate.
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
        scales = [1.0]
    else:
        rates, scales = 1.0 / g_bs, powers_w or [config.mtd_fixed_power_w]
    baseline = _generator(config.seed, _NS_BASELINE, chunk) if with_baseline else None
    parts = [[] for _ in scales]
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
            rate = np.take_along_axis(np.broadcast_to(rates, (d, k)), perms, axis=1)
            draws = baseline.standard_exponential(perms.shape)
        for out, scale in zip(parts, scales):
            if with_baseline:
                base = np.zeros((d, n_rb))
                base[:, :perms.shape[1]] = draws * scale / rate
            out.append(run_drop(config, cu_gain[lo:lo + d], selected, value * scale, base))
    return [_concat(p) for p in parts]


def _concat(parts: list[DropResult]) -> DropResult:
    """One DropResult from consecutive blocks, in order."""
    if len(parts) == 1:
        return parts[0]
    cols = {f.name: [getattr(p, f.name) for p in parts] for f in fields(DropResult)}
    return DropResult(**{n: None if c[0] is None else np.concatenate(c) for n, c in cols.items()})


def _run_drops(config: SimConfig, deployment: Deployment, chunks=None, with_baseline=False):
    """Drops of one sweep point, serially: its chunks in ``chunks`` (all of
    them by default), concatenated in that order."""
    if chunks is None:
        chunks = range(-(-config.n_drops // CHUNK_DROPS))
    # sized per point, so every process cuts a chunk into the same blocks
    block = max(1, BLOCK_ENTRIES // deployment.n_mtds)
    return _concat([_run_chunk(config, deployment, c, with_baseline, block)[0] for c in chunks])


def _fork(items) -> tuple[int, object]:
    """Fork a child that pickles each item of the iterator ``items`` into a
    pipe, or the exception that stops it, and exits; returns its pid and the
    pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            with open(write, "wb") as out:
                try:
                    for item in items:
                        pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:  # noqa: BLE001 - re-raised by the parent
                    pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _receive(pipe):
    """The next item a child sent; an exception it sent is raised."""
    try:
        item = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError("a worker process died before sending its chunks") from None
    if isinstance(item, BaseException):
        raise item
    return item


def _sweep(groups: list[list[SimConfig]], row, columns, workers=1, with_baseline=False):
    """Run every sweep point's drops and reduce them to the point's table row.

    ``groups`` hold the sweep points in ascending K; the points of a group
    differ only in fixed MTD power, so they share every draw (see
    _run_chunk): each chunk is drawn once and scored at every power. One
    deployment is sampled at the largest K from the (seed, 0) substream and
    sliced per group, so larger K means a strictly richer selection pool.
    Then W = min(``workers``, the largest group's chunk count) processes
    share the chunks out: the parent is process 0 and forks W - 1 children
    once; process w runs chunks w, w + W, ... of every group, and each child
    sends the parent one pickle per group. The parent puts a group's chunks
    back in order and applies ``row(point, drops)`` to its points at once, so
    one group's drops are held at a time. The manifest records W as
    ``processes``.
    """
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise RuntimeError("more than one worker needs POSIX fork, which this platform lacks")
    for point in (p for g in groups for p in g):
        point.validate()
    last = groups[-1][-1]
    full = sample_deployment(last, _generator(last.seed, _NS_DEPLOYMENT))
    counts = [-(-g[0].n_drops // CHUNK_DROPS) for g in groups]
    procs = min(workers, max(counts))

    def results(w: int):  # process w's chunks, group by group
        for group, n in zip(groups, counts):
            dep, powers = full.subset(group[0].k), [p.mtd_fixed_power_w for p in group]
            block = max(1, BLOCK_ENTRIES // dep.n_mtds)
            yield [_run_chunk(group[0], dep, c, with_baseline, block, powers)
                   for c in range(w, n, procs)]

    children = []
    try:
        for w in range(1, procs):
            children.append(_fork(results(w)))
        rows = []
        for group, n, own in zip(groups, counts, results(0)):
            parts = [None] * n
            parts[::procs] = own
            for w, (_, pipe) in enumerate(children, 1):
                parts[w::procs] = _receive(pipe)
            rows.extend(row(p, _concat([c[i] for c in parts])) for i, p in enumerate(group))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return ExperimentSummary(columns, rows, {"processes": procs})


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


def _single_rb_points(config: SimConfig, k_values, power_values=None) -> list[list[SimConfig]]:
    """Sweep points on one shared RB, one group per K: in fixed power mode,
    one point per MTD power in dBm."""
    ks = _check_k_values(k_values)
    base = replace(config, n_rb=1)
    if config.mtd_power_mode == "fixed":
        powers = [config.mtd_fixed_power_dbm] if power_values is None else list(power_values)
        if not powers or len(set(powers)) != len(powers):
            raise ValueError(f"power_values must hold distinct MTD powers, got {power_values}")
        return [[replace(base, k=k, mtd_fixed_power_dbm=float(p)) for p in powers] for k in ks]
    if power_values is not None:
        raise ValueError("power_values sets fixed MTD powers; controlled power mode has none")
    return [[replace(base, k=k)] for k in ks]


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

    columns = ["k", "mtd_power_dbm", "mean_sinr_db", "median_sinr_db", "outage_rate",
               "ci_halfwidth_db"]
    return _sweep(_single_rb_points(config, k_values, power_values), row, columns, workers)


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

    groups = [[replace(config, k=k)] for k in _check_k_values(k_values)]
    columns = ["k", "mean_throughput_bps", "target_rate_bps", "baseline_throughput_bps"]
    return _sweep(groups, row, columns, workers, with_baseline=True)


def experiment_outage(config: SimConfig, k_values, workers: int = 1) -> ExperimentSummary:
    """CU outage probability on one shared RB vs K: the drops of
    :func:`experiment_single_rb` at the configured MTD power, reduced to
    their outage rate alone (its rows, median and CI included, raise the peak
    memory of a pooled outage sweep by about 0.3 MB)."""

    def row(cfg: SimConfig, drops: DropResult) -> tuple:
        return (cfg.k, cfg.delta_th_db, float(np.mean(drops.outage[:, 0])))

    columns = ["k", "delta_th_db", "outage_rate"]
    return _sweep(_single_rb_points(config, k_values), row, columns, workers)


def _first_hits(config: SimConfig, max_k: int) -> tuple[np.ndarray, int]:
    """Each sample's first hit, the first of its MTDs 1, 2, ..., max_k whose
    projection falls below delta_I (max_k + 1 where none does), and the
    number of M-antenna vectors drawn.

    Draws from the (seed, 3) stream: the n serving vectors as standard
    normals (n, M, 2), then for MTD j = 1, 2, ... one (live, M, 2) draw for
    the live samples, those without a hit yet, in sample order; (re, im) last
    throughout. It stops once no sample is live or j reaches ``max_k``.
    """
    delta, n, m = config.delta_i_w, config.n_drops, config.antennas
    g = float(linear_gain(config.mta_cluster_radius_m, config.min_distance_m))
    rng = _generator(config.seed, _NS_ASYMPTOTIC)

    # serving direction per sample; its own scale cancels in the normalisation
    h_c = rng.standard_normal((n, m, 2)).view(np.complex128)[..., 0]
    u = np.conj(h_c) / np.linalg.norm(h_c, axis=1, keepdims=True)

    # parts of variance 1 make |u^H h|^2 2 Exp(1), hence the scale g / 2
    first = np.full(n, max_k + 1)
    live = np.arange(n)
    drawn = n
    for j in range(1, max_k + 1):
        h = rng.standard_normal((live.size, m, 2)).view(np.complex128)[..., 0]
        drawn += live.size
        x = np.abs(np.einsum("sm,sm->s", u, h)) ** 2
        x *= g / 2
        hit = x < delta
        if hit.any():
            first[live[hit]] = j
            live, u = live[~hit], u[~hit]
            if not live.size:
                break
    return first, drawn


def _wilson_interval(successes: int, n: int) -> list[float]:
    """Wilson's 95 % score interval for a binomial proportion (Wilson, JASA
    22, 1927). The upper end is one less the lower end of the failures, so no
    success gives exactly 0 below and all successes exactly 1 above."""
    z = 1.96

    def lower(x):
        return max(0.0, (x + z * z / 2 - z * math.sqrt(x * (n - x) / n + z * z / 4)) / (n + z * z))

    return [lower(successes), 1.0 - lower(n - successes)]


def verify_asymptotic(config: SimConfig, k_values) -> ExperimentSummary:
    """Check the min-interference order statistic against its product form.

    With all K MTD channels i.i.d. at one BS distance (the MTD cluster
    radius), the probability that the quietest MTD projects below delta_I
    (``config.delta_i_dbm``) on the serving direction obeys
    P(X_min < delta_I) = 1 - (1 - Phi(delta_I))^K, Phi being the single-MTD
    CDF. Monte Carlo estimates over ``config.n_drops`` samples are returned
    next to the closed form at the analytic Phi(delta_I) = 1 - exp(-delta_I /
    g): a projection onto a unit-norm direction is g Exp(1). The samples are
    full antenna vectors, so the empirical column is an independent check of
    that law, on which the drop engine relies.

    A sample's minimum over its first K MTDs is below delta_I exactly when its
    first hit T (:func:`_first_hits`) is at most K, so the estimate is the
    share of samples with T <= K, monotone in K. Once a sample has hit, no
    later MTD of it can change a row, so it draws no more, and the draws stop
    at the last first hit or the largest K. The manifest records the last MTD
    drawn (``mtds_drawn``), the antenna vectors drawn, serving vectors
    included (``antenna_vectors_drawn``), and a Wilson 95 % interval per K
    (``p_empirical_ci95``).
    """
    config.validate()
    ks = _check_k_values(k_values)
    n = config.n_drops
    first, drawn = _first_hits(config, ks[-1])
    hits = [int(np.count_nonzero(first <= k)) for k in ks]
    g = float(linear_gain(config.mta_cluster_radius_m, config.min_distance_m))
    phi = -math.expm1(-config.delta_i_w / g)
    return ExperimentSummary(
        columns=["k", "p_empirical", "p_closed_form"],
        rows=[(k, h / n, 1.0 - (1.0 - phi) ** k) for k, h in zip(ks, hits)],
        manifest={
            "phi_at_delta_i": phi,
            "processes": 1,
            "mtds_drawn": min(int(first.max()), ks[-1]),
            "antenna_vectors_drawn": drawn,
            "p_empirical_ci95": [_wilson_interval(h, n) for h in hits],
        },
    )
