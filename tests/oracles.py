"""Reference engines the tests check the runtime package against.

``run_drop_vector`` is the vector-channel drop engine: it draws every
antenna-level Rayleigh channel, builds unit-norm MRC combiners and projects
each MTD channel onto them. The package's engine draws only the sufficient
statistics of those channels (||h_c||^2 ~ g_c Gamma(M, 1) and |u^H h_k|^2 ~
g_k Exp(1)) and scores them with ``mtc_underlay.run_drop``;
``tests/test_equivalence.py`` checks that both engines give the same output
distributions.

``match_assignments_loop`` is the matching rounds as a Python loop over one
drop's RBs; ``mtc_underlay.match_assignments`` runs the same rounds on a
whole block of drops at once, asking a source for each row's proposal, and
``tests/test_scheduler.py`` checks them against each other with
:class:`SortedMatrix`, the source over a given block of matrices.
``match_block`` and ``match_matrix`` are the runtime matcher on that source,
on a block and on one (N, K) matrix (as an :class:`Assignment`). ``optimal_assignment_oracle``
enumerates every assignment, the optimum the greedy rounds are measured
against, and ``select_min_interference`` is one RB's pick, the argmin of its
row.

``single_rb_outage_fixed`` and ``single_rb_outage_controlled`` are the CU
outage on one shared RB under fixed and under controlled MTD power, exact by
quadrature; ``holm_rejected`` is the family-wise rule of the
tests that compare the engine with such references.

``sample_deployment_scalar`` and ``sample_cu_position_scalar`` place nodes one
candidate at a time, as :class:`Position` objects; the runtime samplers place
whole arrays of them and must accept the same candidates.

The antenna-level helpers the vector-channel engine is built from
(``gen_channel*``, ``mrc_weights``, ``sinr_cellular`` with its
:class:`LinkBudget`, ``sinr_mta``, ``build_interference_matrix`` and friends)
live here too; the runtime package draws only the sufficient statistics and
never calls them.

Conventions: a beamformer ``w`` is applied to a channel ``h`` as the plain
(bilinear) inner product ``w @ h`` — conjugation is baked into ``w`` itself,
so MRC weights are ``conj(h_c)`` and ``w @ h_c == ||h_c||^2``. All functions
broadcast over leading axes; the antenna axis is last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from mtc_underlay import (
    ConfigError,
    Deployment,
    DropResult,
    SimConfig,
    cu_power_control,
    linear_gain,
    match_assignments,
    mtd_power_control,
    outage_indicator,
    throughput,
)
from mtc_underlay.channel import _MAX_REJECTION_TRIES

# --- link budget ----------------------------------------------------------------


@dataclass
class LinkBudget:
    """Transmit powers and noise/interference floors, all in watts.

    ``p_c``: cellular-user TX power, ``p_k``: interfering/served MTD TX power,
    ``n0``: per-RB noise power, ``i0``: MTA-side interference floor. Scalar or
    broadcastable arrays.
    """

    p_c: float
    p_k: float
    n0: float
    i0: float = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.n0) <= 0):
            raise ValueError("n0 must be positive")
        for name in ("p_c", "p_k", "i0"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be nonnegative")


def sinr_mta(h_k, budget: LinkBudget):
    """SINR of an MTD at the single-antenna MTA: p_k |h_k|^2 / (i0 + n0)."""
    return (
        np.asarray(budget.p_k)
        * np.abs(np.asarray(h_k)) ** 2
        / (np.asarray(budget.i0) + np.asarray(budget.n0))
    )


# --- antenna-level channels, combining and interference ----------------------


class DegenerateChannelError(ValueError):
    """Zero-norm channel where a direction is required."""


def _dot(w, h):
    """Bilinear inner product over the antenna axis (no implicit conjugate)."""
    return np.einsum("...m,...m->...", w, h)


def _norm_sq(v):
    return np.einsum("...m,...m->...", v, np.conj(v)).real


def mrc_weights(h_c: np.ndarray) -> np.ndarray:
    """Maximum-ratio-combining weights for serving channel ``h_c``: conj(h_c)."""
    h_c = np.asarray(h_c)
    if np.any(_norm_sq(h_c) == 0):
        raise DegenerateChannelError("cannot beamform toward a zero channel")
    return np.conj(h_c)


def effective_interference(w, h_kb, p_k, normalized: bool = False):
    """Post-beamformer interference power ``p_k * |w @ h_kb|^2``.

    With ``normalized=True`` the result is divided by ``||w||^2``, which for
    MRC weights equals the served channel's squared norm — the physically
    scaled interference power at the combiner output (scale-invariant in w).
    """
    w = np.asarray(w)
    h_kb = np.asarray(h_kb)
    raw = np.asarray(p_k) * np.abs(_dot(w, h_kb)) ** 2
    if not normalized:
        return raw
    wn = _norm_sq(w)
    if np.any(wn == 0):
        raise DegenerateChannelError("zero-norm beamformer")
    return raw / wn


def sinr_cellular(h_c, w, h_kb, budget: LinkBudget):
    """CU uplink SINR after beamforming with one sharing MTD:

        p_c |w @ h_c|^2 / (p_k |w @ h_kb|^2 + ||w||^2 n0)
    """
    h_c = np.asarray(h_c)
    w = np.asarray(w)
    signal = np.asarray(budget.p_c) * np.abs(_dot(w, h_c)) ** 2
    interference = np.asarray(budget.p_k) * np.abs(_dot(w, np.asarray(h_kb))) ** 2
    return signal / (interference + _norm_sq(w) * np.asarray(budget.n0))


def interference_criterion(eff_interference, delta_i):
    """True where interference is harmless: strictly below ``delta_i``."""
    return np.asarray(eff_interference) < np.asarray(delta_i)


def build_interference_matrix(beamformers, mtd_channels, powers) -> np.ndarray:
    """Interference power of MTD k on RB n after RB n's beamformer.

    Parameters
    ----------
    beamformers:
        (N, M) complex — one combining vector per RB.
    mtd_channels:
        (N, K, M) complex — MTD-to-BS channel per RB and MTD.
    powers:
        (K,) — MTD transmit powers in watts.

    Returns
    -------
    (N, K) float: entry (n, k) = powers[k] * |beamformers[n] @ mtd_channels[n, k]|^2.
    """
    w = np.asarray(beamformers)
    h = np.asarray(mtd_channels)
    p = np.asarray(powers, dtype=float)
    if w.ndim != 2 or h.ndim != 3 or p.ndim != 1:
        raise ValueError(
            f"expected beamformers (N,M), channels (N,K,M), powers (K,); "
            f"got {w.shape}, {h.shape}, {p.shape}"
        )
    if h.shape[0] != w.shape[0] or h.shape[2] != w.shape[1] or h.shape[1] != p.size:
        raise ValueError(
            f"dimension mismatch: beamformers {w.shape}, channels {h.shape}, powers {p.shape}"
        )
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("powers must be finite and nonnegative")
    return p[None, :] * np.abs(np.einsum("nm,nkm->nk", w, h)) ** 2


def gen_channel(
    distance_m: float,
    antennas: int,
    rng: np.random.Generator,
    min_distance_m: float = 10.0,
) -> np.ndarray:
    """One Rayleigh channel vector toward the ``antennas``-element BS array.

    Entries are i.i.d. circularly-symmetric complex Gaussians with per-entry
    power equal to the distance-dependent gain g, so E[||h||^2] = antennas * g.

    Returns
    -------
    np.ndarray, shape (antennas,), complex
    """
    g = linear_gain(distance_m, min_distance_m)
    while True:
        h = math.sqrt(g) * _cn01(antennas, rng)
        if np.any(h != 0):  # degenerate all-zero draw has probability zero
            return h


def gen_channel_block(
    distances_m,
    n_rb: int,
    antennas: int,
    rng: np.random.Generator,
    min_distance_m: float = 10.0,
) -> np.ndarray:
    """Batched equivalent of :func:`gen_channel`.

    Draws one independent channel per (resource block, transmitter, antenna);
    frequency-flat within an RB, independent across RBs.

    Returns
    -------
    np.ndarray, shape (n_rb, len(distances_m), antennas), complex
    """
    g = np.atleast_1d(linear_gain(distances_m, min_distance_m))
    h = _cn01((n_rb, g.size, antennas), rng)
    return np.sqrt(g)[None, :, None] * h


def _cn01(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian, unit power per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


class Position(NamedTuple):
    """Planar position in meters; the base station is the origin."""

    x: float
    y: float

    def distance_to(self, other) -> float:
        """Distance to ``other``, any (x, y) pair."""
        return math.hypot(self.x - other[0], self.y - other[1])

    @property
    def r(self) -> float:
        """Distance from the base station."""
        return math.hypot(self.x, self.y)


def _sample_disk(center, radius: float, rng: np.random.Generator) -> Position:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Position(center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def _rejection_sample(draw, accept, what: str) -> Position:
    for _ in range(_MAX_REJECTION_TRIES):
        p = draw()
        if accept(p):
            return p
    raise ConfigError(f"{what}: no feasible position found in {_MAX_REJECTION_TRIES} draws")


def sample_deployment_scalar(config: SimConfig, rng: np.random.Generator):
    """The MTA and the ``config.k`` MTD positions of
    ``mtc_underlay.sample_deployment``, one candidate at a time (the sampler
    up to RNG contract 3): ``(mta, [mtd, ...])`` as :class:`Position` objects."""
    mta = _rejection_sample(
        lambda: _sample_disk((0.0, 0.0), config.cell_radius_m, rng),
        lambda p: p.r >= config.min_distance_m,
        "MTA placement",
    )
    mtds = []
    for _ in range(config.k):
        mtds.append(
            _rejection_sample(
                lambda: _sample_disk(mta, config.mta_cluster_radius_m, rng),
                lambda p: p.r <= config.cell_radius_m and p.r >= config.min_distance_m,
                "MTD placement",
            )
        )
    return mta, mtds


def sample_cu_position_scalar(config: SimConfig, mta, rng: np.random.Generator) -> Position:
    """One CU position, one candidate at a time (the sampler of RNG contract
    2), around the MTA at ``mta`` = (x, y). It draws its candidates as
    (radius, angle) uniforms in the order in which
    ``mtc_underlay.sample_cu_position`` reads its rows, so on one stream both
    accept the same candidates."""
    return _rejection_sample(
        lambda: _sample_disk((0.0, 0.0), config.cell_radius_m, rng),
        lambda p: p.r >= config.min_distance_m and p.distance_to(mta) >= config.cu_mta_exclusion_m,
        "CU placement",
    )


# --- matching ------------------------------------------------------------------

#: enumeration guard for the brute-force optimal assignment
_ORACLE_MAX = 8


@dataclass
class Assignment:
    """RB -> MTD map; ``None`` marks an RB left without an MTD (K < N)."""

    rb_to_mtd: list[int | None]

    def __post_init__(self):
        taken = [m for m in self.rb_to_mtd if m is not None]
        if len(taken) != len(set(taken)):
            raise ValueError(f"assignment reuses an MTD: {self.rb_to_mtd}")

    @property
    def n_assigned(self) -> int:
        return sum(m is not None for m in self.rb_to_mtd)

    def total_interference(self, matrix: np.ndarray) -> float:
        """Sum of matrix entries over assigned (RB, MTD) pairs, in RB order."""
        matrix = as_interference_matrix(matrix)
        return float(
            sum(matrix[n, m] for n, m in enumerate(self.rb_to_mtd) if m is not None)
        )


def as_interference_matrix(matrix) -> np.ndarray:
    """Validate and return an (N, K) matrix of nonnegative finite watts."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or 0 in m.shape:
        raise ValueError(f"interference matrix must be 2-D and nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("interference matrix entries must be finite and nonnegative")
    return m


class SortedMatrix:
    """The proposal source of ``mtc_underlay.match_assignments`` over a given
    (D, N, K) block of interference matrices, in nonnegative finite watts:
    each row's proposal is its argmin over its drop's unclaimed MTDs, equal
    values going to the lower MTD index."""

    def __init__(self, block):
        m = np.asarray(block, dtype=float)
        if m.ndim != 3 or 0 in m.shape:
            raise ValueError(f"interference block must be 3-D and nonempty, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("interference matrix entries must be finite and nonnegative")
        self.shape = m.shape
        self._block = m

    def next(self, drop, rb, claimed):
        rows = np.where(claimed[drop], np.inf, self._block[drop, rb])
        mtd = np.argmin(rows, axis=1)
        return mtd, rows[np.arange(mtd.size), mtd]


def match_block(block) -> np.ndarray:
    """``mtc_underlay.match_assignments`` on a (D, N, K) block of matrices:
    the (D, N) array of each RB's MTD (-1: none)."""
    return match_assignments(SortedMatrix(block))[0]


def match_matrix(matrix) -> Assignment:
    """``mtc_underlay.match_assignments`` on one (N, K) matrix, as an
    :class:`Assignment`."""
    idx = match_block(as_interference_matrix(matrix)[None])[0]
    return Assignment([None if j < 0 else int(j) for j in idx])


def select_min_interference(row) -> int:
    """Index of the least-interfering MTD in one RB's row; ties -> lowest index."""
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"expected a nonempty 1-D row, got shape {row.shape}")
    if not np.all(np.isfinite(row)) or np.any(row < 0):
        raise ValueError("row entries must be finite and nonnegative")
    return int(np.argmin(row))


def match_assignments_loop(matrix) -> Assignment:
    """Resolve per-RB minimum-interference claims into an injective assignment.

    Round-based greedy: every unassigned RB proposes its least-interfering MTD
    among those not yet claimed; each contested MTD goes to the proposer that
    hears it at lower power (value ties -> lower RB index); losers re-propose
    against the shrinking unclaimed pool. Claims are never revoked, so at least
    one MTD settles per round. With K < N, the leftover RBs end unassigned.
    """
    m = as_interference_matrix(matrix)
    n_rb, n_mtd = m.shape
    work = m.copy()
    assigned: list[int | None] = [None] * n_rb
    active = list(range(n_rb))
    while active:
        proposals: dict[int, list[int]] = {}
        for rb in active:
            col = int(np.argmin(work[rb]))
            if np.isinf(work[rb, col]):
                continue  # every MTD already claimed; this RB stays empty
            proposals.setdefault(col, []).append(rb)
        if not proposals:
            break
        losers = []
        for col, rbs in proposals.items():
            winner = min(rbs, key=lambda r: (m[r, col], r))
            assigned[winner] = col
            work[:, col] = np.inf
            losers.extend(r for r in rbs if r != winner)
        active = sorted(losers)
    return Assignment(assigned)


def optimal_assignment_oracle(matrix) -> Assignment:
    """Minimum-total-interference injective assignment by full enumeration.

    Test oracle only: requires N <= 8, K <= 8, and K >= N. Ties are broken by
    lexicographic enumeration order (first minimum found is kept).
    """
    m = as_interference_matrix(matrix)
    n_rb, n_mtd = m.shape
    if n_rb > _ORACLE_MAX or n_mtd > _ORACLE_MAX:
        raise ValueError(
            f"oracle limited to {_ORACLE_MAX}x{_ORACLE_MAX}, got {n_rb}x{n_mtd}"
        )
    if n_mtd < n_rb:
        raise ValueError(f"need at least as many MTDs as RBs, got {n_rb}x{n_mtd}")
    best = None
    best_total = np.inf
    rows = range(n_rb)
    for perm in itertools.permutations(range(n_mtd), n_rb):
        total = sum(m[r, perm[r]] for r in rows)
        if total < best_total:
            best_total = total
            best = perm
    return Assignment(list(best))


def run_drop_vector(config: SimConfig, deployment: Deployment, rngs, baseline_rngs=None) -> DropResult:
    """The vector-channel engine on a block of drops, one generator per drop
    (the per-drop streams of RNG contract 2), results stacked drop axis first.
    It shares no sampling code with the package's engine: it places its CUs with
    :func:`sample_cu_position_scalar`."""
    b_rngs = [None] * len(rngs) if baseline_rngs is None else baseline_rngs
    drops = [_vector_drop(config, deployment, r, b) for r, b in zip(rngs, b_rngs)]
    return DropResult(
        **{
            f.name: None if getattr(drops[0], f.name) is None
            else np.stack([getattr(d, f.name) for d in drops])
            for f in fields(DropResult)
        }
    )


def _vector_drop(
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

    cu = sample_cu_position_scalar(config, deployment.mta, rng)
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
            np.abs(h_mta) ** 2, n0, i0, config.mtd_target_sinr, config.p_max_w
        )

    # unit-norm MRC combiners make matrix entries physical (comparable) watts
    w = mrc_weights(h_c)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    matrix = build_interference_matrix(w, h_kb, p_mtd)
    assignment = match_assignments_loop(matrix)

    p_c = cu_power_control(_norm_sq(h_c), n0, config.cu_target_sinr, config.p_max_w)

    idx = np.array([-1 if a is None else a for a in assignment.rb_to_mtd], dtype=int)
    sinr = _cellular_sinr_per_rb(h_c, w, h_kb, p_c, p_mtd, idx, n0)
    eff_int = np.where(idx >= 0, matrix[np.arange(n_rb), np.maximum(idx, 0)], 0.0)

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
    cu = sample_cu_position_scalar(config, deployment.mta, rng)
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


# --- analytic single-RB outage --------------------------------------------------


def _path_gain(d):
    """Mean channel gain at distance ``d`` m, written out from the model:
    128.1 + 36.7 log10(d / 1 km) dB of path loss."""
    return 10.0 ** (-(128.1 + 36.7 * np.log10(np.asarray(d) / 1000.0)) / 10.0)


def _single_rb_outage(config: SimConfig, survival) -> float:
    """CU outage probability on one shared RB in a cell without the CU
    keep-out disk around the MTA (``cu_mta_exclusion_m`` = 0), given the
    survival function x -> P(I > x) of the selected interference I (watts;
    continuous for x > 0), by quadrature.

    The power-controlled CU signal is S = min(p_max g_c(r) G, T n0),
    G ~ Gamma(M, 1), the CU distance r having density 2r / (R^2 - d0^2) on
    [d0, R]. The CU is in outage when S / (I + n0) <= delta_th, so

        P_out = E[P(I >= max(0, S / delta_th - n0))],

    taken over G in closed form where S / delta_th <= n0 or S = T n0, and by
    quadrature in between and over r.
    """
    from scipy import integrate, special

    if config.cu_mta_exclusion_m != 0:
        raise ValueError("the oracle covers a cell without a CU exclusion disk")
    n0, dth, t, m = config.noise_power_w, config.delta_th, config.cu_target_sinr, config.antennas
    x_cap = max(0.0, t * n0 / dth - n0)  # I the CU tolerates once S = T n0
    at_cap = 1.0 if x_cap == 0.0 else survival(x_cap)
    log_gamma_m = math.lgamma(m)

    def given_r(r: float) -> float:
        a = config.p_max_w * float(_path_gain(r))
        lo = dth * n0 / a  # G <= lo: in outage whatever I
        hi = max(lo, t * n0 / a)  # G >= hi: S = T n0

        def density(g):  # P(I >= a g / delta_th - n0) times the Gamma(M, 1) density
            return survival(a * g / dth - n0) * math.exp((m - 1) * math.log(g) - g - log_gamma_m)

        middle = integrate.quad(density, lo, hi, limit=200)[0] if hi > lo else 0.0
        return special.gammainc(m, lo) + middle + at_cap * special.gammaincc(m, hi)

    big_r, d0 = config.cell_radius_m, config.min_distance_m
    value, _ = integrate.quad(
        lambda r: 2.0 * r / (big_r**2 - d0**2) * given_r(r), d0, big_r, limit=200
    )
    return value


def single_rb_outage_fixed(config: SimConfig, deployment: Deployment) -> float:
    """CU outage probability on one shared RB under fixed MTD power, exactly,
    by quadrature; for a cell without the CU keep-out disk around the MTA
    (``cu_mta_exclusion_m`` = 0).

    The scheduler gives the RB the MTD of least interference, I = min_k p g_k
    E_k with E_k ~ Exp(1) independent, so I ~ Exp(Lambda), Lambda =
    sum_k 1 / (p g_k) (competing exponentials; Lambda = inf at p = 0 W), and
    P(I > x) = exp(-Lambda x). Path loss is written out from the model, so no
    gain or sampling code is shared with the engine.
    """
    if config.mtd_power_mode != "fixed":
        raise ValueError("the oracle covers fixed MTD power")
    p = config.mtd_fixed_power_w
    gains = _path_gain(deployment.mtd_bs_distances())
    lam = math.inf if p == 0.0 else float(np.sum(1.0 / (p * gains)))
    return _single_rb_outage(config, lambda x: math.exp(-lam * x))


def single_rb_outage_controlled(config: SimConfig, deployment: Deployment) -> float:
    """CU outage probability on one shared RB under controlled MTD power,
    exactly, by quadrature; for a cell without the CU keep-out disk around
    the MTA (``cu_mta_exclusion_m`` = 0).

    MTD k transmits p_k = min(p_max, c / (h_k F_k)), c = T_m (i0 + n0), over
    its MTA gain h_k F_k (distance floored at d0), F_k ~ Exp(1). Given F_k,
    its interference on the RB is p_k g_k E_k, E_k ~ Exp(1), so the selected
    interference I = min_k p_k g_k E_k has

        P(I > x) = prod_k E_F[exp(-x / (p_k(F) g_k))],

    and each factor is in closed form: with f_k = c / (h_k p_max) (below it
    the cap binds) and b_k = x h_k / (c g_k),

        (1 - e^-f_k) e^(-x / (p_max g_k)) + e^(-f_k (1 + b_k)) / (1 + b_k).
    """
    if config.mtd_power_mode != "controlled":
        raise ValueError("the oracle covers controlled MTD power")
    c = config.mtd_target_sinr * (config.i0_w + config.noise_power_w)
    p_max, d0 = config.p_max_w, config.min_distance_m
    g = _path_gain(deployment.mtd_bs_distances())
    h = _path_gain(np.maximum(deployment.mtd_mta_distances(), d0))
    f = c / (h * p_max)

    def survival(x: float) -> float:
        b = x * h / (c * g)
        capped = -np.expm1(-f) * np.exp(-x / (p_max * g))
        return float(np.prod(capped + np.exp(-f * (1.0 + b)) / (1.0 + b)))

    return _single_rb_outage(config, survival)


def holm_rejected(p_values: dict, alpha: float) -> set:
    """Keys of the hypotheses Holm's step-down procedure (Holm, Scand. J.
    Statist. 6, 1979) rejects at family-wise level ``alpha``: the i-th smallest
    of m p-values is rejected while it and all smaller ones are at most
    alpha / (m - i), i from 0."""
    ordered = sorted(p_values, key=p_values.get)
    rejected = set()
    for i, key in enumerate(ordered):
        if p_values[key] > alpha / (len(ordered) - i):
            break
        rejected.add(key)
    return rejected
