"""Per-RB MTD selection and conflict-free assignment across resource blocks.

The interference matrix holds, per (RB, MTD) pair, the post-beamformer
interference power the MTD would inject on that RB. Each RB wants the MTD it
hears least; conflicts are settled in favor of the RB that hears its claimed
MTD at lower power, and losers move on to their next-quietest unclaimed MTD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import LinkBudget

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


def as_interference_matrix(matrix, ndim: int = 2) -> np.ndarray:
    """Validate and return an (N, K) matrix of nonnegative finite watts, or
    with ``ndim=3`` a (D, N, K) block of D such matrices."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != ndim or 0 in m.shape:
        raise ValueError(f"interference matrix must be {ndim}-D and nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("interference matrix entries must be finite and nonnegative")
    return m


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


def match_assignments(matrix):
    """Resolve per-RB minimum-interference claims into an injective assignment.

    Round-based greedy: every unassigned RB proposes its least-interfering MTD
    among those not yet claimed; each contested MTD goes to the proposer that
    hears it at lower power (value ties -> lower RB index); losers re-propose
    against the shrinking unclaimed pool. Claims are never revoked, so at least
    one MTD settles per round. With K < N, the leftover RBs end unassigned.

    ``matrix`` is one (N, K) matrix, giving an :class:`Assignment`, or a block
    (D, N, K) of D drops' matrices, giving the (D, N) array of each RB's MTD
    (-1: none); the rounds then run on all D drops at once.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 3:
        return _match_block(as_interference_matrix(m, ndim=3))
    idx = _match_block(as_interference_matrix(m)[None])[0]
    return Assignment([None if j < 0 else int(j) for j in idx])


def _match_block(m: np.ndarray) -> np.ndarray:
    """The rounds on a validated (D, N, K) block, over all active (drop, RB)
    pairs at once: each claims its row's argmin; sorting claims by (drop, MTD,
    value, RB) puts each contested MTD's winner first in its group."""
    n_drops, n_rb, _ = m.shape
    work = m.copy()
    assigned = np.full((n_drops, n_rb), -1)
    drop, rb = np.divmod(np.arange(n_drops * n_rb), n_rb)
    while drop.size:
        rows = work[drop, rb]
        mtd = rows.argmin(axis=1)
        value = rows[np.arange(mtd.size), mtd]
        live = value < np.inf  # an RB that finds every MTD claimed stays empty
        order = np.lexsort((rb[live], value[live], mtd[live], drop[live]))
        drop, rb, mtd = drop[live][order], rb[live][order], mtd[live][order]
        win = (np.diff(drop, prepend=-1) != 0) | (np.diff(mtd, prepend=-1) != 0)
        assigned[drop[win], rb[win]] = mtd[win]
        work[drop[win], :, mtd[win]] = np.inf
        drop, rb = drop[~win], rb[~win]
    return assigned


def mtd_power_control(h_k, budget: LinkBudget, target_sinr, p_max):
    """MTD power that hits ``target_sinr`` at the MTA, capped at ``p_max``:

        min(p_max, target_sinr * (i0 + n0) / |h_k|^2)
    """
    gain = np.abs(np.asarray(h_k)) ** 2
    needed = np.asarray(target_sinr) * (np.asarray(budget.i0) + np.asarray(budget.n0)) / gain
    return np.minimum(np.asarray(p_max, dtype=float), needed)


def cu_power_control(h_c, n0, target_sinr, p_max):
    """CU power that hits the no-interference SINR target, capped at ``p_max``:

        min(p_max, target_sinr * n0 / ||h_c||^2)
    """
    h_c = np.asarray(h_c)
    norm_sq = np.einsum("...m,...m->...", h_c, np.conj(h_c)).real
    needed = np.asarray(target_sinr) * np.asarray(n0) / norm_sq
    return np.minimum(np.asarray(p_max, dtype=float), needed)
