"""Conflict-free min-interference assignment across resource blocks, and
power control.

The interference matrix of a drop holds, per (RB, MTD) pair, the
post-beamformer interference power the MTD would inject on that RB. Each RB
wants the MTD it hears least; conflicts are settled in favor of the RB that
hears its claimed MTD at lower power, and losers move on to their
next-quietest unclaimed MTD. The matcher runs on a block of drops at once.
Power control reads the drawn link gains |h|^2 directly.
"""

from __future__ import annotations

import numpy as np


def match_assignments(matrix) -> np.ndarray:
    """Resolve per-RB minimum-interference claims into an injective assignment.

    Round-based greedy: every unassigned RB proposes its least-interfering MTD
    among those not yet claimed; each contested MTD goes to the proposer that
    hears it at lower power (value ties -> lower RB index); losers re-propose
    against the shrinking unclaimed pool. Claims are never revoked, so at least
    one MTD settles per round. With K < N, the leftover RBs end unassigned.

    ``matrix`` is a (D, N, K) block of D drops' interference matrices, in
    nonnegative finite watts; returns the (D, N) array of each RB's MTD (-1:
    none). The rounds run over all active (drop, RB) pairs at once: each
    claims its row's argmin, and sorting claims by (drop, MTD, value, RB)
    puts each contested MTD's winner first in its group.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 3 or 0 in m.shape:
        raise ValueError(f"interference block must be 3-D and nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("interference matrix entries must be finite and nonnegative")
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


def mtd_power_control(gain, n0, i0, target_sinr, p_max):
    """MTD power that hits ``target_sinr`` at the MTA over the MTD-to-MTA
    gain |h_k|^2, capped at ``p_max``:

        min(p_max, target_sinr * (i0 + n0) / gain)
    """
    needed = np.asarray(target_sinr) * (np.asarray(i0) + np.asarray(n0)) / np.asarray(gain)
    return np.minimum(np.asarray(p_max, dtype=float), needed)


def cu_power_control(gain, n0, target_sinr, p_max):
    """CU power that hits the no-interference SINR target over the CU gain
    ||h_c||^2, capped at ``p_max``:

        min(p_max, target_sinr * n0 / gain)
    """
    needed = np.asarray(target_sinr) * np.asarray(n0) / np.asarray(gain)
    return np.minimum(np.asarray(p_max, dtype=float), needed)
