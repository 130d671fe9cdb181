"""Conflict-free min-interference assignment across resource blocks, and
power control.

A block of D drops has, per drop, RB and MTD, the post-combiner
interference the MTD would inject on the RB: a (D, N, K) block of rows, one
row per (drop, RB). Each RB wants the MTD it hears least; conflicts are
settled in favor of the RB that hears its claimed MTD at lower power, and
losers move on to their next-quietest unclaimed MTD. The matcher asks a
*source* for each proposal, and the runtime's source, :class:`Race`, draws
each one when asked instead of the block. Power control reads the drawn
link gains |h|^2 directly.
"""

from __future__ import annotations

import numpy as np


def match_assignments(source) -> tuple[np.ndarray, np.ndarray]:
    """Resolve per-RB minimum-interference claims into an injective assignment.

    Round-based greedy: every unassigned RB proposes its least-interfering MTD
    among those not yet claimed; each contested MTD goes to the proposer that
    hears it at lower power (value ties -> lower RB index); losers re-propose
    against the shrinking unclaimed pool. Claims are never revoked, so at least
    one MTD settles per round. With K < N, the leftover RBs end unassigned.

    ``source.shape`` is (D, N, K), and ``source.next(drop, rb, claimed)``
    returns, for each of the given distinct rows, the MTD and value of its
    least entry over its drop's MTDs not ``claimed`` (D, K). A drop's rows
    retire once all of its MTDs are claimed. The rounds run over all active
    (drop, RB) pairs at once, in (drop, RB) order, and sorting proposals by
    (drop, MTD, value, RB) puts each contested MTD's winner first in its
    group. Returns the (D, N) array of each RB's MTD (-1: none) and the (D, N)
    array of its value (0 where none).
    """
    n_drops, n_rb, k = source.shape
    assigned = np.full((n_drops, n_rb), -1)
    value = np.zeros((n_drops, n_rb))
    claimed = np.zeros((n_drops, k), dtype=bool)
    drop, rb = np.divmod(np.arange(n_drops * n_rb), n_rb)
    while drop.size:
        mtd, val = source.next(drop, rb, claimed)
        order = np.lexsort((rb, val, mtd, drop))
        d, m = drop[order], mtd[order]
        win = order[(np.diff(d, prepend=-1) != 0) | (np.diff(m, prepend=-1) != 0)]
        assigned[drop[win], rb[win]] = mtd[win]
        value[drop[win], rb[win]] = val[win]
        claimed[drop[win], mtd[win]] = True
        live = ~claimed.all(axis=1)[drop]  # losers with a free MTD, in (drop, RB) order
        live[win] = False
        drop, rb = drop[live], rb[live]
    return assigned, value


class Race:
    """Proposals of a (D, N, K) block of independent entries
    X[d, n, k] ~ Exp(rates[d, k]), drawn when the matcher asks for them.

    ``rates`` is (K,), shared by every drop, or (D, K). A row proposes again
    only after its last proposal's MTD was claimed, and its other entries
    are then known only to exceed that proposal, so its least entry over its
    drop's unclaimed MTDs is the last proposal (0 at first) plus Exp(sum of
    the unclaimed rates), at unclaimed MTD k with probability rate_k over
    that sum (memorylessness and competing exponentials; Renyi, Acta Math.
    Hung. 4, 1953). Each :meth:`next` call draws, from ``rng``, one Exp(1)
    per row asked and then one uniform per row asked, in the order of the
    rows given (the matcher gives them in (drop, RB) order).
    """

    def __init__(self, rates, n_drops: int, n_rb: int, rng: np.random.Generator):
        rates = np.asarray(rates, dtype=float)
        self.shape = (n_drops, n_rb, rates.shape[-1])
        self._rates = np.broadcast_to(rates, (n_drops, rates.shape[-1]))
        # rates shared by every drop: one cumulative serves each drop with
        # nothing claimed yet
        self._shared_cum = rates.cumsum() if rates.ndim == 1 else None
        self._rng = rng
        self._last = np.zeros((n_drops, n_rb))

    def next(self, drop, rb, claimed):
        """(MTD, value) of the least entry of each row (drop, rb) over its
        drop's MTDs not ``claimed``."""
        k = self.shape[2]
        e = self._rng.standard_exponential(drop.size)
        u = self._rng.random(drop.size)
        if self._shared_cum is None:
            pick, free = self._search(drop, u, claimed)
        else:
            own = claimed.any(axis=1)[drop]  # rows whose drop has a claimed MTD
            pick = self._shared_cum.searchsorted(u * self._shared_cum[-1], side="right")
            free = np.full(drop.size, self._shared_cum[-1])
            if own.any():
                pick[own], free[own] = self._search(drop[own], u[own], claimed)
        end = np.flatnonzero(pick == k)
        if end.size:  # a target rounded to the row's end: its last free MTD
            pick[end] = k - 1 - np.argmin(claimed[drop[end], ::-1], axis=1)
        value = self._last[drop, rb] + e / free
        self._last[drop, rb] = value
        return pick, value

    def _search(self, drop, u, claimed):
        """Each row's pick (k where the target rounds to its row's end) and
        free rate, from a cumulative of its drop's free rates."""
        k = self.shape[2]
        at, row = np.unique(drop, return_inverse=True)  # the drops asked
        # the i-th drop asked has keys i + 1j * (its cumulative free rates),
        # filled in place. numpy orders complex numbers by real part, then
        # imaginary, so one search finds each row's pick: the first MTD of
        # its drop whose cumulative free rate passes the target u * free. A
        # claimed MTD adds nothing, so it never passes first.
        key = np.empty((at.size, k), dtype=complex)
        cum = key.imag
        cum[...] = self._rates[at]
        cum[claimed[at]] = 0.0
        cum.cumsum(axis=1, out=cum)
        key.real = np.arange(at.size)[:, None]
        free = cum[row, -1]
        pick = key.ravel().searchsorted(row + 1j * (u * free), side="right") - row * k
        return pick, free


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
