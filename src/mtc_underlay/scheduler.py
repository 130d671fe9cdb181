"""Conflict-free min-interference assignment across resource blocks, and
power control.

A block of D drops has, per drop, RB and MTD, the post-combiner
interference the MTD would inject on the RB: a (D, N, K) block of rows, one
row per (drop, RB). Each RB wants the MTD it hears least; conflicts are
settled in favor of the RB that hears its claimed MTD at lower power, and
losers move on to their next-quietest unclaimed MTD. The matcher reads each
row only in ascending order, from a *source* of order statistics, and the
runtime's source, :class:`Race`, draws them one at a time instead of the
block. Power control reads the drawn link gains |h|^2 directly.
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

    ``source`` serves the rows of a (D, N, K) block in ascending order:
    ``source.shape`` is (D, N, K), and ``source.next(drop, rb)`` returns, for
    each of the given distinct rows, the MTD and value of its smallest entry
    not yet served (MTD K and value inf once the row is spent). A row's served
    entries are all claimed when it reads on, so its first unclaimed entry is
    its proposal. The rounds run over all active (drop, RB) pairs at once, in
    (drop, RB) order, and sorting claims by (drop, MTD, value, RB) puts each
    contested MTD's winner first in its group. Returns the (D, N) array of
    each RB's MTD (-1: none) and the (D, N) array of its value (0 where none).
    """
    n_drops, n_rb, k = source.shape
    assigned = np.full((n_drops, n_rb), -1)
    value = np.zeros((n_drops, n_rb))
    claimed = np.zeros((n_drops, k + 1), dtype=bool)  # column K: a spent row
    drop, rb = np.divmod(np.arange(n_drops * n_rb), n_rb)
    while drop.size:
        mtd = np.empty(drop.size, dtype=np.intp)
        val = np.empty(drop.size)
        look = np.arange(drop.size)  # rows whose last read MTD is claimed
        while look.size:
            mtd[look], val[look] = source.next(drop[look], rb[look])
            look = look[claimed[drop[look], mtd[look]]]
        live = mtd < k  # a spent row finds every MTD claimed and stays empty
        order = np.flatnonzero(live)
        order = order[np.lexsort((rb[order], val[order], mtd[order], drop[order]))]
        d, m = drop[order], mtd[order]
        win = order[(np.diff(d, prepend=-1) != 0) | (np.diff(m, prepend=-1) != 0)]
        assigned[drop[win], rb[win]] = mtd[win]
        value[drop[win], rb[win]] = val[win]
        claimed[drop[win], mtd[win]] = True
        live[win] = False  # the losers read on, still in (drop, RB) order
        drop, rb = drop[live], rb[live]
    return assigned, value


class Race:
    """Order statistics of a (D, N, K) block of independent entries
    X[d, n, k] ~ Exp(rates[d, k]), drawn lazily, row by row.

    ``rates`` is (K,), shared by every drop, or (D, K). Given the entries a
    row has served, its next order statistic is the last one plus
    Exp(sum of its unserved rates), and it belongs to unserved MTD k with
    probability rate_k over that sum (memorylessness and competing
    exponentials; Renyi, Acta Math. Hung. 4, 1953). Each :meth:`next` call
    draws, from ``rng``, one Exp(1) per row read and then one uniform per row
    read, in the order of the rows given (the matcher gives them in (drop,
    RB) order); spent rows draw nothing. The pick is exact with one uniform:
    its target on the row's cumulative rates steps over the intervals of the
    MTDs the row has served.
    """

    def __init__(self, rates, n_drops: int, n_rb: int, rng: np.random.Generator):
        self._rates = rates = np.asarray(rates, dtype=float)
        k = rates.shape[-1]
        self.shape = (n_drops, n_rb, k)
        self._rng = rng
        self._per_drop = rates.ndim == 2
        # the drops' cumulative rates, one increasing array after a leading 0:
        # MTD k of rate row d owns [edge[d K + k], edge[d K + k + 1])
        self._edge = np.concatenate(([0.0], np.cumsum(rates)))
        total = self._edge[k::k] - self._edge[:-1:k]
        self._floor = np.finfo(float).eps * total  # rounding floor of a row's rate
        rows = n_drops * n_rb
        self._last = np.zeros(rows)
        self._rem = np.repeat(np.broadcast_to(total, (n_drops,)), n_rb)
        self._count = np.zeros(rows, dtype=np.intp)
        self._held = np.full((rows, 1), k)  # served MTDs per row, K-padded
        self._vals = np.zeros((rows, 1))

    def next(self, drop, rb):
        """(MTD, value) of the next order statistic of each row (drop, rb)."""
        k = self.shape[2]
        r = drop * self.shape[1] + rb
        count = self._count[r]
        if (count == k).any():  # spent rows draw nothing and serve MTD K at inf
            mtd, val = np.full(r.size, k), np.full(r.size, np.inf)
            live = np.flatnonzero(count < k)
            mtd[live], val[live] = self.next(drop[live], rb[live])
            return mtd, val
        row = drop if self._per_drop else 0  # the rows' rates: their drop's, or shared
        e = self._rng.standard_exponential(r.size)
        u = self._rng.random(r.size)
        rem = self._rem[r]
        value = self._last[r] + e / rem
        target = self._edge[row * k] + u * rem
        width = count.max(initial=0)
        if width:
            # the served intervals in cumulative order, a K pad being empty at
            # the row's end; the target steps over each one that starts at or
            # below it once it has stepped over the ones before, i.e. those
            # whose start less the widths before it, a nondecreasing
            # sequence, is at or below the target
            held = np.sort(self._held[r, :width], axis=1)
            at = np.asarray(row * k)[..., None] + held
            start = self._edge[at]
            before = np.zeros((r.size, width + 1))
            (self._edge[at + (held < k)] - start).cumsum(axis=1, out=before[:, 1:])
            steps = (start - before[:, :-1] <= target[:, None]).sum(axis=1)
            target += before[np.arange(r.size), steps]
        pick = self._edge.searchsorted(target, side="right") - 1 - row * k
        bad = pick >= k
        if width:
            bad |= (held == np.minimum(pick, k - 1)[:, None]).any(axis=1)
        for i in np.flatnonzero(bad):  # rounding put the target off every free interval
            free = np.setdiff1d(np.arange(k), self._held[r[i]])
            pick[i] = free[min(np.searchsorted(free, pick[i]), free.size - 1)]
        self._serve(r, row, pick, value, count, width)
        return pick, value

    def _serve(self, r, row, pick, value, slot, width):
        """Record each row's served MTD and value in its next slot; ``slot``
        is each row's served count, ``width`` their largest."""
        if width == self._held.shape[1]:  # double the served slots per row
            held = np.full((len(self._held), 2 * width), self.shape[2])
            vals = np.zeros(held.shape)
            held[:, :width], vals[:, :width] = self._held, self._vals
            self._held, self._vals = held, vals
        self._held[r, slot] = pick
        self._vals[r, slot] = value
        self._count[r] += 1
        self._last[r] = value
        at = row * self.shape[2] + pick
        rem = self._rem[r] - (self._edge[at + 1] - self._edge[at])
        self._rem[r] = np.maximum(rem, self._floor[row])

    def values(self, mtd, rng: np.random.Generator) -> np.ndarray:
        """Entries X[d, n, mtd[d, n]] of the first ``mtd.shape[1]`` RBs of
        every drop: as served where the row served that MTD, otherwise the
        row's last value plus Exp(rate) (memorylessness), one Exp(1) from
        ``rng`` per such entry in (drop, RB) order."""
        drop, rb = np.divmod(np.arange(mtd.size), mtd.shape[1])
        r = drop * self.shape[1] + rb
        m = mtd.ravel()
        hit = self._held[r] == m[:, None]
        out = np.sum(np.where(hit, self._vals[r], 0.0), axis=1)
        fresh = np.flatnonzero(~hit.any(axis=1))
        rate = self._rates[drop[fresh], m[fresh]] if self._per_drop else self._rates[m[fresh]]
        out[fresh] = self._last[r[fresh]] + rng.standard_exponential(fresh.size) / rate
        return out.reshape(mtd.shape)


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
