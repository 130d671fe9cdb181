"""Link-level formulas: link budget, MTA SINR, throughput, outage tests.

All functions broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def throughput(sinrs, rb_bandwidth_hz: float):
    """Shannon sum rate over resource blocks (the last axis):
    sum_n B log2(1 + SINR_n), bit/s; a float for one drop's SINR vector."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise ValueError("SINR must be nonnegative")
    rates = rb_bandwidth_hz * np.log2(1.0 + sinrs)
    return float(np.sum(rates)) if rates.ndim < 2 else np.sum(rates, axis=-1)


def outage_indicator(sinr, threshold):
    """True where the link is in outage: SINR <= threshold (boundary counts)."""
    return np.asarray(sinr) <= np.asarray(threshold)
