"""Link-level scoring: throughput and the outage test.

All functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np


def throughput(sinrs, rb_bandwidth_hz: float):
    """Shannon sum rate over resource blocks (the last axis):
    sum_n B log2(1 + SINR_n), bit/s."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise ValueError("SINR must be nonnegative")
    return np.sum(rb_bandwidth_hz * np.log2(1.0 + sinrs), axis=-1)


def outage_indicator(sinr, threshold):
    """True where the link is in outage: SINR <= threshold (boundary counts)."""
    return np.asarray(sinr) <= np.asarray(threshold)
