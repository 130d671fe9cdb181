"""Link-level formulas: MRC beamforming, SINR, throughput, outage tests.

Conventions: a beamformer ``w`` is applied to a channel ``h`` as the plain
(bilinear) inner product ``w @ h`` — conjugation is baked into ``w`` itself,
so MRC weights are ``conj(h_c)`` and ``w @ h_c == ||h_c||^2``. All functions
broadcast over leading axes; the antenna axis is last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateChannelError(ValueError):
    """Zero-norm channel where a direction is required."""


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


def interference_criterion(eff_interference, delta_i):
    """True where interference is harmless: strictly below ``delta_i``."""
    return np.asarray(eff_interference) < np.asarray(delta_i)
