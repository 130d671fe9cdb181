"""Cell geometry, node placement, and path loss.

The base station sits at the origin of a disk cell. A machine-type aggregator
(MTA) is placed uniformly in the cell and serves a cluster of machine-type
devices (MTDs) around it; the cellular user (CU) is redrawn every drop.
Positions are arrays of (x, y) coordinates in meters; every placement draws
from one vectorised disk-rejection sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# loaded with the package, not at the first draw in main: numpy.random is about
# 4 MB with the OpenSSL that `secrets` pulls in, so a run reaches its working
# size while it imports
from numpy.random import Generator

from .config import ConfigError, SimConfig

#: candidates in a row that may miss before a placement region counts as infeasible
_MAX_REJECTION_TRIES = 100_000


class GeometryError(ValueError):
    """Geometry outside the model's domain of validity."""


@dataclass(eq=False)
class Deployment:
    """Node placement for one experiment: the MTA at ``mta`` = (x, y) and the
    K MTDs as the rows of the (K, 2) array ``mtds``; the CU moves every drop.

    MTD distances to the BS and to the MTA are computed once, at construction,
    and shared read-only by every drop; positions are not to be changed after.
    """

    mta: tuple[float, float]
    mtds: np.ndarray

    def __post_init__(self):
        x, y = self.mtds.T
        self._bs_d = _read_only(_hypot(x, y))
        self._mta_d = _read_only(_hypot(x - self.mta[0], y - self.mta[1]))

    @property
    def n_mtds(self) -> int:
        return len(self.mtds)

    def mtd_bs_distances(self) -> np.ndarray:
        return self._bs_d

    def mtd_mta_distances(self) -> np.ndarray:
        return self._mta_d

    def subset(self, k: int) -> "Deployment":
        """First-k slice of the MTD cluster (nested K sweeps)."""
        if not 1 <= k <= self.n_mtds:
            raise ValueError(f"k must be in [1, {self.n_mtds}], got {k}")
        return Deployment(mta=self.mta, mtds=self.mtds[:k])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, whose values the deployment's distances
    keep: ``np.hypot`` differs from it in the last bit."""
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())), dtype=float)


def linear_gain(distance_m, min_distance_m: float = 10.0):
    """Average channel power gain g = 10^(-PL/10) for one or many distances."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < min_distance_m):
        raise GeometryError(
            f"distance below model floor {min_distance_m} m: {d[d < min_distance_m]}"
        )
    pl_db = 128.1 + 36.7 * np.log10(d / 1000.0)
    return 10.0 ** (-pl_db / 10.0)


def _sample_disk(rng, n, center, radius, accept, what: str, grow=False) -> np.ndarray:
    """The first ``n`` admissible of uniform candidates in the disk of
    ``radius`` around ``center``, as rows (r, x, y) of a (3, n) array, r the
    distance to ``center``.

    Candidates are rows (radius, angle) of ``rng.random``, the order in which
    a one-at-a-time sampler draws them, and ``accept(r, x, y)`` marks the
    admissible ones. A batch holds exactly the points still needed, so the
    sampler consumes the candidates a one-at-a-time sampler consumes. With
    ``grow`` (the CU sampler of RNG contract 3) batches double while every
    candidate misses, which may draw past the last point. Raises ConfigError
    once ``_MAX_REJECTION_TRIES`` candidates in a row miss.
    """
    parts, got, misses = [], 0, 0
    while got < n:
        if misses >= _MAX_REJECTION_TRIES:
            raise ConfigError(
                f"{what}: {misses} candidate positions in a row rejected; "
                f"the configured geometry leaves (almost) no admissible region"
            )
        u = rng.random((max(n - got, misses) if grow else n - got, 2))
        r = radius * np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
        points = np.stack([r, center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])
        hits = np.flatnonzero(accept(*points))
        misses = misses + len(u) if hits.size == 0 else len(u) - 1 - hits[-1]
        parts.append(points[:, hits])
        got += hits.size
    return np.concatenate(parts, axis=1)[:, :n]


def sample_deployment(config: SimConfig, rng: Generator) -> Deployment:
    """Draw the MTA uniformly in the cell and ``config.k`` MTDs in its cluster.

    The MTA is at least the minimum distance from the BS; MTDs are uniform in
    the disk of radius ``mta_cluster_radius_m`` around the MTA, constrained to
    the cell and to the minimum BS distance (rejection sampling, the MTA's
    candidates first). The CU is not placed here; it moves every drop.
    """
    config.validate()
    lo, hi = config.min_distance_m, config.cell_radius_m
    _, x, y = _sample_disk(
        rng, 1, (0.0, 0.0), hi, lambda r, x, y: _hypot(x, y) >= lo, "MTA placement"
    )[:, 0]
    mta = (float(x), float(y))

    def in_cell(r, x, y):
        d = _hypot(x, y)
        return (d <= hi) & (d >= lo)

    mtds = _sample_disk(rng, config.k, mta, config.mta_cluster_radius_m, in_cell, "MTD placement")
    return Deployment(mta=mta, mtds=_read_only(mtds[1:].T.copy()))


def sample_cu_position(
    config: SimConfig, mta: tuple[float, float], rng: Generator, n: int
) -> np.ndarray:
    """Distances to the BS of ``n`` uniform CU positions: in-cell, >= min
    distance from the BS, and outside the ``cu_mta_exclusion_m`` disk around
    the MTA at ``mta`` = (x, y). Rejection sampling with the batches of RNG
    contract 3, which double while every candidate misses; raises
    ConfigError when the admissible region is (almost) empty."""

    def admissible(r, x, y):
        to_mta = np.hypot(x - mta[0], y - mta[1])
        return (r >= config.min_distance_m) & (to_mta >= config.cu_mta_exclusion_m)

    return _sample_disk(
        rng, n, (0.0, 0.0), config.cell_radius_m, admissible, "CU placement", grow=True
    )[0]
