"""Cell geometry, node placement, and path loss.

The base station sits at the origin of a disk cell. A machine-type aggregator
(MTA) is placed uniformly in the cell and serves a cluster of machine-type
devices (MTDs) around it; the cellular user (CU) is redrawn every drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SimConfig

#: attempts before declaring a rejection-sampling region infeasible
_MAX_REJECTION_TRIES = 100_000


class GeometryError(ValueError):
    """Geometry outside the model's domain of validity."""


@dataclass(frozen=True)
class Position:
    """Planar position in meters; the base station is the origin."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    @property
    def r(self) -> float:
        """Distance from the base station."""
        return math.hypot(self.x, self.y)


#: the base station anchors the coordinate system
BS_POSITION = Position(0.0, 0.0)


@dataclass
class Deployment:
    """Node placement for one experiment: fixed MTA/MTD positions, per-drop CU.

    MTD distances to the BS and to the MTA are computed once, at construction,
    and shared read-only by every drop; positions are not to be changed after.
    """

    bs: Position
    mta: Position
    mtds: list[Position]

    def __post_init__(self):
        self._bs_d = _read_only([p.r for p in self.mtds])
        self._mta_d = _read_only([p.distance_to(self.mta) for p in self.mtds])
        self._gains: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_mtds(self) -> int:
        return len(self.mtds)

    def mtd_bs_distances(self) -> np.ndarray:
        return self._bs_d

    def mtd_mta_distances(self) -> np.ndarray:
        return self._mta_d

    def mtd_gains(self, min_distance_m: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean power gains of the MTD-to-BS and MTD-to-MTA links, the MTA
        distances floored at ``min_distance_m``; computed once per floor."""
        if min_distance_m not in self._gains:
            d_mta = np.maximum(self._mta_d, min_distance_m)
            gains = linear_gain(self._bs_d, min_distance_m), linear_gain(d_mta, min_distance_m)
            self._gains[min_distance_m] = gains
        return self._gains[min_distance_m]

    def subset(self, k: int) -> "Deployment":
        """First-k slice of the MTD cluster (nested K sweeps)."""
        if not 1 <= k <= self.n_mtds:
            raise ValueError(f"k must be in [1, {self.n_mtds}], got {k}")
        return Deployment(bs=self.bs, mta=self.mta, mtds=self.mtds[:k])


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def linear_gain(distance_m, min_distance_m: float = 10.0):
    """Average channel power gain g = 10^(-PL/10) for one or many distances."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < min_distance_m):
        raise GeometryError(
            f"distance below model floor {min_distance_m} m: {d[d < min_distance_m]}"
        )
    pl_db = 128.1 + 36.7 * np.log10(d / 1000.0)
    return 10.0 ** (-pl_db / 10.0)


def _sample_disk(center: Position, radius: float, rng: np.random.Generator) -> Position:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Position(center.x + r * math.cos(theta), center.y + r * math.sin(theta))


def sample_deployment(config: SimConfig, rng: np.random.Generator) -> Deployment:
    """Draw the MTA uniformly in the cell and ``config.k`` MTDs in its cluster.

    MTDs are uniform in the disk of radius ``mta_cluster_radius_m`` around the
    MTA, constrained to the cell and to the minimum BS distance (rejection
    sampling). The CU is not placed here; it moves every drop.
    """
    config.validate()
    mta = _rejection_sample(
        lambda: _sample_disk(BS_POSITION, config.cell_radius_m, rng),
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
    return Deployment(bs=BS_POSITION, mta=mta, mtds=mtds)


def sample_cu_position(
    config: SimConfig, mta: Position, rng: np.random.Generator
) -> Position:
    """Uniform CU position: in-cell, >= min distance from the BS, and outside
    the ``cu_mta_exclusion_m`` disk around the MTA."""
    return _rejection_sample(
        lambda: _sample_disk(BS_POSITION, config.cell_radius_m, rng),
        lambda p: (
            p.r >= config.min_distance_m
            and p.distance_to(mta) >= config.cu_mta_exclusion_m
        ),
        "CU placement",
    )


def _rejection_sample(draw, accept, what: str) -> Position:
    for _ in range(_MAX_REJECTION_TRIES):
        p = draw()
        if accept(p):
            return p
    raise ConfigError(
        f"{what}: no feasible position found in {_MAX_REJECTION_TRIES} draws; "
        f"the configured geometry leaves (almost) no admissible region"
    )
