"""Statistical equivalence of the drop kernel and the vector-channel engine.

``mtc_underlay.run_drop`` draws the sufficient statistics of the Rayleigh
channels; ``oracles.run_drop_vector`` draws the antenna-level channels and
combines them. On a fixed deployment, with the engines on disjoint seeds, their
outputs must agree in distribution, and the oracle's own statistics must follow
the laws the kernel samples from. The kernel runs as the experiments run it,
on the chunk streams of RNG contract 3; the oracle keeps one stream per drop
and its own one-candidate-at-a-time CU sampler, so it shares no sampling code
with the kernel.

Run as a script for the paper-scale comparison (10^4 drops per engine at the
CLI's default K sweeps of ``single-rb`` and ``throughput``; a few minutes):

    PYTHONPATH=src python tests/test_equivalence.py
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mtc_underlay import SimConfig, sample_deployment
from mtc_underlay.montecarlo import _NS_DEPLOYMENT, _concat, _generator, _run_drops
from oracles import run_drop_vector, vector_channel_statistics

#: root seeds of the deployment and of each engine's drops (disjoint streams)
_DEPLOYMENT_SEED, _KERNEL_SEED, _ORACLE_SEED = 1, 2, 3
_DROPS = 2000
_PAPER_DROPS = 10_000
#: drops per oracle call
_BLOCK = 100
_KS_P_MIN = 1e-3
_Z_MAX = 1.96
#: namespaces of the oracle's per-drop streams, keyed (seed, namespace, drop)
_NS_ORACLE_DROP, _NS_ORACLE_BASELINE = 1, 2


def _deployment(cfg: SimConfig, k: int):
    return sample_deployment(replace(cfg, k=k), _generator(_DEPLOYMENT_SEED, _NS_DEPLOYMENT))


def _run_kernel(cfg, deployment, seed, n_drops, with_baseline):
    """Every drop's outputs, drop axis first, as the experiments run them."""
    return _run_drops(replace(cfg, seed=seed, n_drops=n_drops), deployment, None, with_baseline)


def _run_oracle(cfg, deployment, seed, n_drops, with_baseline):
    """Every drop's outputs, drop axis first, ``_BLOCK`` drops per call."""
    parts = []
    for lo in range(0, n_drops, _BLOCK):
        ids = range(lo, min(lo + _BLOCK, n_drops))
        parts.append(run_drop_vector(
            cfg,
            deployment,
            [_generator(seed, _NS_ORACLE_DROP, i) for i in ids],
            [_generator(seed, _NS_ORACLE_BASELINE, i) for i in ids] if with_baseline else None,
        ))
    return _concat(parts)


def _z(a: np.ndarray, b: np.ndarray) -> float:
    """Difference of two sample means over the standard error of the difference."""
    se = math.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
    diff = abs(float(np.mean(a) - np.mean(b)))
    return 0.0 if diff == 0.0 else diff / se


def compare_engines(cfg: SimConfig, deployment, n_drops: int, with_baseline=False) -> dict:
    """Per-drop outputs of both engines, compared.

    The SINR sample takes one RB per drop, rotating over the RBs, so that its
    values are independent (RBs of one drop share the CU position). Outage is
    the per-drop fraction of RBs in outage; throughput is the per-drop sum.
    """
    n_rb = cfg.n_rb
    out = {}
    samples = {}
    for name, engine, seed in (
        ("kernel", _run_kernel, _KERNEL_SEED),
        ("oracle", _run_oracle, _ORACLE_SEED),
    ):
        drops = engine(cfg, deployment, seed, n_drops, with_baseline)
        i = np.arange(n_drops)
        samples[name] = {
            "sinr_db": drops.sinr_db[i, i % n_rb],
            "outage": drops.outage.mean(axis=1),
            "throughput": drops.throughput_bps,
        }
        if with_baseline:
            samples[name]["baseline"] = drops.baseline_throughput_bps
    kernel, oracle = samples["kernel"], samples["oracle"]
    out["ks_p"] = float(stats.ks_2samp(kernel["sinr_db"], oracle["sinr_db"]).pvalue)
    for key in kernel.keys() - {"sinr_db"}:
        out[key] = (float(np.mean(kernel[key])), float(np.mean(oracle[key])),
                    _z(kernel[key], oracle[key]))
    return out


@pytest.mark.parametrize(
    "n_rb, k, mode, with_baseline",
    [(1, 10, "fixed", False), (1, 10, "controlled", False), (20, 50, "fixed", True)],
)
def test_kernel_matches_vector_engine(n_rb, k, mode, with_baseline):
    cfg = SimConfig(n_rb=n_rb, k=k, mtd_power_mode=mode)
    result = compare_engines(cfg, _deployment(cfg, k), _DROPS, with_baseline)
    assert result["ks_p"] > _KS_P_MIN, result
    keys = ("outage", "throughput") + (("baseline",) if with_baseline else ())
    for key in keys:
        assert result[key][2] < _Z_MAX, (key, result)


def test_vector_channel_statistics_follow_kernel_laws():
    # ||h_c||^2 / g_c ~ Gamma(M, 1) and |u^H h_k|^2 / g_k ~ Exp(1), as drawn
    # by the oracle's own antenna-level channels and unit-norm MRC combiner
    cfg = SimConfig(n_rb=20, k=50)
    deployment = _deployment(cfg, 50)
    cu_gain, proj = zip(
        *(
            vector_channel_statistics(cfg, deployment, _generator(_ORACLE_SEED, _NS_ORACLE_DROP, i))
            for i in range(500)
        )
    )
    cu_gain, proj = np.concatenate(cu_gain), np.concatenate(proj).ravel()
    assert cu_gain.size == 500 * 20 and proj.size == 500 * 20 * 50
    assert stats.kstest(cu_gain, stats.gamma(cfg.antennas).cdf).pvalue > _KS_P_MIN
    assert stats.kstest(proj, stats.expon().cdf).pvalue > _KS_P_MIN


def _paper_scale(n_drops: int) -> None:
    """Both engines at the CLI's default single-rb and throughput sweeps."""
    sweeps = (
        ("single-rb", SimConfig(n_rb=1), [1, 10, 100, 1000], False),
        ("throughput", SimConfig(), [20, 50, 100, 200, 500, 1000], True),
    )
    for name, cfg, ks, with_baseline in sweeps:
        full = _deployment(cfg, ks[-1])
        for k in ks:
            r = compare_engines(replace(cfg, k=k), full.subset(k), n_drops, with_baseline)
            cells = [f"KS p={r['ks_p']:.3f}"]
            for key in ("outage", "throughput", "baseline"):
                if key in r:
                    a, b, z = r[key]
                    cells.append(f"{key} {a:.6g} vs {b:.6g} (z={z:.2f})")
            print(f"{name} K={k}: " + "; ".join(cells), flush=True)


if __name__ == "__main__":
    _paper_scale(_PAPER_DROPS)
