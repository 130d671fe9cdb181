"""Statistical equivalence of the drop kernel and the vector-channel engine.

``mtc_underlay.run_drop`` draws the sufficient statistics of the Rayleigh
channels; ``oracles.run_drop_vector`` draws the antenna-level channels and
combines them. On a fixed deployment, with the engines on disjoint seeds, their
outputs must agree in distribution, and the oracle's own statistics must follow
the laws the kernel samples from. The kernel runs as the experiments run it,
on the chunk streams of RNG contract 3; the oracle keeps one stream per drop
and its own one-candidate-at-a-time CU sampler, so it shares no sampling code
with the kernel.

All comparisons of all configurations form one family of hypotheses, tested
with Holm's step-down procedure (Holm, Scand. J. Statist. 6, 1979) at
family-wise level ``_ALPHA``: a correct engine fails the file with
probability at most ``_ALPHA``, whatever its streams. ``_DROPS`` is set so
that an engine drawing the projections as Gamma(2)/2 (right mean, wrong law)
still fails every configuration.

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
#: family-wise error rate of the engine comparison, fixed before any result
_ALPHA = 0.05
#: (n_rb, k, power mode, with_baseline) of each compared configuration
_CASES = [(1, 10, "fixed", False), (1, 10, "controlled", False), (20, 50, "fixed", True)]
_KS_P_MIN = 1e-3
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


def _z_test_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided p-value of the difference of two sample means, over the
    standard error of the difference (normal approximation)."""
    se = math.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
    diff = abs(float(np.mean(a) - np.mean(b)))
    return 1.0 if diff == 0.0 else math.erfc(diff / se / math.sqrt(2.0))


def holm_rejected(p_values: dict, alpha: float) -> set:
    """Keys of the hypotheses Holm's step-down procedure rejects at
    family-wise level ``alpha``: the i-th smallest of m p-values is rejected
    while it and all smaller ones are at most alpha / (m - i), i from 0."""
    ordered = sorted(p_values, key=p_values.get)
    rejected = set()
    for i, key in enumerate(ordered):
        if p_values[key] > alpha / (len(ordered) - i):
            break
        rejected.add(key)
    return rejected


def compare_engines(cfg: SimConfig, deployment, n_drops: int, with_baseline=False) -> dict:
    """Per-drop outputs of both engines, compared: p-values keyed by output.

    ``sinr_db`` is a two-sample KS test of per-RB SINRs; the SINR sample
    takes one RB per drop, rotating over the RBs, so that its values are
    independent (RBs of one drop share the CU position). Every other key is
    a two-sided z-test of the difference of per-drop means: ``outage``, the
    per-drop fraction of RBs in outage, ``throughput``, the per-drop sum, and
    ``baseline``, the random assignment's throughput.
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
    out["sinr_db"] = float(stats.ks_2samp(kernel["sinr_db"], oracle["sinr_db"]).pvalue)
    for key in sorted(kernel.keys() - {"sinr_db"}):
        out[key] = _z_test_p(kernel[key], oracle[key])
    return out


def family_p_values(n_drops: int) -> dict:
    """Every comparison of every case in ``_CASES``, keyed (case, output)."""
    family = {}
    for case in _CASES:
        n_rb, k, mode, with_baseline = case
        cfg = SimConfig(n_rb=n_rb, k=k, mtd_power_mode=mode)
        p_values = compare_engines(cfg, _deployment(cfg, k), n_drops, with_baseline)
        family.update(((case, key), p) for key, p in p_values.items())
    return family


@pytest.fixture(scope="module")
def family():
    return family_p_values(_DROPS)


@pytest.mark.parametrize("n_rb, k, mode, with_baseline", _CASES)
def test_kernel_matches_vector_engine(family, n_rb, k, mode, with_baseline):
    case = (n_rb, k, mode, with_baseline)
    rejected = {key for c, key in holm_rejected(family, _ALPHA) if c == case}
    assert not rejected, (rejected, {key: p for (c, key), p in family.items() if c == case})


def test_holm_rejects_step_down():
    # m = 4: thresholds 0.0125, 0.0167, 0.025, 0.05 for the sorted p-values
    p = {"a": 0.01, "b": 0.016, "c": 0.03, "d": 0.04}
    assert holm_rejected(p, 0.05) == {"a", "b"}
    assert holm_rejected({**p, "a": 0.013}, 0.05) == set()
    assert holm_rejected({"a": 0.04, "b": 0.04}, 0.05) == set()
    assert holm_rejected({"a": 0.02, "b": 0.05}, 0.05) == {"a", "b"}


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
            print(f"{name} K={k}: " + "; ".join(f"{key} p={p:.3f}" for key, p in r.items()),
                  flush=True)


if __name__ == "__main__":
    _paper_scale(_PAPER_DROPS)
