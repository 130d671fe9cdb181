"""Statistical equivalence of the drop kernel and the vector-channel engine.

The drop kernel matches on the interference drawn as the matcher's
proposals, chunk by chunk and block by block; ``oracles.run_drop_vector`` draws the
antenna-level channels, combines them and matches on the whole matrix. On a
fixed deployment, with the engines on disjoint seeds, their outputs must
agree in distribution, and the oracle's own statistics must follow the laws
the kernel samples from. The kernel runs as the experiments run it, on the
chunk streams of the RNG contract; the oracle keeps one stream per drop and its
own one-candidate-at-a-time CU sampler, so it shares no sampling code with
the kernel.

All comparisons of all configurations in ``_CASES`` form one family of
hypotheses, tested with Holm's step-down procedure (Holm, Scand. J. Statist.
6, 1979) at family-wise level ``_ALPHA``: a correct engine fails it with
probability at most ``_ALPHA``, whatever its streams. The kernel runs
``_DROPS`` drops, set so that an engine drawing the projections as
Gamma(2)/2 (right mean, wrong law) still fails every configuration, and the
oracle ``_ORACLE_DROPS``: a larger reference sample is less likely to be an
atypical one that every kernel seed is measured against. ``_EDGE_CASES`` are
a second family, at ``_EDGE_ALPHA``, where the matching runs longest: K = N,
where late RBs propose again and again over a shrinking pool of free MTDs,
and K < N, where drops run out of MTDs.

Run as a script for the paper-scale comparison (10^4 drops per engine at the
CLI's default K sweeps of ``single-rb`` and ``throughput``; a few minutes),
against the vector-channel engine or, with ``--against DIR``, against the
``_run_drops`` of the package in ``DIR/src``, for example another commit
unpacked with ``git archive``. Against another package the family also holds
one two-proportion z test per K of ``verify_asymptotic`` at 10^4 samples and
the CLI's default ``asymptotic`` K sweep, the rows that read 1.0 in both
packages left out as constant outputs:

    PYTHONPATH=src python tests/test_equivalence.py
    PYTHONPATH=src python tests/test_equivalence.py --against DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mtc_underlay import DropResult, SimConfig, sample_deployment, verify_asymptotic
from mtc_underlay.montecarlo import _NS_DEPLOYMENT, _concat, _generator, _run_drops
from oracles import holm_rejected, run_drop_vector, vector_channel_statistics

#: root seeds of the deployment and of each engine's drops (disjoint streams)
#: (the kernel's was 2 up to RNG contract 3; CHANGES.md says why it moved)
_DEPLOYMENT_SEED, _KERNEL_SEED, _ORACLE_SEED = 1, 4, 3
_DROPS = 2000
_ORACLE_DROPS = 4 * _DROPS
_PAPER_DROPS = 10_000
#: drops per oracle call
_BLOCK = 100
#: family-wise error rate of the engine comparison, fixed before any result
_ALPHA = 0.05
#: (n_rb, k, power mode, with_baseline) of each compared configuration
_CASES = [(1, 10, "fixed", False), (1, 10, "controlled", False), (20, 50, "fixed", True)]
#: family-wise error rate of the edge-case family, fixed before any result
_EDGE_ALPHA = 0.05
#: (n_rb, k, power mode, with_baseline) of the matching's edge cases: K = N, K < N
_EDGE_CASES = [(20, 20, "fixed", True), (20, 5, "controlled", False)]
_KS_P_MIN = 1e-3
#: namespaces of the oracle's per-drop streams, keyed (seed, namespace, drop)
_NS_ORACLE_DROP, _NS_ORACLE_BASELINE = 1, 2


def _deployment(cfg: SimConfig, k: int):
    return sample_deployment(replace(cfg, k=k), _generator(_DEPLOYMENT_SEED, _NS_DEPLOYMENT))


def _run_kernel(cfg, deployment, seed, n_drops, with_baseline):
    """Every drop's outputs, drop axis first, as the experiments run them."""
    return _run_drops(replace(cfg, seed=seed, n_drops=n_drops), deployment,
                      with_baseline=with_baseline)


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
    standard error of the difference (normal approximation); 0 when both
    samples are constant but differ."""
    se = math.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
    diff = abs(float(np.mean(a) - np.mean(b)))
    if diff == 0.0:
        return 1.0
    return 0.0 if se == 0.0 else math.erfc(diff / se / math.sqrt(2.0))


def _two_proportion_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-sided p-value of the pooled two-proportion z test of x1 of n1
    against x2 of n2 successes; 1 when the proportions are equal."""
    diff = abs(x1 / n1 - x2 / n2)
    if diff == 0.0:
        return 1.0
    pooled = (x1 + x2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return math.erfc(diff / se / math.sqrt(2.0))


def _compare_asymptotic(ours: list, theirs: list, n: int) -> dict:
    """p-values keyed by K of two ``verify_asymptotic`` row lists over ``n``
    samples each: a two-proportion z test of p_empirical per K. A row that
    reads the same 0 or 1 in both is left out, as in ``_compare_samples``."""
    out = {}
    for (k, a, _), (k_other, b, _) in zip(ours, theirs, strict=True):
        assert k == k_other, (k, k_other)
        if a == b and a in (0.0, 1.0):
            continue
        out[k] = _two_proportion_p(round(a * n), n, round(b * n), n)
    return out


def _compare_samples(kernel: dict, other: dict) -> dict:
    """p-values keyed by output: KS for ``sinr_db``, a z-test for the rest.

    An output that is one and the same constant in both samples (say, no
    outage in either engine) is left out: its p is 1 by construction, so it
    cannot be rejected and would only lower Holm's thresholds for the others.
    """
    out = {"sinr_db": float(stats.ks_2samp(kernel["sinr_db"], other["sinr_db"]).pvalue)}
    for key in sorted(kernel.keys() - {"sinr_db"}):
        a, b = kernel[key], other[key]
        if a.min() == a.max() == b.min() == b.max():
            continue
        out[key] = _z_test_p(a, b)
    return out


def compare_engines(cfg: SimConfig, deployment, n_drops: int, with_baseline=False,
                    other=_run_oracle, other_drops=None) -> dict:
    """Per-drop outputs of ``n_drops`` drops of the kernel and of
    ``other_drops`` (default ``n_drops``) drops of ``other`` (the
    vector-channel engine by default), compared: p-values keyed by output.

    ``sinr_db`` is a two-sample KS test of per-RB SINRs; the SINR sample
    takes one RB per drop, rotating over the RBs, so that its values are
    independent (RBs of one drop share the CU position), rounded to 1e-9 dB:
    an RB without an MTD sits at the CU's SINR target, an atom each engine
    computes with its own last-bit rounding. Every other key is
    a two-sided z-test of the difference of per-drop means: ``outage``, the
    per-drop fraction of RBs in outage, ``throughput``, the per-drop sum, and
    ``baseline``, the random assignment's throughput. A z-test whose output
    is the same constant in both samples is left out (``_compare_samples``).
    """
    n_rb = cfg.n_rb
    samples = {}
    for name, engine, seed, size in (
        ("kernel", _run_kernel, _KERNEL_SEED, n_drops),
        ("other", other, _ORACLE_SEED, n_drops if other_drops is None else other_drops),
    ):
        drops = engine(cfg, deployment, seed, size, with_baseline)
        i = np.arange(size)
        samples[name] = {
            "sinr_db": np.round(drops.sinr_db[i, i % n_rb], 9),
            "outage": drops.outage.mean(axis=1),
            "throughput": drops.throughput_bps,
        }
        if with_baseline:
            samples[name]["baseline"] = drops.baseline_throughput_bps
    return _compare_samples(samples["kernel"], samples["other"])


def family_p_values(cases) -> dict:
    """Every comparison of every case, keyed (case, output)."""
    family = {}
    for case in cases:
        n_rb, k, mode, with_baseline = case
        cfg = SimConfig(n_rb=n_rb, k=k, mtd_power_mode=mode)
        p_values = compare_engines(cfg, _deployment(cfg, k), _DROPS, with_baseline,
                                   other_drops=_ORACLE_DROPS)
        family.update(((case, key), p) for key, p in p_values.items())
    return family


@pytest.fixture(scope="module")
def family():
    return family_p_values(_CASES)


@pytest.mark.parametrize("n_rb, k, mode, with_baseline", _CASES)
def test_kernel_matches_vector_engine(family, n_rb, k, mode, with_baseline):
    case = (n_rb, k, mode, with_baseline)
    rejected = {key for c, key in holm_rejected(family, _ALPHA) if c == case}
    assert not rejected, (rejected, {key: p for (c, key), p in family.items() if c == case})


def test_kernel_matches_vector_engine_at_k_up_to_n():
    family = family_p_values(_EDGE_CASES)
    assert not holm_rejected(family, _EDGE_ALPHA), family


def test_holm_rejects_step_down():
    # m = 4: thresholds 0.0125, 0.0167, 0.025, 0.05 for the sorted p-values
    p = {"a": 0.01, "b": 0.016, "c": 0.03, "d": 0.04}
    assert holm_rejected(p, 0.05) == {"a", "b"}
    assert holm_rejected({**p, "a": 0.013}, 0.05) == set()
    assert holm_rejected({"a": 0.04, "b": 0.04}, 0.05) == set()
    assert holm_rejected({"a": 0.02, "b": 0.05}, 0.05) == {"a", "b"}


def test_constant_outputs_leave_the_family_or_reject():
    sinr = np.linspace(0.0, 1.0, 50)
    same = {"sinr_db": sinr, "outage": np.zeros(50), "throughput": sinr + 1.0}
    # no outage in either sample: p would be 1 by construction, so left out
    assert set(_compare_samples(same, same)) == {"sinr_db", "throughput"}
    # constant but different: no spread at all, so the difference rejects
    p = _compare_samples(same, {**same, "outage": np.ones(50)})
    assert p["outage"] == 0.0
    assert _z_test_p(np.zeros(5), np.full(3, 0.5)) == 0.0


def test_asymptotic_rows_read_one_leave_the_family():
    ours = [(1, 0.004, 0.0), (100, 0.33, 0.0), (10000, 1.0, 1.0)]
    p = _compare_asymptotic(ours, ours, 1000)
    assert p == {1: 1.0, 100: 1.0}  # the row at 1.0 in both leaves the family
    p = _compare_asymptotic(ours, [(1, 0.004, 0.0), (100, 0.40, 0.0), (10000, 0.99, 1.0)], 1000)
    assert set(p) == {1, 100, 10000} and p[100] < 0.01
    # 30 of 100 against 40 of 100: pooled 0.35, z = 0.1 / sqrt(0.35 * 0.65 / 50) = 1.4825
    assert _two_proportion_p(30, 100, 40, 100) == pytest.approx(0.1382, abs=1e-4)


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


#: runs ``_run_drops`` of the package on its path for one sweep point; its
#: argument is a JSON object of the point, and it saves the outputs to "out"
_OTHER_TREE = """
import json, sys
import numpy as np
from mtc_underlay import Deployment, SimConfig
from mtc_underlay.montecarlo import _run_drops
a = json.loads(sys.argv[1])
cfg = SimConfig(**a["config"])
dep = Deployment(mta=tuple(a["mta"]), mtds=np.array(a["mtds"]))
d = _run_drops(cfg, dep, with_baseline=a["with_baseline"])
np.savez(a["out"], **{k: v for k, v in vars(d).items() if v is not None})
"""


#: prints, as JSON, the rows of ``verify_asymptotic`` of the package on its
#: path; its argument is a JSON object of the config and the K values
_OTHER_ASYMPTOTIC = """
import json, sys
from mtc_underlay import SimConfig, verify_asymptotic
a = json.loads(sys.argv[1])
print(json.dumps(verify_asymptotic(SimConfig(**a["config"]), a["k_values"]).rows))
"""


def _run_in_tree(src: Path, script: str, arg: dict) -> str:
    """Standard output of ``script`` run with ``arg`` as JSON in a fresh
    interpreter that imports the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script, json.dumps(arg)], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _tree_engine(src: Path):
    """An engine running ``_run_drops`` of the package in ``src``, in a
    fresh interpreter, on the deployment it is given."""

    def run(cfg, deployment, seed, n_drops, with_baseline):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "drops.npz"
            _run_in_tree(src, _OTHER_TREE, {
                "config": asdict(replace(cfg, seed=seed, n_drops=n_drops)),
                "mta": list(deployment.mta),
                "mtds": deployment.mtds.tolist(),
                "with_baseline": with_baseline,
                "out": str(out),
            })
            with np.load(out) as data:
                return DropResult(**{k: data[k] for k in data.files})

    return run


def _paper_asymptotic(src: Path, n: int) -> dict:
    """``verify_asymptotic`` here against the package in ``src`` at ``n``
    samples and the CLI's default K sweep; prints the p-values and returns
    them keyed ("asymptotic", K, "p_empirical")."""
    ks = [1, 2, 5, 10, 100, 1000, 10000]
    ours = verify_asymptotic(SimConfig(seed=_KERNEL_SEED, n_drops=n), ks).rows
    config = asdict(SimConfig(seed=_ORACLE_SEED, n_drops=n))
    theirs = json.loads(_run_in_tree(src, _OTHER_ASYMPTOTIC, {"config": config, "k_values": ks}))
    p_values = _compare_asymptotic(ours, theirs, n)
    print("asymptotic: " + "; ".join(f"K={k} p={p:.3f}" for k, p in p_values.items()), flush=True)
    return {("asymptotic", k, "p_empirical"): p for k, p in p_values.items()}


def _paper_scale(n_drops: int, other=_run_oracle) -> dict:
    """The kernel against ``other`` at the CLI's default single-rb and
    throughput sweeps; prints every point's p-values and returns the family."""
    sweeps = (
        ("single-rb", SimConfig(n_rb=1), [1, 10, 100, 1000], False),
        ("throughput", SimConfig(), [20, 50, 100, 200, 500, 1000], True),
    )
    family = {}
    for name, cfg, ks, with_baseline in sweeps:
        full = _deployment(cfg, ks[-1])
        for k in ks:
            r = compare_engines(replace(cfg, k=k), full.subset(k), n_drops, with_baseline, other)
            print(f"{name} K={k}: " + "; ".join(f"{key} p={p:.3f}" for key, p in r.items()),
                  flush=True)
            family.update(((name, k, key), p) for key, p in r.items())
    return family


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paper-scale engine comparison")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="compare with the engine in DIR/src, not the vector-channel engine")
    args = parser.parse_args(argv)
    if args.against is None:
        family = _paper_scale(_PAPER_DROPS)
    else:
        src = args.against.resolve() / "src"
        family = _paper_scale(_PAPER_DROPS, _tree_engine(src))
        family.update(_paper_asymptotic(src, _PAPER_DROPS))
    rejected = holm_rejected(family, _ALPHA)
    print(f"Holm at family-wise level {_ALPHA} over {len(family)} comparisons: "
          + ("no rejection" if not rejected else "rejected " + ", ".join(
              f"{name} K={k} {key} (p={family[name, k, key]:.2g})"
              for name, k, key in sorted(rejected))))
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
