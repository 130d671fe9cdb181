"""Acceptance gate: each release criterion at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion (numbers 1-9). The heavy sweeps are shared module fixtures, so the
whole gate runs in a few minutes.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import mtc_underlay.cli as cli
from mtc_underlay import SimConfig, experiment_single_rb, experiment_throughput, verify_asymptotic
from oracles import (
    LinkBudget,
    mrc_weights,
    optimal_assignment_oracle,
    select_min_interference,
    sinr_cellular,
)
from oracles import match_matrix as match_assignments

_SWEEP_KS = [1, 10, 100, 1000]
_THROUGHPUT_KS = [20, 50, 100, 200, 500, 1000]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


@pytest.fixture(scope="module")
def fixed_sweep():
    cfg = SimConfig()  # 10^4 drops, fixed 0 dBm
    t0 = time.perf_counter()
    summary = experiment_single_rb(cfg, _SWEEP_KS, power_values=[0.0])
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def controlled_sweep():
    cfg = SimConfig(mtd_power_mode="controlled")
    summary = experiment_single_rb(cfg, _SWEEP_KS)
    return summary


@pytest.fixture(scope="module")
def throughput_grid():
    cfg = SimConfig()
    t0 = time.perf_counter()
    summary = experiment_throughput(cfg, _THROUGHPUT_KS)
    return summary, time.perf_counter() - t0


def test_criterion_1_direct_sinr_equals_closed_form():
    # conjugate-combining SINR, evaluated through the generic bilinear form,
    # must reproduce its closed form: p_c*||h_c||^4 over
    # (p_k*|<h_c, h_k>|^2 + ||h_c||^2 * n0)
    n, m = 100_000, 4
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    h_c = _cn(rng, n, m)
    h_k = _cn(rng, n, m)
    p_c = rng.uniform(1e-6, 1.0, n)
    p_k = rng.uniform(1e-6, 1.0, n)
    n0 = rng.uniform(1e-16, 1e-12, n)

    w = mrc_weights(h_c)
    direct = sinr_cellular(h_c, w, h_k, LinkBudget(p_c=p_c, p_k=p_k, n0=n0))

    norm_sq = np.sum(np.abs(h_c) ** 2, axis=1)
    cross = np.abs(np.einsum("nm,nm->n", np.conj(h_c), h_k)) ** 2
    closed = p_c * norm_sq**2 / (p_k * cross + norm_sq * n0)

    rel = float(np.max(np.abs(direct - closed) / closed))
    dt = time.perf_counter() - t0
    _report(1, rel < 1e-12 and dt < 5.0, f"max rel err {rel:.3e} (n={n}, {dt:.2f} s < 5 s)")


def test_criterion_2_beamformer_scale_invariance():
    n, m = 10_000, 4
    rng = np.random.default_rng(1002)
    h_c = _cn(rng, n, m)
    h_k = _cn(rng, n, m)
    budget = LinkBudget(p_c=0.01, p_k=0.001, n0=1e-14)
    w = mrc_weights(h_c)
    base = sinr_cellular(h_c, w, h_k, budget)
    alpha = rng.uniform(0.01, 100.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    scaled = sinr_cellular(h_c, alpha[:, None] * w, h_k, budget)
    rel = float(np.max(np.abs(scaled - base) / base))
    _report(2, rel < 1e-10, f"max rel err {rel:.3e} over {n} random complex scalings")


def test_criterion_3_scheduler_matches_oracles():
    rng = np.random.default_rng(1003)

    # single-RB pick vs a literal linear scan, ties included
    scan_ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 2001))
        row = rng.uniform(0.1, 10.0, k)
        if k > 1 and rng.random() < 0.3:  # force a duplicated minimum
            j1, j2 = np.sort(rng.choice(k, size=2, replace=False))
            row[j2] = row[j1] = row.min()
        best = 0
        for j in range(1, k):
            if row[j] < row[best]:
                best = j
        scan_ok &= select_min_interference(row) == best

    # full matching vs exhaustive assignment enumeration
    never_beats = True
    equal_when_unique = True
    n_unique = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(n, 7))
        matrix = rng.uniform(0.1, 10.0, (n, k))
        greedy = match_assignments(matrix)
        oracle = optimal_assignment_oracle(matrix)
        g_tot = greedy.total_interference(matrix)
        o_tot = oracle.total_interference(matrix)
        never_beats &= g_tot >= o_tot - 1e-12
        argmins = [int(np.argmin(r)) for r in matrix]
        if len(set(argmins)) == n:  # row minima land on distinct MTDs
            n_unique += 1
            equal_when_unique &= greedy.rb_to_mtd == oracle.rb_to_mtd
    ok = scan_ok and never_beats and equal_when_unique and n_unique >= 100
    _report(
        3,
        ok,
        "argmin==scan on 1000 rows (K<=2000); greedy never beats the exhaustive "
        f"optimum and equals it on all {n_unique} conflict-free cases (N,K<=6)",
    )


def test_criterion_4_conflict_hand_traces():
    a = match_assignments(np.array([[1.0, 5.0], [2.0, 3.0]]))
    b = match_assignments(np.array([[1.0, 2.0, 3.0], [1.1, 5.0, 6.0]]))
    ok = a.rb_to_mtd == [0, 1] and b.rb_to_mtd == [0, 1]
    _report(4, ok, f"collision traces resolved to {a.rb_to_mtd} and {b.rb_to_mtd}")


def test_criterion_5_min_statistic_product_form():
    cfg = SimConfig()
    t0 = time.perf_counter()
    # rows are (k, p_empirical, p_closed_form)
    small = verify_asymptotic(replace(cfg, n_drops=100_000), [1, 2, 5, 10])
    _, small_emp, small_closed = zip(*small.rows)
    diffs = [abs(e - c) for e, c in zip(small_emp, small_closed)]
    large = verify_asymptotic(replace(cfg, n_drops=5000), [1, 10, 100, 1000, 10000])
    _, large_emp, _ = zip(*large.rows)
    dt = time.perf_counter() - t0
    monotone = all(b >= a for a, b in zip(small_emp, small_emp[1:])) and all(
        b >= a for a, b in zip(large_emp, large_emp[1:])
    )
    saturates = large_emp[-1] >= 0.999
    ok = max(diffs) < 0.02 and monotone and saturates and dt < 60.0
    _report(
        5,
        ok,
        f"max |empirical-closed| {max(diffs):.2e} < 0.02 (K<=10, 1e5 samples); "
        f"monotone; P at K=1e4 is {large_emp[-1]:.4f} >= 0.999 ({dt:.1f} s < 60 s)",
    )


def test_criterion_6_fixed_power_degradation_shrinks(fixed_sweep):
    summary, dt = fixed_sweep
    target_db = SimConfig().cu_target_sinr_db
    medians = {row[0]: row[3] for row in summary.rows}
    degr = [target_db - medians[k] for k in _SWEEP_KS]
    decreasing = all(b < a for a, b in zip(degr, degr[1:]))
    final_close = abs(degr[-1]) < 0.5
    ok = decreasing and final_close and dt < 120.0
    degr_text = " -> ".join(f"{d:.3f}" for d in degr)
    _report(
        6,
        ok,
        f"median degradation {degr_text} dB strictly decreasing over K={_SWEEP_KS}, "
        f"K=1000 within 0.5 dB of the {target_db:.0f} dB target ({dt:.1f} s < 120 s)",
    )


def test_criterion_7_power_control_never_hurts(fixed_sweep, controlled_sweep):
    fixed, _ = fixed_sweep
    target_db = SimConfig().cu_target_sinr_db
    f_med = {row[0]: row[3] for row in fixed.rows}
    c_med = {row[0]: row[3] for row in controlled_sweep.rows}
    pairs = [(target_db - c_med[k], target_db - f_med[k]) for k in _SWEEP_KS]
    ok = all(c <= f + 1e-12 for c, f in pairs)
    detail = ", ".join(f"K={k}: {c:.3f}<={f:.3f}" for k, (c, f) in zip(_SWEEP_KS, pairs))
    _report(7, ok, f"controlled vs fixed median degradation (dB): {detail}")


def test_criterion_8_throughput_approaches_target(throughput_grid):
    summary, dt = throughput_grid
    ks = [row[0] for row in summary.rows]
    oso = [row[1] for row in summary.rows]
    target = summary.rows[0][2]
    baseline = [row[3] for row in summary.rows]
    monotone = all(b >= a for a, b in zip(oso, oso[1:]))
    final_rel = abs(oso[-1] - target) / target
    baseline_below = baseline[0] < oso[0]
    ok = monotone and final_rel < 0.05 and baseline_below and dt < 300.0
    _report(
        8,
        ok,
        f"mean throughput {oso[0] / 1e6:.2f}->{oso[-1] / 1e6:.2f} Mbit/s monotone over "
        f"K={ks[0]}..{ks[-1]}, K=1000 within {100 * final_rel:.2f}% of "
        f"{target / 1e6:.2f} Mbit/s, random baseline below at K=20 ({dt:.1f} s < 300 s)",
    )


def test_criterion_9_reruns_byte_identical(tmp_path):
    # 300 drops are two chunks, so the two-worker drop runs fork a child for chunk 1
    cases = {
        "single-rb": ["--drops", "300", "--k-values", "1,5"],
        "throughput": ["--drops", "300", "--k-values", "2,3"],
        "outage": ["--drops", "300", "--k-values", "1,2"],
        "asymptotic": ["--drops", "2000", "--k-values", "1,10"],
    }
    ok = True
    for name, extra in cases.items():
        # asymptotic runs serially: its third run shows a second worker is
        # refused (usage error, exit 1), not silently ignored
        pooled = 1 if name == "asymptotic" else 2
        blobs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", pooled)):
            out = tmp_path / f"{name}-{tag}"
            rc = cli.main(
                [name, "--seed", "99", "--out", str(out), "--workers", str(workers), *extra]
            )
            ok &= rc == 0
            blobs.append((out / f"{name}.csv").read_bytes())
            processes = json.loads((out / "manifest.json").read_text())["processes"]
            ok &= processes == workers
        ok &= blobs[0] == blobs[1] == blobs[2]
    try:
        cli.main(["asymptotic", "--out", str(tmp_path / "refused"), "--workers", "2",
                  *cases["asymptotic"]])
        refused = False
    except SystemExit as exc:
        refused = exc.code == 1 and not (tmp_path / "refused").exists()
    ok &= refused
    _report(
        9,
        ok,
        "all four experiments byte-identical across reruns, the three drop experiments "
        "across worker counts; asymptotic refuses --workers 2",
    )
