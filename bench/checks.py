"""Correctness checks applied to every CSV the benchmark makes the CLI write.

Each check returns a list of problems; an empty list means the output passed.
The physics constants below are the README defaults, restated here so the
checks do not depend on the package they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

#: CSV columns per experiment, as README documents them
COLUMNS = {
    "single-rb": ["k", "mtd_power_dbm", "mean_sinr_db", "median_sinr_db",
                  "outage_rate", "ci_halfwidth_db"],
    "throughput": ["k", "mean_throughput_bps", "target_rate_bps", "baseline_throughput_bps"],
    "outage": ["k", "delta_th_db", "outage_rate"],
    "asymptotic": ["k", "p_empirical", "p_closed_form"],
}

#: columns compared with the stored reference table, per experiment
REFERENCE_COLUMNS = {
    "single-rb": ["mean_sinr_db", "median_sinr_db", "outage_rate", "ci_halfwidth_db"],
    "throughput": ["mean_throughput_bps", "baseline_throughput_bps"],
    "outage": ["outage_rate"],
    "asymptotic": ["p_empirical", "p_closed_form"],
}

#: columns that are fractions of the drops, so their resolution is 1 / drops
RATE_COLUMNS = {"outage_rate", "p_empirical", "p_closed_form"}

#: allowed distance from a reference or oracle value, in standard errors
Z_TOL = 6.0

N_RB = 20
RB_BANDWIDTH_HZ = 180e3
CU_TARGET_SINR_DB = 10.0
DELTA_TH_DB = 7.0
DELTA_I_DBM = -100.0
MTA_CLUSTER_RADIUS_M = 250.0

#: float slack on "at most the interference-free target" comparisons
_REL_EPS = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def parse_csv(text: str) -> tuple[list[str], list[dict[str, float]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    rows = [dict(zip(header, map(float, line))) for line in reader if line]
    return header, rows


def row_key(row: dict[str, float]) -> str:
    """Sweep-point label: K, plus the MTD power where the CSV has one."""
    if "mtd_power_dbm" in row:
        return f"{int(row['k'])}@{row['mtd_power_dbm']:g}"
    return str(int(row["k"]))


def target_rate_bps() -> float:
    return N_RB * RB_BANDWIDTH_HZ * math.log2(1.0 + 10.0 ** (CU_TARGET_SINR_DB / 10.0))


def check_table(experiment: str, text: str, expected_keys: list[str]) -> list[str]:
    """Columns as documented, one row per expected sweep point, finite cells."""
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparseable CSV: {exc}"]
    if header != COLUMNS[experiment]:
        return [f"columns {header} != documented {COLUMNS[experiment]}"]
    keys = [row_key(r) for r in rows]
    if keys != expected_keys:
        return [f"sweep points {keys} != expected {expected_keys}"]
    bad = [row_key(r) for r in rows if not all(math.isfinite(v) for v in r.values())]
    return [f"non-finite cells at points {bad}"] if bad else []


def check_invariants(experiment: str, rows: list[dict[str, float]]) -> list[str]:
    """Physics that holds for any seed."""
    problems = []
    for r in rows:
        where = f"{experiment} point {row_key(r)}"
        for col in RATE_COLUMNS & r.keys():
            if not 0.0 <= r[col] <= 1.0:
                problems.append(f"{where}: {col}={r[col]} outside [0, 1]")
        if experiment == "throughput":
            target = target_rate_bps()
            if not math.isclose(r["target_rate_bps"], target, rel_tol=1e-8):
                problems.append(f"{where}: target_rate_bps={r['target_rate_bps']} != {target}")
            if not r["baseline_throughput_bps"] < r["mean_throughput_bps"] <= target * (1 + _REL_EPS):
                problems.append(
                    f"{where}: expected baseline < mean <= target, got "
                    f"{r['baseline_throughput_bps']}, {r['mean_throughput_bps']}, {target}"
                )
        elif experiment == "single-rb":
            if r["mean_sinr_db"] > CU_TARGET_SINR_DB + _REL_EPS:
                problems.append(f"{where}: mean SINR {r['mean_sinr_db']} dB above the CU target")
            if r["ci_halfwidth_db"] < 0:
                problems.append(f"{where}: negative CI half-width")
        elif experiment == "outage":
            if r["delta_th_db"] != DELTA_TH_DB:
                problems.append(f"{where}: delta_th_db={r['delta_th_db']} != {DELTA_TH_DB}")
    if experiment == "single-rb":
        # Both powers replay the same drops and pick the same MTD, so the
        # quieter MTD power leaves every drop's SINR at least as high.
        by_k: dict[float, list[dict[str, float]]] = {}
        for r in rows:
            by_k.setdefault(r["k"], []).append(r)
        for k, group in by_k.items():
            group.sort(key=lambda r: r["mtd_power_dbm"])
            for quiet, loud in zip(group, group[1:]):
                if not (quiet["mean_sinr_db"] >= loud["mean_sinr_db"]
                        and quiet["median_sinr_db"] >= loud["median_sinr_db"]
                        and quiet["outage_rate"] <= loud["outage_rate"]):
                    problems.append(
                        f"single-rb K={int(k)}: {quiet['mtd_power_dbm']:g} dBm does not "
                        f"dominate {loud['mtd_power_dbm']:g} dBm"
                    )
    if experiment == "asymptotic":
        p = [r["p_empirical"] for r in rows]
        if any(b < a for a, b in zip(p, p[1:])):
            problems.append(f"asymptotic: p_empirical decreases as K grows: {p}")
    return problems


def check_order_stat_oracle(rows: list[dict[str, float]], n_samples: int) -> list[str]:
    """p_empirical against the analytic 1 - exp(-K delta_I / g).

    With unit-norm MRC and i.i.d. Rayleigh MTD channels of mean gain g, each
    projection |u^H h|^2 is g * Exp(1), so the minimum of K is below delta_I
    with that probability. Unlike the CLI's p_closed_form, this does not use
    the samples it is checked against.
    """
    pathloss_db = 128.1 + 36.7 * math.log10(MTA_CLUSTER_RADIUS_M / 1000.0)
    g = 10.0 ** (-pathloss_db / 10.0)
    delta_w = 10.0 ** ((DELTA_I_DBM - 30.0) / 10.0)
    problems = []
    for r in rows:
        p = -math.expm1(-r["k"] * delta_w / g)
        tol = Z_TOL * math.sqrt(p * (1.0 - p) / n_samples) + 1.0 / n_samples
        if abs(r["p_empirical"] - p) > tol:
            problems.append(
                f"order-stat oracle at K={int(r['k'])}: p_empirical={r['p_empirical']} "
                f"vs analytic {p:.6g} (tolerance {tol:.3g})"
            )
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(
    reference: dict, workload: str, experiment: str, drops: int, rows: list[dict[str, float]]
) -> list[str]:
    """Each value close to the stored reference mean of its sweep point.

    The reference holds, per point, the mean, the seed-to-seed standard
    deviation and the largest deviation of one run's value over many seeds at
    the same drop count. The deviation covers the drop noise and the
    deployment each seed draws, so a fresh seed or a new RNG stream with the
    same physics passes. The tolerance is Z_TOL standard deviations, widened
    to twice the largest deviation seen: deployments with the MTA next to the
    base station give some points a heavy tail.
    """
    entry = reference.get("workloads", {}).get(workload)
    if entry is None:
        return [f"no reference for workload {workload}"]
    if entry["drops"] != drops:
        return [f"reference made at {entry['drops']} drops, run used {drops}"]
    problems = []
    for r in rows:
        point = entry["points"].get(row_key(r))
        if point is None:
            problems.append(f"no reference for point {row_key(r)}")
            continue
        for col in REFERENCE_COLUMNS[experiment]:
            mean, sd, worst = point[col]
            floor = 1.0 / drops if col in RATE_COLUMNS else 1e-9 * abs(mean)
            tol = max(Z_TOL * math.hypot(sd, floor), 2.0 * worst)
            if abs(r[col] - mean) > tol:
                problems.append(
                    f"{workload} point {row_key(r)}: {col}={r[col]:.6g} vs reference "
                    f"{mean:.6g} +- {tol:.3g}"
                )
    return problems
