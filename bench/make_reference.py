"""Rebuild bench/reference.json, the table checks.check_reference compares with.

Run from the repository root, at a commit whose physics is trusted:

    python3 bench/make_reference.py [--workload NAME ...]

For each workload it runs the CLI once for each of N_SEEDS seeds, as bench/run.py does (at
--workers 1; the CSV is the same at any worker count), and stores per sweep
point the mean, the seed-to-seed standard deviation and the largest deviation
of every checked column. The seeds are disjoint from the small seeds
benchmark runs use. Takes about 25 minutes for all workloads on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import checks
import run

FIRST_SEED = 1_000_000
#: seeds per workload; enough that the largest deviation seen covers the rare
#: deployments with the MTA next to the base station
N_SEEDS = 150


def reference_for(name: str) -> dict:
    w = run.WORKLOADS[name]
    columns = checks.REFERENCE_COLUMNS[w.experiment]
    values: dict[str, dict[str, list[float]]] = {}
    for seed in range(FIRST_SEED, FIRST_SEED + N_SEEDS):
        run_dir = run.RUNS_DIR / f"reference-{name}-{seed}-{os.getpid()}"
        run_dir.mkdir(parents=True)
        try:
            s = run.WorkloadRun(name, seed, run_dir, reference=None)
            s.cli(1)  # CSVs are byte-identical at any --workers
            if s.failures:
                raise SystemExit(f"{name} seed {seed}: {s.failures}")
            _, rows = checks.parse_csv(s.first_csv.decode())
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for row in rows:
            point = values.setdefault(checks.row_key(row), {c: [] for c in columns})
            for c in columns:
                point[c].append(row[c])
        print(f"{name}: seed {seed} done", file=sys.stderr)
    return {
        "drops": w.drops,
        "seeds": [FIRST_SEED, FIRST_SEED + N_SEEDS - 1],
        "points": {
            key: {c: _summary(v) for c, v in cols.items()} for key, cols in values.items()
        },
    }


def _summary(values: list[float]) -> list[float]:
    """[mean, standard deviation, largest |deviation from the mean|]."""
    mean = statistics.fmean(values)
    return [mean, statistics.stdev(values), max(abs(v - mean) for v in values)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    made = {name: reference_for(name) for name in args.workload or sorted(run.WORKLOADS)}
    try:
        table = checks.load_reference()
    except FileNotFoundError:
        table = {}
    table["about"] = (
        "per sweep point: [mean, seed-to-seed standard deviation, largest deviation "
        "seen] of one run's value; "
        "made by bench/make_reference.py"
    )
    table.setdefault("workloads", {}).update(made)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
