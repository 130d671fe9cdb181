"""Run the benchmark over several seeds and write a BENCH_<n>.json record.

Run from the repository root:

    python3 bench/record.py --out bench/BENCH_1.json [--workload NAME ...]

For every workload it makes one untraced run per seed in SEEDS and one traced
run at the first seed, as the benchmark's own command line does, and stores
per end-to-end metric the values, median, quartiles and spread (interquartile
distance over the median), plus the per-layer metrics of the traced run and
the environment of the first run. --workload re-records only the workloads
named, keeping the others already in --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: seeds of the untraced runs, as many as the ten-run acceptance check uses
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args()
    record: dict = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    if args.workload and args.out.exists():
        record = json.loads(args.out.read_text())
    for name in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        runs = [bench(name, seed, 0) for seed in SEEDS]
        traced = [bench(name, SEEDS[0], 1)]
        record.setdefault("environment", runs[0][0]["environment"])
        entry = {
            "seeds": SEEDS,
            "attempted": sum(r["attempted"] for _, r in runs + traced),
            "failed": sum(r["failed"] for _, r in runs + traced),
            "failures": [f for info, _ in runs + traced for f in info["failures"]],
            "trace_missing": sorted({m for info, _ in traced for m in info["trace_missing"]}),
            "setup_share_of_wall": statistics.median(
                info["samples"]["setup_share_of_wall"] for info, _ in runs),
        }
        for metric in BENCHMARK["end_to_end"]:
            entry[metric["name"]] = summary([r["metrics"][metric["name"]]["value"] for _, r in runs])
        entry["per_layer"] = {
            m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for _, r in traced)
            for m in BENCHMARK["per_layer"] if all(m["name"] in r["metrics"] for _, r in traced)
        }
        record["workloads"][name] = entry
        spreads = {m["name"]: round(entry[m["name"]]["spread"], 4) for m in BENCHMARK["end_to_end"]}
        print(f"{name}: failed {entry['failed']}/{entry['attempted']}, spreads {spreads}",
              file=sys.stderr)
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
