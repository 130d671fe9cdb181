"""Compare the end-to-end medians of two BENCH_*.json records.

Run from the repository root:

    python3 bench/compare.py bench/BENCH_0.json bench/BENCH_1.json

For every workload and end-to-end metric in BENCHMARK.json it prints both
medians, the change as a share of the first, and the spread of each record.
A metric whose second median is worse than the first by more than the
metric's bound is marked WORSE, and the exit code is then 1; one better by
more than the bound is marked BETTER.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = json.loads(Path("BENCHMARK.json").read_text())


def main() -> int:
    first, second = (json.loads(Path(p).read_text())["workloads"] for p in sys.argv[1:3])
    worse = 0
    for w in BENCHMARK["workloads"]:
        for m in BENCHMARK["end_to_end"]:
            a, b = first[w["name"]][m["name"]], second[w["name"]][m["name"]]
            change = b["median"] / a["median"] - 1.0
            loss = change if m["better"] == "lower" else -change
            flag = "WORSE" if loss > m["bound"] else "BETTER" if -loss > m["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"{w['name']:18} {m['name']:12} {a['median']:12.4f} {b['median']:12.4f} "
                  f"{change:+8.3f} (bound {m['bound']})  spreads {a['spread']:.3f} "
                  f"{b['spread']:.3f}  {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
