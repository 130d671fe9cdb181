"""Run the mtc-underlay CLI once with spans recorded around its layers.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/trace_host.py STATS.json -- single-rb --drops 100 ...

Each public function in TARGETS is wrapped in every module of the package
that binds it, so ``from .channel import gen_channel_block`` in a caller is
traced too. Spans (name, start, end, parent) stay in memory; when the CLI
returns, per-function call counts, self times and returned-array sizes are
written to STATS.json. A target that no longer exists is listed under
``missing`` and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import time

PACKAGE = "mtc_underlay"

#: "<module>.<qualified name>" of every traced function
TARGETS = [
    "channel.gen_channel_block",
    "channel.Deployment.mtd_bs_distances",
    "channel.Deployment.mtd_mta_distances",
    "channel.sample_cu_position",
    "channel.sample_deployment",
    "phy.mrc_weights",
    "phy.sinr_cellular",
    "phy.sinr_mta",
    "phy.throughput",
    "phy.outage_indicator",
    "scheduler.build_interference_matrix",
    "scheduler.match_assignments",
    "scheduler.cu_power_control",
    "scheduler.mtd_power_control",
    "montecarlo.run_drop",
    "montecarlo.experiment_single_rb",
    "montecarlo.experiment_throughput",
    "montecarlo.experiment_outage",
    "montecarlo.estimate_outage",
    "montecarlo.verify_asymptotic",
    "cli.main",
]

#: run_drop results kept for the pickle size: one pool task's worth of drops
KEEP_DROPS = 256


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.sizes: dict[str, int] = {}  # elements of every returned array
        self.drops: list = []  # first KEEP_DROPS results of run_drop
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        sizes[name] = 0
        kept = self.drops if name == "montecarlo.run_drop" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            sizes[name] += getattr(result, "size", 0)
            if kept is not None and len(kept) < KEEP_DROPS:
                kept.append(result)
            return result

        return traced

    def install(self, targets: list[str]) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in targets:
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            setattr(owner, path[-1], wrapper)
            for module in modules:  # rebind where callers imported it by name
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def stats(self) -> dict:
        """Per-target calls, inclusive and self seconds, from the span list."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {t: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for t in TARGETS}
        durations: dict[str, list[float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - children
            durations.setdefault(name, []).append(end - start)
        for name, s in out.items():
            s["elements"] = self.sizes.get(name, 0)
        return {
            "functions": out,
            "run_drop_s": durations.get("montecarlo.run_drop", []),
            # what one pool task would send back, per drop
            "pickle_bytes_per_drop": (
                len(pickle.dumps(self.drops)) / len(self.drops) if self.drops else 0.0),
            "missing": self.missing,
        }


def main() -> int:
    stats_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_host.py STATS.json -- CLI-ARGS...")
    importlib.import_module(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install(TARGETS)
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, **tracer.stats()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
