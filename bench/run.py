"""Benchmark of the mtc-underlay CLI: drops per second at a reference machine
speed, set-up time and peak memory per workload, plus a separate traced run
that splits the time across layers.

Run from the repository root:

    python3 bench/run.py --workload throughput-k1000 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` each repetition is a fresh interpreter running
``python3 -m mtc_underlay.cli`` on this checkout's ``src``, between runs of a
fixed speed kernel that gauge the box's speed, and the end-to-end metrics are
medians over the repetitions. With ``--trace 1`` untraced and
traced (``bench/trace_host.py``) repetitions alternate, all at ``--workers 1``,
and the per-layer metrics come from the traced ones. Every CSV is checked
(``bench/checks.py``); a repetition that exits non-zero or fails a check
counts as failed.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it records the
environment, the failures and the seed-commit baseline of the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from trace_host import TARGETS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".bench_runs"
BASELINE_PATH = BENCH_DIR / "BENCH_0.json"
PYTHON = sys.executable

#: least number of fresh-interpreter set-up probes per run (one precedes
#: every CLI repetition); setup_s is their median
SETUP_PROBES = 15
#: repetitions (rounds, when tracing) made even when --seconds is shorter
MIN_REPS = 3
#: no repetition starts after this many seconds into a run
HARD_LIMIT_S = 120.0
#: a single repetition that takes longer than this is killed and fails
REP_TIMEOUT_S = 50.0
#: interval between samples of the process tree's memory
MEM_POLL_S = 0.1
#: size and seed of the speed kernel's fixed work, in its two shapes
KERNEL_DROP_ROUNDS = 300
KERNEL_BULK_ROUNDS = 4
KERNEL_SEED = 7
#: untimed speed-kernel runs that warm up the benchmark process
KERNEL_WARMUP = 2
#: the speed kernel's median time in each shape (bulk or not) on the 2-vCPU
#: Xeon box BENCH_0.json was recorded on; drops_per_ref_s is drops per second
#: scaled to that box's speed
KERNEL_REF_S = {False: 0.4, True: 0.44}


@dataclass(frozen=True)
class Workload:
    experiment: str
    drops: int
    k_values: tuple[int, ...]
    workers: int
    flags: tuple[str, ...] = ()
    powers_dbm: tuple[float, ...] = ()
    #: whether the speed kernel takes its bulk shape
    bulk: bool = False

    def point_keys(self) -> list[str]:
        if self.powers_dbm:
            return [f"{k}@{p:g}" for k in self.k_values for p in self.powers_dbm]
        return [str(k) for k in self.k_values]

    @property
    def total_drops(self) -> int:
        """Drops over all sweep points; for the order statistic, one drop is
        one serving-direction sample scored against the point's K MTDs."""
        return self.drops * len(self.point_keys())

    def cli_args(self, config: Path, out: Path, workers: int) -> list[str]:
        return [self.experiment, "--config", str(config), "--workers", str(workers),
                "--out", str(out), "--k-values", ",".join(map(str, self.k_values)), *self.flags]


# Why each workload is here, and what it predicts, is in bench/README.md.
WORKLOADS = {
    "throughput-k1000": Workload(
        "throughput", drops=100, k_values=(20, 50, 100, 200, 500, 1000), workers=1,
        flags=("--power-mode", "fixed", "--mtd-power-dbm", "0"),
    ),
    "single-rb-power": Workload(
        "single-rb", drops=400, k_values=(1, 10, 100, 1000), workers=1,
        flags=("--mtd-power-dbm", "0,-10"), powers_dbm=(0.0, -10.0),
    ),
    "order-stat": Workload(
        "asymptotic", drops=1000, k_values=(1, 2, 5, 10, 100, 1000, 10000), workers=1,
        bulk=True,
    ),
    "outage-pool": Workload(
        "outage", drops=1024, k_values=(1, 10, 100, 1000), workers=2,
        flags=("--power-mode", "controlled"),
    ),
}


# ---------------------------------------------------------------------------
# processes and their memory
# ---------------------------------------------------------------------------


def _children_by_parent() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        out.setdefault(ppid, []).append(int(entry.name))
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_kb(root: int) -> int:
    """Proportional set size of ``root`` and its live descendants, summed.

    Pool workers are forked from the CLI; a page they share with it counts
    once, split between the processes that map it."""
    children = _children_by_parent()
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += _pss_kb(pid)
        stack.extend(children.get(pid, ()))
    return total


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    code: int
    output: str


def run_process(cmd: list[str], log_path: Path, timeout_s: float, tree: bool = False) -> Proc:
    """Run ``cmd`` to completion, timing it and recording its peak memory.

    A single process's peak comes exactly from its rusage. With ``tree``, the
    process has pool workers, which its rusage does not sum, so the peak is
    instead the largest summed proportional set size of the tree, sampled
    from /proc while it runs. No sampling otherwise: the sampler would compete
    with the CLI for the two cores.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        peak_kb = 0
        done = threading.Event()

        def watch():
            nonlocal peak_kb
            while not done.wait(MEM_POLL_S if tree else timeout_s):
                if tree:
                    peak_kb = max(peak_kb, tree_pss_kb(proc.pid))
                if time.perf_counter() - start > timeout_s:
                    proc.kill()

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            watcher.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not tree:
        peak_kb = usage.ru_maxrss
    return Proc(wall, peak_kb / 1024.0, proc.returncode, log_path.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def speed_kernel(bulk: bool) -> float:
    """Seconds this process takes for a fixed piece of work shaped like the
    workload's. Drop-engine shape: small complex Gaussian draws, a reduction
    over antennas and a Python loop over point tuples. Bulk shape (the order
    statistic): complex Gaussian draws of tens of MB and a projection einsum,
    which lean on memory bandwidth. It runs none of the program's code, so a
    change to the program cannot move it; a change in the box's speed does."""
    rng = np.random.default_rng(KERNEL_SEED)
    acc = 0.0
    start = time.perf_counter()
    if bulk:
        u = rng.standard_normal((1000, 4))
        for _ in range(KERNEL_BULK_ROUNDS):
            h = rng.standard_normal((1000, 500, 4)) + 1j * rng.standard_normal((1000, 500, 4))
            acc += float(np.abs(np.einsum("sm,scm->sc", u, h)).min(axis=1).sum())
    else:
        for _ in range(KERNEL_DROP_ROUNDS):
            h = rng.standard_normal((20, 300, 4)) + 1j * rng.standard_normal((20, 300, 4))
            acc += float(np.einsum("nkm,nkm->nk", h.conj(), h).real.argmax())
            points = [(j * 0.37 % 1.0, j * 0.71 % 1.0) for j in range(300)]
            acc += sum(math.hypot(x - 0.5, y - 0.5) for x, y in points)
    return time.perf_counter() - start


def box_speed(processes: int, bulk: bool) -> float:
    """Mean speed-kernel time over ``processes`` copies run at once: this
    process and forked children, so a pool workload's kernel loads as many
    cores as its CLI does."""
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(speed_kernel(bulk)).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [speed_kernel(bulk)]
    for pid, read_fd in children:
        with os.fdopen(read_fd) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(times)


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def cli_seed(workload: str, seed: int) -> int:
    """The CLI's root seed, derived from the workload name and --seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class WorkloadRun:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, run_dir: Path, reference: dict | None):
        self.name = name
        self.w = WORKLOADS[name]
        self.run_dir = run_dir
        self.config_path = run_dir / "sim.cfg"
        self.config_path.write_text(f"seed = {cli_seed(name, seed)}\nn_drops = {self.w.drops}\n")
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}
        self.samples: dict[str, list] = {}  # raw timings, for the record
        self.first_csv: bytes | None = None
        self._first_problems: list[str] = []
        self._count = 0

    def _log(self) -> Path:
        self._count += 1
        return self.run_dir / f"rep{self._count}.log"

    def _account(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def setup_probe(self) -> float | None:
        """One fresh CLI at --workers 1, stopped at its first drop."""
        log = self._log()
        args = self.w.cli_args(self.config_path, self.run_dir / log.stem, 1)
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [PYTHON, str(BENCH_DIR / "setup_probe.py"), repr(t0), "--", *args]
        p = run_process(cmd, log, REP_TIMEOUT_S)
        problems, info = [], None
        if p.code != 0:
            problems.append(f"exit code {p.code}: {p.output[-500:]}")
        else:
            info = json.loads(p.output.strip().splitlines()[-1])
            if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
                problems.append(f"imported {info['module']}, not the checkout's src")
        self._account("setup probe", problems)
        if info is None:
            return None
        self.versions = {k: info[k] for k in ("python", "numpy")}
        return info["setup_s"]

    def cli(self, workers: int, traced: bool = False) -> tuple[Proc, dict | None] | None:
        """One CLI run, checked; None when the CLI did not exit 0.

        A run that exits 0 but fails a check is still returned, so its time
        counts, and is reported as failed.
        """
        log = self._log()
        out = self.run_dir / log.stem
        args = self.w.cli_args(self.config_path, out, workers)
        stats_path = self.run_dir / f"{log.stem}.trace.json"
        if traced:
            cmd = [PYTHON, str(BENCH_DIR / "trace_host.py"), str(stats_path), "--", *args]
        else:
            cmd = [PYTHON, "-m", "mtc_underlay.cli", *args]
        p = run_process(cmd, log, REP_TIMEOUT_S, tree=workers > 1)
        if p.code != 0:
            problems = [f"exit code {p.code}: {p.output[-500:]}"]
        else:
            csv_path = out / f"{self.w.experiment}.csv"
            problems = self.check(csv_path.read_bytes()) if csv_path.exists() else ["no CSV"]
        stats = json.loads(stats_path.read_text()) if traced and stats_path.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        self._account(f"{'traced ' if traced else ''}CLI run with --workers {workers}", problems)
        return (p, stats) if p.code == 0 else None

    def check(self, data: bytes) -> list[str]:
        if self.first_csv is not None:
            if data != self.first_csv:
                return ["CSV differs from the first repetition at the same seed"]
            return self._first_problems
        text = data.decode("utf-8", errors="replace")
        w = self.w
        problems = checks.check_table(w.experiment, text, w.point_keys())
        if not problems:
            _, rows = checks.parse_csv(text)
            problems = checks.check_invariants(w.experiment, rows)
            if w.experiment == "asymptotic":
                problems += checks.check_order_stat_oracle(rows, w.drops)
            if self.reference is not None:
                problems += checks.check_reference(
                    self.reference, self.name, w.experiment, w.drops, rows)
        self.first_csv, self._first_problems = data, problems
        return problems


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _keep_going(started: float, seconds: float, done: int) -> bool:
    """Whether to start another repetition: one as long as the average so far
    still ends within ``seconds``, so a run takes about ``seconds``; at least
    MIN_REPS in any case."""
    elapsed = time.perf_counter() - started
    if done < MIN_REPS:
        return elapsed < HARD_LIMIT_S
    return elapsed * (done + 1) / done <= seconds


def end_to_end(s: WorkloadRun, seconds: float) -> dict:
    """Speed kernel, set-up probe and CLI run, in turn, until ``seconds`` are
    spent; then a last kernel.

    The box's speed drifts by a third or more over minutes (other tenants of
    the host), and by some 10 % between neighbouring seconds. Each CLI
    repetition is therefore scaled by the mean of the speed kernels run just
    before and after it, to drops per second at the reference speed
    (KERNEL_REF_S), and every metric is a median over the run.
    """
    bulk, workers = s.w.bulk, s.w.workers
    for _ in range(KERNEL_WARMUP):
        box_speed(workers, bulk)
    kernels, setups, runs, started = [], [], [], time.perf_counter()
    while _keep_going(started, seconds, len(runs)):
        kernels.append(box_speed(workers, bulk))
        setups.append(s.setup_probe())
        runs.append(s.cli(workers))
    kernels.append(box_speed(workers, bulk))
    while len(setups) < SETUP_PROBES:
        setups.append(s.setup_probe())
    paired = [(r[0], (kernels[i] + kernels[i + 1]) / 2) for i, r in enumerate(runs) if r]
    ok = [p for p, _ in paired]
    setup_s, wall_s = _median(setups), _median(p.wall_s for p in ok)
    s.samples = {
        "setup_s": setups,
        "cli_wall_s": [p.wall_s for p in ok],
        "kernel_s": kernels,
        "drops_per_s": _median(s.w.total_drops / p.wall_s for p in ok),
        # how much of the wall time is start-up, not drops
        "setup_share_of_wall": setup_s / wall_s if setup_s and wall_s else None,
    }
    scale = 1.0 / KERNEL_REF_S[bulk]
    return {
        "drops_per_ref_s": (_median(s.w.total_drops / p.wall_s * k * scale for p, k in paired),
                            "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_median(p.peak_rss_mb for p in ok), "MB"),
    }


def per_layer(s: WorkloadRun, seconds: float) -> tuple[dict, list[str]]:
    """Untraced and traced runs at --workers 1 (plus untraced runs at the
    workload's worker count, for the pool's efficiency) until ``seconds``."""
    s.setup_probe()  # records the versions; set-up time is an end-to-end metric
    plain, traced, pooled, started = [], [], [], time.perf_counter()
    while _keep_going(started, seconds, len(traced)):
        plain.append(s.cli(1))
        traced.append(s.cli(1, traced=True))
        if s.w.workers > 1:
            pooled.append(s.cli(s.w.workers))
    plain_wall = _median(r[0].wall_s for r in plain if r)
    traced_wall = _median(r[0].wall_s for r in traced if r)
    stats = [r[1] for r in traced if r and r[1]]
    if not stats or plain_wall is None:
        return {}, []
    metrics = {}
    for t in TARGETS:
        metrics[f"{t}.calls"] = (_median(st["functions"][t]["calls"] for st in stats), "count")
        metrics[f"{t}.self_s"] = (_median(st["functions"][t]["self_s"] for st in stats), "s")
        metrics[f"{t}.share"] = (
            _median(st["functions"][t]["self_s"] / st["wall_s"] for st in stats), "share")
    drops = stats[0]["functions"]["montecarlo.run_drop"]["calls"]
    for t, name in (("channel.gen_channel_block", "cn_entries_per_drop"),
                    ("scheduler.build_interference_matrix", "entries_per_drop")):
        elements = stats[0]["functions"][t]["elements"]
        metrics[f"{t}.{name}"] = (elements / drops if drops else 0.0, "count")
    drop_ms = [1e3 * d for st in stats for d in st["run_drop_s"]]
    p50, p99 = 0.0, 0.0
    if len(drop_ms) > 1:
        percentiles = statistics.quantiles(drop_ms, n=100)
        p50, p99 = percentiles[49], percentiles[98]
    metrics["montecarlo.run_drop.ms_p50"] = (p50, "ms")
    metrics["montecarlo.run_drop.ms_p99"] = (p99, "ms")
    metrics["montecarlo.pool.bytes_per_drop"] = (stats[0]["pickle_bytes_per_drop"], "B")
    if s.w.workers > 1:
        pooled_wall = _median(r[0].wall_s for r in pooled if r)
        efficiency = plain_wall / (s.w.workers * pooled_wall) if pooled_wall else None
    else:
        efficiency = 1.0
    metrics["montecarlo.pool.efficiency"] = (efficiency, "share")
    metrics["trace.overhead_share"] = (traced_wall / plain_wall if traced_wall else None, "share")
    missing = stats[0]["missing"]
    metrics["trace.missing"] = (len(missing), "count")
    return metrics, missing


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_head() -> str | None:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(load_at_start: tuple) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "load_average_at_start": load_at_start,
        "commit": _git_head(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "mtc_underlay" / "cli.py").is_file():
        print(f"bench: no mtc_underlay sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    s = WorkloadRun(args.workload, args.seed, run_dir, checks.load_reference())
    missing: list[str] = []
    try:
        if args.trace:
            metrics, missing = per_layer(s, args.seconds)
        else:
            metrics = end_to_end(s, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not s.failures and all(v is not None for v, _ in metrics.values()) and bool(metrics),
        "attempted": s.attempted,
        "failed": len(s.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }
    baseline = {}
    if BASELINE_PATH.exists():
        entry = json.loads(BASELINE_PATH.read_text())["workloads"].get(args.workload, {})
        baseline = {k: v["median"] for k, v in entry.items() if isinstance(v, dict) and "median" in v}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": cli_seed(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": {**environment(load_at_start), **s.versions},
        "failures": s.failures,
        "trace_missing": missing,
        "samples": s.samples,
        "seed_commit_baseline": baseline,
        "result": result,
    }
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
