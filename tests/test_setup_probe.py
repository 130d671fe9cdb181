"""The benchmark's set-up probe must find its hook in every experiment.

``bench/setup_probe.py`` stops the CLI at the first call of the drop kernel
(``montecarlo.run_drop``) or of the order-statistic check
(``montecarlo.verify_asymptotic``); a run where no hook fires counts as a
failed benchmark repetition. This keeps a refactor from reaching the kernel
under another name unnoticed.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args, hook",
    [
        (["single-rb", "--k-values", "1,3"], "montecarlo.run_drop"),
        (["throughput", "--k-values", "2,5"], "montecarlo.run_drop"),
        (["outage", "--k-values", "1,3", "--power-mode", "controlled"], "montecarlo.run_drop"),
        (["asymptotic", "--k-values", "1,2"], "montecarlo.verify_asymptotic"),
    ],
    ids=["single-rb", "throughput", "outage", "asymptotic"],
)
def test_setup_probe_fires_expected_hook(args, hook, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), repr(t0), "--",
         *args, "--drops", "5", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["hook"] == hook
    assert record["setup_s"] > 0.0
