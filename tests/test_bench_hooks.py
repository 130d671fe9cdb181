"""The benchmark's hook names must still name functions of the package.

``bench/trace_host.py`` wraps every ``TARGETS`` name and ``bench/setup_probe.py``
stops the CLI at the first ``FIRST_DROP`` call; both skip a name that no
longer resolves, so a rename would quietly drop a layer from the benchmark.
Six names were already stale when this test was written; no other may be.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: hook names that no longer resolve: their functions left the package or
#: moved to tests/oracles.py
KNOWN_STALE = {
    "channel.gen_channel_block",
    "phy.mrc_weights",
    "phy.sinr_cellular",
    "phy.sinr_mta",
    "scheduler.build_interference_matrix",
    "montecarlo.estimate_outage",
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(target: str) -> bool:
    """Whether "<module>.<qualified name>" names an attribute of the package,
    looked up as the hooks look it up."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"mtc_underlay.{module_name}")
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize(
    "script, names", [("trace_host", "TARGETS"), ("setup_probe", "FIRST_DROP")]
)
def test_bench_hook_names_resolve(script, names):
    targets = getattr(_load(script), names)
    unresolved = {t for t in targets if not _resolves(t)}
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)
