"""End-to-end CLI behaviour: artifacts, reproducibility, exit codes."""

import ast
import contextlib
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtc_underlay.cli as cli

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    return cli.main(args)


def _read(out_dir, name):
    return (out_dir / name).read_bytes()


def test_single_rb_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = _run(
        ["single-rb", "--out", str(out), "--drops", "60", "--k-values", "1,3"]
    )
    assert rc == 0
    csv_text = (out / "single-rb.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == "k,mtd_power_dbm,mean_sinr_db,median_sinr_db,outage_rate,ci_halfwidth_db"
    assert len(csv_text.splitlines()) == 3  # header + two k rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "single-rb"
    assert manifest["config"]["n_drops"] == 60
    assert manifest["k_values"] == [1, 3]
    assert manifest["artifacts"] == ["single-rb.csv"]
    assert manifest["duration_s"] >= 0.0
    assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
    assert manifest["numpy"] == np.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["workers"] == manifest["processes"] == 1
    # 60 drops are one chunk: more workers than chunks run in one process,
    # and the manifest says so beside the workers asked for
    assert _run(["single-rb", "--out", str(out), "--drops", "60", "--workers", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["workers"], manifest["processes"]) == (4, 1)


def test_rerun_is_byte_identical(tmp_path):
    args = ["outage", "--drops", "80", "--k-values", "2", "--seed", "7"]
    assert _run(args + ["--out", str(tmp_path / "a")]) == 0
    assert _run(args + ["--out", str(tmp_path / "b")]) == 0
    assert _read(tmp_path / "a", "outage.csv") == _read(tmp_path / "b", "outage.csv")


def _record_forks(monkeypatch) -> list[int]:
    """Wrap ``os.fork``; the returned list gets one entry per fork."""
    forks, fork = [], os.fork

    def recording_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def test_worker_count_does_not_change_artifact(tmp_path, monkeypatch):
    # 300 drops are two chunks, so at two workers a child runs chunk 1
    base = ["single-rb", "--drops", "300", "--k-values", "1,2"]
    assert _run(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    forks = _record_forks(monkeypatch)
    assert _run(base + ["--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    assert len(forks) == 1
    assert json.loads(_read(tmp_path / "w2", "manifest.json"))["processes"] == 2
    assert _read(tmp_path / "w1", "single-rb.csv") == _read(tmp_path / "w2", "single-rb.csv")


def test_workers_are_capped_at_the_chunk_count(tmp_path, monkeypatch):
    forks = _record_forks(monkeypatch)
    out = tmp_path / "o"
    args = ["outage", "--drops", "300", "--k-values", "1,5", "--workers", "8", "--out", str(out)]
    assert _run(args) == 0
    assert len(forks) == 1
    manifest = json.loads(_read(out, "manifest.json"))
    assert (manifest["workers"], manifest["processes"]) == (8, 2)


#: runs the CLI in a fresh interpreter with ``_run_chunk`` failing on chunk 1
#: (a ConfigError, a RuntimeError or a SIGKILL of the process running it),
#: then prints the exit code and whether every child was reaped
_FAILING_CHUNK = """
import os, signal, sys
from mtc_underlay import cli, montecarlo
from mtc_underlay.config import ConfigError
kind, workers, out = sys.argv[1:]
run_chunk = montecarlo._run_chunk

def failing(config, deployment, chunk, *rest):
    if chunk == 1:
        if kind == "config":
            raise ConfigError("chunk 1 refused")
        if kind == "runtime":
            raise RuntimeError("chunk 1 failed")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_chunk(config, deployment, chunk, *rest)

montecarlo._run_chunk = failing
rc = cli.main(["outage", "--drops", "300", "--k-values", "1,5", "--workers", workers,
               "--out", out])
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(rc, reaped)
"""


@pytest.mark.parametrize(
    "kind, workers, code",
    [("config", 2, 2), ("runtime", 2, 3), ("kill", 2, 3), ("config", 1, 2), ("runtime", 1, 3)],
)
def test_failing_chunk_exits_cleanly_at_any_worker_count(kind, workers, code, tmp_path):
    # at two workers chunk 1 runs in the child: its exception reaches the
    # parent as itself, its death as a runtime error; no CSV or manifest is
    # written, nothing hangs and no child is left unreaped
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAILING_CHUNK, kind, str(workers), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.split() == [str(code), "True"], proc.stderr
    assert ("config error" if code == 2 else "runtime error") in proc.stderr
    assert not (out / "outage.csv").exists() and not (out / "manifest.json").exists()


def test_sharded_run_imports_no_process_pool(tmp_path):
    code = (
        "import sys; from mtc_underlay.cli import main; "
        f"rc = main(['outage', '--drops', '300', '--k-values', '1,4', '--workers', '2', "
        f"'--out', {str(tmp_path)!r}]); "
        "print(rc, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False", "False"], proc.stderr
    assert json.loads((tmp_path / "manifest.json").read_text())["processes"] == 2


def test_throughput_artifact(tmp_path):
    out = tmp_path / "thr"
    rc = _run(["throughput", "--out", str(out), "--drops", "20", "--k-values", "2,30"])
    assert rc == 0
    lines = (out / "throughput.csv").read_text().splitlines()
    assert lines[0] == "k,mean_throughput_bps,target_rate_bps,baseline_throughput_bps"
    assert len(lines) == 3


def test_asymptotic_artifact_and_extras(tmp_path):
    out = tmp_path / "asym"
    rc = _run(["asymptotic", "--out", str(out), "--drops", "400", "--k-values", "1,5"])
    assert rc == 0
    lines = (out / "asymptotic.csv").read_text().splitlines()
    assert lines[0] == "k,p_empirical,p_closed_form"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["phi_at_delta_i"] < 1.0
    # the run explains itself: the last MTD drawn, the antenna vectors drawn,
    # serving vectors included, and a Wilson 95 % interval per K
    assert 1 <= manifest["mtds_drawn"] <= 5
    assert 400 + 400 <= manifest["antenna_vectors_drawn"] <= 400 + 5 * 400
    ci = manifest["p_empirical_ci95"]
    assert len(ci) == 2 and all(len(pair) == 2 for pair in ci)
    for row, (lo, hi) in zip(lines[1:], ci):
        assert lo <= float(row.split(",")[1]) <= hi


def test_asymptotic_golden_csv_and_phi(tmp_path):
    # regenerated for RNG contract 7 (each MTD drawn only for the samples still
    # above delta_I) once the rows passed criterion 5, a chi-square test of the
    # first hits against Geometric(Phi), a KS test of the MTD-1 projections
    # against Exp(1) and per-K two-proportion z tests against contract 6 at
    # 10^4 samples; phi is analytic, unchanged
    out = tmp_path / "asym"
    rc = _run(["asymptotic", "--out", str(out), "--drops", "2000", "--k-values", "1,10,100"])
    assert rc == 0
    assert _read(out, "asymptotic.csv") == (DATA / "golden_asymptotic.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["phi_at_delta_i"] == 0.003977175583252615


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# coverage run\n"
        "n_rb = 5\n"
        "cu_target_sinr_db = 7 dB\n"
        "mtd_fixed_power_dbm = -3 dBm\n"
    )
    out = tmp_path / "run"
    rc = _run(
        [
            "single-rb",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--drops",
            "30",
            "--k-values",
            "1",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_rb"] == 5  # as given; experiment pins its own RB count
    assert manifest["config"]["cu_target_sinr_db"] == 7.0
    assert manifest["config"]["mtd_fixed_power_dbm"] == -3.0


@pytest.mark.parametrize(
    "flags",
    [
        ["--power-mode", "controlled"],
        ["--power-mode", "fixed"],
        ["--mtd-power-dbm", "0"],
        ["--workers", "2"],
    ],
)
def test_asymptotic_rejects_flags_it_cannot_honour(flags, tmp_path, capsys):
    out = tmp_path / "asym"
    with pytest.raises(SystemExit) as exc:
        _run(["asymptotic", "--out", str(out), "--drops", "50", "--k-values", "1,2", *flags])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_asymptotic_accepts_one_worker(tmp_path):
    out = tmp_path / "asym"
    args = ["asymptotic", "--out", str(out), "--drops", "50", "--k-values", "1,2"]
    assert _run(args + ["--workers", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["workers"] == 1
    assert _run(args + ["--out", str(tmp_path / "default")]) == 0
    assert _read(out, "asymptotic.csv") == _read(tmp_path / "default", "asymptotic.csv")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        _run(["single-rb", "--k-values", "1,zebra"])
    assert exc.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["single-rb", "--power-mode", "controlled", "--mtd-power-dbm", "0,-10"],
        ["outage", "--power-mode", "controlled", "--mtd-power-dbm", "0"],
        ["outage", "--power-mode", "controlled", "--mtd-power-dbm", "0,-10"],
        ["throughput", "--mtd-power-dbm", "0,-10"],
        ["single-rb", "--k-values", "0,5"],
        ["throughput", "--k-values", "-2"],
        ["outage", "--workers", "-3"],
        ["outage", "--workers", "0"],
    ],
)
def test_bad_flag_values_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(args + ["--drops", "5", "--out", str(out)])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["single-rb", "--mtd-power-dbm", "nan"],
        ["single-rb", "--mtd-power-dbm", "0,inf"],
        ["outage", "--mtd-power-dbm", "nan"],
        ["throughput", "--mtd-power-dbm", "inf"],
    ],
)
def test_non_finite_mtd_power_flag_is_usage_error(args, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(args + ["--drops", "5", "--k-values", "1", "--out", str(out)])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0,0", "-10,0,-10.0", "-inf,-INF", "0,-0"])
def test_duplicate_mtd_powers_are_usage_errors(value, tmp_path, capsys):
    # a repeated power would run every one of its sweep points twice
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(["single-rb", "--mtd-power-dbm", value, "--drops", "5", "--k-values", "1,3",
              "--out", str(out)])
    assert exc.value.code == 1
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


def test_minus_inf_mtd_power_flag_switches_mtds_off(tmp_path):
    out = tmp_path / "o"
    args = ["single-rb", "--mtd-power-dbm=-inf", "--drops", "5", "--k-values", "1"]
    assert _run(args + ["--out", str(out)]) == 0
    assert (out / "single-rb.csv").read_text().splitlines()[1].startswith("1,-inf,")


@pytest.mark.parametrize(
    "value, powers",
    [("-10,0", [-10.0, 0.0]), ("-inf", [-math.inf]), ("-0.5", [-0.5]), ("-INF,3", [-math.inf, 3.0])],
)
def test_negative_mtd_power_list_as_separate_argument(value, powers, tmp_path):
    # a list starting with a negative number is the flag's value, not an option
    out = tmp_path / "o"
    args = ["single-rb", "--mtd-power-dbm", value, "--drops", "5", "--k-values", "1"]
    assert _run(args + ["--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["power_values_dbm"] == powers


def test_single_rb_run_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma (about 1 MB) for its NaN check
    code = (
        "import sys; from mtc_underlay.cli import main; "
        f"rc = main(['single-rb', '--drops', '50', '--k-values', '1,4', '--out', {str(tmp_path)!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize(
    "line",
    [
        "delta_th_db = nan",
        "cu_target_sinr_db = nan",
        "rb_bandwidth_hz = nan",
        "cell_radius_m = inf",
        "mtd_fixed_power_dbm = inf",
        "i0_dbm = -inf",
    ],
)
def test_non_finite_config_file_value_is_config_error(line, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    rc = _run(["outage", "--config", str(cfg), "--drops", "5", "--k-values", "1",
               "--out", str(out)])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# Configs whose fields each pass their own checks but which cannot be
# simulated: a bandwidth, power, target or mean path gain that is 0, subnormal
# or infinite in linear units. Unchecked, each exits 3 on an infinite race
# rate, or exits 0 with -inf or saturated rows.
_CONTROLLED = ["outage", "--power-mode", "controlled"]


@pytest.mark.parametrize(
    "args, lines, field",
    [
        pytest.param(_CONTROLLED, ["rb_bandwidth_hz = 1e-300"], "rb_bandwidth_hz",
                     id="outage-controlled-tiny-bandwidth"),
        pytest.param(_CONTROLLED, ["mtd_target_sinr_db = -4000"], "mtd_target_sinr",
                     id="outage-controlled-zero-mtd-target"),
        pytest.param(_CONTROLLED, ["i0_dbm = -4000", "noise_psd_dbm_hz = -4000"],
                     "noise_power_w", id="outage-controlled-zero-noise-and-i0"),
        pytest.param(["throughput", "--k-values", "20,50"], ["cell_radius_m = 1e300"],
                     "mean path gain at cell_radius_m", id="throughput-huge-cell"),
        pytest.param(["single-rb"], ["cell_radius_m = 1e300"],
                     "mean path gain at cell_radius_m", id="single-rb-huge-cell"),
        pytest.param(["single-rb"], ["i0_dbm = -4000", "noise_psd_dbm_hz = -4000"],
                     "noise_power_w", id="single-rb-zero-noise-and-i0"),
        pytest.param(["outage"], ["mtd_fixed_power_dbm = 4000"], "mtd_fixed_power_w",
                     id="outage-infinite-mtd-power"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_config_that_cannot_be_simulated_exits_2(args, lines, field, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert _run([*args, "--config", str(cfg), "--drops", "300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err, err
    assert "Traceback" not in err
    assert not out.exists()


_DB_VALUES = st.one_of(st.floats(-200.0, 200.0), st.floats(-5000.0, 5000.0),
                       st.sampled_from([math.inf, -math.inf, math.nan]))
_LINEAR_VALUES = st.one_of(st.floats(-330.0, 308.0).map(lambda e: 10.0 ** e),
                           st.floats(0.0, 2000.0), st.sampled_from([0.0, -1.0, math.inf, math.nan]))
# every numeric config field, in its own units, across and beyond its range
_FIELD_VALUES = {
    **{name: _DB_VALUES for name in (
        "noise_figure_db", "noise_psd_dbm_hz", "cu_target_sinr_db", "mtd_fixed_power_dbm",
        "mtd_target_sinr_db", "p_max_dbm", "i0_dbm", "delta_th_db", "delta_i_dbm")},
    **{name: _LINEAR_VALUES for name in (
        "cell_radius_m", "mta_cluster_radius_m", "rb_bandwidth_hz", "min_distance_m",
        "cu_mta_exclusion_m")},
    "antennas": st.integers(-1, 16),
    "n_rb": st.integers(-1, 40),
    "k": st.integers(-1, 10**6),
    "n_drops": st.integers(-1, 10**9),
    "seed": st.integers(-1, 2**64),
}
_CONFIGS = st.lists(st.one_of([st.tuples(st.just(n), v) for n, v in _FIELD_VALUES.items()]),
                    min_size=1, max_size=3).map(dict)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    fields=_CONFIGS,
    experiment=st.sampled_from(["single-rb", "throughput", "outage", "asymptotic"]),
    controlled=st.booleans(),
    ks=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_any_config_runs_clean_or_exits_2(fields, experiment, controlled, ks):
    # a tiny run either writes only finite cells (the power column may hold
    # its documented NaN under controlled power, or -inf for MTDs switched
    # off) or stops with a config error; never a runtime error, and no numpy
    # warning on the way (one would surface as a runtime error here)
    controlled = controlled and experiment != "asymptotic"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "sim.cfg", Path(tmp) / "o"
        cfg.write_text("".join(f"{name} = {value!r}\n" for name, value in fields.items()))
        args = [experiment, "--config", str(cfg), "--drops", "20",
                "--k-values", ",".join(map(str, ks)), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(args + ["--power-mode", "controlled"] * controlled)
        if rc == 2:
            assert err.getvalue().startswith("config error: ") and not out.exists()
            return
        assert rc == 0, err.getvalue()
        header, *rows = [line.split(",") for line in
                         (out / f"{experiment}.csv").read_text().splitlines()]
    for row in rows:
        for name, cell in zip(header, row):
            value = float(cell)
            if name == "mtd_power_dbm" and not math.isfinite(value):
                assert math.isnan(value) if controlled else value == -math.inf
            else:
                assert math.isfinite(value), (name, row)


def test_controlled_mode_from_config_file_rejects_mtd_power(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mtd_power_mode = controlled\n")
    with pytest.raises(SystemExit) as exc:
        _run(["single-rb", "--config", str(cfg), "--mtd-power-dbm", "0",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    capsys.readouterr()


def test_manifest_records_rng_contract(tmp_path):
    out = tmp_path / "run"
    assert _run(["outage", "--out", str(out), "--drops", "5", "--k-values", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["rng_contract"] == 7


class _Killed(BaseException):
    """Stands in for a kill: no ``except Exception`` handler runs."""


@pytest.mark.parametrize("fail_at", ["manifest-write", "manifest-move", "killed"])
def test_failed_rerun_leaves_no_new_csv_beside_old_manifest(
    fail_at, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    args = ["outage", "--out", str(out), "--drops", "10", "--k-values", "1"]
    assert _run(args + ["--seed", "1"]) == 0
    old_csv = _read(out, "outage.csv")
    old_manifest = _read(out, "manifest.json")

    if fail_at == "manifest-move":
        real_replace = cli.os.replace

        def replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
    else:
        error = _Killed() if fail_at == "killed" else OSError("disk full")

        def dump(*a, **kw):
            raise error

        monkeypatch.setattr(cli.json, "dump", dump)
    if fail_at == "killed":
        with pytest.raises(_Killed):
            _run(args + ["--seed", "2"])
    else:
        assert _run(args + ["--seed", "2"]) == 3
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    capsys.readouterr()

    if (out / "manifest.json").exists():
        assert _read(out, "manifest.json") == old_manifest
        assert _read(out, "outage.csv") == old_csv
    else:
        assert fail_at == "manifest-move"
        assert not (out / "outage.csv").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("antennas = 4\nwhatever = 12\n")
    rc = _run(["single-rb", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err

    rc = _run(["single-rb", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err

    rc = _run(["single-rb", "--drops", "0", "--out", str(tmp_path / "o2")])
    assert rc == 2


def test_runtime_errors_exit_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    rc = _run(["outage", "--out", str(blocker), "--drops", "10", "--k-values", "1"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_partial_artifacts_removed_on_late_failure(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", boom)
    out = tmp_path / "doomed"
    rc = _run(["outage", "--out", str(out), "--drops", "10", "--k-values", "1"])
    assert rc == 3
    assert not (out / "outage.csv").exists()
    assert not (out / "manifest.json").exists()
    capsys.readouterr()


def _cli_process(*args) -> subprocess.CompletedProcess:
    """``python -m mtc_underlay.cli ARGS`` in a fresh interpreter on this tree's ``src``."""
    return subprocess.run([sys.executable, "-m", "mtc_underlay.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=120)


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "smoke"
    proc = _cli_process("outage", "--out", str(out), "--drops", "20", "--k-values", "1")
    assert proc.returncode == 0, proc.stderr
    assert (out / "outage.csv").exists()


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["outage", "--workers", "0"], 1, "error: argument --workers: must be at least 1"),
        (["outage", "--drops", "0"], 2, "config error: n_drops must be"),
        (["outage", "--drops", "10", "--out", "{blocker}/o"], 3, "runtime error:"),
    ],
)
def test_process_exit_codes_and_messages(args, code, message, tmp_path):
    # the process entry keeps main's exit status and stderr on every failure,
    # and leaves no CSV or manifest behind
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    args = [a.format(blocker=blocker) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "o")]
    proc = _cli_process(*args)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.rglob("*")] == ["blocker"]


def test_entry_freezes_the_heap_on_every_way_out(tmp_path, capsys, monkeypatch):
    freezes = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: freezes.append(1))
    out = str(tmp_path / "o")
    assert cli.entry(["outage", "--drops", "5", "--k-values", "1", "--out", out]) == 0
    assert len(freezes) == 1
    assert cli.entry(["outage", "--drops", "0", "--out", out]) == 2
    assert len(freezes) == 2
    with pytest.raises(SystemExit) as exc:
        cli.entry(["outage", "--workers", "0", "--out", out])
    assert exc.value.code == 1
    assert len(freezes) == 3
    capsys.readouterr()


def test_main_leaves_the_collector_alone(tmp_path):
    assert cli.main(["outage", "--drops", "5", "--k-values", "1",
                     "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def _main_block_call(path: Path) -> str:
    """The name of the function ``sys.exit`` calls under ``if __name__ ==
    "__main__"`` in the module at ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (stmt,) = node.body
            assert ast.unparse(stmt.value.func) == "sys.exit"
            return stmt.value.args[0].func.id
    raise AssertionError(f"no __main__ block in {path}")


def test_console_script_uses_the_main_block_entry():
    # an installed mtc-underlay and python -m mtc_underlay.cli exit the same way
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["mtc-underlay"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert target is getattr(cli, _main_block_call(Path(cli.__file__))) is cli.entry
