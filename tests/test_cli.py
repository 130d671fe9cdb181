"""End-to-end CLI behaviour: artifacts, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtc_underlay.cli as cli

DATA = Path(__file__).parent / "data"


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


def test_rerun_is_byte_identical(tmp_path):
    args = ["outage", "--drops", "80", "--k-values", "2", "--seed", "7"]
    assert _run(args + ["--out", str(tmp_path / "a")]) == 0
    assert _run(args + ["--out", str(tmp_path / "b")]) == 0
    assert _read(tmp_path / "a", "outage.csv") == _read(tmp_path / "b", "outage.csv")


def test_worker_count_does_not_change_artifact(tmp_path):
    base = ["single-rb", "--drops", "64", "--k-values", "1,2"]
    assert _run(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert _run(base + ["--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    assert _read(tmp_path / "w1", "single-rb.csv") == _read(tmp_path / "w2", "single-rb.csv")


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


def test_asymptotic_golden_csv_and_phi(tmp_path):
    # written by the CLI when it formatted the asymptotic CSV by hand
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
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
    assert json.loads((out / "manifest.json").read_text())["rng_contract"] == 5


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


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "smoke"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mtc_underlay.cli",
            "outage",
            "--out",
            str(out),
            "--drops",
            "20",
            "--k-values",
            "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "outage.csv").exists()
