"""Command-line front end: run experiments, write CSV artifacts + a manifest.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .config import ConfigError, SimConfig, parse_config
from .montecarlo import (
    RNG_CONTRACT,
    experiment_outage,
    experiment_single_rb,
    experiment_throughput,
    verify_asymptotic,
)

_DEFAULT_K_VALUES = {
    "single-rb": [1, 10, 100, 1000],
    "throughput": [20, 50, 100, 200, 500, 1000],
    "outage": [1, 10, 100, 1000],
    "asymptotic": [1, 2, 5, 10, 100, 1000, 10000],
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage-error exit status pinned to 1, taking an
    argument that starts with a negative number (``-10,0``, ``-inf``) for a
    value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        values = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if values[0] < 1:
        raise argparse.ArgumentTypeError(f"K values must be at least 1, got {values[0]}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if any(math.isnan(v) or v == math.inf for v in values):
        raise argparse.ArgumentTypeError(f"powers must be numbers or -inf (off), got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"powers must be distinct, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mtc-underlay",
        description="Monte Carlo experiments for machine-type uplink traffic "
        "underlaying cellular resource blocks.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_ArgumentParser)
    for name, helptext in (
        ("single-rb", "cellular SINR statistics on one shared RB"),
        ("throughput", "CU throughput over all RBs vs number of MTDs"),
        ("outage", "CU outage probability vs number of MTDs"),
        ("asymptotic", "min-interference order statistic vs its product form"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the root seed (u64)")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory")
        p.add_argument("--drops", type=int, help="override the drop count")
        p.add_argument("--k-values", type=_int_list, metavar="K1,K2,...",
                       help="MTD counts to sweep (sorted, deduplicated)")
        if name == "asymptotic":
            # serial, i.i.d. channels: power and pool flags would be ignored
            p.add_argument("--workers", type=int, choices=[1], default=1,
                           help="process count (the check runs serially)")
            continue
        p.add_argument("--power-mode", choices=("fixed", "controlled"),
                       help="override the MTD power mode")
        p.add_argument("--mtd-power-dbm", type=_float_list, metavar="P1,P2,...",
                       help="fixed-mode MTD TX power sweep (single-rb) or value")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="process count, at most one per chunk of drops (results "
                       "are worker-count invariant; above 1 needs POSIX fork)")
    return parser


def _load_config(args) -> SimConfig:
    if args.config:
        try:
            config = parse_config(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    else:
        config = SimConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.drops is not None:
        config = replace(config, n_drops=args.drops)
    if getattr(args, "power_mode", None) is not None:
        config = replace(config, mtd_power_mode=args.power_mode)
    powers = getattr(args, "mtd_power_dbm", None)
    if powers is not None and args.experiment != "single-rb":
        config = replace(config, mtd_fixed_power_dbm=powers[0])
    config.validate()
    return config


def _execute(args, config: SimConfig):
    """Run the requested experiment; returns (csv_text, manifest_extras)."""
    k_values = args.k_values or _DEFAULT_K_VALUES[args.experiment]
    extras = {"k_values": k_values}
    if args.experiment == "single-rb":
        powers = args.mtd_power_dbm
        summary = experiment_single_rb(config, k_values, powers, workers=args.workers)
        extras["power_values_dbm"] = powers
    elif args.experiment == "throughput":
        summary = experiment_throughput(config, k_values, workers=args.workers)
    elif args.experiment == "outage":
        summary = experiment_outage(config, k_values, workers=args.workers)
    else:
        summary = verify_asymptotic(config, k_values)
    return summary.to_csv_text(), {**extras, **summary.manifest}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    powers = getattr(args, "mtd_power_dbm", None)
    if powers is not None and config.mtd_power_mode == "controlled":
        parser.error("--mtd-power-dbm sets the fixed MTD power; controlled power mode ignores it")
    if powers is not None and args.experiment != "single-rb" and len(powers) != 1:
        parser.error(f"--mtd-power-dbm takes a single value for {args.experiment}, got {powers}")

    created: list[str] = []
    started = time.perf_counter()
    try:
        csv_text, extras = _execute(args, config)
        csv_name = f"{args.experiment}.csv"
        os.makedirs(args.out, exist_ok=True)
        manifest = {
            "experiment": args.experiment,
            "seed": config.seed,
            "workers": args.workers,
            "config": asdict(config),
            "rng_contract": RNG_CONTRACT,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "artifacts": [csv_name],
            "duration_s": round(time.perf_counter() - started, 3),
            **extras,
        }
        csv_tmp = _stage(args.out, csv_name, created, lambda fh: fh.write(csv_text))
        manifest_tmp = _stage(
            args.out, "manifest.json", created, lambda fh: _dump_json(manifest, fh)
        )
        # The manifest describes the CSV: retire the old one before the CSV is
        # replaced and move the new one in last, so no failure can leave a CSV
        # beside a manifest from another run.
        csv_path = os.path.join(args.out, csv_name)
        manifest_path = os.path.join(args.out, "manifest.json")
        _cleanup([manifest_path])
        os.replace(csv_tmp, csv_path)
        created.append(csv_path)
        os.replace(manifest_tmp, manifest_path)
    except ConfigError as exc:
        _cleanup(created)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface anything as exit code 3
        _cleanup(created)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def _stage(out_dir: str, name: str, created: list[str], write) -> str:
    """Write a file's content to a temporary file beside its final path; the
    temporary path is added to ``created`` before anything is written."""
    path = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    created.append(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    return path


def _dump_json(data, fh) -> None:
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _cleanup(paths: list[str]) -> None:
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass


def entry(argv=None) -> int:
    """Process entry point: :func:`main`, then ``gc.freeze()`` on every way
    out, so the interpreter's shutdown collections skip the objects importing
    numpy and this package left behind, which no output depends on.
    :func:`main` itself leaves the collector alone."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
