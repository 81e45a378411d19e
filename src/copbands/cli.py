"""Command-line interface and flat-file I/O.

Subcommands
-----------
estimate
    Kernel copula estimate of a two-column CSV sample on an interior grid.
bands
    Estimate plus lower/upper confidence surfaces (LIL or normal method).
simulate-coverage
    Monte Carlo coverage table for Frank-copula ground truth.
verify
    Deviation-statistic experiments (lil: normalized maximal deviation
    against the replicate mean; bias: normalized mean-vs-truth deviation).

All numeric output uses shortest round-trip decimal formatting, every
output file gets a JSON manifest sidecar (``<out>.manifest.json``), and
exit codes are 0 (success), 2 (usage or configuration error), 3 (numeric
failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bands import BandMethod, BandSpec, NumericError, half_width
from .copula import frank_sigma2
from .estimator import (
    PairedSample,
    default_bandwidth,
    estimate_grid,
    interior_grid,
    make_pseudo_sample,
)
from .montecarlo import ExperimentConfig, run_bias_check, run_coverage, run_lil_check

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# replicate statistics are benchmarked against this constant in lil mode
LIL_BOUND = 3.0

CONFIG_KEYS = (
    "thetas", "ns", "B", "seed", "grid", "bandwidth", "methods",
    "A", "confidence", "epsilon",
)
REQUIRED_CONFIG_KEYS = ("thetas", "ns", "B", "seed", "methods")


class CliError(Exception):
    """Usage or configuration error; mapped to exit code 2."""


def _fmt(x) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def _read_xy(path: str) -> PairedSample:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [cell.strip() for cell in header] != ["x", "y"]:
            raise CliError(f"{path}:1: expected header 'x,y'")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CliError(f"{path}:{lineno}: expected 2 columns, found {len(row)}")
            pair = []
            for name, cell in zip(("x", "y"), row):
                try:
                    value = float(cell)
                except ValueError:
                    raise CliError(
                        f"{path}:{lineno}: non-numeric value {cell.strip()!r} in column {name}"
                    ) from None
                if not math.isfinite(value):
                    raise CliError(
                        f"{path}:{lineno}: non-finite value {cell.strip()!r} in column {name}"
                    )
                pair.append(value)
            xs.append(pair[0])
            ys.append(pair[1])
    if len(xs) < 2:
        raise CliError(f"{path}: need at least 2 data rows, found {len(xs)}")
    return PairedSample(np.array(xs), np.array(ys))


def _parse_scalar(path, lineno, key, raw, kind):
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{path}:{lineno}: invalid value {raw!r} for key '{key}'") from None


def _parse_list(path, lineno, key, raw, kind):
    items = [token.strip() for token in raw.split(",") if token.strip()]
    if not items:
        raise CliError(f"{path}:{lineno}: key '{key}' needs at least one value")
    return tuple(_parse_scalar(path, lineno, key, token, kind) for token in items)


def _parse_config(path: str) -> dict:
    """Parse the flat ``key = value`` experiment configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc

    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        if key in entries:
            raise CliError(f"{path}:{lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)

    unknown = sorted(set(entries) - set(CONFIG_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(unknown)}")
    missing = [key for key in REQUIRED_CONFIG_KEYS if key not in entries]
    if missing:
        raise CliError(f"{path}: missing required config keys: {', '.join(missing)}")

    cfg = {}
    lineno, raw = entries["thetas"]
    cfg["thetas"] = _parse_list(path, lineno, "thetas", raw, float)
    lineno, raw = entries["ns"]
    cfg["ns"] = _parse_list(path, lineno, "ns", raw, int)
    lineno, raw = entries["B"]
    cfg["B"] = _parse_scalar(path, lineno, "B", raw, int)
    lineno, raw = entries["seed"]
    cfg["seed"] = _parse_scalar(path, lineno, "seed", raw, int)
    lineno, raw = entries["methods"]
    methods = _parse_list(path, lineno, "methods", raw, str)
    for method in methods:
        if method not in ("lil", "normal"):
            raise CliError(f"{path}:{lineno}: unknown method '{method}' (use lil or normal)")
    if len(set(methods)) != len(methods):
        raise CliError(f"{path}:{lineno}: duplicate method in 'methods'")
    cfg["methods"] = methods

    if "grid" in entries:
        lineno, raw = entries["grid"]
        cfg["grid"] = _parse_scalar(path, lineno, "grid", raw, int)
    else:
        cfg["grid"] = 33
    if "bandwidth" in entries:
        lineno, raw = entries["bandwidth"]
        cfg["bandwidth"] = None if raw == "auto" else _parse_scalar(path, lineno, "bandwidth", raw, float)
    else:
        cfg["bandwidth"] = None
    for key, default in (("A", 0.5), ("confidence", 0.99), ("epsilon", 0.0)):
        if key in entries:
            lineno, raw = entries[key]
            cfg[key] = _parse_scalar(path, lineno, key, raw, float)
        else:
            cfg[key] = default
    return cfg


def _write_lines(out_path: str, lines) -> None:
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CliError(f"{out_path}: {exc.strerror or exc}") from exc


def _write_manifest(out_path: str, subcommand: str, parameters: dict, seed, started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    try:
        Path(str(out_path) + ".manifest.json").write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{out_path}.manifest.json: {exc.strerror or exc}") from exc


def _cmd_estimate(args) -> int:
    started = time.monotonic()
    sample = _read_xy(args.input)
    if sample.n < 16:
        raise CliError(f"{args.input}: need at least 16 data rows, found {sample.n}")
    knots = interior_grid(args.grid)
    h = default_bandwidth(sample.n) if args.bandwidth is None else args.bandwidth
    grid = estimate_grid(make_pseudo_sample(sample), h, knots)

    lines = ["u,v,estimate"]
    for i, u in enumerate(knots):
        for j, v in enumerate(knots):
            lines.append(f"{_fmt(u)},{_fmt(v)},{_fmt(grid.values[i, j])}")
    _write_lines(args.out, lines)
    _write_manifest(
        args.out,
        "estimate",
        {"input": args.input, "n": sample.n, "grid": args.grid, "bandwidth": h},
        seed=None,
        started=started,
    )
    return EXIT_OK


def _cmd_bands(args) -> int:
    started = time.monotonic()
    sample = _read_xy(args.input)
    if sample.n < 16:
        raise CliError(
            f"{args.input}: n = {sample.n} is too small for bands: the half-width "
            "normalization R_n = sqrt(n / (2 log log n)) requires n >= 16"
        )
    method = BandMethod(args.method)
    if method is BandMethod.NORMAL and args.theta is None:
        raise CliError("--method normal requires --theta (variance is evaluated at the true parameter)")
    knots = interior_grid(args.grid)
    h = default_bandwidth(sample.n) if args.bandwidth is None else args.bandwidth
    center = estimate_grid(make_pseudo_sample(sample), h, knots)

    if method is BandMethod.LIL:
        spec = BandSpec(BandMethod.LIL, A=args.A, epsilon=args.epsilon)
        hw = half_width(spec, sample.n)
    else:
        spec = BandSpec(BandMethod.NORMAL, confidence=args.confidence)
        hw = half_width(spec, sample.n, frank_sigma2(args.theta, knots[:, None], knots[None, :]))
    lower = center.values - hw
    upper = center.values + hw
    clamp = not args.no_clamp
    if clamp:
        lower = np.clip(lower, 0.0, 1.0)
        upper = np.clip(upper, 0.0, 1.0)

    lines = ["u,v,lower,center,upper"]
    for i, u in enumerate(knots):
        for j, v in enumerate(knots):
            lines.append(
                f"{_fmt(u)},{_fmt(v)},{_fmt(lower[i, j])},"
                f"{_fmt(center.values[i, j])},{_fmt(upper[i, j])}"
            )
    _write_lines(args.out, lines)
    parameters = {
        "input": args.input,
        "n": sample.n,
        "grid": args.grid,
        "bandwidth": h,
        "method": method.value,
        "A": args.A,
        "epsilon": args.epsilon,
        "confidence": args.confidence,
        "theta": args.theta,
        "clamp": clamp,
    }
    _write_manifest(args.out, "bands", parameters, seed=None, started=started)
    return EXIT_OK


def _experiment_config(cfg: dict, band_specs) -> ExperimentConfig:
    return ExperimentConfig(
        thetas=cfg["thetas"],
        ns=cfg["ns"],
        B=cfg["B"],
        seed=cfg["seed"],
        grid_resolution=cfg["grid"],
        bandwidth=cfg["bandwidth"],
        band_specs=band_specs,
    )


def _cmd_simulate_coverage(args) -> int:
    started = time.monotonic()
    cfg = _parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    specs = []
    for method in cfg["methods"]:
        if method == "lil":
            specs.append(BandSpec(BandMethod.LIL, A=cfg["A"], epsilon=cfg["epsilon"]))
        else:
            specs.append(BandSpec(BandMethod.NORMAL, confidence=cfg["confidence"]))
    config = _experiment_config(cfg, tuple(specs))
    report = run_coverage(config)

    lines = ["method,theta,n,coverage,mc_stderr,B,seed"]
    for row in report.rows:
        lines.append(
            f"{row.method},{_fmt(row.theta)},{row.n},{_fmt(row.coverage)},"
            f"{_fmt(row.mc_stderr)},{row.B},{row.seed}"
        )
    _write_lines(args.out, lines)
    parameters = {key: cfg[key] for key in CONFIG_KEYS if key in cfg}
    parameters["config"] = args.config
    _write_manifest(args.out, "simulate-coverage", parameters, seed=cfg["seed"], started=started)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.monotonic()
    cfg = _parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    config = _experiment_config(cfg, (BandSpec(BandMethod.LIL, A=cfg["A"], epsilon=cfg["epsilon"]),))

    if args.mode == "lil":
        report = run_lil_check(config)
        lines = ["mode,theta,n,B,stat_max,stat_mean,stat_p99,frac_within_bound"]
        satisfied = True
        for row in report.rows:
            frac = row.fraction_within(LIL_BOUND)
            satisfied = satisfied and frac >= 0.99
            lines.append(
                f"lil,{_fmt(row.theta)},{row.n},{row.B},{_fmt(row.stat_max)},"
                f"{_fmt(row.stat_mean)},{_fmt(row.stat_p99)},{_fmt(frac)}"
            )
        verdict = "bound satisfied" if satisfied else "bound exceeded"
    else:
        report = run_bias_check(config)
        lines = ["mode,theta,n,B,statistic"]
        decay = True
        by_n = sorted(report.rows, key=lambda row: row.n)  # config ns may come in any order
        for theta in config.thetas:
            cell_stats = [row.statistics[0] for row in by_n if row.theta == theta]
            decay = decay and all(b < a for a, b in zip(cell_stats, cell_stats[1:]))
        for row in report.rows:
            lines.append(f"bias,{_fmt(row.theta)},{row.n},{row.B},{_fmt(row.statistics[0])}")
        verdict = "decay observed" if decay else "decay not observed"
    lines.append(f"# verdict: {verdict}")
    _write_lines(args.out, lines)

    parameters = {key: cfg[key] for key in CONFIG_KEYS if key in cfg}
    parameters["config"] = args.config
    parameters["mode"] = args.mode
    _write_manifest(args.out, "verify", parameters, seed=cfg["seed"], started=started)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copbands",
        description="Kernel copula estimation with simultaneous confidence bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="estimate a copula surface from x,y data")
    estimate.add_argument("input", help="CSV file with header x,y")
    estimate.add_argument("--grid", type=int, default=33, help="interior grid resolution per axis")
    estimate.add_argument("--bandwidth", type=float, default=None, help="override h (default 1/log n)")
    estimate.add_argument("--out", required=True, help="output CSV path")
    estimate.set_defaults(func=_cmd_estimate)

    bands = sub.add_parser("bands", help="estimate plus confidence band surfaces")
    bands.add_argument("input", help="CSV file with header x,y")
    bands.add_argument("--method", choices=["lil", "normal"], default="lil")
    bands.add_argument("--A", type=float, default=0.5, help="LIL half-width constant")
    bands.add_argument("--epsilon", type=float, default=0.0, help="LIL margin factor in (-1, 1)")
    bands.add_argument("--confidence", type=float, default=0.99, help="normal-method confidence")
    bands.add_argument("--theta", type=float, default=None,
                       help="true Frank parameter for the normal-method variance")
    bands.add_argument("--grid", type=int, default=33)
    bands.add_argument("--bandwidth", type=float, default=None)
    bands.add_argument("--no-clamp", action="store_true", help="do not truncate bands to [0, 1]")
    bands.add_argument("--out", required=True)
    bands.set_defaults(func=_cmd_bands)

    coverage = sub.add_parser("simulate-coverage", help="Monte Carlo coverage table")
    coverage.add_argument("--config", required=True, help="flat key = value config file")
    coverage.add_argument("--seed", type=int, default=None, help="override the config seed")
    coverage.add_argument("--out", required=True)
    coverage.set_defaults(func=_cmd_simulate_coverage)

    verify = sub.add_parser("verify", help="deviation-statistic experiments")
    verify.add_argument("mode", choices=["lil", "bias"])
    verify.add_argument("--config", required=True)
    verify.add_argument("--seed", type=int, default=None, help="override the config seed")
    verify.add_argument("--out", required=True)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
