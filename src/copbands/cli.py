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

A subcommand checks its inputs and returns its CSV lines together with the
parameters that reproduce them, the seed of an experiment among them; it
writes no file. ``main`` writes the CSV at ``--out`` and a JSON manifest
sidecar beside it (``<out>.manifest.json``). All numeric output uses
shortest round-trip decimal formatting, and exit codes are 0 (success), 2
(usage or configuration error, raised as ``ValueError``), 3 (numeric
failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .bands import MIN_N, BandMethod, BandSpec, NumericError, half_width
from .copula import frank_sigma2
from .estimator import _GRID_RESOLUTION, PairedSample, _check_bandwidth, default_bandwidth
from .estimator import estimate_grid, interior_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# replicate statistics are benchmarked against this constant in lil mode
LIL_BOUND = 3.0

_REQUIRED = object()

METHODS = [method.value for method in BandMethod]

# key: (value parser, list-valued, default or _REQUIRED). Keys are parsed,
# and their errors reported, in this order.
CONFIG_FIELDS = {
    "thetas": (float, True, _REQUIRED),
    "ns": (int, True, _REQUIRED),
    "B": (int, False, _REQUIRED),
    "seed": (int, False, _REQUIRED),
    "methods": (str, True, _REQUIRED),
    "grid": (int, False, _GRID_RESOLUTION),
    "bandwidth": (lambda raw: None if raw == "auto" else float(raw), False, None),
    "A": (float, False, BandSpec.A),
    "confidence": (float, False, BandSpec.confidence),
    "epsilon": (float, False, BandSpec.epsilon),
}


def _fmt(x) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def _file_error(path, exc: OSError | UnicodeDecodeError) -> ValueError:
    """Usage error naming a file that cannot be opened, read, decoded or written."""
    if isinstance(exc, UnicodeDecodeError):
        bad = exc.object[exc.start:exc.end]
        return ValueError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})")
    return ValueError(f"{path}: {exc.strerror or exc}")


def _is_xy_header(row) -> bool:
    return row is not None and [cell.strip() for cell in row] == ["x", "y"]


def _read_xy(path: str) -> PairedSample:
    """Sample of the x,y CSV at ``path``, and the one check of its row floor."""
    columns = _load_xy(path)
    xs, ys = _parse_xy(path) if columns is None else columns
    if len(xs) < MIN_N:
        raise ValueError(f"{path}: need at least {MIN_N} data rows, found {len(xs)} "
                         f"(the normalization R_n = sqrt(n / (2 log log n)) requires n >= {MIN_N})")
    return PairedSample(xs, ys)


def _load_xy(path: str) -> np.ndarray | None:
    """The x and y columns at ``path`` read by ``np.loadtxt``, or None.

    This is the fast path of :func:`_read_xy`: numpy's C tokenizer reads a
    file of plain numbers, and on None the per-line :func:`_parse_xy`
    reads the file again, judges it and reports its errors. None unless
    the header is ``x,y`` and loadtxt reads rows of two finite values.
    loadtxt parses a number with the function float() calls, and refuses
    what float() alone accepts (quotes, ``1_0``, non-ASCII digits) and
    lines of one cell, so whatever it reads has the values of
    :func:`_parse_xy` bit for bit.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file warns "input contained no data"
            if not _is_xy_header(next(csv.reader(fh), None)):
                return None
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except Exception:  # whatever loadtxt refuses, the per-line parser judges and reports
        return None
    if table.shape[1] != 2 or not np.isfinite(table).all():
        return None
    return np.ascontiguousarray(table.T)


def _parse_xy(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-line reader of the columns at ``path``, the source of every input error
    but the row floor, each naming the file and, where there is one, the line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel writes a byte-order mark
            reader = csv.reader(fh)
            if not _is_xy_header(next(reader, None)):
                raise ValueError(f"{path}:1: expected header 'x,y'")
            xs, ys = [], []
            for row in reader:
                lineno = reader.line_num  # physical line: a quoted cell may span lines
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 columns, found {len(row)}")
                pair = []
                for name, cell in zip(("x", "y"), row):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}: non-numeric value {cell.strip()!r} in column {name}"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}:{lineno}: non-finite value {cell.strip()!r} in column {name}"
                        )
                    pair.append(value)
                xs.append(pair[0])
                ys.append(pair[1])
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc) from exc
    return np.array(xs), np.array(ys)


def _parse_scalar(path, lineno, key, raw, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: invalid value {raw!r} for key '{key}'") from None


def _parse_list(path, lineno, key, raw, kind):
    items = [token.strip() for token in raw.split(",") if token.strip()]
    if not items:
        raise ValueError(f"{path}:{lineno}: key '{key}' needs at least one value")
    return tuple(_parse_scalar(path, lineno, key, token, kind) for token in items)


def _parse_config(path: str) -> dict:
    """Parse the flat ``key = value`` experiment configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # Notepad writes a byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc) from exc

    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)

    unknown = sorted(set(entries) - set(CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    missing = [key for key, field in CONFIG_FIELDS.items()
               if field[2] is _REQUIRED and key not in entries]
    if missing:
        raise ValueError(f"{path}: missing required config keys: {', '.join(missing)}")

    cfg = {}
    for key, (kind, many, default) in CONFIG_FIELDS.items():
        if key not in entries:
            cfg[key] = default
            continue
        lineno, raw = entries[key]
        cfg[key] = (_parse_list if many else _parse_scalar)(path, lineno, key, raw, kind)
        if key == "methods":
            for method in cfg[key]:
                if method not in METHODS:
                    raise ValueError(f"{path}:{lineno}: unknown method '{method}' "
                                     f"(use {' or '.join(METHODS)})")
            if len(set(cfg[key])) != len(cfg[key]):
                raise ValueError(f"{path}:{lineno}: duplicate method in 'methods'")
    return cfg


def _write_result(args, lines, parameters: dict, started: float) -> None:
    """Write the CSV at ``args.out`` and its manifest beside it."""
    path = args.out
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        manifest = {
            "subcommand": args.command,
            "parameters": parameters,
            "seed": parameters.get("seed"),
            "version": __version__,
            "duration_seconds": round(time.monotonic() - started, 6),
        }
        path = f"{args.out}.manifest.json"
        Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        if path != args.out:  # no CSV without the manifest that reproduces it
            Path(args.out).unlink(missing_ok=True)
        raise _file_error(path, exc) from exc


def _estimate(args, knots):
    """Estimate surface of ``args.input`` on ``knots`` and its manifest parameters.

    ``--bandwidth`` is checked before the file is read.
    """
    if args.bandwidth is not None:
        _check_bandwidth(args.bandwidth)
    sample = _read_xy(args.input)
    h = default_bandwidth(sample.n) if args.bandwidth is None else args.bandwidth
    parameters = {"input": args.input, "n": sample.n, "grid": args.grid, "bandwidth": h}
    return estimate_grid(sample, h, knots), parameters


def _grid_lines(header: str, knots, *surfaces) -> list:
    """One ``u,v,<surface values>`` CSV line per knot pair, u-major."""
    cells = [_fmt(k) for k in knots.tolist()]  # Python floats format faster than numpy's
    lines = [header]
    for u, *rows in zip(cells, *(s.tolist() for s in surfaces)):
        for v, *values in zip(cells, *rows):
            lines.append(",".join([u, v, *map(_fmt, values)]))
    return lines


def _cmd_estimate(args):
    knots = interior_grid(args.grid)  # options are checked before the file is read
    grid, parameters = _estimate(args, knots)
    return _grid_lines("u,v,estimate", knots, grid), parameters


def _cmd_bands(args):
    # options are checked before the file is read
    method = BandMethod(args.method)
    if method is BandMethod.NORMAL and args.theta is None:
        raise ValueError("--method normal requires --theta (variance is evaluated at the true parameter)")
    spec = BandSpec(method, A=args.A, epsilon=args.epsilon, confidence=args.confidence)
    knots = interior_grid(args.grid)
    sigma2 = None  # frank_sigma2 rejects a theta that is not finite, whatever the method
    if args.theta is not None:
        sigma2 = frank_sigma2(args.theta, knots[:, None], knots[None, :])
    center, parameters = _estimate(args, knots)

    hw = half_width(spec, parameters["n"], sigma2)
    lower = center - hw
    upper = center + hw
    clamp = not args.no_clamp
    if clamp:
        lower = np.clip(lower, 0.0, 1.0)
        upper = np.clip(upper, 0.0, 1.0)

    parameters.update(method=method.value, A=args.A, epsilon=args.epsilon,
                      confidence=args.confidence, theta=args.theta, clamp=clamp)
    return _grid_lines("u,v,lower,center,upper", knots, lower, center, upper), parameters


def _load_experiment(args):
    """Experiment of ``--config`` with ``--seed`` applied, and its manifest parameters.

    Every band spec gets all of A, epsilon and confidence, so each band
    option is checked whichever methods are listed. The parameters are the
    parsed config plus ``config`` (its path) and ``bandwidths``, the h
    each n of ``ns`` runs at, in the order of ``ns``.
    """
    from .montecarlo import ExperimentConfig  # only experiments load the engine
    cfg = _parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    specs = tuple(
        BandSpec(BandMethod(method), A=cfg["A"], epsilon=cfg["epsilon"], confidence=cfg["confidence"])
        for method in cfg["methods"]
    )
    config = ExperimentConfig(
        thetas=cfg["thetas"],
        ns=cfg["ns"],
        B=cfg["B"],
        seed=cfg["seed"],
        grid_resolution=cfg["grid"],
        bandwidth=cfg["bandwidth"],
        band_specs=specs,
    )
    bandwidths = [config.bandwidth_for(n) for n in config.ns]
    return config, {**cfg, "config": args.config, "bandwidths": bandwidths}


def _cmd_simulate_coverage(args):
    from .montecarlo import run_coverage
    config, parameters = _load_experiment(args)
    report = run_coverage(config)

    lines = ["method,theta,n,coverage,mc_stderr,B,seed"]
    lines += [f"{row.method},{_fmt(row.theta)},{row.n},{_fmt(row.coverage)},"
              f"{_fmt(row.mc_stderr)},{row.B},{row.seed}" for row in report.rows]
    return lines, parameters


def _lil_verdict(report) -> str:
    """The LIL claim: at least 99% of each cell's statistics are at most ``LIL_BOUND``."""
    satisfied = all(row.fraction_within(LIL_BOUND) >= 0.99 for row in report.rows)
    return "bound satisfied" if satisfied else "bound exceeded"


def _bias_verdict(report) -> str:
    """The bias-rate claim: each theta's statistic falls strictly as n grows, in any row order."""
    by_theta = {}
    for row in sorted(report.rows, key=lambda row: row.n):
        by_theta.setdefault(row.theta, []).append(row.statistics[0])
    decay = all(all(b < a for a, b in zip(s, s[1:])) for s in by_theta.values())
    return "decay observed" if decay else "decay not observed"


def _cmd_verify(args):
    from .montecarlo import run_bias_check, run_lil_check
    config, parameters = _load_experiment(args)
    parameters["mode"] = args.mode

    if args.mode == "lil":
        report = run_lil_check(config)
        lines = ["mode,theta,n,B,stat_max,stat_mean,stat_p99,frac_within_bound"]
        for row in report.rows:
            frac = row.fraction_within(LIL_BOUND)
            lines.append(f"lil,{_fmt(row.theta)},{row.n},{row.B},{_fmt(row.stat_max)},"
                         f"{_fmt(row.stat_mean)},{_fmt(row.stat_p99)},{_fmt(frac)}")
        verdict = _lil_verdict(report)
    else:
        if len(config.ns) < 2:
            raise ValueError(f"{args.config}: bias decay needs at least two sample sizes in 'ns'")
        report = run_bias_check(config)
        lines = ["mode,theta,n,B,statistic"]
        lines += [f"bias,{_fmt(row.theta)},{row.n},{row.B},{_fmt(row.statistics[0])}"
                  for row in report.rows]
        verdict = _bias_verdict(report)
    return [*lines, f"# verdict: {verdict}"], parameters


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copbands",
        description="Kernel copula estimation with simultaneous confidence bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("input", help="CSV file with header x,y")
    sample.add_argument("--grid", type=int, default=_GRID_RESOLUTION,
                        help="interior grid resolution per axis")
    sample.add_argument("--bandwidth", type=float, default=None, help="override h (default 1/log n)")
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True, help="flat key = value config file")
    experiment.add_argument("--seed", type=int, default=None, help="override the config seed")
    for shared in (sample, experiment):
        shared.add_argument("--out", required=True, help="output CSV path")

    estimate = sub.add_parser("estimate", parents=[sample],
                              help="estimate a copula surface from x,y data")
    estimate.set_defaults(func=_cmd_estimate)

    bands = sub.add_parser("bands", parents=[sample], help="estimate plus confidence band surfaces")
    bands.add_argument("--method", choices=METHODS, default=BandMethod.LIL.value)
    bands.add_argument("--A", type=float, default=BandSpec.A, help="LIL half-width constant")
    bands.add_argument("--epsilon", type=float, default=BandSpec.epsilon,
                       help="LIL margin factor in (-1, 1)")
    bands.add_argument("--confidence", type=float, default=BandSpec.confidence,
                       help="normal-method confidence")
    bands.add_argument("--theta", type=float, default=None,
                       help="true Frank parameter for the normal-method variance")
    bands.add_argument("--no-clamp", action="store_true", help="do not truncate bands to [0, 1]")
    bands.set_defaults(func=_cmd_bands)

    coverage = sub.add_parser("simulate-coverage", parents=[experiment],
                              help="Monte Carlo coverage table")
    coverage.set_defaults(func=_cmd_simulate_coverage)

    verify = sub.add_parser("verify", parents=[experiment], help="deviation-statistic experiments")
    verify.add_argument("mode", choices=["lil", "bias"])
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        lines, parameters = args.func(args)
        _write_result(args, lines, parameters, started)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK
