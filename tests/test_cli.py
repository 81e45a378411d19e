"""Command-line interface: subcommands, config parsing, exit codes, CSV.

Every rejection runs through ``_rejected``, which checks the exit code and
that neither the CSV nor its manifest is left behind. The wiring tests set
every option or config key off its default and compare the output with the
library's: ``test_estimate_custom_grid_and_bandwidth``,
``test_bands_are_center_plus_minus_half_width``,
``test_simulate_coverage_happy_path`` and ``test_verify_*_writes_verdict``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copbands
import copbands.cli as cli
from copbands.bands import BandMethod, BandSpec, half_width
from copbands.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from copbands.copula import frank_sigma2
from copbands.estimator import PairedSample, estimate_grid, interior_grid
from copbands.montecarlo import DeviationReport, DeviationRow, ExperimentConfig
from copbands.montecarlo import run_bias_check, run_coverage, run_lil_check


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _config(tmp_path, name="exp.cfg", **overrides):
    entries = {"thetas": "1", "ns": "16", "B": "10", "seed": "5", "methods": "lil", "grid": "5",
               **overrides}
    lines = [f"{k} = {v}" for k, v in entries.items() if v is not None]
    return _write(tmp_path / name, "\n".join(lines) + "\n")


def _rejected(tmp_path, capsys, argv, code=EXIT_USAGE):
    """stderr of ``main(argv)`` with an ``--out``; the run must exit with
    ``code`` and leave neither the CSV nor its manifest."""
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    return capsys.readouterr().err


def _config_rejected(tmp_path, capsys, cfg, command=("simulate-coverage",)):
    return _rejected(tmp_path, capsys, [*command, "--config", str(cfg)])


def _read_table(path):
    """Header and float rows of a CSV that ``main`` wrote."""
    header, *lines = path.read_text().splitlines()
    return header, np.array([line.split(",") for line in lines], dtype=float)


def _knot_table(knots, *surfaces):
    """The rows ``u, v, surface values`` of every knot pair, u-major."""
    u, v = np.meshgrid(knots, knots, indexing="ij")
    return np.column_stack([u.ravel(), v.ravel(), *(s.ravel() for s in surfaces)])


def _library_estimate(data, h, knots):
    return estimate_grid(PairedSample(*np.loadtxt(data, delimiter=",", skiprows=1).T), h, knots)


# ---------------------------------------------------------------- estimate


def test_estimate_happy_path(frank_xy, tmp_path):
    data = frank_xy(n=500)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(data), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,estimate"
    assert len(lines) == 1 + 33 * 33
    u, v, est = lines[1].split(",")
    assert float(u) == 1.0 / 34.0 and float(v) == 1.0 / 34.0
    assert 0.0 <= float(est) <= 1.0
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "estimate"
    assert manifest["parameters"]["n"] == 500
    assert manifest["version"]


@pytest.mark.parametrize("tied", [False, True])
def test_estimate_does_not_depend_on_row_order(frank_xy, tmp_path, tied):
    # 2000 rows span four blocks of the estimator sum; rounding ties both margins
    header, *rows = frank_xy(n=2000).read_text(encoding="utf-8").splitlines()
    if tied:
        rows = [",".join(f"{float(v):.2f}" for v in row.split(",")) for row in rows]
    shuffled = [rows[k] for k in np.random.default_rng(3).permutation(len(rows))]
    outputs = []
    for name, lines in (("rows", rows), ("shuffled", shuffled)):
        data = _write(tmp_path / f"{name}.csv", "\n".join([header, *lines]) + "\n")
        out = tmp_path / f"{name}.out.csv"
        assert main(["estimate", str(data), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_estimate_rejects_bad_header(tmp_path, capsys):
    data = _write(tmp_path / "bad.csv", "a,b\n1,2\n3,4\n")
    assert "expected header 'x,y'" in _rejected(tmp_path, capsys, ["estimate", str(data)])


@pytest.mark.parametrize("command", ["estimate", "bands"])
def test_byte_order_mark_is_ignored(frank_xy, tmp_path, command):
    # spreadsheet programs save CSV as UTF-8 with a leading byte-order mark
    plain = frank_xy(n=30)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = [tmp_path / "plain-out.csv", tmp_path / "marked-out.csv"]
    for data, out in zip((plain, marked), outs):
        assert main([command, str(data), "--grid", "5", "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_estimate_reports_bad_cell_location(tmp_path, capsys):
    rows = ["x,y"] + [f"{i}.0,{i}.5" for i in range(20)]
    rows[3] = "2.0,oops"
    data = _write(tmp_path / "bad.csv", "\n".join(rows) + "\n")
    err = _rejected(tmp_path, capsys, ["estimate", str(data)])
    assert ":4:" in err and "'oops'" in err and "column y" in err


def test_estimate_rejects_non_finite_value(tmp_path, capsys):
    rows = ["x,y"] + [f"{i}.0,{i}.5" for i in range(20)] + ["inf,1.0"]
    data = _write(tmp_path / "bad.csv", "\n".join(rows) + "\n")
    assert "non-finite" in _rejected(tmp_path, capsys, ["estimate", str(data)])


def test_estimate_missing_file(tmp_path, capsys):
    assert "no.csv" in _rejected(tmp_path, capsys, ["estimate", str(tmp_path / "no.csv")])


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    data = tmp_path / "latin.csv"
    data.write_bytes(b"x,y\n1,2\n\xff\xfe,3\n")
    err = _rejected(tmp_path, capsys, ["estimate", str(data)])
    assert err.startswith(f"error: {data}: not UTF-8 text") and "\\xff" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["estimate", "--grid", "1"], "grid resolution must be >= 2"),
     (["bands", "--grid", "1"], "grid resolution must be >= 2"),
     (["bands", "--confidence", "7"], "confidence must lie in (0, 1)"),
     (["bands", "--method", "normal"], "--method normal requires --theta"),
     (["bands", "--theta", "inf"], "theta must be a finite real number"),
     (["estimate", "--bandwidth", "0"], "bandwidth h must be positive and finite"),
     (["bands", "--bandwidth", "nan"], "bandwidth h must be positive and finite")],
    ids=["estimate-grid", "bands-grid", "bands-confidence", "bands-normal-theta", "bands-theta-inf",
         "estimate-bandwidth", "bands-bandwidth"],
)
def test_options_are_checked_before_the_file(tmp_path, capsys, argv, message):
    missing = tmp_path / "no.csv"
    assert main([argv[0], str(missing), *argv[1:], "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "no.csv" not in err


def test_estimate_unwritable_out_names_the_path(frank_xy, tmp_path, capsys):
    # --out in a missing directory, and --out an existing directory
    data = frank_xy(n=30)
    folder = tmp_path / "folder"
    folder.mkdir()
    for out in (tmp_path / "missing" / "x.csv", folder):
        assert main(["estimate", str(data), "--out", str(out)]) == EXIT_USAGE
        assert f"error: {out}:" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    assert folder.is_dir() and not Path(f"{folder}.manifest.json").exists()


def test_unwritable_manifest_leaves_no_csv(frank_xy, tmp_path, capsys):
    data = frank_xy(n=30)
    out = tmp_path / "x.csv"
    manifest = tmp_path / "x.csv.manifest.json"
    manifest.mkdir()
    assert main(["estimate", str(data), "--grid", "3", "--out", str(out)]) == EXIT_USAGE
    assert f"error: {manifest}:" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_custom_grid_and_bandwidth(frank_xy, tmp_path):
    # every option off its default: the output is the library's estimate
    data = frank_xy(n=30)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(data), "--grid", "5", "--bandwidth", "0.4",
                 "--out", str(out)]) == EXIT_OK
    header, table = _read_table(out)
    knots = interior_grid(5)
    assert header == "u,v,estimate"
    np.testing.assert_array_equal(table, _knot_table(knots, _library_estimate(data, 0.4, knots)))
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert manifest["parameters"] == {"input": str(data), "n": 30, "grid": 5, "bandwidth": 0.4}


@pytest.mark.parametrize("command", ["estimate", "bands"])
@pytest.mark.parametrize(
    "option, message",
    [("--grid=1", "grid resolution"), ("--bandwidth=0", "bandwidth"),
     ("--bandwidth=inf", "bandwidth")],
    ids=["grid-1", "bandwidth-0", "bandwidth-inf"],
)
def test_invalid_grid_or_bandwidth_exits_2(frank_xy, tmp_path, capsys, command, option,
                                           message):
    err = _rejected(tmp_path, capsys, [command, str(frank_xy(n=30)), option])
    assert err.startswith("error: ") and message in err


COMMANDS = {
    "estimate": cli._cmd_estimate,
    "bands": cli._cmd_bands,
    "simulate-coverage": cli._cmd_simulate_coverage,
    "verify": cli._cmd_verify,
}
SAMPLE_DEFAULTS = {"input": "d.csv", "grid": 33, "bandwidth": None, "out": "o.csv"}
BAND_DEFAULTS = {"method": "lil", "A": 0.5, "epsilon": 0.0, "confidence": 0.99, "theta": None,
                 "no_clamp": False}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["estimate", "d.csv", "--out", "o.csv"], SAMPLE_DEFAULTS),
        (["estimate", "d.csv", "--grid", "5", "--bandwidth", "0.25", "--out", "o.csv"],
         {**SAMPLE_DEFAULTS, "grid": 5, "bandwidth": 0.25}),
        (["bands", "d.csv", "--out", "o.csv"], {**SAMPLE_DEFAULTS, **BAND_DEFAULTS}),
        (["bands", "d.csv", "--grid", "5", "--bandwidth", "0.25", "--method", "normal",
          "--A", "1", "--epsilon", "0.5", "--confidence", "0.9", "--theta", "2", "--no-clamp",
          "--out", "o.csv"],
         {**SAMPLE_DEFAULTS, "grid": 5, "bandwidth": 0.25, "method": "normal", "A": 1.0,
          "epsilon": 0.5, "confidence": 0.9, "theta": 2.0, "no_clamp": True}),
        (["simulate-coverage", "--config", "e.cfg", "--out", "o.csv"],
         {"config": "e.cfg", "seed": None, "out": "o.csv"}),
        (["verify", "bias", "--config", "e.cfg", "--seed", "3", "--out", "o.csv"],
         {"mode": "bias", "config": "e.cfg", "seed": 3, "out": "o.csv"}),
    ],
    ids=["estimate", "estimate-set", "bands", "bands-set", "simulate-coverage", "verify"],
)
def test_subcommand_options_dests_and_defaults(argv, expected):
    args = vars(cli._build_parser().parse_args(argv))
    assert args.pop("command") == argv[0]
    assert args.pop("func") is COMMANDS[argv[0]]
    assert args == expected
    assert all(type(args[key]) is type(value) for key, value in expected.items())


@pytest.mark.parametrize(
    "argv",
    [["estimate", "d.csv"], ["bands", "d.csv"], ["simulate-coverage", "--config", "e.cfg"],
     ["verify", "lil", "--config", "e.cfg"], ["verify", "lil", "--out", "o.csv"],
     ["simulate-coverage", "--out", "o.csv"], ["estimate", "--out", "o.csv"]],
)
def test_required_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == EXIT_USAGE
    assert "the following arguments are required" in capsys.readouterr().err


def test_estimate_and_bands_runs_load_no_scipy_no_process_pool_and_no_engine(frank_xy, tmp_path):
    # importing scipy.special took 0.3 s of start-up, the process pool's
    # concurrent.futures and multiprocessing modules about 20 ms more, and
    # compiling copbands.montecarlo about 9 ms; neither the imports nor a
    # run, with its lazy imports, may load them
    data = frank_xy(n=40)
    code = (
        "import sys, copbands, copbands.cli\n"
        "data, out = sys.argv[1:]\n"
        "codes = [copbands.cli.main(['estimate', data, '--out', out]),\n"
        "         copbands.cli.main(['bands', data, '--method', 'normal', '--theta', '1',\n"
        "                            '--out', out])]\n"
        "print(codes, sorted(m for m in sys.modules if m == 'copbands.montecarlo'\n"
        "                    or m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))\n"
    )
    src = str(Path(copbands.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, str(data), str(tmp_path / "o.csv")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{[EXIT_OK, EXIT_OK]} []"


def test_grid_lines_pin_the_bytes_of_awkward_values():
    # shortest round-trip decimals, u-major, one column per surface; the
    # values are formatted as Python floats and must read as numpy scalars do
    knots = np.array([5e-324, 1.0 - 2.0**-53])
    a = np.array([[-0.0, 5e-324], [1.0 - 2.0**-53, 0.1 + 0.2]])
    b = np.array([[0.1 + 0.2, -0.0], [5e-324, 1e-05]])
    lines = cli._grid_lines("u,v,a,b", knots, a, b)
    assert lines == [
        "u,v,a,b",
        "5e-324,5e-324,-0.0,0.30000000000000004",
        "5e-324,0.9999999999999999,5e-324,-0.0",
        "0.9999999999999999,5e-324,0.9999999999999999,5e-324",
        "0.9999999999999999,0.9999999999999999,0.30000000000000004,1e-05",
    ]
    assert lines[1:] == [",".join(map(cli._fmt, (knots[i], knots[j], a[i, j], b[i, j])))
                         for i in range(2) for j in range(2)]


# -------------------------------------------------------------- CSV reader

_ROWS = ["-0.0,5e-324", "-5e-324,-0.0"] + [
    f"{0.37 * i - 3.0!r},{(i * 7919 % 23) / 23.0!r}" for i in range(2, 20)]


def _csv(rows, sep="\n", end="\n", head="x,y"):
    return (sep.join([head, *rows]) + end).encode("utf-8")


def _with(row, at=7):
    return _csv(_ROWS[:at] + [row] + _ROWS[at:])


def _big_rows():
    rng = np.random.default_rng(3)
    return [f"{a!r},{b!r}" for a, b in rng.normal(size=(50_321, 2)).tolist()]


# (file bytes, whether the loadtxt fast path reads it)
READER_CASES = {
    "lf": (_csv(_ROWS), True),
    "lf-no-final-newline": (_csv(_ROWS, end=""), True),
    "crlf": (_csv(_ROWS, sep="\r\n", end="\r\n"), True),
    "crlf-no-final-newline": (_csv(_ROWS, sep="\r\n", end=""), True),
    "cr": (_csv(_ROWS, sep="\r", end="\r"), True),
    "cr-no-final-newline": (_csv(_ROWS, sep="\r", end=""), True),
    "byte-order-mark": (b"\xef\xbb\xbf" + _csv(_ROWS), True),
    "blank-lines": (_csv(["", *_ROWS[:9], "", "", *_ROWS[9:], ""]), True),
    "padded-cells": (_with(" 1.5 , 2 "), True),
    "16-rows": (_csv(_ROWS[:16]), True),
    "padded-header": (_csv(_ROWS, head=" x , y "), True),
    "quoted-header": (_csv(_ROWS, head='"x","y"'), True),
    "50k-rows": (_csv(_big_rows()), True),
    "whitespace-line": (_with("  \t "), False),
    "hash-line": (_with("# a comment"), False),
    "quoted-cells": (_with('"1.5","2"'), False),
    "underscore-digits": (_with("1_0,2"), False),
    "arabic-indic-digit": (_with("١,2"), False),
    "inf": (_with("inf,2"), False),
    "nan": (_with("1,nan"), False),
    "one-column": (_with("1.5"), False),
    "one-column-file": (_csv([row.split(",")[0] for row in _ROWS]), False),
    "three-columns": (_with("1,2,3"), False),
    "trailing-comma": (_with("1,2,"), False),
    "empty-cell": (_with("1,"), False),
    "nul-byte": (_with("1\x00,2"), False),
    "quoted-newline": (b'x,y\n"1\n",2\n3,oops\n', False),
    "15-rows": (_csv(_ROWS[:15]), False),
    "header-only": (_csv([]), False),
    "bad-header": (_csv(_ROWS, head="x,z"), False),
    "empty-file": (b"", False),
}


def _outcome(read, path):
    """Digest of the bytes of xs and ys read from ``path``, or the error message."""
    try:
        sample = read(str(path))
    except ValueError as exc:
        return str(exc)
    return hashlib.sha256(sample.xs.tobytes() + sample.ys.tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(READER_CASES))
def test_reader_matches_the_per_line_parser(tmp_path, name):
    content, fast = READER_CASES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read = _outcome(cli._read_xy, path)
    assert read == _outcome(cli._parse_xy, path)
    assert not caught  # e.g. loadtxt's "input contained no data"
    assert (cli._load_xy(str(path)) is not None) is fast


def test_reader_errors_name_the_physical_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(READER_CASES["quoted-newline"][0])  # a quoted cell spans lines 2 and 3
    with pytest.raises(ValueError, match=":4: non-numeric value 'oops' in column y"):
        cli._read_xy(str(path))


_FORMATS = {"repr": repr, "%.25e": lambda v: f"{v:.25e}", "padded": lambda v: f" \t{v!r}  "}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]


@settings(max_examples=100, deadline=None)
@given(st.lists(_FINITE, min_size=1, max_size=8), st.sampled_from(sorted(_FORMATS)))
@example(_EDGES, "repr")
@example(_EDGES, "%.25e")
@example(_EDGES, "padded")
def test_fast_path_parses_finite_doubles_bit_for_bit(tmp_path_factory, values, form):
    texts = [_FORMATS[form](v) for v in values]
    xs, ys = (texts * 16)[:16], (texts[::-1] * 16)[:16]  # 16 rows, each value in both columns
    path = tmp_path_factory.getbasetemp() / "finite-doubles.csv"
    path.write_bytes(_csv([f"{a},{b}" for a, b in zip(xs, ys)]))
    sample = cli._load_xy(str(path))
    assert sample is not None
    assert sample.xs.tobytes() == np.array([float(a) for a in xs]).tobytes()
    assert sample.ys.tobytes() == np.array([float(b) for b in ys]).tobytes()


def test_clean_file_takes_the_fast_path(frank_xy, tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("the per-line parser ran on a clean file")

    data = frank_xy(n=40)
    out = tmp_path / "e.csv"
    monkeypatch.setattr(cli, "_parse_xy", refuse)
    assert main(["estimate", str(data), "--grid", "5", "--out", str(out)]) == EXIT_OK
    assert json.loads((tmp_path / "e.csv.manifest.json").read_text())["parameters"]["n"] == 40


# ------------------------------------------------------------------- bands


def test_bands_lil_half_width_constant(frank_xy, tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", str(frank_xy(n=50)), "--no-clamp", "--out", str(out)]) == EXIT_OK
    header, table = _read_table(out)
    assert header == "u,v,lower,center,upper" and len(table) == 33 * 33
    widths = table[:, 4] - table[:, 3]
    np.testing.assert_allclose(widths, 0.11679274947052345, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table[:, 3] - table[:, 2], 0.11679274947052345, rtol=0, atol=1e-12)
    assert len(set(np.round(widths, 15))) <= 2  # constant up to the last-digit rounding


def test_bands_lil_n500_half_width(frank_xy, tmp_path):
    data = frank_xy(n=500)
    out = tmp_path / "bands.csv"
    assert main(["bands", str(data), "--no-clamp", "--grid", "5", "--out", str(out)]) == EXIT_OK
    _, table = _read_table(out)
    assert table[0, 4] - table[0, 3] == pytest.approx(0.042742, abs=1e-6)


@pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "no-clamp"])
@pytest.mark.parametrize("method", ["lil", "normal"])
def test_bands_are_center_plus_minus_half_width(frank_xy, tmp_path, method, clamp):
    # every option off its default; n = 16 puts lower bounds below 0 near the corner knot 1/10
    data = frank_xy(n=16)
    out = tmp_path / "b.csv"
    argv = ["bands", str(data), "--method", method, "--grid", "9", "--bandwidth", "0.35",
            "--A", "0.7", "--epsilon", "-0.25", "--confidence", "0.9", "--theta", "2",
            "--out", str(out)]
    assert main(argv + ([] if clamp else ["--no-clamp"])) == EXIT_OK
    knots = interior_grid(9)
    center = _library_estimate(data, 0.35, knots)
    spec = BandSpec(BandMethod(method), A=0.7, epsilon=-0.25, confidence=0.9)
    hw = half_width(spec, 16, frank_sigma2(2.0, knots[:, None], knots[None, :]))
    lower, upper = center - hw, center + hw
    assert lower[0, 0] < 0.0
    if clamp:
        lower, upper = np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)
    header, table = _read_table(out)
    assert header == "u,v,lower,center,upper"
    np.testing.assert_array_equal(table, _knot_table(knots, lower, center, upper))
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["parameters"] == {
        "input": str(data), "n": 16, "grid": 9, "bandwidth": 0.35, "method": method, "A": 0.7,
        "epsilon": -0.25, "confidence": 0.9, "theta": 2.0, "clamp": clamp}


@pytest.mark.parametrize("command", ["estimate", "bands"])
def test_few_rows_rejected_naming_file_floor_and_reason(frank_xy, tmp_path, capsys, command):
    for n in (10, 15):  # 15 clean rows: one below the floor
        data = frank_xy(n=n)
        err = _rejected(tmp_path, capsys, [command, str(data)])
        assert str(data) in err and f"found {n}" in err and "16" in err and "R_n" in err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--method", "lil", "--confidence", "7"], "confidence must lie in (0, 1)"),
        (["--method", "normal", "--theta", "1", "--epsilon", "3", "--A", "-2"], "A must be positive"),
        (["--A", "inf", "--no-clamp"], "A must be positive and finite"),
        (["--method", "lil", "--theta", "nan"], "theta must be a finite real number"),
        (["--A", "1.5e308", "--epsilon", "0.5", "--no-clamp"], "(1 + epsilon) * A must be finite"),
        (["--method", "normal"], "--method normal requires --theta"),
    ],
    ids=["lil-confidence", "normal-A-epsilon", "A-inf", "lil-theta-nan", "A-epsilon-overflow",
         "normal-no-theta"],
)
def test_bands_checks_every_band_option(frank_xy, tmp_path, capsys, options, message):
    # options the chosen method does not use are still checked
    err = _rejected(tmp_path, capsys, ["bands", str(frank_xy(n=50)), *options])
    assert f"error: {message}" in err


def test_bands_numeric_failure_exit_code(frank_xy, tmp_path, capsys, monkeypatch):
    # a variance surface with a negative cell must map to the numeric exit
    def negative_sigma2(theta, u, v):
        return np.full(np.broadcast(u, v).shape, -1.0)

    monkeypatch.setattr(cli, "frank_sigma2", negative_sigma2)
    argv = ["bands", str(frank_xy(n=50)), "--method", "normal", "--theta", "1", "--grid", "5"]
    assert "numeric failure" in _rejected(tmp_path, capsys, argv, code=EXIT_NUMERIC)


# ------------------------------------------------------- simulate-coverage

# every config key off its default, and --seed 7 in place of the config's seed 3
WIRED = {"thetas": "2, -1", "ns": "20, 16", "seed": "3", "methods": "normal, lil", "grid": "6",
         "bandwidth": "0.3", "A": "0.2", "confidence": "0.9", "epsilon": "0.25"}
WIRED_SPEC = {"A": 0.2, "confidence": 0.9, "epsilon": 0.25}


def _wired_run(tmp_path, command, B):
    """Header and cells of the CSV of ``command`` on WIRED with B replicates,
    and the library's ExperimentConfig for the same entries."""
    cfg = _config(tmp_path, **WIRED, B=str(B))
    out = tmp_path / "run.csv"
    assert main([*command, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["subcommand"] == command[0] and manifest["seed"] == 7
    assert manifest["parameters"] == {
        "thetas": [2.0, -1.0], "ns": [20, 16], "B": B, "seed": 7, "methods": ["normal", "lil"],
        "grid": 6, "bandwidth": 0.3, **WIRED_SPEC, "config": str(cfg), "bandwidths": [0.3, 0.3],
        **({"mode": command[1]} if command[0] == "verify" else {})}
    config = ExperimentConfig(
        thetas=(2.0, -1.0), ns=(20, 16), B=B, seed=7, grid_resolution=6, bandwidth=0.3,
        band_specs=(BandSpec(BandMethod.NORMAL, **WIRED_SPEC),
                    BandSpec(BandMethod.LIL, **WIRED_SPEC)))
    header, *lines = out.read_text().splitlines()
    return header, [line.split(",") for line in lines], config


def _typed(rows, *kinds):
    return [tuple(kind(cell) for kind, cell in zip(kinds, row, strict=True)) for row in rows]


def test_simulate_coverage_happy_path(tmp_path):
    # the CSV is the library's report on the same experiment
    header, rows, config = _wired_run(tmp_path, ["simulate-coverage"], B=100)
    assert header == "method,theta,n,coverage,mc_stderr,B,seed"
    report = run_coverage(config)
    assert _typed(rows, str, float, int, float, float, int, int) == [
        (r.method, r.theta, r.n, r.coverage, r.mc_stderr, r.B, r.seed) for r in report.rows]


def test_simulate_coverage_row_order(tmp_path):
    cfg = _config(tmp_path, thetas="-2, 1", ns="16, 20", B="2", methods="lil, normal")
    out = tmp_path / "cov.csv"
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    heads = [",".join(line.split(",")[:3]) for line in out.read_text().splitlines()[1:]]
    assert heads == [
        "lil,-2.0,16", "lil,-2.0,20", "lil,1.0,16", "lil,1.0,20",
        "normal,-2.0,16", "normal,-2.0,20", "normal,1.0,16", "normal,1.0,20",
    ]


def test_simulate_coverage_seed_override(tmp_path):
    cfg = _config(tmp_path, B="4")
    out1, out2, out3 = (tmp_path / f"c{i}.csv" for i in range(3))
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate-coverage", "--config", str(cfg), "--seed", "5",
                 "--out", str(out2)]) == EXIT_OK
    assert main(["simulate-coverage", "--config", str(cfg), "--seed", "123",
                 "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert "123" in out3.read_text().splitlines()[1]


def test_simulate_coverage_rejects_duplicate_key(tmp_path, capsys):
    cfg = _write(tmp_path / "dup.cfg",
                 "thetas = 1\nthetas = 2\nns = 16\nB = 2\nseed = 1\nmethods = lil\n")
    assert "duplicate key" in _config_rejected(tmp_path, capsys, cfg)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"thetas": "1, 800"}, "|theta| must be <= 700"),
        ({"thetas": "1, 1.0"}, "thetas must not repeat"),
        ({"ns": "16, 16"}, "ns must not repeat"),
        ({"seed": "-1"}, "seed must lie in [0, 2**64)"),
        ({"B": "0"}, "B must be >= 1 and <= 2**32"),
        ({"B": "4294967297"}, "B must be >= 1 and <= 2**32"),
        ({"B": "abc"}, "{cfg}:3: invalid value 'abc' for key 'B'"),
        # band options the listed methods do not use are still checked
        ({"methods": "lil", "confidence": "7"}, "confidence must lie in (0, 1)"),
        ({"methods": "normal", "epsilon": "5", "A": "-1"}, "A must be positive"),
        ({"A": "1.5e308", "epsilon": "0.5"}, "(1 + epsilon) * A must be finite"),
        # the parser's own checks name the file and the line
        ({"": "5"}, "{cfg}:7: expected 'key = value'"),
        ({"seed": ""}, "{cfg}:4: expected 'key = value'"),
        ({"thetas": ","}, "{cfg}:1: key 'thetas' needs at least one value"),
        ({"methods": "lil, lil"}, "{cfg}:5: duplicate method in 'methods'"),
        ({"methods": "lil, bogus"}, "{cfg}:5: unknown method 'bogus' (use lil or normal)"),
        ({"foo": "1", "bar": "2"}, "{cfg}: unknown config keys: bar, foo"),
        ({"seed": None, "methods": None}, "{cfg}: missing required config keys: seed, methods"),
    ],
    ids=["theta-800", "duplicate-theta", "duplicate-n", "negative-seed", "zero-B", "B-2**32+1",
         "B-abc", "lil-confidence", "normal-A-epsilon", "A-epsilon-overflow", "empty-key",
         "empty-value", "empty-list", "duplicate-method", "bad-method", "unknown-keys",
         "missing-keys"],
)
def test_simulate_coverage_rejects_unusable_experiment(tmp_path, capsys, overrides, message):
    cfg = _config(tmp_path, **overrides)
    assert f"error: {message.format(cfg=cfg)}" in _config_rejected(tmp_path, capsys, cfg)


def test_config_comments_and_auto_bandwidth(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        "# experiment\nthetas = 1  # frank\nns = 16\nB = 2\nseed = 9\n"
        "methods = lil\ngrid = 5\nbandwidth = auto\n",
    )
    out = tmp_path / "cov.csv"
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def test_config_byte_order_mark_is_ignored(tmp_path):
    # the mark must not read as part of the first key ("unknown config keys: ﻿thetas")
    plain = _config(tmp_path)
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
    for cfg, out in zip((plain, marked), outs):
        assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_non_utf8_config_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(_config(tmp_path).read_bytes() + b"# caf\xe9\n")
    err = _config_rejected(tmp_path, capsys, cfg)
    assert err.startswith(f"error: {cfg}: not UTF-8 text") and "\\xe9" in err


# ------------------------------------------------------------------ verify


def test_verify_lil_writes_verdict(tmp_path):
    # the CSV and its verdict are the library's report on the same experiment
    header, rows, config = _wired_run(tmp_path, ["verify", "lil"], B=100)
    report = run_lil_check(config)
    assert header == "mode,theta,n,B,stat_max,stat_mean,stat_p99,frac_within_bound"
    assert rows[-1] == [f"# verdict: {cli._lil_verdict(report)}"]
    assert _typed(rows[:-1], str, float, int, int, float, float, float, float) == [
        ("lil", r.theta, r.n, r.B, r.stat_max, r.stat_mean, r.stat_p99,
         r.fraction_within(cli.LIL_BOUND)) for r in report.rows]


def test_verify_bias_writes_verdict(tmp_path):
    header, rows, config = _wired_run(tmp_path, ["verify", "bias"], B=1000)
    report = run_bias_check(config)
    assert header == "mode,theta,n,B,statistic"
    assert rows[-1] == [f"# verdict: {cli._bias_verdict(report)}"]
    assert _typed(rows[:-1], str, float, int, int, float) == [
        ("bias", r.theta, r.n, r.B, *r.statistics) for r in report.rows]


def test_verify_bias_compares_in_increasing_n(tmp_path):
    # n = 32 before n = 16 in the config: the decay verdict must not depend on it
    cfg = _config(tmp_path, B="1000", ns="32, 16")
    out = tmp_path / "bias.csv"
    assert main(["verify", "bias", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:3]] == ["32", "16"]
    assert lines[-1] == "# verdict: decay observed"


def _report(mode, cells):
    """A DeviationReport with one row per (theta, n, statistics) cell, in the order given."""
    return DeviationReport(mode, tuple(DeviationRow(theta, n, len(stats), tuple(stats))
                                       for theta, n, stats in cells))


@pytest.mark.parametrize("within, verdict", [(99, "bound satisfied"), (98, "bound exceeded")],
                         ids=["99-of-100", "98-of-100"])
def test_lil_verdict_needs_99_percent_of_every_cell_within_the_bound(within, verdict):
    # a statistic equal to LIL_BOUND is within it, and 99 of 100 is exactly 99%
    above = math.nextafter(cli.LIL_BOUND, math.inf)
    edge = (cli.LIL_BOUND,) * within + (above,) * (100 - within)
    calm = (0.41,) * 100
    for cells in ([(1.0, 16, calm), (1.0, 32, edge)], [(1.0, 16, edge), (2.0, 16, calm)]):
        assert cli._lil_verdict(_report("lil", cells)) == verdict


@pytest.mark.parametrize("ns", [(16, 32, 64), (64, 16, 32)], ids=["ns-in-order", "ns-shuffled"])
@pytest.mark.parametrize(
    "stats, verdict",
    [
        ((0.3, 0.2, 0.1), "decay observed"),
        ((0.3, 0.3, 0.1), "decay not observed"),  # two equal consecutive statistics
        ((0.3, 0.1, 0.2), "decay not observed"),  # falls from the smallest to the largest n only
    ],
    ids=["strict", "equal-pair", "not-monotone"],
)
def test_bias_verdict_needs_a_strict_fall_in_n_for_every_theta(ns, stats, verdict):
    by_n = dict(zip((16, 32, 64), stats))
    decaying = dict(zip((16, 32, 64), (0.9, 0.5, 0.4)))
    cells = [(theta, n, (table[n],)) for theta, table in ((1.0, decaying), (-2.0, by_n))
             for n in ns]
    assert cli._bias_verdict(_report("bias", cells)) == verdict
    assert cli._bias_verdict(_report("bias", cells[::-1])) == verdict


@pytest.mark.parametrize(
    "mode, overrides, message",
    [
        ("lil", {"B": "100", "confidence": "7"}, "confidence must lie in (0, 1)"),
        ("lil", {"B": "9"}, "lil check requires B >= 100"),
        ("bias", {"B": "1000", "ns": "16"}, "bias decay needs at least two sample sizes"),
    ],
    ids=["lil-confidence", "lil-insufficient-B", "bias-single-n"],
)
def test_verify_rejects_unusable_config(tmp_path, capsys, mode, overrides, message):
    cfg = _config(tmp_path, **overrides)
    assert message in _config_rejected(tmp_path, capsys, cfg, ("verify", mode))


def test_verify_unknown_mode_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


EXPERIMENTS = [["simulate-coverage"], ["verify", "lil"], ["verify", "bias"]]


def _run_parameters(tmp_path, command, bandwidth):
    cfg = _config(tmp_path, ns="20, 16", B="1000", bandwidth=bandwidth)
    out = tmp_path / "run.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return json.loads((tmp_path / "run.csv.manifest.json").read_text())["parameters"]


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_manifest_bandwidths_follow_the_default_schedule(tmp_path, command):
    parameters = _run_parameters(tmp_path, command, "auto")
    assert parameters["bandwidth"] is None
    assert parameters["bandwidths"] == [1.0 / math.log(20), 1.0 / math.log(16)]


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_manifest_bandwidths_repeat_a_fixed_value(tmp_path, command):
    parameters = _run_parameters(tmp_path, command, "0.3")
    assert parameters["bandwidth"] == 0.3
    assert parameters["bandwidths"] == [0.3, 0.3]
