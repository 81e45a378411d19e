"""Command-line interface: subcommands, config parsing, exit codes, CSV."""

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
from copbands.estimator import interior_grid


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _config(tmp_path, name="exp.cfg", **overrides):
    entries = {
        "thetas": "1",
        "ns": "16",
        "B": "10",
        "seed": "5",
        "methods": "lil",
        "grid": "5",
    }
    entries.update(overrides)
    lines = [f"{k} = {v}" for k, v in entries.items() if v is not None]
    return _write(tmp_path / name, "\n".join(lines) + "\n")


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


def test_estimate_is_deterministic(frank_xy, tmp_path):
    data = frank_xy(n=40)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["estimate", str(data), "--out", str(out1)]) == EXIT_OK
    assert main(["estimate", str(data), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


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


def test_estimate_rejects_few_rows(frank_xy, tmp_path, capsys):
    data = frank_xy(n=10)
    code = main(["estimate", str(data), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "16" in capsys.readouterr().err


def test_estimate_rejects_bad_header(tmp_path, capsys):
    data = _write(tmp_path / "bad.csv", "a,b\n1,2\n3,4\n")
    assert main(["estimate", str(data), "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "expected header 'x,y'" in capsys.readouterr().err


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
    assert main(["estimate", str(data), "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert ":4:" in err and "'oops'" in err and "column y" in err


def test_estimate_rejects_non_finite_value(tmp_path, capsys):
    rows = ["x,y"] + [f"{i}.0,{i}.5" for i in range(20)] + ["inf,1.0"]
    data = _write(tmp_path / "bad.csv", "\n".join(rows) + "\n")
    assert main(["estimate", str(data), "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "non-finite" in capsys.readouterr().err


def test_estimate_missing_file(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "no.csv"), "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "no.csv" in capsys.readouterr().err


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    data = tmp_path / "latin.csv"
    data.write_bytes(b"x,y\n1,2\n\xff\xfe,3\n")
    assert main(["estimate", str(data), "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
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
    data = frank_xy(n=30)
    out = tmp_path / "missing" / "x.csv"
    assert main(["estimate", str(data), "--out", str(out)]) == EXIT_USAGE
    assert str(out) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_unwritable_manifest_leaves_no_csv(frank_xy, tmp_path, capsys):
    data = frank_xy(n=30)
    out = tmp_path / "x.csv"
    manifest = tmp_path / "x.csv.manifest.json"
    manifest.mkdir()
    assert main(["estimate", str(data), "--grid", "3", "--out", str(out)]) == EXIT_USAGE
    assert f"error: {manifest}:" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_custom_grid_and_bandwidth(frank_xy, tmp_path):
    data = frank_xy(n=30)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(data), "--grid", "5", "--bandwidth", "0.4",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 25
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert manifest["parameters"]["bandwidth"] == 0.4


@pytest.mark.parametrize("command", ["estimate", "bands"])
@pytest.mark.parametrize(
    "option, message",
    [("--grid=1", "grid resolution"), ("--bandwidth=0", "bandwidth"),
     ("--bandwidth=inf", "bandwidth")],
    ids=["grid-1", "bandwidth-0", "bandwidth-inf"],
)
def test_invalid_grid_or_bandwidth_exits_2(frank_xy, tmp_path, capsys, command, option,
                                           message):
    data = frank_xy(n=30)
    out = tmp_path / "x.csv"
    assert main([command, str(data), option, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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


def test_estimate_and_bands_runs_load_no_scipy(frank_xy, tmp_path):
    # importing scipy.special took 0.3 s of start-up; neither the imports
    # nor a run, with its lazy imports, may bring any scipy module back
    data = frank_xy(n=40)
    code = (
        "import sys, copbands, copbands.cli\n"
        "data, out = sys.argv[1:]\n"
        "codes = [copbands.cli.main(['estimate', data, '--out', out]),\n"
        "         copbands.cli.main(['bands', data, '--method', 'normal', '--theta', '1',\n"
        "                            '--out', out])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(copbands.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, str(data), str(tmp_path / "o.csv")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{[EXIT_OK, EXIT_OK]} []"


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
    data = frank_xy(n=50)
    out = tmp_path / "bands.csv"
    assert main(["bands", str(data), "--no-clamp", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,lower,center,upper"
    assert len(lines) == 1 + 33 * 33
    widths = set()
    for line in lines[1:]:
        _, _, lower, center, upper = line.split(",")
        widths.add(round(float(upper) - float(center), 15))
        assert float(upper) - float(center) == pytest.approx(
            0.11679274947052345, abs=1e-12
        )
        assert float(center) - float(lower) == pytest.approx(
            0.11679274947052345, abs=1e-12
        )
    assert len(widths) <= 2  # constant up to the last-digit rounding


def test_bands_lil_n500_half_width(frank_xy, tmp_path):
    data = frank_xy(n=500)
    out = tmp_path / "bands.csv"
    assert main(["bands", str(data), "--no-clamp", "--grid", "5", "--out", str(out)]) == EXIT_OK
    line = out.read_text().splitlines()[1]
    _, _, lower, center, upper = line.split(",")
    assert float(upper) - float(center) == pytest.approx(0.042742, abs=1e-6)


def test_bands_epsilon_nesting(frank_xy, tmp_path):
    data = frank_xy(n=50)
    inner_path = tmp_path / "inner.csv"
    outer_path = tmp_path / "outer.csv"
    assert main(["bands", str(data), "--epsilon", "-0.5", "--grid", "7",
                 "--out", str(inner_path)]) == EXIT_OK
    assert main(["bands", str(data), "--epsilon", "0", "--grid", "7",
                 "--out", str(outer_path)]) == EXIT_OK
    inner = np.loadtxt(inner_path, delimiter=",", skiprows=1)
    outer = np.loadtxt(outer_path, delimiter=",", skiprows=1)
    assert np.all(inner[:, 2] >= outer[:, 2])  # lower surfaces nested
    assert np.all(inner[:, 4] <= outer[:, 4])  # upper surfaces nested


@pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "no-clamp"])
@pytest.mark.parametrize("method", ["lil", "normal"])
def test_bands_are_center_plus_minus_half_width(frank_xy, tmp_path, method, clamp):
    # n = 16 puts lower bounds below 0 near the corner knot 1/34
    data = frank_xy(n=16)
    out = tmp_path / "b.csv"
    argv = ["bands", str(data), "--method", method, "--theta", "1", "--out", str(out)]
    assert main(argv + ([] if clamp else ["--no-clamp"])) == EXIT_OK
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    knots = interior_grid(33)
    center = table[:, 3].reshape(33, 33)
    spec = BandSpec(BandMethod(method))
    hw = half_width(spec, 16, frank_sigma2(1.0, knots[:, None], knots[None, :]))
    lower, upper = center - hw, center + hw
    assert lower[0, 0] < 0.0
    if clamp:
        lower, upper = np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)
    np.testing.assert_array_equal(table[:, 2], lower.ravel())
    np.testing.assert_array_equal(table[:, 4], upper.ravel())
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["parameters"]["clamp"] is clamp


def test_bands_normal_requires_theta(frank_xy, tmp_path, capsys):
    data = frank_xy(n=50)
    code = main(["bands", str(data), "--method", "normal", "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_USAGE
    assert "--theta" in capsys.readouterr().err


def test_bands_normal_with_theta(frank_xy, tmp_path):
    data = frank_xy(n=50)
    out = tmp_path / "b.csv"
    assert main(["bands", str(data), "--method", "normal", "--theta", "1",
                 "--grid", "7", "--out", str(out)]) == EXIT_OK
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    hw = table[:, 4] - table[:, 3]
    assert hw.std() > 0.0  # pointwise width varies over the grid
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["parameters"]["theta"] == 1.0


@pytest.mark.parametrize("command", ["estimate", "bands"])
def test_few_rows_rejected_naming_file_floor_and_reason(frank_xy, tmp_path, capsys, command):
    data = frank_xy(n=10)
    out = tmp_path / "x.csv"
    assert main([command, str(data), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(data) in err and "found 10" in err and "16" in err and "R_n" in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_bands_small_n_names_the_constraint(frank_xy, tmp_path, capsys):
    data = frank_xy(n=12)
    code = main(["bands", str(data), "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_USAGE
    assert "R_n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--method", "lil", "--confidence", "7"], "confidence must lie in (0, 1)"),
        (["--method", "normal", "--theta", "1", "--epsilon", "3", "--A", "-2"], "A must be positive"),
        (["--A", "inf", "--no-clamp"], "A must be positive and finite"),
        (["--method", "lil", "--theta", "nan"], "theta must be a finite real number"),
    ],
    ids=["lil-confidence", "normal-A-epsilon", "A-inf", "lil-theta-nan"],
)
def test_bands_checks_every_band_option(frank_xy, tmp_path, capsys, options, message):
    # options the chosen method does not use are still checked
    data = frank_xy(n=50)
    out = tmp_path / "b.csv"
    assert main(["bands", str(data), *options, "--out", str(out)]) == EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bands_numeric_failure_exit_code(frank_xy, tmp_path, capsys, monkeypatch):
    # a variance surface with a negative cell must map to the numeric exit
    def negative_sigma2(theta, u, v):
        return np.full(np.broadcast(u, v).shape, -1.0)

    monkeypatch.setattr(cli, "frank_sigma2", negative_sigma2)
    data = frank_xy(n=50)
    code = main(["bands", str(data), "--method", "normal", "--theta", "1",
                 "--grid", "5", "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


# ------------------------------------------------------- simulate-coverage


def test_simulate_coverage_happy_path(tmp_path):
    cfg = _config(tmp_path, methods="lil, normal", B="8")
    out = tmp_path / "cov.csv"
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "method,theta,n,coverage,mc_stderr,B,seed"
    assert len(lines) == 3
    assert lines[1].startswith("lil,1.0,16,")
    assert lines[2].startswith("normal,1.0,16,")
    manifest = json.loads((tmp_path / "cov.csv.manifest.json").read_text())
    assert manifest["seed"] == 5


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


def test_simulate_coverage_rejects_unknown_keys(tmp_path, capsys):
    cfg = _config(tmp_path, foo="1", bar="2")
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "bar, foo" in err


def test_simulate_coverage_rejects_missing_keys(tmp_path, capsys):
    cfg = _config(tmp_path, seed=None, methods=None)
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "missing required config keys" in err and "seed" in err and "methods" in err


def test_simulate_coverage_rejects_zero_b(tmp_path, capsys):
    cfg = _config(tmp_path, B="0")
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    assert "B must be >= 1" in capsys.readouterr().err


def test_simulate_coverage_rejects_duplicate_key(tmp_path, capsys):
    cfg = _write(tmp_path / "dup.cfg",
                 "thetas = 1\nthetas = 2\nns = 16\nB = 2\nseed = 1\nmethods = lil\n")
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    assert "duplicate key" in capsys.readouterr().err


def test_simulate_coverage_rejects_bad_method(tmp_path, capsys):
    cfg = _config(tmp_path, methods="lil, bogus")
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    assert "unknown method 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"thetas": "1, 800"}, "|theta| must be <= 700"),
        ({"thetas": "1, 1.0"}, "thetas must not repeat"),
        ({"ns": "16, 16"}, "ns must not repeat"),
        ({"seed": "-1"}, "seed must lie in [0, 2**64)"),
        ({"B": "4294967297"}, "B must be >= 1 and <= 2**32"),
        # band options the listed methods do not use are still checked
        ({"methods": "lil", "confidence": "7"}, "confidence must lie in (0, 1)"),
        ({"methods": "normal", "epsilon": "5", "A": "-1"}, "A must be positive"),
    ],
    ids=["theta-800", "duplicate-theta", "duplicate-n", "negative-seed", "B-2**32+1",
         "lil-confidence", "normal-A-epsilon"],
)
def test_simulate_coverage_rejects_unusable_experiment(tmp_path, capsys, overrides, message):
    cfg = _config(tmp_path, **overrides)
    out = tmp_path / "c.csv"
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_comments_and_auto_bandwidth(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        "# experiment\nthetas = 1  # frank\nns = 16\nB = 2\nseed = 9\n"
        "methods = lil\ngrid = 5\nbandwidth = auto\n",
    )
    out = tmp_path / "cov.csv"
    assert main(["simulate-coverage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def test_config_byte_order_mark_is_ignored(tmp_path):
    # the mark must not read as part of the first key ("unknown config keys: \ufeffthetas")
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
    code = main(["simulate-coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text") and "\\xe9" in err


# ------------------------------------------------------------------ verify


def test_verify_lil_writes_verdict(tmp_path):
    cfg = _config(tmp_path, B="100", ns="16")
    out = tmp_path / "lil.csv"
    assert main(["verify", "lil", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,theta,n,B,stat_max,stat_mean,stat_p99,frac_within_bound"
    assert lines[1].startswith("lil,1.0,16,100,")
    assert lines[-1].startswith("# verdict: bound")


def test_verify_bias_writes_verdict(tmp_path):
    cfg = _config(tmp_path, B="1000", ns="16, 32")
    out = tmp_path / "bias.csv"
    assert main(["verify", "bias", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,theta,n,B,statistic"
    assert len(lines) == 4
    assert lines[-1].startswith("# verdict: decay")


def test_verify_bias_compares_in_increasing_n(tmp_path):
    # n = 32 before n = 16 in the config: the decay verdict must not depend on it
    cfg = _config(tmp_path, B="1000", ns="32, 16")
    out = tmp_path / "bias.csv"
    assert main(["verify", "bias", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:3]] == ["32", "16"]
    assert lines[-1] == "# verdict: decay observed"


@pytest.mark.parametrize(
    "mode, overrides, message",
    [
        ("lil", {"B": "100", "confidence": "7"}, "confidence must lie in (0, 1)"),
        ("bias", {"B": "1000", "ns": "16"}, "bias decay needs at least two sample sizes"),
    ],
    ids=["lil-confidence", "bias-single-n"],
)
def test_verify_rejects_unusable_config(tmp_path, capsys, mode, overrides, message):
    cfg = _config(tmp_path, **overrides)
    out = tmp_path / "v.csv"
    assert main(["verify", mode, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_insufficient_b(tmp_path, capsys):
    cfg = _config(tmp_path, B="9")
    code = main(["verify", "lil", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert code == EXIT_USAGE
    assert "B >= 100" in capsys.readouterr().err


def test_verify_unknown_mode_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_manifest_contains_mode(tmp_path):
    cfg = _config(tmp_path, B="100", ns="16")
    out = tmp_path / "lil.csv"
    assert main(["verify", "lil", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "lil.csv.manifest.json").read_text())
    assert manifest["parameters"]["mode"] == "lil"
    assert manifest["subcommand"] == "verify"


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
