"""Mutation run: which unit and acceptance tests kill each one-line source mutant.

Usage: python tools/mutants.py [REPO] [--only SUBSTRING]

Copies REPO (by default the repository holding this script) to a temporary
directory and runs TESTS there, unmutated and then once per mutant in
MUTANTS, each applied alone to the copy; --only keeps the mutants whose
name contains SUBSTRING. For each mutant it prints the test
functions that fail, with how many of their ids fail, or SURVIVED. A
mutant whose line is not found exactly once in REPO prints "does not
apply". It ends with the count of killed mutants and the wall time, and
exits 1 if the unmutated copy fails, no mutant is selected, or any mutant
survives or does not apply. A full run takes about twenty minutes on 2
cores and is not part of the test suite.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

TESTS = ["tests/test_specfun.py", "tests/test_copula.py", "tests/test_bands.py",
         "tests/test_estimator.py", "tests/test_montecarlo.py", "tests/test_acceptance.py",
         "tests/test_cli.py", "tests/test_package.py", "tests/test_golden.py"]

# (name, file under src/copbands, the line's text, its mutated text)
MUTANTS = [
    ("tie groups one rank low in _tie_ranks", "estimator.py",
     "return np.repeat(starts + 1 + ends,", "return np.repeat(starts - 1 + ends,"),
    ("tie groups one rank high in _tie_ranks", "estimator.py",
     "return np.repeat(starts + 1 + ends,", "return np.repeat(starts + 3 + ends,"),
    ("tie groups one rank low in _doubled_rank_rows only", "estimator.py",
     "m[k, order[k]] = _tie_ranks(x[k, order[k]])", "m[k, order[k]] = _tie_ranks(x[k, order[k]]) - 2"),
    ("full[0::2] += even dropped in _bias_mean", "estimator.py",
     "full[0::2] += even", "pass"),
    ("bias fold divided by n (B - 1) in _bias_mean", "estimator.py",
     "/ (n * B)", "/ (n * (B - 1))"),
    ("stack /= n dropped in _table_stack", "estimator.py",
     "stack /= (table.shape[0] + 1) // 2", "pass"),
    ("w drawn before u in _keyed_draws", "montecarlo.py",
     "return u, w", "return w, u"),
    ("replicate r keyed as r + 1 in _keyed_draws", "montecarlo.py",
     "key = cell_key | r", "key = cell_key | (r + 1)"),
    ("every coverage task given the first theta's truth in _cells", "montecarlo.py",
     "truths and truths[i]", "truths and truths[0]"),
    ("every coverage task given the first n's half-widths in _cells", "montecarlo.py",
     "half_widths and half_widths[i][j]", "half_widths and half_widths[i][0]"),
    ("theta and n fields swapped in _stream_key", "montecarlo.py",
     "def _stream_key(seed: int, theta_idx: int, n_idx: int, r: int)",
     "def _stream_key(seed: int, n_idx: int, theta_idx: int, r: int)"),
    ("table check dropped in rank_estimate", "estimator.py",
     "if table.ndim != 2 or table.shape[0] % 2 == 0 or table.shape[1] < 1:", "if False:"),
    ("tied pairs sorted by (y, x) in _rank_pair_rows", "estimator.py",
     "pairs.sort()", "pairs = pairs[np.lexsort((pairs // span, pairs % span))]"),
    ("central/tail switch of the normal quantile at 0.5", "specfun.py",
     "_CENTRAL_BOUND = 0.425", "_CENTRAL_BOUND = 0.5"),
    ("0-d quantile returned as a one-element array in normal_quantile", "specfun.py",
     "return float(x[0]) if pa.ndim == 0", "return x if pa.ndim == 0"),
    ("leading central numerator coefficient off in its 15th significant digit", "specfun.py",
     "2.50908_09287_30122_6727e+3", "2.50908_09287_30132_6727e+3"),
    ("bool check dropped in BandSpec", "bands.py",
     "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
     "if not isinstance(value, numbers.Real):"),
    ("LIL half-width times 0.9 in half_width", "bands.py",
     "return (1.0 + spec.epsilon) * spec.A / rn(n)", "return 0.9 * (1.0 + spec.epsilon) * spec.A / rn(n)"),
    ("<= made < in the lower-edge comparison of covers", "bands.py",
     "inside = bound <= truth", "inside = bound < truth"),
    ("sign of the 2 C_u C_v (C - uv) term flipped in _sigma2", "copula.py",
     "+ 2.0 * cu * cv * (c - ua * va)", "- 2.0 * cu * cv * (c - ua * va)"),
    ("far-branch rebuild of 1 + z dropped in _denominator", "copula.py",
     "one_z[far] = (a + b - math.exp(-th) - a * b) / -big_g", "pass"),
    ("(rank - 1/2)/n margins in _quantiles", "estimator.py",
     "np.arange(2, 2 * n + 1) / (2.0 * (n + 1))", "(np.arange(2, 2 * n + 1) - 1.0) / (2.0 * n)"),
    ("rank points at m / (2n + 1) in _quantiles", "estimator.py",
     "np.arange(2, 2 * n + 1) / (2.0 * (n + 1))", "np.arange(2, 2 * n + 1) / (2.0 * n + 1.0)"),
    ("replicate statistic times 1.5 in run_lil_check", "montecarlo.py",
     "stats = rn(n) * np.max(", "stats = 1.5 * rn(n) * np.max("),
    ("0.75 of the kernel CDF one ulp high", "specfun.py",
     "np.subtract(0.75, out, out=out)", "np.subtract(0.7500000000000001, out, out=out)"),
    ("99% made 50% in _lil_verdict", "cli.py",
     ">= 0.99 for row in report.rows", ">= 0.5 for row in report.rows"),
    ("strict decay made non-strict in _bias_verdict", "cli.py",
     "all(b < a for a, b in zip(s, s[1:]))", "all(b <= a for a, b in zip(s, s[1:]))"),
    ("decay tested between the smallest and the largest n only in _bias_verdict", "cli.py",
     "all(all(b < a for a, b in zip(s, s[1:])) for s in by_theta.values())",
     "all(s[-1] < s[0] for s in by_theta.values())"),
    # reports do not depend on the chunk size: only test_chunk_constant_is_frozen should kill it
    ("REPLICATE_CHUNK = 17", "montecarlo.py",
     "REPLICATE_CHUNK = 64", "REPLICATE_CHUNK = 17"),
    # the CLI contract: reading, option wiring, config parsing, exit codes, outputs
    ("row floor one row low in _read_xy", "cli.py",
     "if len(xs) < MIN_N:", "if len(xs) < MIN_N - 1:"),
    ("finiteness check dropped in _load_xy", "cli.py",
     "if table.shape[1] != 2 or not np.isfinite(table).all():", "if table.shape[1] != 2:"),
    ("header cells not stripped in _is_xy_header", "cli.py",
     '[cell.strip() for cell in row] == ["x", "y"]', 'row == ["x", "y"]'),
    ("--bandwidth pre-check dropped in _estimate", "cli.py",
     "_check_bandwidth(args.bandwidth)", "pass"),
    ("normal-needs-theta check dropped in _cmd_bands", "cli.py",
     "if method is BandMethod.NORMAL and args.theta is None:", "if False:"),
    ("--epsilon ignored in _cmd_bands", "cli.py",
     "BandSpec(method, A=args.A, epsilon=args.epsilon,", "BandSpec(method, A=args.A, epsilon=0.0,"),
    ("empty-key and empty-value check made a missing '=' check in _parse_config", "cli.py",
     "if not sep or not key or not value:", "if not sep:"),
    ("empty-list check dropped in _parse_list", "cli.py",
     "if not items:", "if False:"),
    ("duplicate-method check dropped in _parse_config", "cli.py",
     "if len(set(cfg[key])) != len(cfg[key]):", "if False:"),
    ("--seed override ignored in _load_experiment", "cli.py",
     'cfg["seed"] = args.seed', "pass"),
    ("config epsilon ignored in _load_experiment", "cli.py",
     'epsilon=cfg["epsilon"]', "epsilon=BandSpec.epsilon"),
    ("config grid ignored in _load_experiment", "cli.py",
     'grid_resolution=cfg["grid"],', "grid_resolution=33,"),
    ("bias single-n check made < 1 in _cmd_verify", "cli.py",
     "if len(config.ns) < 2:", "if len(config.ns) < 1:"),
    ("verdict line dropped in _cmd_verify", "cli.py",
     'return [*lines, f"# verdict: {verdict}"], parameters', "return lines, parameters"),
    ("manifest seed set to None in _write_result", "cli.py",
     '"seed": parameters.get("seed"),', '"seed": None,'),
    ("CSV kept when the manifest write fails in _write_result", "cli.py",
     "Path(args.out).unlink(missing_ok=True)", "pass"),
    ("CSV unlinked after a failed CSV write too in _write_result", "cli.py",
     "if path != args.out:", "if True:"),
    ("numeric failure mapped to the usage exit in main", "cli.py",
     "return EXIT_NUMERIC", "return EXIT_USAGE"),
    # a one-tile product is one BLAS call; later blocks add into one scratch product
    ("one-call product widened to two tiles in _product", "estimator.py",
     "if g <= _TILE:", "if g <= 2 * _TILE:"),
    ("later blocks overwrite the sum instead of adding to it in _block_sum", "estimator.py",
     "out += _product(fx, fy, scratch)", "out[...] = _product(fx, fy, scratch)"),
    # a theta's truth and sigma2 share one evaluation, of that theta
    ("sigma2 from another theta's denominator in _sigma2", "copula.py",
     "den = _denominator(th, ua, va)", "den = _denominator(-th, ua, va)"),
    ("sigma2 from another theta's truth in _sigma2", "copula.py",
     "c = _cdf(th, ua, va, den)", "c = _cdf(-th, ua, va)"),
    ("sigma2 of the first theta for every theta in run_coverage", "montecarlo.py",
     "truth, sigma2 = _cdf_sigma2(theta, knots[:, None], knots[None, :])",
     "truth, sigma2 = (_cdf_sigma2(theta, knots[:, None], knots[None, :])[0],"
     " _cdf_sigma2(config.thetas[0], knots[:, None], knots[None, :])[1])"),
    # the engine loads on first use: not on import, and not for estimate or bands
    ("engine imported eagerly by the package", "__init__.py",
     "from . import bands, copula, estimator, specfun",
     "from . import bands, copula, estimator, montecarlo, specfun"),
    ("engine imported eagerly by the CLI", "cli.py",
     "from . import __version__", "from . import __version__, montecarlo"),
    ("every unknown name loads the engine in __getattr__", "__init__.py",
     'if name != "montecarlo" and name not in _ENGINE:', "if False:"),
    ("engine names missing from dir(copbands) before first use", "__init__.py",
     'return sorted({*globals(), "montecarlo", *_ENGINE})', "return sorted(globals())"),
    ("engine's list one name short in montecarlo", "montecarlo.py",
     "from . import _ENGINE as __all__", "from . import _ENGINE; __all__ = _ENGINE[:-1]"),
    ("engine's list one name short in the package", "__init__.py",
     '"run_lil_check", "run_bias_check")', '"run_lil_check")'),
    # kernel factors are evaluated between the plateaus only; tables fill block by block
    ("0 plateau bounded by the largest point in _factors", "estimator.py",
     "lo = np.logical_and.accumulate((qk - qp.min()) / h <= -1.0)",
     "lo = np.logical_and.accumulate((qk - qp.max()) / h <= -1.0)"),
    ("1 plateau bounded by the smallest point in _factors", "estimator.py",
     "hi = qk.size - np.logical_and.accumulate((qk - qp.max())[::-1]",
     "hi = qk.size - np.logical_and.accumulate((qk - qp.min())[::-1]"),
    ("0 plateau columns counted, not taken as a leading run, in _factors", "estimator.py",
     "lo = np.logical_and.accumulate((qk - qp.min()) / h <= -1.0).sum()",
     "lo = np.count_nonzero((qk - qp.min()) / h <= -1.0)"),
    ("rank_table block written one row low", "estimator.py",
     "_factors(qk, qp[s], h, table[s])", "_factors(qk, qp[s], h, table[s.start + 1:s.stop + 1])"),
    ("last row of rank_table left unwritten", "estimator.py",
     "for s in _blocks(qp.size):", "for s in _blocks(qp.size - 1):"),
    ("lil centring dropped in run_lil_check", "montecarlo.py",
     "grids -= grids.mean(axis=0)", "pass"),
    # the engine ranks theta*u + logit(w) in place of the Frank sample
    ("theta's sign flipped in _conditional_key", "copula.py",
     "key += th * ua", "key -= th * ua"),
    ("log(w) in place of logit(w) in _conditional_key", "copula.py",
     "key = np.log(wa / (1.0 - wa))", "key = np.log(wa)"),
    ("w = 0 key left at -inf in _conditional_key", "copula.py",
     "return np.maximum(key, _LOWEST, out=key)", "return key"),
]


def failing(root: Path) -> list:
    """Node ids of the TESTS that fail or error in the copy at root."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)  # no replay from an earlier mutant
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         "--continue-on-collection-errors", *TESTS],
        cwd=root, env=env, capture_output=True, text=True,
    )
    # a parametrized id may hold spaces; " - " starts the failure message
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)


def by_function(ids) -> str:
    counts = Counter(re.sub(r"\[.*\]$", "", node) for node in ids)
    return "\n".join(f"    {name} ({k} id{'s' if k > 1 else ''})" for name, k in sorted(counts.items()))


def main(repo: Path, only: str = "") -> int:
    started = time.monotonic()
    mutants = [m for m in MUTANTS if only in m[0]]
    if not mutants:
        print(f"no mutant name contains {only!r}")
        return 1
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_build", ".benchmarks"))
        broken = failing(root)
        if broken:
            print("the unmutated copy fails:\n" + by_function(broken))
            return 1
        for name, file, line, mutated in mutants:
            path = root / "src" / "copbands" / file
            source = path.read_text()
            if source.count(line) != 1:
                print(f"{name}: does not apply")
                continue
            path.write_text(source.replace(line, mutated))
            try:
                killers = failing(root)
            finally:
                path.write_text(source)
            print(f"{name}: " + (f"killed by\n{by_function(killers)}" if killers else "SURVIVED"),
                  flush=True)
            killed += bool(killers)
    print(f"{killed} of {len(mutants)} mutants killed in {time.monotonic() - started:.0f} s")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run the one-line source mutants.")
    parser.add_argument("repo", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--only", default="", metavar="SUBSTRING",
                        help="run only the mutants whose name contains SUBSTRING")
    args = parser.parse_args()
    sys.exit(main(args.repo, args.only))
