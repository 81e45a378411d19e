"""Mutation run: which unit and acceptance tests kill each one-line source mutant.

Usage: python tools/mutants.py [REPO]

Copies REPO (by default the repository holding this script) to a temporary
directory and runs TESTS there, unmutated and then once per mutant in
MUTANTS, each applied alone to the copy. For each mutant it prints the test
functions that fail, with how many of their ids fail, or SURVIVED. A
mutant whose line is not found exactly once in REPO prints "does not
apply". The run takes a few minutes on 2 cores and is not part of the
test suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = ["tests/test_specfun.py", "tests/test_copula.py", "tests/test_bands.py",
         "tests/test_estimator.py", "tests/test_montecarlo.py", "tests/test_acceptance.py"]

# (name, file under src/copbands, the line's text, its mutated text)
MUTANTS = [
    ("tie groups one rank low in _tie_ranks", "estimator.py",
     "return np.repeat(starts + 1 + ends,", "return np.repeat(starts - 1 + ends,"),
    ("tie groups one rank high in _tie_ranks", "estimator.py",
     "return np.repeat(starts + 1 + ends,", "return np.repeat(starts + 3 + ends,"),
    ("tie groups one rank low in _doubled_rank_rows only", "estimator.py",
     "m[k, order[k]] = _tie_ranks(x[k, order[k]])", "m[k, order[k]] = _tie_ranks(x[k, order[k]]) - 2"),
    ("full[0::2] += even dropped in _bias_mean", "montecarlo.py",
     "full[0::2] += even", "pass"),
    ("stack /= n dropped in _grid_chunk", "montecarlo.py",
     "stack /= n", "pass"),
    ("w drawn before u in _keyed_draws", "montecarlo.py",
     "return u, w", "return w, u"),
    ("theta and n fields swapped in _stream_key", "montecarlo.py",
     "def _stream_key(seed: int, theta_idx: int, n_idx: int, r: int)",
     "def _stream_key(seed: int, n_idx: int, theta_idx: int, r: int)"),
    ("tied pairs sorted by (y, x) in _rank_pair_rows", "estimator.py",
     "pairs.sort()", "pairs = pairs[np.lexsort((pairs // span, pairs % span))]"),
    ("central/tail switch of the normal quantile at 0.5", "specfun.py",
     "_CENTRAL_BOUND = 0.425", "_CENTRAL_BOUND = 0.5"),
    ("leading central numerator coefficient off in its 15th significant digit", "specfun.py",
     "2.50908_09287_30122_6727e+3", "2.50908_09287_30132_6727e+3"),
    ("LIL half-width times 0.9 in half_width", "bands.py",
     "return (1.0 + spec.epsilon) * spec.A / rn(n)", "return 0.9 * (1.0 + spec.epsilon) * spec.A / rn(n)"),
    ("<= made < in the lower-edge comparison of covers", "bands.py",
     "inside = bound <= truth", "inside = bound < truth"),
    ("sign of the 2 C_u C_v (C - uv) term flipped in _sigma2", "copula.py",
     "+ 2.0 * cu * cv * (c - ua * va)", "- 2.0 * cu * cv * (c - ua * va)"),
    ("far-branch rebuild of 1 + z dropped in _denominator", "copula.py",
     "one_z[far] = (a + b - math.exp(-th) - a * b) / -big_g", "pass"),
    # reports do not depend on the chunk size: only test_chunk_constant_is_frozen should kill it
    ("REPLICATE_CHUNK = 17", "montecarlo.py",
     "REPLICATE_CHUNK = 64", "REPLICATE_CHUNK = 17"),
]


def failing(root: Path) -> list:
    """Node ids of the TESTS that fail or error in the copy at root."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)  # no replay from an earlier mutant
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *TESTS],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$", done.stdout, re.M)


def by_function(ids) -> str:
    counts = Counter(re.sub(r"\[.*\]$", "", node) for node in ids)
    return "\n".join(f"    {name} ({k} id{'s' if k > 1 else ''})" for name, k in sorted(counts.items()))


def main(repo: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_build", ".benchmarks"))
        broken = failing(root)
        if broken:
            print("the unmutated copy fails:\n" + by_function(broken))
            return 1
        for name, file, line, mutated in MUTANTS:
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
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])))
