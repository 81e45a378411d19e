"""Shared fixtures: deterministic synthetic data files for CLI tests, and the
stdout of scripts that must not depend on the OpenBLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copbands
from copbands import frank_conditional_sample

# OpenBLAS reads its thread count once, at import, so each script runs in a
# new interpreter at 1 and at 2 threads
BLAS_SCRIPTS = {
    # the grids straddle the 33-knot tiles and the 45-knot thread split of the
    # estimator module docstring
    "estimate_grid": (
        "import hashlib\n"
        "import numpy as np\n"
        "from copbands.estimator import PairedSample, default_bandwidth, estimate_grid, interior_grid\n"
        "grids = (33, 36, 44, 45, 50, 65, 99)\n"
        "for n, gs in ((50, (2, 17, 33)), (500, (2, 17, 33)), (513, grids), (2000, grids)):\n"
        "    rng = np.random.default_rng(n)\n"
        "    sample = PairedSample(rng.random(n), rng.random(n))\n"
        "    for g in gs:\n"
        "        grid = estimate_grid(sample, default_bandwidth(n), interior_grid(g))\n"
        "        print(n, g, hashlib.sha256(grid.tobytes()).hexdigest())\n"
    ),
    # a single (33, 2000) @ (2000, 33) product runs on two threads and sums in
    # another order than on one
    "lil_check": (
        "from copbands.montecarlo import ExperimentConfig, run_lil_check\n"
        "cfg = ExperimentConfig(thetas=(5.0,), ns=(2000,), B=100, seed=0)\n"
        "print(repr(run_lil_check(cfg, workers=1)))\n"
    ),
    # the estimator's bias fold makes one product per cell, in 512-row blocks;
    # the statistic is one max, so the mean surface's bytes are printed too
    "bias_check": (
        "import hashlib\n"
        "from copbands import montecarlo as mc\n"
        "from copbands.estimator import _bias_mean, default_bandwidth, interior_grid, rank_table\n"
        "cfg = mc.ExperimentConfig(thetas=(5.0,), ns=(2000,), B=1000, seed=0)\n"
        "print(repr(mc.run_bias_check(cfg, workers=1)))\n"
        "table = rank_table(2000, default_bandwidth(2000), interior_grid(33))\n"
        "chunks = (mc._rank_rows(mc._Task(mc._stream_key(0, 0, 0, 0), 5.0, 2000, r0,\n"
        "                                 min(r0 + 64, 1000), None, None, None))\n"
        "          for r0 in range(0, 1000, 64))\n"
        "print(hashlib.sha256(_bias_mean(table, chunks, 1000).tobytes()).hexdigest())\n"
    ),
    # the benchmark's coverage configuration; counts hide the last bits, so
    # the bytes of each cell's first chunk stack are printed too
    "coverage": (
        "import hashlib\n"
        "from copbands import montecarlo as mc\n"
        "from copbands.bands import BandMethod, BandSpec\n"
        "from copbands.estimator import default_bandwidth, interior_grid, rank_table\n"
        "specs = (BandSpec(BandMethod.LIL), BandSpec(BandMethod.NORMAL))\n"
        "cfg = mc.ExperimentConfig(thetas=(-2.0, 1.0, 10.0), ns=(50, 500), B=64, seed=0,\n"
        "                          band_specs=specs)\n"
        "print(repr(mc.run_coverage(cfg, workers=1)))\n"
        "for i, theta in enumerate(cfg.thetas):\n"
        "    for j, n in enumerate(cfg.ns):\n"
        "        table = rank_table(n, default_bandwidth(n), interior_grid(33))\n"
        "        task = mc._Task(mc._stream_key(0, i, j, 0), theta, n, 0, 64, table, None, None)\n"
        "        stack = mc._grid_chunk(task)\n"
        "        print(hashlib.sha256(stack.tobytes()).hexdigest())\n"
    ),
}


@pytest.fixture(scope="session")
def stdout_under_blas_threads():
    """{name: (stdout at 1 thread, stdout at 2)} of each of BLAS_SCRIPTS.

    The scripts run in one interpreter per thread count, each in new globals
    after a line that names it.
    """
    program = "".join(f"print({'## ' + name!r})\nexec({code!r}, {{}})\n"
                      for name, code in BLAS_SCRIPTS.items())
    src = str(Path(copbands.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        sections = ("\n" + done.stdout).split("\n## ")[1:]
        runs.append(dict(section.split("\n", 1) for section in sections))
    return {name: (runs[0][name], runs[1][name]) for name in BLAS_SCRIPTS}


@pytest.fixture
def frank_xy(tmp_path):
    """Factory writing a Frank-copula x,y CSV; returns the file path."""

    def make(theta=1.0, n=500, seed=7, name="sample.csv"):
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        v = np.asarray(frank_conditional_sample(theta, u, rng.random(n)))
        lines = ["x,y"]
        lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(u, v)]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return make
