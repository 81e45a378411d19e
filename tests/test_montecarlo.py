"""Replication engine: determinism, chunked parallelism, experiment runs."""

import concurrent.futures
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from copbands.bands import BandMethod, BandSpec
from copbands import montecarlo
from copbands.copula import THETA_MAX
from copbands.montecarlo import (
    REPLICATE_CHUNK,
    WORKERS_ENV,
    CoverageReport,
    ExperimentConfig,
    run_bias_check,
    run_coverage,
    run_lil_check,
    _stream_key,
)

BOTH = (BandSpec(BandMethod.LIL), BandSpec(BandMethod.NORMAL))


def _small_config(**overrides):
    kwargs = dict(
        thetas=(1.0,),
        ns=(16, 24),
        B=130,  # spans three replicate chunks
        seed=99,
        grid_resolution=7,
        band_specs=BOTH,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ----------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(B=0)
    with pytest.raises(ValueError):
        _small_config(ns=(15,))
    with pytest.raises(ValueError):
        _small_config(grid_resolution=1)
    with pytest.raises(ValueError):
        _small_config(thetas=())
    with pytest.raises(ValueError):
        _small_config(thetas=(np.inf,))
    with pytest.raises(ValueError):
        _small_config(bandwidth=-0.1)
    with pytest.raises(ValueError):
        _small_config(bandwidth=math.inf)
    with pytest.raises(ValueError):
        _small_config(band_specs=())
    # coverage rows are keyed by method, so a second "lil" row would be unreachable
    with pytest.raises(ValueError, match="repeat the method 'lil'"):
        _small_config(band_specs=(BandSpec(BandMethod.LIL), BandSpec(BandMethod.LIL, A=0.01)))
    # counts are integers: truncating 3.9 to 3 would share seed 3's streams
    for field, value in (("ns", (50.9,)), ("B", 100.7), ("seed", 3.9), ("grid_resolution", 5.5)):
        with pytest.raises(ValueError, match=f"^{field} must be given as integers"):
            _small_config(**{field: value})
    # "1" is no theta, as "1" is no bandwidth, and a scalar is no list of them
    for thetas in (("1",), (1.0, "2"), (None,), 5.0):
        with pytest.raises(ValueError, match="^thetas must be real numbers"):
            _small_config(thetas=thetas)
    # a bool passes for the number 0 or 1: B=True would run one replicate
    for field, value in (("B", True), ("seed", True), ("seed", False), ("grid_resolution", True),
                         ("ns", (16, True)), ("ns", [True]), ("thetas", (True,)),
                         ("thetas", [1.0, False]), ("bandwidth", True)):
        with pytest.raises(ValueError, match=f"^{field} takes numbers, not bools: "):
            _small_config(**{field: value})
    cfg = _small_config(ns=(np.int64(16),), B=np.int32(8), seed=np.uint64(3), grid_resolution=5)
    assert (cfg.ns, cfg.B, cfg.seed) == ((16,), 8, 3)
    assert all(type(v) is int for v in (*cfg.ns, cfg.B, cfg.seed, cfg.grid_resolution))


def test_config_bandwidth_rules():
    assert _small_config().bandwidth_for(100) == pytest.approx(1.0 / math.log(100))
    assert _small_config(bandwidth=0.3).bandwidth_for(100) == 0.3
    with pytest.raises(ValueError, match="positive number"):
        _small_config(bandwidth=lambda n: n**-0.5)


def test_config_rejects_theta_beyond_sampler_range():
    assert _small_config(thetas=(-THETA_MAX, THETA_MAX)).thetas == (-THETA_MAX, THETA_MAX)
    with pytest.raises(ValueError, match="theta"):
        _small_config(thetas=(1.0, 800.0))


def test_config_rejects_duplicate_cells():
    with pytest.raises(ValueError, match="thetas must not repeat"):
        _small_config(thetas=(1.0, 1.0))
    with pytest.raises(ValueError, match="ns must not repeat"):
        _small_config(ns=(16, 24, 16))


# Each bound is one past the widest value its stream-key field holds; at
# the bound the key aliases onto the one shown.
def test_config_seed_within_key_field():
    assert _stream_key(2**64, 0, 0, 0) == _stream_key(0, 0, 0, 0)
    assert _stream_key(-1, 0, 0, 0) == _stream_key(2**64 - 1, 0, 0, 0)
    assert _small_config(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            _small_config(seed=seed)


def test_config_replicates_within_key_field():
    assert _stream_key(0, 0, 0, 2**32) == _stream_key(0, 0, 0, 0)
    assert _small_config(B=2**32).B == 2**32
    with pytest.raises(ValueError, match="B must be"):
        _small_config(B=2**32 + 1)


def test_config_cell_counts_within_key_field():
    assert _stream_key(0, 2**16, 0, 0) == _stream_key(0, 0, 0, 0)
    thetas = tuple(np.linspace(-1.0, 1.0, 2**16 + 1))
    assert len(_small_config(thetas=thetas[:-1]).thetas) == 2**16
    with pytest.raises(ValueError, match="thetas"):
        _small_config(thetas=thetas)
    with pytest.raises(ValueError, match="ns"):
        _small_config(ns=tuple(range(16, 16 + 2**16 + 1)))


def test_stream_key_is_injective_across_fields():
    keys = {
        _stream_key(seed, ti, ni, r)
        for seed in (0, 1)
        for ti in (0, 1)
        for ni in (0, 1)
        for r in (0, 1, 2)
    }
    assert len(keys) == 24


def test_replicate_streams_are_distinct():
    (a, b), _ = montecarlo._keyed_draws(_stream_key(99, 0, 0, 0), 0, 2, 4)
    (c,), _ = montecarlo._keyed_draws(_stream_key(99, 0, 1, 0), 0, 1, 4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_chunk_engine_matches_per_replicate_reference():
    # the state reset keys every field at its widest value as a generator
    # keyed by the documented layout does
    top = (2**64 - 1, 2**16 - 1, 2**16 - 1)
    u, w = montecarlo._keyed_draws(_stream_key(*top, 0), 2**32 - 2, 2**32, 50)
    for k, r in enumerate((2**32 - 2, 2**32 - 1)):
        ref_u, ref_w = reference.draws(*top, r, 50)
        assert np.array_equal(u[k], ref_u)
        assert np.array_equal(w[k], ref_w)


# ------------------------------------------------------------ run_coverage


# The engine's draws as they come, and with u or v on a grid of 64 values
# (``reference.coarsen``), which ties most n = 16 replicates but not all.
_COARSE = pytest.mark.parametrize("coarse", ["", "u", "v"], ids=["untied", "coarse_u", "coarse_v"])


@_COARSE
def test_coverage_deterministic_and_worker_independent(monkeypatch, coarse):
    reference.coarsen(monkeypatch, coarse)
    cfg = _small_config()
    serial = run_coverage(cfg, workers=1)
    again = run_coverage(cfg, workers=1)
    parallel = run_coverage(cfg, workers=4)
    assert serial == again
    assert serial == parallel


def test_coverage_tabulates_once_per_n(monkeypatch):
    # one rank table per n (shared by every theta), one sampler call per
    # replicate chunk, and no estimate_grid call in the replicate loop
    calls = {"rank_table": 0, "frank_conditional_sample": 0, "estimate_grid": 0}

    def counting(name):
        original = getattr(montecarlo, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(montecarlo, name, counting(name))
    cfg = _small_config(thetas=(1.0, -2.0))
    run_coverage(cfg, workers=1)
    cells = len(cfg.thetas) * len(cfg.ns)
    chunks = math.ceil(cfg.B / REPLICATE_CHUNK)
    assert chunks == 3
    assert calls == {"rank_table": len(cfg.ns), "frank_conditional_sample": chunks * cells,
                     "estimate_grid": 0}


@pytest.mark.parametrize(
    "run, B", [(run_coverage, 64), (run_lil_check, 100), (run_bias_check, 1000)]
)
def test_one_pool_per_run(monkeypatch, run, B):
    # a 2 x 2-cell run with two workers dispatches every cell through one pool;
    # the engine imports the pool class when it starts one, so it is patched
    # where that import reads it
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    run(_small_config(thetas=(1.0, -2.0), ns=(16, 24), B=B, grid_resolution=5), workers=2)
    assert len(pools) == 1


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def test_pool_has_at_most_one_worker_per_task(recording_pool, monkeypatch):
    # under fork a pool starts all its workers at once, so a two-task run
    # asking for 16 workers must get 2
    cfg = _small_config(ns=(16,), B=2 * REPLICATE_CHUNK, grid_resolution=5)
    serial = run_coverage(cfg, workers=1)
    assert recording_pool.sizes == []
    assert run_coverage(cfg, workers=16) == serial
    assert run_coverage(cfg, workers=np.int64(2)) == serial
    monkeypatch.setenv(WORKERS_ENV, "16")
    assert run_coverage(cfg) == serial
    assert recording_pool.sizes == [2, 2, 2]
    run_coverage(_small_config(ns=(16,), B=REPLICATE_CHUNK, grid_resolution=5))  # one task
    assert recording_pool.sizes == [2, 2, 2]


@pytest.mark.parametrize("raw", ["1.5", "0", "-1", "+2", "", " ", "two"])
def test_worker_variable_must_be_a_positive_integer(recording_pool, monkeypatch, raw):
    # every run rejects the count before it builds a rank table
    monkeypatch.setenv(WORKERS_ENV, raw)
    monkeypatch.setattr(montecarlo, "rank_table", None)
    message = f"{WORKERS_ENV} must be an integer >= 1, not {raw!r}"
    for run in (run_coverage, run_lil_check, run_bias_check):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(_small_config(B=1000, grid_resolution=5))
    assert recording_pool.sizes == []


def test_worker_argument_must_be_a_positive_integer(recording_pool):
    cfg = _small_config(B=8, grid_resolution=5)
    with pytest.raises(TypeError):
        run_coverage(cfg, workers=1.9)
    with pytest.raises(ValueError, match="worker count must be >= 1"):
        run_coverage(cfg, workers=0)
    assert recording_pool.sizes == []


def test_estimate_grid_is_the_estimators():
    # bench/worker.py:hook_estimates patches this module attribute to time
    # the harness's estimates; it must stay the estimator's own function
    from copbands import estimator

    assert montecarlo.estimate_grid is estimator.estimate_grid


def test_coverage_row_order_and_fields():
    cfg = _small_config(B=8)
    report = run_coverage(cfg)
    assert [(r.method, r.theta, r.n) for r in report.rows] == [
        ("lil", 1.0, 16),
        ("lil", 1.0, 24),
        ("normal", 1.0, 16),
        ("normal", 1.0, 24),
    ]
    for row in report.rows:
        assert 0.0 <= row.coverage <= 1.0
        assert row.B == 8 and row.seed == 99
        p = row.coverage
        assert row.mc_stderr == pytest.approx(math.sqrt(p * (1 - p) / 8), abs=1e-15)


def test_coverage_infinite_band_covers_everything():
    cfg = _small_config(B=1, band_specs=(BandSpec(BandMethod.LIL, A=1e6),))
    report = run_coverage(cfg)
    assert report.rows[0].coverage == 1.0


def test_coverage_monotone_in_band_width():
    narrow = run_coverage(_small_config(B=64, band_specs=(BandSpec(BandMethod.LIL, A=0.25),)))
    wide = run_coverage(_small_config(B=64, band_specs=(BandSpec(BandMethod.LIL, A=0.5),)))
    for nrow, wrow in zip(narrow.rows, wide.rows):
        assert wrow.coverage >= nrow.coverage


def test_coverage_report_cell_lookup():
    report = run_coverage(_small_config(B=4))
    assert report.cell("lil", 1.0, 24).n == 24
    with pytest.raises(KeyError):
        report.cell("lil", 2.0, 24)


# ------------------------------------------------- run_lil_check / bias_check


def test_lil_check_statistics_and_b_guard():
    cfg = _small_config(ns=(64,), B=120, band_specs=(BandSpec(BandMethod.LIL),))
    report = run_lil_check(cfg)
    assert report.mode == "lil"
    (row,) = report.rows
    assert row.B == 120 and len(row.statistics) == 120
    assert row.stat_max >= row.stat_p99 >= row.stat_mean >= 0.0
    assert 0.0 <= row.fraction_within(3.0) <= 1.0
    with pytest.raises(ValueError):
        run_lil_check(_small_config(B=99))


@_COARSE
def test_lil_check_deterministic_across_workers(monkeypatch, coarse):
    reference.coarsen(monkeypatch, coarse)
    cfg = _small_config(ns=(32,), B=128)
    a = run_lil_check(cfg, workers=1)
    b = run_lil_check(cfg, workers=4)
    assert a == b


def test_bias_check_single_statistic_and_b_guard():
    cfg = _small_config(ns=(16, 64), B=1000)
    report = run_bias_check(cfg)
    assert report.mode == "bias"
    assert [row.n for row in report.rows] == [16, 64]
    for row in report.rows:
        assert len(row.statistics) == 1
        assert row.statistics[0] >= 0.0
    with pytest.raises(ValueError):
        run_bias_check(_small_config(B=999))


@_COARSE
def test_bias_check_deterministic_across_workers(monkeypatch, coarse):
    reference.coarsen(monkeypatch, coarse)
    cfg = _small_config(thetas=(1.0, -2.0), ns=(16, 24), B=1000, grid_resolution=5)
    assert run_bias_check(cfg, workers=1) == run_bias_check(cfg, workers=2)


def _stdout_under_blas_threads(code):
    """stdout of a Python script importing copbands, under 1 and 2 OpenBLAS threads."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


def test_lil_check_does_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count once, at import; a single (33, 2000) @ (2000, 33)
    # product runs on two threads and sums in another order than on one
    one, two = _stdout_under_blas_threads(
        "from copbands.montecarlo import ExperimentConfig, run_lil_check\n"
        "cfg = ExperimentConfig(thetas=(5.0,), ns=(2000,), B=100, seed=0)\n"
        "print(repr(run_lil_check(cfg, workers=1)))\n"
    )
    assert one == two


def test_bias_check_does_not_depend_on_blas_threads():
    # the estimator's bias fold makes one product per cell, in 512-row blocks;
    # the statistic is one max, so the mean surface's bytes are compared too
    one, two = _stdout_under_blas_threads(
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
    )
    assert one == two
    assert "DeviationRow" in one and len(one.splitlines()) == 2


def test_coverage_does_not_depend_on_blas_threads():
    # the benchmark's coverage configuration; counts hide the last bits, so the
    # bytes of each cell's first chunk stack are compared too
    one, two = _stdout_under_blas_threads(
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
    )
    assert one == two
    assert "CoverageRow" in one and len(one.splitlines()) == 7


@st.composite
def _oracle_runs(draw):
    """A two-cell experiment, the B of its coverage and lil runs, and the margins put on a grid.

    Two cells give one a nonzero theta or n index. The bias run takes the
    config's B >= 1000; coverage and lil read a prefix of its replicates.
    """
    theta = st.sampled_from([0.0, -700.0, 700.0]) | st.floats(-700.0, 700.0)
    k = draw(st.integers(1, 2))
    thetas = draw(st.lists(theta, min_size=k, max_size=k, unique=True))
    ns = draw(st.lists(st.integers(16, 600), min_size=3 - k, max_size=3 - k, unique=True))
    config = ExperimentConfig(thetas=thetas, ns=ns, B=draw(st.integers(1000, 1100)),
                              seed=draw(st.integers(0, 2**64 - 1)), grid_resolution=5,
                              band_specs=BOTH)
    return (config, draw(st.integers(1, config.B)), draw(st.integers(100, config.B)),
            draw(st.sampled_from(["", "u", "v", "uv"])))


@settings(max_examples=3, deadline=None)  # with the two examples, about 2.5 s
@given(_oracle_runs())
# n = 16 on u's grid mixes tied and untied x replicates in the bias fold
@example((ExperimentConfig(thetas=(0.0, 700.0), ns=(16,), B=1000, seed=7, grid_resolution=5,
                           band_specs=BOTH), 65, 100, "u"))
# 513 splits a chunk into row blocks and crosses a 512-row block of the sum
@example((ExperimentConfig(thetas=(-700.0,), ns=(16, 513), B=1025, seed=2**64 - 1,
                           grid_resolution=5, band_specs=BOTH), 1, 129, "uv"))
def test_runs_match_the_oracle(run):
    # every run, one worker, against textbook surfaces of independently keyed draws
    config, b_coverage, b_lil, coarse = run
    with pytest.MonkeyPatch.context() as monkeypatch:
        reference.coarsen(monkeypatch, coarse)
        coverage = run_coverage(replace(config, B=b_coverage), workers=1)
        lil = run_lil_check(replace(config, B=b_lil), workers=1)
        bias = run_bias_check(config, workers=1)
    cells = [reference.Cell(config, i, j, config.B, coarse)
             for i in range(len(config.thetas)) for j in range(len(config.ns))]
    assert [round(row.coverage * b_coverage) for row in coverage.rows] == [
        cell.covered(spec, b_coverage) for spec in config.band_specs for cell in cells]
    assert len(lil.rows) == len(bias.rows) == len(cells)
    for row, cell in zip(lil.rows, cells):
        assert np.max(np.abs(np.subtract(row.statistics, cell.lil_statistics(b_lil)))) <= 1e-12
    for row, cell in zip(bias.rows, cells):
        assert abs(row.statistics[0] - cell.bias_statistic(config.B)) <= 1e-12


def test_bias_check_memory_does_not_grow_with_b():
    # the fold keeps one (n, G) table per cell, not a (B, G, G) stack
    peaks = []
    for B in (1000, 4000):
        cfg = ExperimentConfig(thetas=(1.0,), ns=(200,), B=B, seed=5)
        tracemalloc.start()
        try:
            run_bias_check(cfg, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2**20


def test_bias_tasks_carry_no_rank_table(recording_pool, monkeypatch):
    # the fold reads the rank table in the parent, so no task pickles it
    tasks = []

    def recording_map(self, fn, cell_tasks):
        tasks.extend(cell_tasks)
        return map(fn, cell_tasks)

    monkeypatch.setattr(recording_pool, "map", recording_map)
    cfg = _small_config(ns=(16, 24), B=1000, grid_resolution=5)
    assert run_bias_check(cfg, workers=2) == run_bias_check(cfg, workers=1)
    assert len(tasks) == 2 * math.ceil(1000 / REPLICATE_CHUNK)
    assert all(task.table is None and not any(isinstance(a, np.ndarray) for a in task)
               for task in tasks)


def test_chunk_constant_is_frozen():
    # reports do not depend on this constant (see the next test); it sets the
    # per-task stack memory and dispatch overhead that the benchmark measures
    assert REPLICATE_CHUNK == 64


def test_reports_do_not_depend_on_chunk_size(monkeypatch):
    cfg = _small_config(thetas=(-2.0,), ns=(16,), B=1000, grid_resolution=5)
    runs = (run_coverage, run_lil_check, run_bias_check)
    reports = [run(cfg) for run in runs]
    monkeypatch.setattr(montecarlo, "REPLICATE_CHUNK", 17)
    assert [run(cfg) for run in runs] == reports


def test_coverage_report_type():
    report = run_coverage(_small_config(B=2))
    assert isinstance(report, CoverageReport)
    assert isinstance(report.rows, tuple)
