"""Replication engine: determinism, chunked parallelism, experiment runs."""

import math
import re

import numpy as np
import pytest

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
    _replicate_rng,
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
    a = _replicate_rng(99, 0, 0, 0).random(4)
    b = _replicate_rng(99, 0, 0, 1).random(4)
    c = _replicate_rng(99, 0, 1, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


# ------------------------------------------------------------ run_coverage


def test_coverage_deterministic_and_worker_independent():
    cfg = _small_config()
    serial = run_coverage(cfg, workers=1)
    again = run_coverage(cfg, workers=1)
    parallel = run_coverage(cfg, workers=4)
    assert serial == again
    assert serial == parallel


def test_coverage_tabulates_once_per_n(monkeypatch):
    # one rank table per n (shared by every theta), one lookup per
    # replicate, and no estimate_grid call in the replicate loop
    calls = {"rank_table": 0, "rank_estimate": 0, "estimate_grid": 0}

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
    assert calls == {"rank_table": len(cfg.ns), "rank_estimate": cfg.B * cells, "estimate_grid": 0}


@pytest.mark.parametrize(
    "run, B", [(run_coverage, 64), (run_lil_check, 100), (run_bias_check, 1000)]
)
def test_one_pool_per_run(monkeypatch, run, B):
    # a 2 x 2-cell run with two workers dispatches every cell through one pool
    pools = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
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
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
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
    monkeypatch.setenv(WORKERS_ENV, raw)
    message = f"{WORKERS_ENV} must be an integer >= 1, not {raw!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_coverage(_small_config(B=8, grid_resolution=5))
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


def test_lil_check_deterministic_across_workers():
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


def test_bias_check_deterministic_across_workers():
    cfg = _small_config(thetas=(1.0, -2.0), ns=(16, 24), B=1000, grid_resolution=5)
    assert run_bias_check(cfg, workers=1) == run_bias_check(cfg, workers=2)


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
