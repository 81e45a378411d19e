"""Replication engine: determinism, chunked parallelism, experiment runs."""

import math

import numpy as np
import pytest

from copbands.bands import BandMethod, BandSpec
from copbands import montecarlo
from copbands.copula import THETA_MAX
from copbands.montecarlo import (
    REPLICATE_CHUNK,
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


def test_coverage_estimates_each_replicate_once(monkeypatch):
    # every band's verdict comes from one shared estimate per replicate
    calls = []
    original = montecarlo.estimate_grid

    def counting(pseudo, h, knots):
        calls.append(pseudo.n)
        return original(pseudo, h, knots)

    monkeypatch.setattr(montecarlo, "estimate_grid", counting)
    cfg = _small_config(thetas=(1.0, -2.0))
    run_coverage(cfg, workers=1)
    assert len(calls) == cfg.B * len(cfg.thetas) * len(cfg.ns)


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


def test_chunk_constant_is_frozen():
    # the reduction order (and therefore byte-identical output) depends on
    # this constant; changing it silently breaks reproducibility claims
    assert REPLICATE_CHUNK == 64


def test_coverage_report_type():
    report = run_coverage(_small_config(B=2))
    assert isinstance(report, CoverageReport)
    assert isinstance(report.rows, tuple)
