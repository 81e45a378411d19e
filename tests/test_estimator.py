"""Mid-ranks, kernel copula estimator, rank table, bandwidth schedule."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from copbands import estimator
from copbands.bands import BandMethod, BandSpec, half_width, rn
from copbands.estimator import (
    PairedSample,
    default_bandwidth,
    estimate_grid,
    interior_grid,
    rank_estimate,
    rank_table,
)


def _frank_sample(theta, n, seed):
    from copbands.copula import frank_conditional_sample

    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = np.asarray(frank_conditional_sample(theta, u, rng.random(n)))
    return PairedSample(u, v)


def _pseudo(x):
    """Pseudo-observations rank/(n+1) of one margin, as the estimator takes them."""
    return estimator._doubled_ranks(x) / (2.0 * (x.size + 1))


# ------------------------------------------------------------ PairedSample


def test_paired_sample_validation():
    with pytest.raises(ValueError):
        PairedSample(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        PairedSample(np.array([1.0, 2.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        PairedSample(np.array([1.0, np.inf]), np.array([2.0, 3.0]))
    sample = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert sample.n == 2


# ---------------------------------------------------------------- mid-ranks


def test_pseudo_sample_ranks():
    np.testing.assert_array_equal(_pseudo(np.array([1.2, 3.4, 2.2])), [0.25, 0.75, 0.5])
    np.testing.assert_allclose(_pseudo(np.array([5.0, 1.0])), [2.0 / 3.0, 1.0 / 3.0])


def test_pseudo_sample_rank_invariance_under_monotone_maps():
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=40), rng.normal(size=40)
    np.testing.assert_array_equal(_pseudo(xs), _pseudo(np.exp(xs)))
    np.testing.assert_array_equal(_pseudo(ys), _pseudo(ys**3))


def test_pseudo_sample_ties_use_mid_ranks():
    np.testing.assert_allclose(_pseudo(np.array([1.0, 1.0, 2.0])), [1.5 / 4.0, 1.5 / 4.0, 3.0 / 4.0])


def test_pseudo_sample_matches_scipy_average_ranks():
    from scipy.stats import rankdata

    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        xs = rng.normal(size=n)  # untied
        ys = rng.integers(0, max(2, n // 4), size=n).astype(float)  # heavily tied
        np.testing.assert_array_equal(_pseudo(xs), rankdata(xs, method="average") / (n + 1.0))
        np.testing.assert_array_equal(_pseudo(ys), rankdata(ys, method="average") / (n + 1.0))


def test_rank_rows_fall_back_on_ties():
    # replicate draws are untied, so only a constructed matrix reaches the
    # per-row fallback: untied rows, tied rows and an all-equal row
    rng = np.random.default_rng(5)
    n = 40
    rows = [
        rng.normal(size=n),
        rng.integers(0, 6, size=n).astype(float),
        np.full(n, 0.5),
        rng.permutation(n).astype(float),
        np.where(np.arange(n) < 3, 1.0, rng.random(n)),  # three tied minima
        np.where(np.arange(n) % 2 == 0, rng.random(n), 2.0),  # half tied at the top
    ]
    x = np.array(rows)
    m = estimator._doubled_rank_rows(x)
    assert m.dtype == np.intp
    for row, ranks in zip(x, m):
        np.testing.assert_array_equal(ranks, estimator._doubled_ranks(row))


# ------------------------------------------- one point of estimate_grid


def _at(sample, h, u, v):
    """The estimate at the single point (u, v), read off the grid of both coordinates."""
    knots = np.union1d([u], [v])
    grid = estimate_grid(sample, h, knots)
    return float(grid[np.searchsorted(knots, u), np.searchsorted(knots, v)])


def test_estimate_point_single_observation_center():
    # a tied pair has the one pseudo-observation (1/2, 1/2), and K(0) = 1/2
    sample = PairedSample(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert _at(sample, 1.0, 0.5, 0.5) == 0.25


def test_estimate_point_zero_coordinate_is_exact_zero():
    sample = _frank_sample(1.0, 50, 5)
    assert _at(sample, 0.3, 0.7, 0.0) == 0.0
    assert _at(sample, 0.3, 0.0, 0.7) == 0.0


def test_estimate_point_two_observation_value():
    # pseudo-observations (1/3, 1/3) and (2/3, 2/3); at (1/2, 1/2) with h = 1
    # their factors are K(a) and K(-a) = 1 - K(a) on both axes, a = q(2/3)
    sample = PairedSample(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    a = float(ndtri(2.0 / 3.0))
    k = 0.25 * (2.0 + 3.0 * a - a**3)
    expected = (k**2 + (1.0 - k) ** 2) / 2.0
    assert _at(sample, 1.0, 0.5, 0.5) == pytest.approx(expected, abs=1e-15)


def test_estimate_point_v_equals_one_gives_smoothed_margin():
    sample = _frank_sample(2.0, 30, 6)
    from copbands.specfun import epanechnikov_cdf, normal_quantile

    h = 0.4
    u = 0.35
    margin = float(
        np.mean(epanechnikov_cdf((normal_quantile(u) - normal_quantile(_pseudo(sample.xs))) / h))
    )
    assert _at(sample, h, u, 1.0) == pytest.approx(margin, abs=1e-15)


# ------------------------------------------------------------ estimate_grid


def test_estimate_grid_matches_pointwise_evaluation():
    sample = _frank_sample(1.0, 120, 7)
    knots = interior_grid(9)
    grid = estimate_grid(sample, 0.25, knots)
    for i, u in enumerate(knots):
        for j, v in enumerate(knots):
            assert abs(grid[i, j] - _at(sample, 0.25, u, v)) <= 1e-12


def test_estimate_grid_boundary_rows_exact():
    from copbands.specfun import epanechnikov_cdf, normal_quantile

    sample = _frank_sample(1.0, 40, 8)
    knots = np.concatenate(([0.0], interior_grid(5), [1.0]))
    grid = estimate_grid(sample, 0.3, knots)
    assert np.all(grid[0, :] == 0.0)
    assert np.all(grid[:, 0] == 0.0)
    assert grid[-1, -1] == 1.0
    # full-mass column: the 1-margin equals the u-margin smoother
    margin = np.mean(
        epanechnikov_cdf(
            (normal_quantile(knots)[:, None] - normal_quantile(_pseudo(sample.xs))[None, :]) / 0.3
        ),
        axis=1,
    )
    np.testing.assert_allclose(grid[:, -1], margin, atol=1e-15)


def test_estimate_grid_monotone_and_in_range():
    grid = estimate_grid(_frank_sample(-2.0, 80, 9), 0.2, interior_grid(21))
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    assert np.all(np.diff(grid, axis=0) >= -1e-15)
    assert np.all(np.diff(grid, axis=1) >= -1e-15)


def test_estimate_grid_margin_free():
    rng = np.random.default_rng(10)
    xs, ys = rng.normal(size=60), rng.exponential(size=60)
    knots = interior_grid(7)
    a = estimate_grid(PairedSample(xs, ys), 0.3, knots)
    b = estimate_grid(PairedSample(np.arctan(xs), np.log(ys)), 0.3, knots)
    np.testing.assert_array_equal(a, b)


def test_estimate_grid_permutation_invariant():
    sample = _frank_sample(1.0, 64, 12)
    perm = np.random.default_rng(0).permutation(64)
    shuffled = PairedSample(sample.xs[perm], sample.ys[perm])
    knots = interior_grid(11)
    a = estimate_grid(sample, 0.25, knots)
    b = estimate_grid(shuffled, 0.25, knots)
    assert float(np.max(np.abs(a - b))) <= 1e-14


def test_estimate_grid_small_bandwidth_limit_is_empirical_copula():
    sample = _frank_sample(1.0, 100, 14)
    rng = np.random.default_rng(15)
    knots = np.sort(0.02 + 0.96 * rng.random(21))
    grid = estimate_grid(sample, 1e-6, knots)
    emp = np.mean(
        (_pseudo(sample.xs)[:, None, None] <= knots[None, :, None])
        & (_pseudo(sample.ys)[:, None, None] <= knots[None, None, :]),
        axis=0,
    )
    assert float(np.max(np.abs(grid - emp))) <= 1.0 / sample.n


# Integer-valued margins, so ties are common and every map below is
# strictly increasing in floating point on them.
_MARGIN_MAPS = (
    lambda x: np.exp(x / 100.0),
    lambda x: np.arctan(x / 50.0),
    lambda x: x**3,
    lambda x: 2.0 * x - 7.0,
)


@st.composite
def _raw_samples(draw):
    n = draw(st.integers(2, 40))
    column = st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
    xs = np.array(draw(column), dtype=float)
    ys = np.array(draw(column), dtype=float)
    return xs, ys


@settings(max_examples=60, deadline=None)
@given(_raw_samples(), st.floats(0.05, 2.0))
def test_estimate_grid_properties(sample, h):
    xs, ys = sample
    knots = np.concatenate(([0.0], interior_grid(9), [1.0]))
    grid = estimate_grid(PairedSample(xs, ys), h, knots)
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    # monotone up to summation rounding, n·eps for n <= 40
    assert np.all(np.diff(grid, axis=0) >= -1e-14)
    assert np.all(np.diff(grid, axis=1) >= -1e-14)


@settings(max_examples=40, deadline=None)
@given(_raw_samples(), st.sampled_from(_MARGIN_MAPS), st.sampled_from(_MARGIN_MAPS))
def test_estimate_grid_unchanged_under_increasing_margin_maps(sample, f, g):
    xs, ys = sample
    knots = interior_grid(7)
    base = estimate_grid(PairedSample(xs, ys), 0.3, knots)
    mapped = estimate_grid(PairedSample(f(xs), g(ys)), 0.3, knots)
    np.testing.assert_array_equal(base, mapped)


def test_estimate_grid_rejects_bad_inputs():
    sample = _frank_sample(1.0, 20, 16)
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_grid(sample, h, interior_grid(5))
    with pytest.raises(ValueError):
        estimate_grid(sample, 0.3, np.array([0.2, 0.2, 0.4]))
    with pytest.raises(ValueError):
        estimate_grid(sample, 0.3, np.array([-0.1, 0.5]))


# ------------------------------------------------------------- rank table


@pytest.mark.parametrize("n", [16, 50, 500, 513, 2000])  # 513: one 512-row block and one row
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("boundary", [False, True])
def test_rank_estimate_bit_identical_to_estimate_grid(n, tied, boundary):
    rng = np.random.default_rng(n)
    xs = rng.normal(size=n)
    ys = xs + rng.normal(size=n)
    if tied:
        xs, ys = np.round(xs, 1), np.round(ys, 1)
        assert np.unique(xs).size < n and np.unique(ys).size < n
    h = default_bandwidth(n)
    knots = np.concatenate(([0.0], interior_grid(9), [1.0])) if boundary else interior_grid(33)
    looked_up = rank_estimate(rank_table(n, h, knots), xs, ys)
    direct = estimate_grid(PairedSample(xs, ys), h, knots)
    assert np.array_equal(looked_up, direct)


def test_estimate_grid_memory_does_not_grow_with_n():
    # whole (33, n) factor tables peaked at 127 MiB in this test; 512-row blocks need 5
    rng = np.random.default_rng(0)
    sample = PairedSample(rng.random(100_000), rng.random(100_000))
    tracemalloc.start()
    try:
        estimate_grid(sample, 0.1, interior_grid(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_estimate_grid_does_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count once, at import. With 512-row blocks of
    # observation-major factors, these grids stay on one BLAS thread; at 50
    # knots the product is split across threads and the last bits move.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from copbands.estimator import PairedSample, default_bandwidth, estimate_grid, interior_grid\n"
        "for n in (513, 2000):\n"
        "    rng = np.random.default_rng(n)\n"
        "    sample = PairedSample(rng.random(n), rng.random(n))\n"
        "    for g in (33, 36, 44):\n"
        "        grid = estimate_grid(sample, default_bandwidth(n), interior_grid(g))\n"
        "        print(n, g, hashlib.sha256(grid.tobytes()).hexdigest())\n"
    )
    src = str(Path(estimator.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6


def test_rank_table_shape_and_rejects_bad_inputs():
    assert rank_table(20, 0.3, interior_grid(5)).shape == (39, 5)
    for h in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            rank_table(20, h, interior_grid(5))
    for knots in ([0.2, 0.2, 0.4], [0.4, 0.2]):
        with pytest.raises(ValueError, match="increasing"):
            rank_table(20, 0.3, np.array(knots))
    with pytest.raises(ValueError):
        rank_table(0, 0.3, interior_grid(5))


def test_rank_estimate_rejects_samples_of_another_size():
    table = rank_table(20, 0.3, interior_grid(5))
    xs = np.arange(20.0)
    for bad in (xs[:19], np.append(xs, 20.0), xs.reshape(4, 5)):
        with pytest.raises(ValueError, match="size 20"):
            rank_estimate(table, bad, xs)
        with pytest.raises(ValueError, match="size 20"):
            rank_estimate(table, xs, bad)


# -------------------------------------------------------- default_bandwidth


def test_default_bandwidth_values():
    assert default_bandwidth(100) == pytest.approx(1.0 / math.log(100), abs=1e-15)
    assert default_bandwidth(3) == pytest.approx(1.0 / math.log(3), abs=1e-15)


def test_default_bandwidth_rejects_tiny_n():
    with pytest.raises(ValueError):
        default_bandwidth(2)


@pytest.mark.parametrize(
    "call",
    [interior_grid, lambda n: rank_table(n, 0.3, interior_grid(5)), default_bandwidth, rn,
     lambda n: half_width(BandSpec(BandMethod.LIL), n),
     lambda n: half_width(BandSpec(BandMethod.NORMAL), n, np.ones((2, 2)))],
    ids=["interior_grid", "rank_table", "default_bandwidth", "rn", "half_width-lil",
         "half_width-normal"],
)
def test_sizes_must_be_integers(call):
    # truncating 16.9 to 16 would silently answer for another sample size
    for bad in (16.9, 16.0, np.float64(20.0)):
        with pytest.raises(TypeError):
            call(bad)
    assert np.array_equal(call(np.int64(20)), call(20))


# ------------------------------------------------------------ interior_grid


def test_interior_grid_knots():
    knots = interior_grid(33)
    assert knots.shape == (33,)
    np.testing.assert_allclose(knots, np.arange(1, 34) / 34.0, atol=1e-15)
    np.testing.assert_array_equal(interior_grid(2), [1.0 / 3.0, 2.0 / 3.0])
    np.testing.assert_array_equal(interior_grid(3), [0.25, 0.5, 0.75])
    with pytest.raises(ValueError):
        interior_grid(1)
