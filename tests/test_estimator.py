"""Pseudo-observations, kernel copula estimator, bandwidth schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copbands.estimator import (
    CopulaGrid,
    PairedSample,
    PseudoSample,
    default_bandwidth,
    estimate_grid,
    estimate_point,
    interior_grid,
    make_pseudo_sample,
    rank_estimate,
    rank_table,
)


def _frank_pseudo(theta, n, seed):
    from copbands.copula import frank_conditional_sample

    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = np.asarray(frank_conditional_sample(theta, u, rng.random(n)))
    return make_pseudo_sample(PairedSample(u, v))


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


def test_pseudo_sample_requires_open_interval():
    for bad in (0.0, 1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="us must lie strictly inside"):
            PseudoSample(np.array([bad, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="vs must lie strictly inside"):
            PseudoSample(np.array([0.5, 0.5]), np.array([0.5, bad]))
    single = PseudoSample(np.array([0.5]), np.array([0.5]))
    assert single.n == 1


# ------------------------------------------------------- make_pseudo_sample


def test_pseudo_sample_ranks():
    pseudo = make_pseudo_sample(PairedSample(np.array([1.2, 3.4, 2.2]), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_array_equal(pseudo.us, [0.25, 0.75, 0.5])
    pseudo = make_pseudo_sample(PairedSample(np.array([5.0, 1.0]), np.array([1.0, 2.0])))
    np.testing.assert_allclose(pseudo.us, [2.0 / 3.0, 1.0 / 3.0])


def test_pseudo_sample_rank_invariance_under_monotone_maps():
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=40), rng.normal(size=40)
    base = make_pseudo_sample(PairedSample(xs, ys))
    mapped = make_pseudo_sample(PairedSample(np.exp(xs), ys**3))
    np.testing.assert_array_equal(base.us, mapped.us)
    np.testing.assert_array_equal(base.vs, mapped.vs)


def test_pseudo_sample_ties_use_mid_ranks():
    pseudo = make_pseudo_sample(PairedSample(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(pseudo.us, [1.5 / 4.0, 1.5 / 4.0, 3.0 / 4.0])


def test_pseudo_sample_matches_scipy_average_ranks():
    from scipy.stats import rankdata

    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        xs = rng.normal(size=n)  # untied
        ys = rng.integers(0, max(2, n // 4), size=n).astype(float)  # heavily tied
        pseudo = make_pseudo_sample(PairedSample(xs, ys))
        np.testing.assert_array_equal(pseudo.us, rankdata(xs, method="average") / (n + 1.0))
        np.testing.assert_array_equal(pseudo.vs, rankdata(ys, method="average") / (n + 1.0))


# ----------------------------------------------------------- estimate_point


def test_estimate_point_single_observation_center():
    pseudo = PseudoSample(np.array([0.5]), np.array([0.5]))
    assert estimate_point(pseudo, 1.0, 0.5, 0.5) == 0.25


def test_estimate_point_zero_coordinate_is_exact_zero():
    pseudo = _frank_pseudo(1.0, 50, 5)
    assert estimate_point(pseudo, 0.3, 0.7, 0.0) == 0.0
    assert estimate_point(pseudo, 0.3, 0.0, 0.7) == 0.0


def test_estimate_point_two_observation_value():
    pseudo = PseudoSample(np.array([0.25, 0.75]), np.array([0.25, 0.75]))
    assert estimate_point(pseudo, 1.0, 0.5, 0.5) == pytest.approx(
        0.43417386300607863, abs=1e-15
    )


def test_estimate_point_v_equals_one_gives_smoothed_margin():
    pseudo = _frank_pseudo(2.0, 30, 6)
    from copbands.specfun import epanechnikov_cdf, normal_quantile

    h = 0.4
    u = 0.35
    margin = float(
        np.mean(epanechnikov_cdf((normal_quantile(u) - normal_quantile(pseudo.us)) / h))
    )
    assert estimate_point(pseudo, h, u, 1.0) == pytest.approx(margin, abs=1e-15)


# ------------------------------------------------------------ estimate_grid


def test_estimate_grid_matches_pointwise_evaluation():
    pseudo = _frank_pseudo(1.0, 120, 7)
    knots = interior_grid(9)
    grid = estimate_grid(pseudo, 0.25, knots)
    for i, u in enumerate(knots):
        for j, v in enumerate(knots):
            assert abs(grid.values[i, j] - estimate_point(pseudo, 0.25, u, v)) <= 1e-12


def test_estimate_grid_boundary_rows_exact():
    pseudo = _frank_pseudo(1.0, 40, 8)
    knots = interior_grid(5, include_boundary=True)
    grid = estimate_grid(pseudo, 0.3, knots)
    assert np.all(grid.values[0, :] == 0.0)
    assert np.all(grid.values[:, 0] == 0.0)
    assert grid.values[-1, -1] == 1.0
    # full-mass column: the 1-margin equals the u-margin smoother
    margin = estimate_grid(pseudo, 0.3, knots, np.array([1.0])).values[:, 0]
    np.testing.assert_allclose(grid.values[:, -1], margin, atol=1e-15)


def test_estimate_grid_monotone_and_in_range():
    pseudo = _frank_pseudo(-2.0, 80, 9)
    grid = estimate_grid(pseudo, 0.2, interior_grid(21)).values
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    assert np.all(np.diff(grid, axis=0) >= -1e-15)
    assert np.all(np.diff(grid, axis=1) >= -1e-15)


def test_estimate_grid_margin_free():
    rng = np.random.default_rng(10)
    xs, ys = rng.normal(size=60), rng.exponential(size=60)
    knots = interior_grid(7)
    a = estimate_grid(make_pseudo_sample(PairedSample(xs, ys)), 0.3, knots)
    b = estimate_grid(
        make_pseudo_sample(PairedSample(np.arctan(xs), np.log(ys))), 0.3, knots
    )
    np.testing.assert_array_equal(a.values, b.values)


def test_estimate_grid_permutation_invariant():
    pseudo = _frank_pseudo(1.0, 64, 12)
    perm = np.random.default_rng(0).permutation(64)
    shuffled = PseudoSample(pseudo.us[perm], pseudo.vs[perm])
    knots = interior_grid(11)
    a = estimate_grid(pseudo, 0.25, knots).values
    b = estimate_grid(shuffled, 0.25, knots).values
    assert float(np.max(np.abs(a - b))) <= 1e-14


def test_estimate_grid_small_bandwidth_limit_is_empirical_copula():
    pseudo = _frank_pseudo(1.0, 100, 14)
    rng = np.random.default_rng(15)
    knots = np.sort(0.02 + 0.96 * rng.random(21))
    grid = estimate_grid(pseudo, 1e-6, knots).values
    emp = np.mean(
        (pseudo.us[:, None, None] <= knots[None, :, None])
        & (pseudo.vs[:, None, None] <= knots[None, None, :]),
        axis=0,
    )
    assert float(np.max(np.abs(grid - emp))) <= 1.0 / pseudo.n


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
    knots = interior_grid(9, include_boundary=True)
    grid = estimate_grid(make_pseudo_sample(PairedSample(xs, ys)), h, knots).values
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    # monotone up to summation rounding, n·eps for n <= 40
    assert np.all(np.diff(grid, axis=0) >= -1e-14)
    assert np.all(np.diff(grid, axis=1) >= -1e-14)


@settings(max_examples=40, deadline=None)
@given(_raw_samples(), st.sampled_from(_MARGIN_MAPS), st.sampled_from(_MARGIN_MAPS))
def test_estimate_grid_unchanged_under_increasing_margin_maps(sample, f, g):
    xs, ys = sample
    knots = interior_grid(7)
    base = estimate_grid(make_pseudo_sample(PairedSample(xs, ys)), 0.3, knots)
    mapped = estimate_grid(make_pseudo_sample(PairedSample(f(xs), g(ys))), 0.3, knots)
    np.testing.assert_array_equal(base.values, mapped.values)


def test_estimate_grid_rejects_bad_inputs():
    pseudo = _frank_pseudo(1.0, 20, 16)
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_grid(pseudo, h, interior_grid(5))
    with pytest.raises(ValueError):
        estimate_grid(pseudo, 0.3, np.array([0.2, 0.2, 0.4]))
    with pytest.raises(ValueError):
        estimate_grid(pseudo, 0.3, np.array([-0.1, 0.5]))


# ------------------------------------------------------------- rank table


@pytest.mark.parametrize("n", [16, 50, 500, 2000])
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
    knots = interior_grid(9, include_boundary=True) if boundary else interior_grid(33)
    looked_up = rank_estimate(rank_table(n, h, knots), xs, ys)
    direct = estimate_grid(make_pseudo_sample(PairedSample(xs, ys)), h, knots)
    assert np.array_equal(looked_up, direct.values)


def test_rank_table_shape_and_rejects_bad_inputs():
    assert rank_table(20, 0.3, interior_grid(5)).shape == (5, 39)
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


# ------------------------------------------------------------ interior_grid


def test_interior_grid_knots():
    knots = interior_grid(33)
    assert knots.shape == (33,)
    np.testing.assert_allclose(knots, np.arange(1, 34) / 34.0, atol=1e-15)
    np.testing.assert_array_equal(interior_grid(2), [1.0 / 3.0, 2.0 / 3.0])
    with_boundary = interior_grid(3, include_boundary=True)
    np.testing.assert_array_equal(with_boundary, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        interior_grid(1)


# -------------------------------------------------------------- CopulaGrid


def test_copula_grid_validation_and_same_grid():
    knots = interior_grid(3)
    grid = CopulaGrid(knots, knots, np.zeros((3, 3)))
    other = CopulaGrid(knots, knots, np.full((3, 3), 0.25))
    assert grid.same_grid(other)
    assert not grid.same_grid(CopulaGrid(interior_grid(4), interior_grid(4), np.zeros((4, 4))))
    with pytest.raises(ValueError):
        CopulaGrid(knots, knots, np.zeros((2, 3)))
