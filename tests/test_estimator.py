"""Mid-ranks, kernel copula estimator, rank table, bandwidth schedule."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import rankdata

import reference
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
    return estimator._doubled_rank_rows(x[None])[0] / (2.0 * (x.size + 1))


def _doubled_ranks(x):
    """Twice scipy's average ranks of x, as integers: the reference for doubled ranks."""
    return (2 * rankdata(x, method="average")).astype(np.intp)


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
        np.testing.assert_array_equal(ranks, _doubled_ranks(row))


# values that stress the row sort's packed keys: signed zeros, subnormals,
# 0 and 1, the extremes
_FMAX = float(np.finfo(float).max)
_RANK_SPECIALS = (0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-310, -1e-310,
                  2.2250738585072014e-308, _FMAX, -_FMAX)


@st.composite
def _rank_rows(draw):
    """(rows, width) matrix of uniform draws mixed with a pool of values and one-ulp neighbours.

    Widths straddle the index bit counts 4, 11 and 12. A row takes each
    pool value once or a share of draws from the pool, which ties it;
    neighbours one ulp apart share all but the low bits.
    """
    width = draw(st.sampled_from([2, 16, 17, 1024, 1025, 2048, 2049]))
    value = st.sampled_from(_RANK_SPECIALS) | st.floats(allow_nan=False, allow_infinity=False)
    pool = np.array(draw(st.lists(value, min_size=1, max_size=6)))
    if draw(st.booleans()):
        pool = np.concatenate([pool, -pool])  # 0.0 gives -0.0 too
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = st.tuples(st.floats(0.0, 1.0), st.booleans(), st.floats(0.0, 1.0), st.booleans())
    rows = []
    for pooled, once, nudged, signed in draw(st.lists(shares, min_size=1, max_size=4)):
        row = rng.random(width) - (0.5 if signed else 0.0)
        if once:  # each pool value in one place
            row[rng.choice(width, min(pool.size, width), replace=False)] = pool[:width]
        else:
            pick = rng.random(width) < pooled
            row[pick] = rng.choice(pool, np.count_nonzero(pick))
        pick = rng.random(width) < nudged
        up = rng.random(np.count_nonzero(pick)) < 0.5
        src = row[rng.integers(0, width, up.size)]
        row[pick] = np.nextafter(src, np.where(up, _FMAX, -_FMAX))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(_rank_rows())
# -0.0 and +0.0 once each, apart from every other value: the only tie
@example(np.array([[0.25, -0.0, 0.5, 0.0, 0.75, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0,
                    4.0, 5.0, 6.0, 7.0, 8.0]]))
def test_rank_rows_sort_every_row(x):
    order, tied = estimator._argsort_rows(x)
    np.testing.assert_array_equal(np.sort(order, axis=1), np.broadcast_to(np.arange(x.shape[1]), x.shape))
    xs = np.take_along_axis(x, order, axis=1)
    assert np.all(xs[:, 1:] >= xs[:, :-1])
    ref = np.sort(x, axis=1)
    has_ties = np.any(ref[:, 1:] == ref[:, :-1], axis=1)
    np.testing.assert_array_equal(tied, np.flatnonzero(has_ties))
    for k in np.flatnonzero(~has_ties):
        np.testing.assert_array_equal(order[k], np.argsort(x[k]))
    for row, ranks in zip(x, estimator._doubled_rank_rows(x)):
        np.testing.assert_array_equal(ranks, _doubled_ranks(row))
    # rank-table rows in x-rank order, a tie group of x in y-rank order
    y = x[:, ::-1]
    for row, (tx, ty) in enumerate(estimator._rank_pair_rows(x, y)):
        mx, my = _doubled_ranks(x[row]) - 2, _doubled_ranks(y[row]) - 2
        if row in tied:
            pairs = np.lexsort((my, mx))
            np.testing.assert_array_equal(tx, mx[pairs])
            np.testing.assert_array_equal(ty, my[pairs])
        else:
            assert tx is None
            np.testing.assert_array_equal(ty, my[order[row]])


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
    assert np.array_equal(a, b)


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
    for knots, message in (([0.2, 0.2, 0.4], "strictly increasing"),
                           ([-0.1, 0.5], r"lie in \[0, 1\]"),
                           ([], "nonempty one-dimensional array")):
        with pytest.raises(ValueError, match=message):
            estimate_grid(sample, 0.3, np.array(knots))


# ------------------------------------------------------------- rank table


@pytest.mark.parametrize("n", [16, 50, 500, 513, 2000])  # 513: one 512-row block and one row
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("boundary", [False, True])
def test_rank_estimate_bit_identical_to_estimate_grid(n, tied, boundary):
    rng = np.random.default_rng(n)
    xs = rng.normal(size=n)
    ys = xs + rng.normal(size=n)
    if tied:
        # one decimal: light ties at n = 16 (12 and 14 values), heavy from
        # n = 500 (56 and 69 values at n = 513)
        xs, ys = np.round(xs, 1), np.round(ys, 1)
        assert np.unique(xs).size < n and np.unique(ys).size < n
    h = default_bandwidth(n)
    knots = np.concatenate(([0.0], interior_grid(9), [1.0])) if boundary else interior_grid(33)
    looked_up = rank_estimate(rank_table(n, h, knots), xs, ys)
    direct = estimate_grid(PairedSample(xs, ys), h, knots)
    assert np.array_equal(looked_up, direct)
    # both paths share their ranks, so the tie path is checked against a sum
    # that shares nothing with them
    assert np.max(np.abs(direct - reference.textbook(xs, ys, h, knots))) <= 1e-13


def _tiled_sum(blocks):
    """Reference for ``estimator._block_sum``: from 0.0, in 33-knot tiles, a new product per block."""
    total = 0.0
    for fx, fy in blocks:
        g = fx.shape[1]
        product = np.empty((g, g))
        for i in range(0, g, 33):
            for j in range(0, g, 33):
                product[i:i + 33, j:j + 33] = fx[:, i:i + 33].T @ fy[:, j:j + 33]
        total += product
    return total


def _tiled_estimate(table, xs, ys):
    """Surface of the raw sample (xs, ys) from its rank-table rows, summed by _tiled_sum."""
    (mx, my), = estimator._rank_pair_rows(np.asarray(xs)[None], np.asarray(ys)[None])
    n = my.size
    if mx is None:
        mx = np.arange(0, 2 * n, 2)
    blocks = [slice(b, b + 512) for b in range(0, n, 512)]
    return _tiled_sum((table[mx[s]], table[my[s]]) for s in blocks) / n


@pytest.mark.parametrize("n", [16, 50, 512, 513, 2000])
@pytest.mark.parametrize("g", [2, 33, 34, 45, 99])
def test_estimates_keep_the_bits_of_a_tiled_sum_from_zero(n, g):
    # the first product starts the sum: the same bits, since 0.0 + P == P
    # for P >= 0, and every tile is the same BLAS call
    rng = np.random.default_rng(100 * n + g)
    h, knots = default_bandwidth(n), interior_grid(g)
    table = rank_table(n, h, knots)
    for tied in (False, True):
        xs = rng.normal(size=n)
        ys = xs + rng.normal(size=n)
        if tied:  # half-unit steps tie both margins at every n here
            xs, ys = np.floor(2.0 * xs) / 2.0, np.floor(2.0 * ys) / 2.0
            assert np.unique(xs).size < n and np.unique(ys).size < n
        tiled = _tiled_estimate(table, xs, ys)
        assert np.array_equal(estimate_grid(PairedSample(xs, ys), h, knots), tiled)
        assert np.array_equal(rank_estimate(table, xs, ys), tiled)


@pytest.mark.parametrize("coarse", ["", "u", "v"], ids=["untied", "coarse_u", "coarse_v"])
@pytest.mark.parametrize("n", [50, 513])
def test_grid_chunk_stacks_keep_the_bits_of_a_tiled_sum_from_zero(n, coarse):
    # each replicate's sum is written into its slot and the stack divided by n
    # once; on a grid of 64 values every replicate ties u or v
    table = rank_table(n, default_bandwidth(n), interior_grid(33))
    us, vs = reference.sample(2**33 + 5, 0, 1, range(64, 128), 1.0, n, coarse)
    stack = estimator._table_stack(table, list(estimator._rank_pair_rows(us, vs)))
    assert stack.shape == (64, 33, 33)
    assert np.array_equal(stack, [_tiled_estimate(table, u, v) for u, v in zip(us, vs)])


def _estimate_grid_peak(n):
    rng = np.random.default_rng(0)
    sample = PairedSample(rng.random(n), rng.random(n))
    tracemalloc.start()
    try:
        estimate_grid(sample, 0.1, interior_grid(33))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_grid_memory_grows_with_n_only_through_vectors():
    # O(n) vectors (rank points' quantiles, ranks) plus O(|knots|·512) blocks:
    # peaks of 5.36 MiB at n = 1e5 and 9.97 MiB at 2e5, about 48 B per
    # observation. Whole (33, n) factor tables peaked at 127 MiB at n = 1e5,
    # and a (2n - 1, 33) rank table alone would add 2·33·8 = 528 B per observation.
    small, large = _estimate_grid_peak(100_000), _estimate_grid_peak(200_000)
    assert small < 16 * 2**20
    assert (large - small) / 100_000 < 64


def test_estimate_grid_does_not_depend_on_blas_threads(stdout_under_blas_threads):
    one, two = stdout_under_blas_threads["estimate_grid"]
    assert one == two
    assert len(one.splitlines()) == 20


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


def _kernel_table(n, h, knots):
    """The factors of every rank point of n at the knots, the kernel evaluated whole."""
    from copbands.specfun import epanechnikov_cdf, normal_quantile

    points = np.arange(2, 2 * n + 1) / (2.0 * (n + 1))
    t = normal_quantile(knots)[None, :] - normal_quantile(points)[:, None]
    t /= h
    return epanechnikov_cdf(t)


@pytest.mark.parametrize("n", [1, 16, 257, 700])
@pytest.mark.parametrize("h", [1e-3, 0.05, 0.3, 2.0, 1e6])
@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
def test_rank_table_is_the_kernel_at_every_rank_point(n, h, boundary):
    # every entry, on the plateaus and between them, has the bits of the kernel
    # evaluated whole; 257 and 700 rank points end a 512-row block mid-table
    knots = interior_grid(9)
    if boundary:
        knots = np.concatenate(([0.0], knots, [1.0]))
    assert np.array_equal(rank_table(n, h, knots), _kernel_table(n, h, knots))


def test_rank_table_keeps_knots_whose_quantiles_fall_out_of_order():
    # q(a) > q(b) by rounding for the adjacent doubles a < b; at this h, b is on
    # the kernel's 0 plateau at every rank point and a is not at the first
    from copbands.specfun import normal_quantile

    knots = np.array([0.01960784213725517, 0.019607842137255173])
    n, h = 50, 2.1003479844239337e-08
    qk = normal_quantile(knots)
    assert qk[0] > qk[1]
    expected = _kernel_table(n, h, knots)
    assert expected[0, 0] > 0.0
    assert np.array_equal(rank_table(n, h, knots), expected)


def test_rank_table_build_holds_one_table():
    # the table is filled block by block, so the build holds the table and one
    # block's temporaries
    tracemalloc.start()
    try:
        table = rank_table(20_000, default_bandwidth(20_000), interior_grid(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


def test_rank_estimate_rejects_samples_of_another_size():
    table = rank_table(20, 0.3, interior_grid(5))
    xs = np.arange(20.0)
    for bad in (xs[:19], np.append(xs, 20.0)):
        with pytest.raises(ValueError, match="size 20, not"):
            rank_estimate(table, bad, bad)
    # unequal lengths and arrays that are not 1-D fail as a PairedSample would
    for bad in (xs[:19], np.append(xs, 20.0), xs.reshape(4, 5)):
        for margins in ((bad, xs), (xs, bad)):
            with pytest.raises(ValueError, match="one-dimensional and of equal length"):
                rank_estimate(table, *margins)


@pytest.mark.parametrize("bad", [
    np.zeros((40, 5)),                                      # an even row count
    np.zeros(39),                                           # one-dimensional
    rank_table(19, 0.3, interior_grid(5))[:-1].tolist(),    # a list, of 36 rows
    np.zeros((39, 0)),                                      # no column
], ids=["even-rows", "1-d", "list", "no-column"])
def test_rank_estimate_rejects_what_no_rank_table_is(bad):
    xs = np.arange(20.0)
    with pytest.raises(ValueError, match=r"table must have 2n - 1 rows and G >= 1 columns"):
        rank_estimate(bad, xs, xs)


def test_rank_estimate_takes_a_table_as_a_float_array():
    table = rank_table(20, 0.3, interior_grid(5))
    xs = np.arange(20.0)
    assert np.array_equal(rank_estimate(table.tolist(), xs, xs[::-1]),
                          rank_estimate(table, xs, xs[::-1]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("margin", [0, 1])
def test_rank_estimate_rejects_non_finite_values(value, margin):
    # rank_estimate rejects what estimate_grid rejects
    knots = interior_grid(5)
    table = rank_table(20, 0.3, knots)
    margins = [np.arange(20.0), np.arange(20.0)]
    margins[margin][7] = value
    with pytest.raises(ValueError, match="finite"):
        rank_estimate(table, *margins)
    with pytest.raises(ValueError, match="finite"):
        estimate_grid(PairedSample(*margins), 0.3, knots)


@st.composite
def _shuffled_samples(draw):
    """A raw sample, light or heavy ties in each margin, and a permutation of its rows.

    Sizes reach past two 512-row blocks of the estimator sum.
    """
    n = draw(st.integers(2, 1100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = (rng.integers(0, draw(st.sampled_from([2, 7, 10**9])), n).astype(float)
              for _ in range(2))
    return xs, ys, rng.permutation(n)


@settings(max_examples=40, deadline=None)
@given(_shuffled_samples())
def test_estimates_do_not_depend_on_row_order(sample):
    # both paths sum over the sorted rank pairs, so a row permutation keeps every bit
    xs, ys, perm = sample
    h = default_bandwidth(max(xs.size, 3))
    knots = np.concatenate(([0.0], interior_grid(9), [1.0]))
    table = rank_table(xs.size, h, knots)
    grid = estimate_grid(PairedSample(xs, ys), h, knots)
    assert np.array_equal(estimate_grid(PairedSample(xs[perm], ys[perm]), h, knots), grid)
    assert np.array_equal(rank_estimate(table, xs[perm], ys[perm]), grid)
    assert np.max(np.abs(grid - reference.textbook(xs, ys, h, knots))) <= 1e-13


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
