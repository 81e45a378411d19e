"""Normal quantile and the integrated Epanechnikov kernel."""

import importlib.util
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from copbands import PairedSample, default_bandwidth, estimate_grid, rank_estimate, rank_table
from copbands.specfun import epanechnikov_cdf, normal_quantile


@pytest.fixture(scope="module")
def probabilities():
    """10^6 uniform points and 10^5 log-uniform points in each tail, down to 1e-300 and up to 1 - 1e-16."""
    rng = np.random.default_rng(241)
    p = np.concatenate((rng.random(10**6), 10.0 ** -rng.uniform(0.0, 300.0, 10**5),
                        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10**5)))
    assert np.all((p > 0.0) & (p < 1.0))
    return p


def _ulps(got, ref):
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


@pytest.fixture(scope="module")
def pure_python_inv_cdf():
    """CPython's pure-Python AS 241, ``statistics._normal_dist_inv_cdf`` without its C twin.

    Python float arithmetic rounds every operation, so its central branch
    has the bits of IEEE arithmetic in AS 241's order on any machine.
    """
    spec = importlib.util.spec_from_file_location("_statistics_pure_python", statistics.__file__)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "_statistics", None)  # "from _statistics import ..." raises ImportError
        spec.loader.exec_module(module)
    assert module._normal_dist_inv_cdf.__module__ == "_statistics_pure_python"
    return lambda p: module._normal_dist_inv_cdf(p, 0.0, 1.0)


def test_normal_quantile_matches_reference_quantile():
    rng = np.random.default_rng(8)
    p = rng.random(10_000)
    err = np.abs(normal_quantile(p) - ndtri(p))
    assert float(err.max()) <= 1e-9


def test_normal_quantile_known_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400538, abs=1e-12)
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)


def test_normal_quantile_endpoints_and_tails():
    assert normal_quantile(0.0) == -np.inf
    assert normal_quantile(1.0) == np.inf
    # extreme but representable tail probabilities stay finite and ordered
    q = normal_quantile(np.array([1e-300, 1e-12, 0.5, 1.0 - 1e-12]))
    assert np.all(np.isfinite(q))
    assert np.all(np.diff(q) > 0.0)
    assert q[0] == pytest.approx(ndtri(1e-300), abs=1e-5)
    assert q[1] == pytest.approx(ndtri(1e-12), abs=1e-9)


def test_normal_quantile_symmetry():
    p = np.array([0.001, 0.025, 0.2, 0.45])
    np.testing.assert_allclose(normal_quantile(p), -normal_quantile(1.0 - p), atol=1e-13)


def test_normal_quantile_roundtrip():
    p = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    np.testing.assert_allclose(ndtr(normal_quantile(p)), p, atol=1e-14)


def test_normal_quantile_ulp_error_against_the_standard_library_and_ndtri(probabilities):
    # the bounds are the measured maxima: 3 ulp against inv_cdf, on the 10
    # points in the tails where numpy's log and the C library's differ, and
    # 7 ulp against Cephes' ndtri
    got = normal_quantile(probabilities)
    inv_cdf = statistics.NormalDist().inv_cdf
    stdlib = np.fromiter(map(inv_cdf, probabilities.tolist()), float, probabilities.size)
    assert float(_ulps(got, stdlib).max()) <= 3.0
    assert float(_ulps(got, ndtri(probabilities)).max()) <= 7.0


def test_normal_quantile_central_branch_has_the_bits_of_pure_python_as241(
        probabilities, pure_python_inv_cdf):
    # |p - 1/2| <= 0.425 is arithmetic only: no log, so no libm to differ
    p = probabilities[:200_000]
    central = p[np.abs(p - 0.5) <= 0.425]
    assert central.size > 150_000
    expected = np.array([pure_python_inv_cdf(v) for v in central.tolist()])
    assert np.array_equal(normal_quantile(central), expected)


def test_scalar_has_the_bits_of_the_array_element(probabilities):
    p = probabilities[::97]
    assert np.array_equal([normal_quantile(v) for v in p.tolist()], normal_quantile(p))


def test_normal_quantile_exact_at_zero_half_and_one():
    for p in (np.array([0.0, 0.5, 1.0]), np.array([[1.0, 0.5], [0.0, 0.5]])):
        got = normal_quantile(p)
        assert got.shape == p.shape
        assert np.array_equal(got, np.where(p == 0.5, 0.0, np.copysign(np.inf, p - 0.5)))
    assert normal_quantile(0.0) == -math.inf
    assert normal_quantile(1.0) == math.inf
    assert normal_quantile(-0.0) == -math.inf
    half = normal_quantile(0.5)
    assert half == 0.0 and math.copysign(1.0, half) == 1.0
    assert normal_quantile(np.array([])).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 511, 512, 513, 10**4, 10**6])
def test_normal_quantile_strictly_increasing_on_rank_points(n):
    # the 2n - 1 rank points m / (2(n + 1)) the estimator transforms
    q = normal_quantile(np.arange(2, 2 * n + 1) / (2.0 * (n + 1)))
    assert np.all(np.isfinite(q))
    assert np.all(np.diff(q) > 0.0)


@pytest.mark.parametrize("p0, step", [
    (0.075, 1e-12),                     # central -> lower tail, |p - 1/2| = 0.425
    (0.925, 1e-12),                     # central -> upper tail
    (math.exp(-25.0), 1e-12 * math.exp(-25.0)),  # near -> far lower tail, sqrt(-log p) = 5
    (1.0 - math.exp(-25.0), 2.0**-52),  # near -> far upper tail, two ulp of p
], ids=["0.075", "0.925", "exp(-25)", "1-exp(-25)"])
def test_normal_quantile_strictly_increasing_across_branch_switches(p0, step):
    # steps of 1e-12 relative to min(p, 1 - p) or coarser, so each moves the quantile by
    # over a hundred ulp and a seam between branches would show as a dip
    p = p0 + step * np.arange(-2000, 2001)
    assert np.all(np.diff(p) > 0.0)
    assert np.all(np.diff(normal_quantile(p)) > 0.0)


@pytest.mark.parametrize("n", [300, 511, 513, 1200])
def test_estimates_share_the_quantile_vector_bit_for_bit(n):
    # knots in all three branches and at both ends; ties in both margins,
    # so odd (tied) rank points are gathered too; n on both sides of one
    # 512-row block
    rng = np.random.default_rng(n)
    xs = np.round(rng.normal(size=n), 1)
    ys = np.round(xs + rng.normal(size=n), 1)
    assert np.unique(xs).size < n and np.unique(ys).size < n
    knots = np.array([0.0, 1e-12, 0.01, 0.074, 0.3, 0.5, 0.926, 0.99, 1.0 - 1e-12, 1.0])
    h = default_bandwidth(n)
    direct = estimate_grid(PairedSample(xs, ys), h, knots)
    assert np.array_equal(rank_estimate(rank_table(n, h, knots), xs, ys), direct)


# a scalar reaches the check as a one-element array does
@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.array([0.5, 1.1]), np.array([0.5, np.nan])])
def test_normal_quantile_rejects_out_of_domain(bad):
    with pytest.raises(ValueError, match=r"probabilities in \[0, 1\]"):
        normal_quantile(bad)


def test_epanechnikov_cdf_exact_polynomial_values():
    # closed form 1/2 + t(3 - t^2)/4 at exactly representable rationals
    assert epanechnikov_cdf(0.0) == 0.5
    assert epanechnikov_cdf(1.0) == 1.0
    assert epanechnikov_cdf(-1.0) == 0.0
    assert epanechnikov_cdf(0.5) == 27.0 / 32.0
    assert epanechnikov_cdf(-0.5) == 5.0 / 32.0


def test_epanechnikov_cdf_plateaus_and_infinities():
    assert epanechnikov_cdf(-5.0) == 0.0
    assert epanechnikov_cdf(5.0) == 1.0
    assert epanechnikov_cdf(-np.inf) == 0.0
    assert epanechnikov_cdf(np.inf) == 1.0


def test_epanechnikov_cdf_symmetry_and_monotonicity():
    t = np.linspace(-1.5, 1.5, 301)
    c = epanechnikov_cdf(t)
    np.testing.assert_allclose(c + epanechnikov_cdf(-t), 1.0, atol=1e-15)
    assert np.all(np.diff(c) >= 0.0)


def test_epanechnikov_cdf_integrates_density():
    # CDF increments match the quadrature of 0.75(1 - t^2) on [-1, 1]
    t = np.linspace(-1.0, 1.0, 2001)
    dens = 0.75 * (1.0 - t * t)
    quad = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(t))))
    np.testing.assert_allclose(epanechnikov_cdf(t), quad, atol=1e-6)


# zeros, the support's edges and their neighbours, infinities, NaN, subnormals
_KERNEL_EDGES = [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.0 + 2.0**-52,
                 -(1.0 + 2.0**-52), math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, -2.2250738585072009e-308]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_KERNEL_EDGES), st.floats(-1.5, 1.5),
                          st.floats(allow_nan=True, allow_infinity=True)), min_size=1, max_size=24),
       st.sampled_from([0, 1, 2]))
@example(_KERNEL_EDGES, 2)
@example([-0.0], 0)
@example([5e-324], 0)
@example([math.nan], 0)
def test_epanechnikov_cdf_has_the_bits_of_the_textbook_expression(values, ndim):
    # the kernel works in place; it must still round every step as the
    # one-line formula does, return a float for a 0-d input and leave its
    # input unwritten
    if ndim == 0:
        t = np.array(values[0])
    elif ndim == 1:
        t = np.array(values)
    else:
        t = np.array(values).reshape((-1, 2) if len(values) % 2 == 0 else (1, -1))
    before = t.copy()
    ta = np.clip(t, -1.0, 1.0)
    expected = np.asarray(0.5 + ta * (0.75 - 0.25 * ta * ta))
    got = epanechnikov_cdf(t)
    assert t.tobytes() == before.tobytes()
    if ndim == 0:
        assert type(got) is float and type(epanechnikov_cdf(values[0])) is float
        assert np.array_equal(epanechnikov_cdf(values[0]), got, equal_nan=True)
    else:
        assert isinstance(got, np.ndarray) and got.shape == t.shape
    got = np.asarray(got)
    nan = np.isnan(expected)  # a NaN's payload is not part of the result
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_scalar_in_scalar_out_array_in_array_out():
    assert isinstance(normal_quantile(0.3), float)
    assert isinstance(epanechnikov_cdf(0.3), float)
    for fn in (normal_quantile, epanechnikov_cdf):
        out = fn(np.array([0.25, 0.75]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
