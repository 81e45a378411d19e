"""Normal quantile and the integrated Epanechnikov kernel."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from copbands.specfun import epanechnikov_cdf, normal_quantile


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


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_normal_quantile_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
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


def test_scalar_in_scalar_out_array_in_array_out():
    assert isinstance(normal_quantile(0.3), float)
    assert isinstance(epanechnikov_cdf(0.3), float)
    for fn in (normal_quantile, epanechnikov_cdf):
        out = fn(np.array([0.25, 0.75]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
