"""Frank copula: CDF, partial derivatives, sampler, asymptotic variance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copbands.copula import (
    INDEPENDENCE_THRESHOLD,
    THETA_MAX,
    _cdf_sigma2,
    frank_cdf,
    frank_conditional_sample,
    frank_partials,
    frank_sigma2,
    frechet_lower,
    frechet_upper,
)

THETAS = (-20.0, -2.0, -0.5, 1e-12, 1.0, 10.0, 20.0)


def _unit_grid(m):
    return np.linspace(0.0, 1.0, m)


# ---------------------------------------------------------------- frank_cdf


def test_cdf_known_values():
    assert frank_cdf(5.0, 0.7, 0.0) == 0.0
    assert frank_cdf(1.0, 1.0, 0.3) == 0.3
    assert frank_cdf(1.0, 0.5, 0.5) == pytest.approx(0.2809298036201614, abs=1e-12)


@pytest.mark.parametrize("theta", [-700.0, -2.0, 1.0, 10.0, 700.0])
def test_cdf_boundary_identities(theta):
    t = _unit_grid(41)
    assert float(np.max(np.abs(frank_cdf(theta, t, np.zeros_like(t))))) <= 1e-14
    assert float(np.max(np.abs(frank_cdf(theta, np.zeros_like(t), t)))) <= 1e-14
    assert float(np.max(np.abs(frank_cdf(theta, t, np.ones_like(t)) - t))) <= 1e-14
    assert float(np.max(np.abs(frank_cdf(theta, np.ones_like(t), t) - t))) <= 1e-14


@pytest.mark.parametrize("theta", THETAS)
def test_cdf_frechet_bounds_and_2_increasing(theta):
    t = _unit_grid(101)
    u, v = t[:, None], t[None, :]
    c = frank_cdf(theta, u, v)
    assert np.all(c >= frechet_lower(u, v) - 1e-12)
    assert np.all(c <= frechet_upper(u, v) + 1e-12)
    # rectangle masses nonnegative
    rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    assert float(rect.min()) >= -1e-12


def test_cdf_continuous_in_theta_at_zero():
    u, v = 0.37, 0.81
    assert frank_cdf(0.0, u, v) == u * v
    assert frank_cdf(1e-12, u, v) == u * v
    # just above the independence switch the exact form is still ~uv
    assert frank_cdf(1e-7, u, v) == pytest.approx(u * v, abs=1e-8)
    assert frank_cdf(-1e-7, u, v) == pytest.approx(u * v, abs=1e-8)


def test_cdf_extreme_theta_envelope():
    t = _unit_grid(21)[1:-1]
    u, v = t[:, None], t[None, :]
    # far beyond the overflow range the copula collapses onto its envelope
    np.testing.assert_allclose(frank_cdf(1e6, u, v), frechet_upper(u, v), atol=1e-12)
    np.testing.assert_allclose(frank_cdf(-1e6, u, v), frechet_lower(u, v), atol=1e-12)


def test_cdf_monotone_in_theta():
    # dependence increases with theta at a fixed interior point
    thetas = np.array([-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0])
    vals = np.array([frank_cdf(t, 0.4, 0.6) for t in thetas])
    assert np.all(np.diff(vals) > 0.0)


def test_cdf_rejects_non_finite_theta():
    with pytest.raises(ValueError):
        frank_cdf(np.nan, 0.5, 0.5)
    with pytest.raises(ValueError):
        frank_cdf(np.inf, 0.5, 0.5)


def test_cdf_rejects_out_of_unit_arguments():
    for bad in (-0.1, 1.2, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            frank_cdf(1.0, bad, 0.5)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            frank_cdf(1.0, 0.5, bad)
    with pytest.raises(ValueError, match=r"w must lie in \[0, 1\]"):
        frank_conditional_sample(1.0, 0.5, np.nan)


# ----------------------------------------------------------- frank_partials


def test_partials_independence_limit():
    cu, cv = frank_partials(1e-12, 0.3, 0.8)
    assert cu == pytest.approx(0.8, abs=1e-12)
    assert cv == pytest.approx(0.3, abs=1e-12)


def test_partials_exchangeable_symmetry():
    cu, cv = frank_partials(1.0, 0.5, 0.5)
    assert cu == pytest.approx(cv, abs=1e-14)
    cu2, cv2 = frank_partials(3.0, 0.2, 0.7)
    cu3, cv3 = frank_partials(3.0, 0.7, 0.2)
    assert cu2 == pytest.approx(cv3, abs=1e-14)
    assert cv2 == pytest.approx(cu3, abs=1e-14)


def test_partials_match_finite_differences_spot():
    step = 1e-6
    cu, cv = frank_partials(2.0, 0.4, 0.6)
    fd_u = (frank_cdf(2.0, 0.4 + step, 0.6) - frank_cdf(2.0, 0.4 - step, 0.6)) / (2 * step)
    fd_v = (frank_cdf(2.0, 0.4, 0.6 + step) - frank_cdf(2.0, 0.4, 0.6 - step)) / (2 * step)
    assert cu == pytest.approx(fd_u, abs=1e-8)
    assert cv == pytest.approx(fd_v, abs=1e-8)


@pytest.mark.parametrize("theta", [-20.0, -2.0, 1.0, 10.0, 20.0])
def test_partials_match_finite_differences_bulk(theta):
    rng = np.random.default_rng(11)
    u = 0.01 + 0.98 * rng.random(1000)
    v = 0.01 + 0.98 * rng.random(1000)
    step = 1e-6
    cu, cv = frank_partials(theta, u, v)
    fd_u = (frank_cdf(theta, u + step, v) - frank_cdf(theta, u - step, v)) / (2 * step)
    fd_v = (frank_cdf(theta, u, v + step) - frank_cdf(theta, u, v - step)) / (2 * step)
    assert float(np.max(np.abs(cu - fd_u))) <= 1e-6
    assert float(np.max(np.abs(cv - fd_v))) <= 1e-6


@pytest.mark.parametrize("theta", [-700.0, -100.0, -2.0, 1.0, 10.0])
def test_partials_boundary_limits_and_range(theta):
    t = _unit_grid(21)[1:-1]
    cu, cv = frank_partials(theta, t, np.ones_like(t))
    np.testing.assert_allclose(cu, 1.0, atol=1e-12)
    cu, cv = frank_partials(theta, t, np.zeros_like(t))
    np.testing.assert_allclose(cu, 0.0, atol=1e-12)
    cu, cv = frank_partials(theta, t[:, None], t[None, :])
    assert np.all((cu >= 0.0) & (cu <= 1.0))
    assert np.all((cv >= 0.0) & (cv <= 1.0))


def test_partials_extreme_theta_envelope_derivative():
    # conditional CDF of the envelope: step at v = u (positive dependence)
    cu, _ = frank_partials(1e6, np.array([0.3, 0.3, 0.5]), np.array([0.1, 0.9, 0.5]))
    np.testing.assert_allclose(cu, [0.0, 1.0, 0.5], atol=1e-12)


# -------------------------------------------------- frank_conditional_sample


def test_conditional_sample_independence_returns_w():
    assert frank_conditional_sample(1e-12, 0.4, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_conditional_sample_endpoint_pins():
    assert frank_conditional_sample(3.0, 0.5, 1.0) == 1.0
    assert frank_conditional_sample(3.0, 0.5, 0.0) == 0.0


def test_conditional_sample_inverts_conditional_cdf():
    rng = np.random.default_rng(13)
    for theta in (-50.0, -2.0, 1.0, 10.0, 50.0):
        u = 0.01 + 0.98 * rng.random(500)
        w = 0.01 + 0.98 * rng.random(500)
        v = frank_conditional_sample(theta, u, w)
        cu, _ = frank_partials(theta, u, v)
        assert float(np.max(np.abs(cu - w))) <= 1e-9


def test_conditional_sample_known_value_against_bisection():
    target = frank_conditional_sample(10.0, 0.2, 0.7)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cu, _ = frank_partials(10.0, 0.2, mid)
        if cu < 0.7:
            lo = mid
        else:
            hi = mid
    assert target == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert target == pytest.approx(0.2902896543738115, abs=1e-12)


def test_conditional_sample_extreme_theta_within_support():
    v = frank_conditional_sample(700.0, 0.37, 0.52)
    assert 0.0 <= v <= 1.0
    with pytest.raises(ValueError):
        frank_conditional_sample(700.5, 0.37, 0.52)
    with pytest.raises(ValueError):
        frank_conditional_sample(-701.0, 0.37, 0.52)
    assert THETA_MAX == 700.0


@pytest.mark.parametrize("theta", [-2.0, 1.0, 10.0])
def test_sampler_reproduces_copula(theta):
    # empirical copula of sampled pairs within a conservative sup-norm band
    n = 100_000
    rng = np.random.default_rng(60)
    u = rng.random(n)
    v = np.asarray(frank_conditional_sample(theta, u, rng.random(n)))
    knots = np.arange(1, 22) / 22.0
    iu = (u[:, None] <= knots[None, :]).astype(float)
    iv = (v[:, None] <= knots[None, :]).astype(float)
    emp = (iu.T @ iv) / n
    truth = frank_cdf(theta, knots[:, None], knots[None, :])
    assert float(np.max(np.abs(emp - truth))) <= 4.0 / np.sqrt(n)


# --------------------------------------------------------------- frank_sigma2


def test_sigma2_boundary_zero_and_nonnegative():
    t = _unit_grid(101)
    for theta in THETAS:
        s2 = frank_sigma2(theta, t[:, None], t[None, :])
        assert np.all(s2 >= 0.0)
        assert np.all(s2[0, :] == 0.0) and np.all(s2[-1, :] == 0.0)
        assert np.all(s2[:, 0] == 0.0) and np.all(s2[:, -1] == 0.0)


def test_sigma2_independence_closed_form():
    # at theta -> 0 the expansion collapses to u(1-u)v(1-v)
    assert frank_sigma2(1e-12, 0.5, 0.5) == pytest.approx(0.0625, abs=1e-15)
    t = _unit_grid(21)
    u, v = t[:, None], t[None, :]
    np.testing.assert_allclose(
        frank_sigma2(1e-12, u, v), u * (1 - u) * v * (1 - v), atol=1e-12
    )


def test_sigma2_matches_influence_linearization_variance():
    # Monte Carlo oracle: sigma2 must equal the variance of
    # psi = 1{U<=u,V<=v} - C_u 1{U<=u} - C_v 1{V<=v} under exact sampling.
    # Two alternative groupings of the cross terms (the expansion with the
    # (1-v) C C_v term doubled, and the one with an extra 4uv C_u C_v) are
    # checked as well: both sit far outside the Monte Carlo error, so the
    # implemented grouping is the only one consistent with simulation.
    theta, m = 1.5, 400_000
    rng = np.random.default_rng(17)
    U = rng.random(m)
    V = np.asarray(frank_conditional_sample(theta, U, rng.random(m)))
    for u, v in ((0.3, 0.7), (0.5, 0.5), (0.8, 0.25)):
        c = frank_cdf(theta, u, v)
        cu, cv = frank_partials(theta, u, v)
        psi = (
            ((U <= u) & (V <= v)).astype(float)
            - cu * (U <= u).astype(float)
            - cv * (V <= v).astype(float)
        )
        emp = float(np.var(psi, ddof=1))
        centered = psi - psi.mean()
        # SE of a sample variance from the empirical fourth moment
        m4 = float(np.mean(centered**4))
        se = np.sqrt(max(m4 - emp**2, 0.0) / m)
        implemented = frank_sigma2(theta, u, v)
        assert abs(emp - implemented) <= 4.0 * se
        variant_a = implemented + 4.0 * u * v * cu * cv
        assert abs(emp - variant_a) > 10.0 * se
        # the second grouping's offset 4 C C_v (1 - v - C_v) vanishes on the
        # diagonal by exchangeability, so test it off the diagonal only
        if u != v:
            variant_b = implemented + 4.0 * (1.0 - v) * c * cv - 4.0 * c * cu * cv
            assert abs(emp - variant_b) > 10.0 * se


def test_sigma2_scalar_type():
    out = frank_sigma2(2.0, 0.4, 0.6)
    assert isinstance(out, float) and out > 0.0


@pytest.mark.parametrize("theta", [-700.0, -2.0, 0.0, 1e-9, 1.0, 10.0, 700.0])
def test_shared_evaluation_keeps_the_bits_of_cdf_and_sigma2(theta):
    # the engine takes a theta's truth and sigma2 from one evaluation
    t = _unit_grid(41)  # knots 0 and 1 included
    for u, v in ((t[:, None], t[None, :]), (t, t[::-1]), (0.3, 0.8), (1.0, 0.0)):
        truth, sigma2 = _cdf_sigma2(theta, u, v)
        assert np.array_equal(truth, frank_cdf(theta, u, v))
        assert np.array_equal(sigma2, frank_sigma2(theta, u, v))
        assert type(truth) is type(frank_cdf(theta, u, v))


def _boolean_gather_sample(th, u, w):
    """The conditional sampler with its far branch gathered and scattered by
    boolean masks: the reference for the masked write of ``copula``."""
    if abs(th) < INDEPENDENCE_THRESHOLD:
        return w.copy()
    a = np.exp(-th * u)
    den = w + a * (1.0 - w)
    z = w * math.expm1(-th) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log1p(z) / th
        far = z <= -0.5
        if np.any(far):
            num = w[far] * math.exp(-th) + a[far] * (1.0 - w[far])
            out[far] = (np.log(den[far]) - np.log(num)) / th
    out[w == 0.0] = 0.0
    out[w == 1.0] = 1.0
    np.clip(out, 0.0, 1.0, out=out)
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from([-THETA_MAX, -10.0, -2.0, 1e-9, 0.5, 1.0, 5.0, 10.0, 35.0, 100.0,
                               THETA_MAX]),
              st.floats(-THETA_MAX, THETA_MAX)),
    st.sampled_from([16, 50, 500, 2000]),
    st.integers(0, 2**32 - 1),
)
def test_conditional_sample_equals_boolean_gather_reference(theta, n, seed):
    rng = np.random.default_rng(seed)
    u, w = rng.random(n), rng.random(n)
    ends = np.array([0.0, 1.0])
    u[:4], w[:4] = np.repeat(ends, 2), np.tile(ends, 2)  # each pair of endpoints
    u[4:6] = ends  # with an interior w
    w[6:8] = ends  # with an interior u
    assert np.array_equal(frank_conditional_sample(theta, u, w), _boolean_gather_sample(theta, u, w))


# ------------------------------------------------------ contract properties

_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(-THETA_MAX, THETA_MAX), _UNIT, _UNIT, _UNIT, _UNIT)
def test_frank_contracts_over_supported_theta(theta, a, b, c, d):
    u = np.array(sorted((a, b)))[:, None]
    v = np.array(sorted((c, d)))[None, :]
    cdf = frank_cdf(theta, u, v)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(cdf >= frechet_lower(u, v) - 1e-12)
    assert np.all(cdf <= frechet_upper(u, v) + 1e-12)
    # mass of the rectangle [u1, u2] x [v1, v2]
    assert cdf[1, 1] - cdf[0, 1] - cdf[1, 0] + cdf[0, 0] >= -1e-12
    cu, cv = frank_partials(theta, u, v)
    assert np.all((cu >= 0.0) & (cu <= 1.0))
    assert np.all((cv >= 0.0) & (cv <= 1.0))
    # the sampler inverts the u-partial: C_u(a, v) = c
    v_c = frank_conditional_sample(theta, a, c)
    assert abs(frank_partials(theta, a, v_c)[0] - c) <= 1e-12


def test_independence_threshold_documented_value():
    assert INDEPENDENCE_THRESHOLD == 1e-8
