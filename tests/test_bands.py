"""LIL and normal-approximation confidence bands, coverage predicate."""

import math

import numpy as np
import pytest

from copbands.bands import (
    BandMethod,
    BandSpec,
    NumericError,
    covers,
    half_width,
    lil_bands,
    normal_bands,
    rn,
)
from copbands.copula import frank_cdf, frank_sigma2
from copbands.estimator import CopulaGrid, interior_grid


def _center(resolution=9, theta=1.0):
    knots = interior_grid(resolution)
    values = frank_cdf(theta, knots[:, None], knots[None, :])
    return CopulaGrid(knots, knots, values)


def _sigma2_grid(center, theta=1.0):
    u = center.u_knots[:, None]
    v = center.v_knots[None, :]
    return CopulaGrid(center.u_knots, center.v_knots, frank_sigma2(theta, u, v))


# ---------------------------------------------------------------------- rn


def test_rn_known_values():
    assert rn(50) == pytest.approx(4.281087672537341, abs=1e-12)
    assert rn(500) == pytest.approx(11.698018385627464, abs=1e-12)
    assert rn(16) > 0.0


def test_rn_rejects_small_n_naming_the_constraint():
    with pytest.raises(ValueError, match="log log"):
        rn(15)


def test_rn_closed_form_scaling():
    for n in (50, 100, 500):
        expect = math.sqrt(n / (2.0 * math.log(math.log(n))))
        assert rn(n) == pytest.approx(expect, abs=1e-12)
    assert rn(50) < rn(100) < rn(500)


# ------------------------------------------------------------------ BandSpec


def test_band_spec_defaults_and_validation():
    spec = BandSpec(BandMethod.LIL)
    assert spec.A == 0.5 and spec.epsilon == 0.0
    assert spec.confidence == 0.99 and spec.clamp is True
    with pytest.raises(ValueError):
        BandSpec(BandMethod.LIL, A=0.0)
    with pytest.raises(ValueError):
        BandSpec(BandMethod.LIL, epsilon=1.0)
    with pytest.raises(ValueError):
        BandSpec(BandMethod.NORMAL, confidence=1.0)
    with pytest.raises(ValueError):
        BandSpec("lil")


# ----------------------------------------------------------------- lil_bands


def test_lil_bands_constant_half_width():
    center = _center()
    surfaces = lil_bands(center, 50, BandSpec(BandMethod.LIL, clamp=False))
    hw = surfaces.upper.values - center.values
    np.testing.assert_allclose(hw, 0.11679274947052345, atol=1e-15)
    np.testing.assert_allclose(center.values - surfaces.lower.values, hw, atol=1e-15)
    assert half_width(BandSpec(BandMethod.LIL), 50) == pytest.approx(0.5 / rn(50), abs=1e-15)


def test_lil_bands_epsilon_scales_half_width():
    center = _center()
    wide = lil_bands(center, 100, BandSpec(BandMethod.LIL, epsilon=0.5, clamp=False))
    base = lil_bands(center, 100, BandSpec(BandMethod.LIL, clamp=False))
    ratio = (wide.upper.values - center.values) / (base.upper.values - center.values)
    np.testing.assert_allclose(ratio, 1.5, atol=1e-12)


def test_lil_bands_clamp_to_unit_square():
    knots = np.array([0.01, 0.5, 0.99])
    center = CopulaGrid(knots, knots, frank_cdf(1.0, knots[:, None], knots[None, :]))
    surfaces = lil_bands(center, 50, BandSpec(BandMethod.LIL))
    assert float(surfaces.lower.values.min()) == 0.0
    assert float(surfaces.upper.values.max()) <= 1.0


def test_lil_bands_half_width_decreasing_in_n():
    widths = [half_width(BandSpec(BandMethod.LIL), n) for n in (50, 100, 500, 5000)]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_lil_bands_rejects_method_mismatch_and_small_n():
    with pytest.raises(ValueError):
        lil_bands(_center(), 50, BandSpec(BandMethod.NORMAL))
    with pytest.raises(ValueError):
        lil_bands(_center(), 15, BandSpec(BandMethod.LIL))


def test_lil_bands_nesting_in_epsilon():
    center = _center()
    inner = lil_bands(center, 50, BandSpec(BandMethod.LIL, epsilon=-0.5))
    outer = lil_bands(center, 50, BandSpec(BandMethod.LIL, epsilon=0.0))
    assert np.all(inner.lower.values >= outer.lower.values)
    assert np.all(inner.upper.values <= outer.upper.values)


# -------------------------------------------------------------- normal_bands


def test_normal_bands_half_width_from_variance():
    center = _center(theta=1e-12)
    # independence variance at the center knot is exactly 1/16
    sigma2 = _sigma2_grid(center, theta=1e-12)
    surfaces = normal_bands(center, 100, sigma2, BandSpec(BandMethod.NORMAL, clamp=False))
    mid = center.u_knots.size // 2
    hw = surfaces.upper.values[mid, mid] - center.values[mid, mid]
    assert center.u_knots[mid] == 0.5
    assert hw == pytest.approx(2.5758293035489004 * math.sqrt(0.0625 / 100.0), abs=1e-12)
    assert hw == pytest.approx(0.06439573258872251, abs=1e-12)
    z = half_width(BandSpec(BandMethod.NORMAL), 1, 1.0)
    assert z == pytest.approx(2.5758293035489004, abs=1e-9)


def test_normal_bands_confidence_095_quantile():
    center = _center()
    spec = BandSpec(BandMethod.NORMAL, confidence=0.95, clamp=False)
    surfaces = normal_bands(center, 100, _sigma2_grid(center), spec)
    assert half_width(spec, 1, 1.0) == pytest.approx(1.9599639845400538, abs=1e-9)
    hw = half_width(spec, 100, _sigma2_grid(center).values)
    np.testing.assert_array_equal(surfaces.upper.values, center.values + hw)


def test_normal_bands_zero_variance_degenerates():
    knots = np.array([0.25, 0.5, 0.75])
    center = CopulaGrid(knots, knots, frank_cdf(1.0, knots[:, None], knots[None, :]))
    sigma2 = CopulaGrid(knots, knots, np.zeros((3, 3)))
    surfaces = normal_bands(center, 50, sigma2, BandSpec(BandMethod.NORMAL))
    np.testing.assert_array_equal(surfaces.lower.values, center.values)
    np.testing.assert_array_equal(surfaces.upper.values, center.values)


def test_normal_bands_rejects_negative_variance():
    knots = np.array([0.25, 0.5, 0.75])
    center = CopulaGrid(knots, knots, np.full((3, 3), 0.2))
    sigma2 = CopulaGrid(knots, knots, np.full((3, 3), -1e-9) + np.eye(3))
    with pytest.raises(NumericError):
        normal_bands(center, 50, sigma2, BandSpec(BandMethod.NORMAL))
    with pytest.raises(NumericError):
        half_width(BandSpec(BandMethod.NORMAL), 50, sigma2.values)
    with pytest.raises(ValueError, match="sigma2"):
        half_width(BandSpec(BandMethod.NORMAL), 50)


def test_normal_bands_rejects_grid_mismatch_and_wrong_method():
    center = _center(9)
    with pytest.raises(ValueError):
        normal_bands(center, 50, _sigma2_grid(_center(7)), BandSpec(BandMethod.NORMAL))
    with pytest.raises(ValueError):
        normal_bands(center, 50, _sigma2_grid(center), BandSpec(BandMethod.LIL))


# -------------------------------------------------------------------- covers


def test_covers_truth_equal_center():
    center = _center()
    assert covers(center.values, half_width(BandSpec(BandMethod.LIL), 50), center.values)
    assert covers(center.values, 0.0, center.values)


def test_covers_single_knot_violation():
    center = _center()
    hw = half_width(BandSpec(BandMethod.LIL), 500)
    bumped = center.values.copy()
    bumped[3, 4] = min(1.0, bumped[3, 4] + 2.0 * hw)
    stack = np.stack([center.values, center.values])
    np.testing.assert_array_equal(covers(stack, hw, bumped), [False, False])
    stack[1] = bumped
    np.testing.assert_array_equal(covers(stack, hw, center.values), [True, False])


def test_covers_rejects_grid_mismatch():
    hw = half_width(BandSpec(BandMethod.LIL), 50)
    with pytest.raises(ValueError):
        covers(_center(9).values, hw, _center(7).values)
    with pytest.raises(ValueError):
        covers(np.zeros((4, 9, 9)), hw, np.zeros((9, 7)))


def test_clamping_never_changes_the_verdict():
    # covers on a raw stack agrees with the verdict read off band surfaces,
    # clamped or not
    rng = np.random.default_rng(21)
    knots = interior_grid(9)
    truth = CopulaGrid(knots, knots, frank_cdf(1.0, knots[:, None], knots[None, :]))
    sigma2 = _sigma2_grid(truth)
    stack = np.clip(truth.values + rng.normal(scale=0.08, size=(20, 9, 9)), 0.0, 1.0)
    specs = [BandSpec(BandMethod.LIL, **kw) for kw in ({"A": 0.25}, {"A": 0.5}, {"epsilon": 0.4})]
    specs += [BandSpec(BandMethod.NORMAL, confidence=c) for c in (0.5, 0.99, 0.999999)]
    verdicts = []
    for spec in specs:
        got = covers(stack, half_width(spec, 50, sigma2.values), truth.values)
        for clamp in (True, False):
            spec_c = BandSpec(spec.method, spec.A, spec.epsilon, spec.confidence, clamp)
            expect = []
            for values in stack:
                center = CopulaGrid(knots, knots, values)
                if spec.method is BandMethod.LIL:
                    s = lil_bands(center, 50, spec_c)
                else:
                    s = normal_bands(center, 50, sigma2, spec_c)
                inside = (s.lower.values <= truth.values) & (truth.values <= s.upper.values)
                expect.append(bool(np.all(inside)))
            np.testing.assert_array_equal(got, expect)
        verdicts += list(got)
    assert any(verdicts) and not all(verdicts)
