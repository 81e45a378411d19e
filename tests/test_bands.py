"""LIL and normal-approximation confidence bands, coverage predicate."""

import math

import numpy as np
import pytest

from copbands.bands import BandMethod, BandSpec, NumericError, covers, half_width, rn
from copbands.copula import frank_cdf, frank_sigma2
from copbands.estimator import interior_grid


def _frank_surface(knots, theta=1.0):
    return frank_cdf(theta, knots[:, None], knots[None, :])


def _sigma2(knots, theta=1.0):
    return frank_sigma2(theta, knots[:, None], knots[None, :])


# ---------------------------------------------------------------------- rn


def test_rn_known_values():
    assert rn(50) == pytest.approx(4.281087672537341, abs=1e-12)
    assert rn(500) == pytest.approx(11.698018385627464, abs=1e-12)
    assert rn(16) > 0.0


def test_rn_rejects_small_n_naming_the_constraint():
    with pytest.raises(ValueError, match="log log"):
        rn(15)
    with pytest.raises(ValueError, match="log log"):
        half_width(BandSpec(BandMethod.LIL), 15)
    with pytest.raises(ValueError, match="n must be positive"):
        half_width(BandSpec(BandMethod.NORMAL), 0, np.ones((3, 3)))


def test_rn_closed_form_scaling():
    for n in (50, 100, 500):
        expect = math.sqrt(n / (2.0 * math.log(math.log(n))))
        assert rn(n) == pytest.approx(expect, abs=1e-12)
    assert rn(50) < rn(100) < rn(500)


# ------------------------------------------------------------------ BandSpec


def test_band_spec_defaults_and_validation():
    spec = BandSpec(BandMethod.LIL)
    assert spec.A == 0.5 and spec.epsilon == 0.0
    assert spec.confidence == 0.99
    with pytest.raises(ValueError):
        BandSpec(BandMethod.LIL, A=0.0)
    with pytest.raises(ValueError, match="A must be positive and finite"):
        BandSpec(BandMethod.LIL, A=float("inf"))
    with pytest.raises(ValueError):
        BandSpec(BandMethod.LIL, epsilon=1.0)
    with pytest.raises(ValueError, match=r"\(1 \+ epsilon\) \* A must be finite"):
        BandSpec(BandMethod.LIL, A=1.5e308, epsilon=0.5)
    assert BandSpec(BandMethod.LIL, A=1.5e308, epsilon=0.19).A == 1.5e308
    with pytest.raises(ValueError):
        BandSpec(BandMethod.NORMAL, confidence=1.0)
    with pytest.raises(ValueError):
        BandSpec("lil")


# ------------------------------------------------------- half_width, LIL


def test_lil_bands_constant_half_width():
    hw = half_width(BandSpec(BandMethod.LIL), 50)
    assert np.ndim(hw) == 0  # one width for every knot
    assert hw == pytest.approx(0.11679274947052345, abs=1e-15)
    assert hw == pytest.approx(0.5 / rn(50), abs=1e-15)


def test_lil_bands_epsilon_scales_half_width():
    wide = half_width(BandSpec(BandMethod.LIL, epsilon=0.5), 100)
    base = half_width(BandSpec(BandMethod.LIL), 100)
    assert wide / base == pytest.approx(1.5, abs=1e-12)


def test_lil_bands_clamp_to_unit_square():
    # at n = 50 the band leaves [0, 1] near the corners, which is what
    # clamping in the CLI truncates
    knots = np.array([0.01, 0.5, 0.99])
    center = _frank_surface(knots)
    hw = half_width(BandSpec(BandMethod.LIL), 50)
    assert float((center - hw).min()) < 0.0
    assert float((center + hw).max()) > 1.0


def test_lil_bands_half_width_decreasing_in_n():
    widths = [half_width(BandSpec(BandMethod.LIL), n) for n in (50, 100, 500, 5000)]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_lil_bands_nesting_in_epsilon():
    inner = half_width(BandSpec(BandMethod.LIL, epsilon=-0.5), 50)
    outer = half_width(BandSpec(BandMethod.LIL, epsilon=0.0), 50)
    assert 0.0 < inner < outer


# ---------------------------------------------------- half_width, normal


def test_normal_bands_half_width_from_variance():
    knots = interior_grid(9)
    # independence variance at the center knot is exactly 1/16
    hw = half_width(BandSpec(BandMethod.NORMAL), 100, _sigma2(knots, theta=1e-12))
    mid = knots.size // 2
    assert knots[mid] == 0.5
    assert hw[mid, mid] == pytest.approx(2.5758293035489004 * math.sqrt(0.0625 / 100.0), abs=1e-12)
    assert hw[mid, mid] == pytest.approx(0.06439573258872251, abs=1e-12)
    z = half_width(BandSpec(BandMethod.NORMAL), 1, 1.0)
    assert z == pytest.approx(2.5758293035489004, abs=1e-9)


def test_normal_bands_confidence_095_quantile():
    spec = BandSpec(BandMethod.NORMAL, confidence=0.95)
    assert half_width(spec, 1, 1.0) == pytest.approx(1.9599639845400538, abs=1e-9)
    sigma2 = _sigma2(interior_grid(9))
    np.testing.assert_allclose(
        half_width(spec, 100, sigma2), 1.9599639845400538 * np.sqrt(sigma2 / 100.0), rtol=1e-12
    )


def test_normal_bands_zero_variance_degenerates():
    hw = half_width(BandSpec(BandMethod.NORMAL), 50, np.zeros((3, 3)))
    np.testing.assert_array_equal(hw, np.zeros((3, 3)))


def test_normal_bands_rejects_negative_variance():
    sigma2 = np.full((3, 3), -1e-9) + np.eye(3)
    with pytest.raises(NumericError):
        half_width(BandSpec(BandMethod.NORMAL), 50, sigma2)
    with pytest.raises(NumericError):
        half_width(BandSpec(BandMethod.NORMAL), 50, [[0.01, np.nan]])
    with pytest.raises(ValueError, match="sigma2"):
        half_width(BandSpec(BandMethod.NORMAL), 50)


# -------------------------------------------------------------------- covers


def test_covers_truth_equal_center():
    center = _frank_surface(interior_grid(9))
    assert covers(center, half_width(BandSpec(BandMethod.LIL), 50), center)
    assert covers(center, 0.0, center)


def test_covers_single_knot_violation():
    center = _frank_surface(interior_grid(9))
    hw = half_width(BandSpec(BandMethod.LIL), 500)
    bumped = center.copy()
    bumped[3, 4] = min(1.0, bumped[3, 4] + 2.0 * hw)
    stack = np.stack([center, center])
    np.testing.assert_array_equal(covers(stack, hw, bumped), [False, False])
    stack[1] = bumped
    np.testing.assert_array_equal(covers(stack, hw, center), [True, False])


def test_covers_rejects_grid_mismatch():
    hw = half_width(BandSpec(BandMethod.LIL), 50)
    with pytest.raises(ValueError):
        covers(_frank_surface(interior_grid(9)), hw, _frank_surface(interior_grid(7)))
    with pytest.raises(ValueError):
        covers(np.zeros((4, 9, 9)), hw, np.zeros((9, 7)))
    # a half-width grid must be the truth's grid, not one numpy can broadcast or not
    for bad in (np.full((7, 7), hw), np.full((9,), hw), np.full((1, 9, 9), hw)):
        with pytest.raises(ValueError, match="^half_width must be a scalar or shaped like the truth"):
            covers(np.zeros((4, 9, 9)), bad, np.zeros((9, 9)))


def test_clamping_never_changes_the_verdict():
    # covers on a raw stack agrees with the verdict read off the band
    # center ± half-width, clamped to [0, 1] or not
    rng = np.random.default_rng(21)
    knots = interior_grid(9)
    truth = _frank_surface(knots)
    sigma2 = _sigma2(knots)
    stack = np.clip(truth + rng.normal(scale=0.08, size=(20, 9, 9)), 0.0, 1.0)
    specs = [BandSpec(BandMethod.LIL, **kw) for kw in ({"A": 0.25}, {"A": 0.5}, {"epsilon": 0.4})]
    specs += [BandSpec(BandMethod.NORMAL, confidence=c) for c in (0.5, 0.99, 0.999999)]
    verdicts = []
    for spec in specs:
        hw = half_width(spec, 50, sigma2)
        got = covers(stack, hw, truth)
        for clamp in (True, False):
            expect = []
            for center in stack:
                lower, upper = center - hw, center + hw
                if clamp:
                    lower, upper = np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)
                expect.append(bool(np.all((lower <= truth) & (truth <= upper))))
            np.testing.assert_array_equal(got, expect)
        verdicts += list(got)
    assert any(verdicts) and not all(verdicts)
