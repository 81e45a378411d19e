"""Frank copula family used as simulation ground truth.

Provides the CDF, first-order partial derivatives, a conditional sampler,
and the pointwise asymptotic variance of the normalized estimation error
sqrt(n)*(Chat - C). The parameter theta spans negative to positive
dependence; below ``INDEPENDENCE_THRESHOLD`` in absolute value every
operation switches to the closed-form independence limit C(u,v) = u*v.

All expressions are organized around expm1/log1p primitives and ratio
orderings that avoid catastrophic cancellation for small ``theta`` and
intermediate overflow for large ``|theta|``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "INDEPENDENCE_THRESHOLD",
    "THETA_MAX",
    "frank_cdf",
    "frank_partials",
    "frank_conditional_sample",
    "frank_sigma2",
    "frechet_lower",
    "frechet_upper",
]

# Below this the explicit formulas are 0/0-degenerate; use the uv limit.
INDEPENDENCE_THRESHOLD = 1e-8

# exp(|theta|) must stay finite for the conditional sampler's closed form
THETA_MAX = 700.0


def _check_theta(theta) -> float:
    th = float(theta)
    if not math.isfinite(th):
        raise ValueError("theta must be a finite real number")
    return th


def _check_unit(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    # NaN fails both comparisons
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def frechet_lower(u, v):
    """Lower Frechet-Hoeffding bound max(u + v - 1, 0)."""
    return np.maximum(np.asarray(u, dtype=float) + np.asarray(v, dtype=float) - 1.0, 0.0)


def frechet_upper(u, v):
    """Upper Frechet-Hoeffding bound min(u, v)."""
    return np.minimum(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _envelope(theta: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Limit surface for |theta| -> inf: comonotone or countermonotone bound."""
    if theta > 0:
        return frechet_upper(u, v)
    return frechet_lower(u, v)


def frank_cdf(theta, u, v):
    """Frank copula C_theta(u, v).

    C = -(1/theta) * log(1 + expm1(-theta*u)*expm1(-theta*v)/expm1(-theta)),
    with the independence product u*v below ``INDEPENDENCE_THRESHOLD`` and
    exact margin values on the boundary of the unit square. Far inside the
    positive-dependence regime, where the log1p argument approaches -1, the
    complement is evaluated directly from the exponentials; any residual
    non-finite value (possible only for extreme |theta|) falls back to the
    Frechet-Hoeffding envelope, the pointwise limit surface.

    Parameters
    ----------
    theta : float
        Dependence parameter, any finite real.
    u, v : float or array_like
        Coordinates in [0, 1]; broadcast against each other.

    Returns
    -------
    float or ndarray
        Copula values in [0, 1].
    """
    th = _check_theta(theta)
    ua, va = np.broadcast_arrays(_check_unit("u", u), _check_unit("v", v))
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    va = np.atleast_1d(va)

    if abs(th) < INDEPENDENCE_THRESHOLD:
        out = ua * va
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # np.expm1 saturates to inf instead of raising on huge |theta|
            big_g = float(np.expm1(-th))
            ratio_v = np.expm1(-th * va) / big_g
            z = np.expm1(-th * ua) * ratio_v
            out = -np.log1p(z) / th
            # 1 + z underflows in the computed z once C exceeds log(2)/theta;
            # rebuild the complement from the exponentials instead.
            far = z <= -0.5
            if np.any(far):
                a = np.exp(-th * ua[far])
                b = np.exp(-th * va[far])
                g = math.exp(-th)
                complement = (a + b - g - a * b) / -big_g
                out[far] = -np.log(complement) / th
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = _envelope(th, ua, va)[bad]

    # margins are exact by definition; pin them against rounding drift
    out[(ua == 0.0) | (va == 0.0)] = 0.0
    top_u = va == 1.0
    out[top_u] = ua[top_u]
    top_v = ua == 1.0
    out[top_v] = va[top_v]

    if scalar:
        return float(out[0])
    return out


def frank_partials(theta, u, v):
    """First-order partial derivatives (C_u, C_v) of the Frank copula.

    C_u = e^{-theta*u} * expm1(-theta*v) / D with
    D = expm1(-theta*u)*expm1(-theta*v) + expm1(-theta); C_v symmetric.
    Both are conditional distribution functions, so values lie in [0, 1];
    boundary coordinates take the limit values C_u(u, 0) = 0, C_u(u, 1) = 1.

    Returns a pair of floats for scalar input, a pair of arrays otherwise.
    """
    th = _check_theta(theta)
    ua, va = np.broadcast_arrays(_check_unit("u", u), _check_unit("v", v))
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    va = np.atleast_1d(va)

    if abs(th) < INDEPENDENCE_THRESHOLD:
        cu = va.astype(float).copy()
        cv = ua.astype(float).copy()
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            big_g = float(np.expm1(-th))
            ratio_u = np.expm1(-th * ua) / big_g
            ratio_v = np.expm1(-th * va) / big_g
            # D/expm1(-theta) = 1 + z, with the same far-branch rebuild as
            # the CDF to keep the denominator accurate near its zero.
            z = np.expm1(-th * ua) * ratio_v
            dg = 1.0 + z
            far = z <= -0.5
            if np.any(far):
                a = np.exp(-th * ua[far])
                b = np.exp(-th * va[far])
                g = math.exp(-th)
                dg[far] = (a + b - g - a * b) / -big_g
            cu = np.exp(-th * ua) * ratio_v / dg
            cv = np.exp(-th * va) * ratio_u / dg
        if th > 0:
            cu_lim = np.where(ua < va, 1.0, np.where(ua > va, 0.0, 0.5))
            cv_lim = np.where(va < ua, 1.0, np.where(va > ua, 0.0, 0.5))
        else:
            s = ua + va
            cu_lim = np.where(s > 1.0, 1.0, np.where(s < 1.0, 0.0, 0.5))
            cv_lim = cu_lim
        bad = ~np.isfinite(cu)
        if np.any(bad):
            cu[bad] = cu_lim[bad]
        bad = ~np.isfinite(cv)
        if np.any(bad):
            cv[bad] = cv_lim[bad]
        cu[va == 0.0] = 0.0
        cu[va == 1.0] = 1.0
        cv[ua == 0.0] = 0.0
        cv[ua == 1.0] = 1.0
        # rounding overshoots 1 by an ulp at strong negative dependence
        np.clip(cu, 0.0, 1.0, out=cu)
        np.clip(cv, 0.0, 1.0, out=cv)

    if scalar:
        return float(cu[0]), float(cv[0])
    return cu, cv


def frank_conditional_sample(theta, u, w):
    """Invert the conditional CDF w = C_u(u, .) to sample V given U = u.

    Closed-form inverse of ``frank_partials``'s first component in v:
    with a = e^{-theta*u} and den = w + a*(1 - w),

        e^{-theta*v} = (w*e^{-theta} + a*(1 - w)) / den,

    evaluated as -log1p(w*expm1(-theta)/den)/theta while the log1p argument
    stays above -1/2 and as a difference of logarithms beyond that point.
    Feeding i.i.d. uniform (u, w) pairs through this map yields exact Frank
    samples.

    Parameters
    ----------
    theta : float
        Dependence parameter with |theta| <= 700; beyond that the closed
        form overflows double precision and the parameter is rejected.
    u : float or array_like
        Conditioning coordinate in [0, 1].
    w : float or array_like
        Conditional probability level in [0, 1]; 0 and 1 map to exact 0/1.
    """
    th = _check_theta(theta)
    if abs(th) > THETA_MAX:
        raise ValueError(
            f"|theta| = {abs(th):g} out of supported range (exp overflow beyond {THETA_MAX:g})"
        )
    ua, wa = np.broadcast_arrays(_check_unit("u", u), _check_unit("w", w))
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    wa = np.atleast_1d(wa)

    if abs(th) < INDEPENDENCE_THRESHOLD:
        out = wa.astype(float).copy()
    else:
        a = np.exp(-th * ua)
        den = wa + a * (1.0 - wa)
        z = wa * math.expm1(-th) / den
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -np.log1p(z) / th
            far = z <= -0.5
            if np.any(far):
                num = wa[far] * math.exp(-th) + a[far] * (1.0 - wa[far])
                out[far] = (np.log(den[far]) - np.log(num)) / th
        out[wa == 0.0] = 0.0
        out[wa == 1.0] = 1.0
        np.clip(out, 0.0, 1.0, out=out)

    if scalar:
        return float(out[0])
    return out


def frank_sigma2(theta, u, v):
    """Asymptotic variance of sqrt(n)*(Chat(u,v) - C(u,v)).

    Variance of the influence function
    1{U<=u, V<=v} - C_u*1{U<=u} - C_v*1{V<=v}, expanded to

        C(1-C) - 2(1-u)C*C_u - 2(1-v)C*C_v
        + u(1-u)C_u^2 + v(1-v)C_v^2 + 2*C_u*C_v*(C - uv).

    Zero on the boundary of the unit square, where the indicators are
    degenerate. At independence this reduces to u(1-u)v(1-v).
    """
    th = _check_theta(theta)
    ua, va = np.broadcast_arrays(_check_unit("u", u), _check_unit("v", v))
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    va = np.atleast_1d(va)

    c = np.atleast_1d(frank_cdf(th, ua, va))
    cu, cv = frank_partials(th, ua, va)
    cu = np.atleast_1d(cu)
    cv = np.atleast_1d(cv)
    s2 = (
        c * (1.0 - c)
        - 2.0 * (1.0 - ua) * c * cu
        - 2.0 * (1.0 - va) * c * cv
        + ua * (1.0 - ua) * cu * cu
        + va * (1.0 - va) * cv * cv
        + 2.0 * cu * cv * (c - ua * va)
    )
    # nonnegative by construction; trim rounding residue near the boundary
    np.maximum(s2, 0.0, out=s2)

    if scalar:
        return float(s2[0])
    return s2
