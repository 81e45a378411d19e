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


def _check_unit(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    # NaN fails both comparisons
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _gate(core, theta, u, v, v_name: str = "v"):
    """``core(theta, u, v)`` on a finite float theta and on u and v checked to lie
    in [0, 1], broadcast and made at least 1-D; floats back for 0-D inputs.
    """
    th = float(theta)
    if not math.isfinite(th):
        raise ValueError("theta must be a finite real number")
    ua, va = np.broadcast_arrays(_check_unit("u", u), _check_unit(v_name, v))
    out = core(th, np.atleast_1d(ua), np.atleast_1d(va))
    if ua.ndim:
        return out
    if isinstance(out, tuple):
        return tuple(float(x[0]) for x in out)
    return float(out[0])


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


def _denominator(th: float, ua: np.ndarray, va: np.ndarray):
    """(z, 1 + z) for z = expm1(-theta*u)*expm1(-theta*v)/expm1(-theta).

    1 + z underflows in the computed z once C exceeds log(2)/theta, so
    where z <= -1/2 it is rebuilt from the exponentials instead. Call under
    ``np.errstate`` ignoring overflow: expm1 saturates to inf on huge |theta|.
    """
    big_g = float(np.expm1(-th))
    z = np.expm1(-th * ua) * (np.expm1(-th * va) / big_g)
    one_z = 1.0 + z
    far = z <= -0.5
    if np.any(far):
        a = np.exp(-th * ua[far])
        b = np.exp(-th * va[far])
        one_z[far] = (a + b - math.exp(-th) - a * b) / -big_g
    return z, one_z


def _cdf(th: float, ua: np.ndarray, va: np.ndarray) -> np.ndarray:
    if abs(th) < INDEPENDENCE_THRESHOLD:
        out = ua * va
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z, one_z = _denominator(th, ua, va)
            out = -np.log1p(z) / th
            far = z <= -0.5
            out[far] = -np.log(one_z[far]) / th
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = _envelope(th, ua, va)[bad]

    # margins are exact by definition; pin them against rounding drift
    out[(ua == 0.0) | (va == 0.0)] = 0.0
    top_u = va == 1.0
    out[top_u] = ua[top_u]
    top_v = ua == 1.0
    out[top_v] = va[top_v]
    return out


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
    return _gate(_cdf, theta, u, v)


def _partials(th: float, ua: np.ndarray, va: np.ndarray):
    if abs(th) < INDEPENDENCE_THRESHOLD:
        return va.copy(), ua.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        big_g = float(np.expm1(-th))
        # D/expm1(-theta) = 1 + z
        _, one_z = _denominator(th, ua, va)
        cu = np.exp(-th * ua) * (np.expm1(-th * va) / big_g) / one_z
        cv = np.exp(-th * va) * (np.expm1(-th * ua) / big_g) / one_z
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
    return cu, cv


def frank_partials(theta, u, v):
    """First-order partial derivatives (C_u, C_v) of the Frank copula.

    C_u = e^{-theta*u} * expm1(-theta*v) / D with
    D = expm1(-theta*u)*expm1(-theta*v) + expm1(-theta); C_v symmetric.
    Both are conditional distribution functions, so values lie in [0, 1];
    boundary coordinates take the limit values C_u(u, 0) = 0, C_u(u, 1) = 1.

    Returns a pair of floats for scalar input, a pair of arrays otherwise.
    """
    return _gate(_partials, theta, u, v)


def _conditional_sample(th: float, ua: np.ndarray, wa: np.ndarray) -> np.ndarray:
    if abs(th) > THETA_MAX:
        raise ValueError(
            f"|theta| = {abs(th):g} out of supported range (exp overflow beyond {THETA_MAX:g})"
        )
    if abs(th) < INDEPENDENCE_THRESHOLD:
        return wa.astype(float).copy()
    a = np.exp(-th * ua)
    den = wa + a * (1.0 - wa)
    z = wa * math.expm1(-th) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log1p(z) / th
        far = z <= -0.5
        if np.any(far):
            num = wa * math.exp(-th) + a * (1.0 - wa)
            np.copyto(out, (np.log(den) - np.log(num)) / th, where=far)
    out[wa == 0.0] = 0.0
    out[wa == 1.0] = 1.0
    np.clip(out, 0.0, 1.0, out=out)
    return out


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
    return _gate(_conditional_sample, theta, u, w, "w")


def _sigma2(th: float, ua: np.ndarray, va: np.ndarray) -> np.ndarray:
    c = _cdf(th, ua, va)
    cu, cv = _partials(th, ua, va)
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
    return s2


def frank_sigma2(theta, u, v):
    """Asymptotic variance of sqrt(n)*(Chat(u,v) - C(u,v)).

    Variance of the influence function
    1{U<=u, V<=v} - C_u*1{U<=u} - C_v*1{V<=v}, expanded to

        C(1-C) - 2(1-u)C*C_u - 2(1-v)C*C_v
        + u(1-u)C_u^2 + v(1-v)C_v^2 + 2*C_u*C_v*(C - uv).

    Zero on the boundary of the unit square, where the indicators are
    degenerate. At independence this reduces to u(1-u)v(1-v).
    """
    return _gate(_sigma2, theta, u, v)
