"""Probit transformation and the integrated Epanechnikov kernel.

The copula estimator smooths on the Probit scale: grid coordinates and
pseudo-observations are mapped through the standard normal quantile, and
the smoothing weights come from the CDF of the Epanechnikov density, whose
support is [-1, 1]. This module is the only one that knows that choice;
the estimator calls these two functions directly.

The quantile is Wichura's Algorithm AS 241 (PPND16, Appl. Statist. 37,
1988), with the coefficients and the order of operations of CPython's
``statistics.NormalDist.inv_cdf``: one rational function in p - 1/2 for
|p - 1/2| <= 0.425, and two in sqrt(-log(min(p, 1 - p))) for the tails,
with no refinement step. On 10^6 uniform points plus log-uniform tails
down to 1e-300 and up to 1 - 1e-16 it came within 3 ulp of
``NormalDist().inv_cdf`` (4 on another such sample) and within 7 ulp of
Cephes' ``ndtri`` (tests/test_specfun.py). The central branch is
arithmetic only, so its values are bit for bit those of ``inv_cdf``'s
pure-Python code; in the tails the last bits follow numpy's ``log``,
which differs from the C library's now and then.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normal_quantile",
    "epanechnikov_cdf",
]

# AS 241's branches: the central one for |p - 1/2| <= _CENTRAL_BOUND, and
# their (numerator, denominator) coefficients, highest degree first, as
# CPython's statistics module writes them.
_CENTRAL_BOUND = 0.425
_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_NEAR = (  # sqrt(-log r) <= 5, that is r >= exp(-25)
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_FAR = (  # sqrt(-log r) > 5
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)
# Elements per pass of _quantile_into: a pass's temporaries stay in cache,
# which made 4e5 points about 2.5 times faster than one pass.
_CHUNK = 16384


def _ratio(t, coefs):
    """Numerator and denominator of one AS 241 branch at t, an array, by Horner's rule."""
    num, den = coefs
    a = num[0] * t  # new arrays, so every later step may work in place
    b = den[0] * t
    for cn, cd in zip(num[1:-1], den[1:-1]):
        a += cn
        a *= t
        b += cd
        b *= t
    a += num[-1]
    b += den[-1]
    return a, b


def normal_quantile(p):
    """Standard normal quantile on [0, 1], by AS 241 (see the module docstring).

    Endpoints map to ``-inf`` and ``+inf``, without a warning, which the
    kernel CDF absorbs into its exact 0/1 plateaus; p = 1/2 maps to 0.0.
    Each branch is evaluated on its own elements only. A scalar takes the
    path of a one-element array and comes back as a float.

    Parameters
    ----------
    p : float or array_like
        Probabilities in [0, 1].

    Raises
    ------
    ValueError
        If any value lies outside [0, 1] or is NaN.
    """
    pa = np.asarray(p, dtype=float)
    flat = pa.reshape(-1)
    x = np.empty(flat.shape)
    for s in range(0, flat.size, _CHUNK):
        _quantile_into(flat[s:s + _CHUNK], x[s:s + _CHUNK])
    return float(x[0]) if pa.ndim == 0 else x.reshape(pa.shape)


def _quantile_into(p: np.ndarray, x: np.ndarray) -> None:
    """Write the quantiles of the one-dimensional array p into x, of its shape."""
    # NaN fails both comparisons
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("normal_quantile requires probabilities in [0, 1]")
    q = p - 0.5
    np.copysign(np.inf, q, out=x)  # kept at p = 0 and p = 1
    central = np.abs(q) <= _CENTRAL_BOUND
    if central.any():
        qc = q[central]
        t = qc * qc
        num, den = _ratio(np.subtract(0.180625, t, out=t), _CENTRAL)
        num *= qc
        num /= den
        x[central] = num
    tail = ~central & (p > 0.0) & (p < 1.0)
    if tail.any():
        s = p[tail]
        np.minimum(s, 1.0 - s, out=s)
        np.log(s, out=s)
        np.negative(s, out=s)
        np.sqrt(s, out=s)
        near = s <= 5.0
        for part, offset, coefs in ((near, 1.6, _NEAR), (~near, 5.0, _FAR)):
            if part.any():
                num, den = _ratio(s[part] - offset, coefs)
                num /= den
                s[part] = num
        x[tail] = np.copysign(s, q[tail])


def epanechnikov_cdf(t):
    """Integral of the Epanechnikov density 0.75*(1 - t^2) on [-1, 1].

    Closed form 0.5 + t*(0.75 - 0.25*t^2) inside the support, exactly 0
    below -1 and 1 above +1 (including at ``-/+inf``).
    """
    # at least 1-d: clip gives a 0-d input back as a scalar, which the
    # in-place steps below cannot write to
    ta = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -1.0, 1.0)
    out = ta * 0.25
    out *= ta
    np.subtract(0.75, out, out=out)
    out *= ta
    out += 0.5
    if np.ndim(t) == 0:
        return float(out[0])
    return out
