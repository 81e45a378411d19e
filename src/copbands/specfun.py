"""Probit transformation and the integrated Epanechnikov kernel.

The copula estimator smooths on the Probit scale: grid coordinates and
pseudo-observations are mapped through the standard normal quantile, and
the smoothing weights come from the CDF of the Epanechnikov density, whose
support is [-1, 1]. This module is the only one that knows that choice;
the estimator calls these two functions directly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "normal_quantile",
    "epanechnikov_cdf",
]


def normal_quantile(p):
    """Standard normal quantile, ``scipy.special.ndtri`` on [0, 1].

    Endpoints map to ``-inf`` and ``+inf``, which the kernel CDF absorbs
    into its exact 0/1 plateaus.

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
    # NaN fails both comparisons
    if not np.all((pa >= 0.0) & (pa <= 1.0)):
        raise ValueError("normal_quantile requires probabilities in [0, 1]")
    out = ndtri(pa)
    if pa.ndim == 0:
        return float(out)
    return out


def epanechnikov_cdf(t):
    """Integral of the Epanechnikov density 0.75*(1 - t^2) on [-1, 1].

    Closed form 0.5 + t*(0.75 - 0.25*t^2) inside the support, exactly 0
    below -1 and 1 above +1 (including at ``-/+inf``).
    """
    ta = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    out = 0.5 + ta * (0.75 - 0.25 * ta * ta)
    if np.ndim(t) == 0:
        return float(out)
    return out
