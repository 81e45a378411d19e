"""Simultaneous confidence bands around a copula estimate.

Two constructions over a shared grid:

* LIL bands: constant half-width (1 + epsilon) * A / R_n, where
  R_n = sqrt(n / (2 log log n)) is the iterated-logarithm normalization of
  the estimator's maximal deviation. A defaults to 1/2 and epsilon to 0;
  epsilon in (-1, 0) shrinks the band below the asymptotically covering
  width, epsilon in (0, 1) widens it.
* Normal-approximation bands: pointwise half-width
  z * sqrt(sigma2(u, v) / n) from the asymptotic normality of the
  estimator, z the two-sided standard normal quantile for the requested
  confidence. Pointwise by nature, so their simultaneous coverage over a
  grid falls well below the nominal level.

``half_width`` computes either half-width; a band is estimate ± half-width.
``covers`` is the simultaneous-coverage predicate the Monte Carlo harness
counts over a stack of estimates: the truth must lie within estimate ±
half-width at every knot.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import normal_quantile

__all__ = [
    "MIN_N",
    "NumericError",
    "BandMethod",
    "BandSpec",
    "rn",
    "half_width",
    "covers",
]


# the smallest sample size of R_n = sqrt(n / (2 log log n)), and so of every band
MIN_N = 16


class NumericError(RuntimeError):
    """Numeric failure in a band computation (e.g. negative variance)."""


class BandMethod(Enum):
    LIL = "lil"
    NORMAL = "normal"


@dataclass(frozen=True)
class BandSpec:
    """Half-width parameters for one band construction.

    ``A`` and ``epsilon`` apply to the LIL method, ``confidence`` to the
    normal method.
    """

    method: BandMethod
    A: float = 0.5
    epsilon: float = 0.0
    confidence: float = 0.99

    def __post_init__(self):
        if not isinstance(self.method, BandMethod):
            raise ValueError("method must be a BandMethod")
        for name in ("A", "epsilon", "confidence"):  # before any comparison
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        if not 0.0 < self.A < math.inf:
            raise ValueError("A must be positive and finite")
        if not -1.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (-1, 1)")
        if not math.isfinite((1.0 + self.epsilon) * self.A):
            raise ValueError("(1 + epsilon) * A must be finite (the LIL half-width overflows)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


def rn(n: int) -> float:
    """Iterated-logarithm normalization R_n = sqrt(n / (2 log log n))."""
    n = operator.index(n)
    if n < MIN_N:
        raise ValueError(
            f"n >= {MIN_N} required: R_n = sqrt(n / (2 log log n)) needs log log n safely positive"
        )
    return math.sqrt(n / (2.0 * math.log(math.log(n))))


def half_width(spec: BandSpec, n: int, sigma2=None):
    """(1 + epsilon)·A/R_n for LIL; z·sqrt(sigma2/n) for normal, where
    ``sigma2`` is the variance surface of sqrt(n)(Chat - C), nonnegative
    by construction (a negative entry raises :class:`NumericError`).
    """
    if spec.method is BandMethod.LIL:
        return (1.0 + spec.epsilon) * spec.A / rn(n)
    if sigma2 is None:
        raise ValueError("normal bands require the variance surface sigma2")
    if isinstance(n, bool) or operator.index(n) < 1:  # a bool would pass for n = 1
        raise ValueError(f"n must be positive and a count, not {n!r}")
    sigma2 = np.asarray(sigma2, dtype=float)
    if not np.all(sigma2 >= 0.0):
        raise NumericError("negative or NaN sigma2 value: variance surface is invalid")
    return _normal_z(spec.confidence) * np.sqrt(sigma2 / n)


@functools.lru_cache
def _normal_z(confidence: float) -> float:
    """The normal band's z for ``confidence``, computed once per level: a coverage
    run asks for it in every (theta, n) cell."""
    return normal_quantile(0.5 * (1.0 + confidence))


def covers(estimates, half_width, truth) -> np.ndarray:
    """Per (G, G) surface of ``estimates``: is ``truth`` within ± half_width
    (a scalar or a (G, G) grid) at every knot? Clamping the band to [0, 1]
    cannot change a verdict, because the truth lies in [0, 1].
    """
    estimates = np.asarray(estimates)
    truth = np.asarray(truth)
    if estimates.shape[-2:] != truth.shape:
        raise ValueError("truth grid does not match the estimate grid")
    if np.shape(half_width) not in ((), truth.shape):
        raise ValueError("half_width must be a scalar or shaped like the truth grid")
    bound = np.subtract(estimates, half_width)  # one buffer for both band edges
    inside = bound <= truth
    inside &= truth <= np.add(estimates, half_width, out=bound)
    return np.all(inside, axis=(-2, -1))
