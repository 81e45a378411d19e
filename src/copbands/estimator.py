"""Probit-transformation kernel estimator of a bivariate copula.

The estimator sees a raw sample (X_i, Y_i) only through its
pseudo-observations Uhat_i = rank(X_i)/(n+1), Vhat_i = rank(Y_i)/(n+1).
It maps them and the evaluation coordinates through the standard normal
quantile (the Probit transformation), then averages products of
integrated-kernel factors:

    Chat(u, v) = (1/n) * sum_i K((q(u) - q(Uhat_i)) / h) * K((q(v) - q(Vhat_i)) / h)

with q the normal quantile and K the Epanechnikov kernel CDF. Smoothing on
the transformed scale avoids boundary bias, and the extended-real conventions
(q(0) = -inf, q(1) = +inf, K(-inf) = 0, K(+inf) = 1) make the copula
boundary values exact.

``estimate_grid`` ranks a sample and evaluates one surface.
``rank_table`` and ``rank_estimate`` split the same arithmetic for many
samples of one size: the kernel factors of every possible rank are
tabulated once, and each sample's surface is a gather and a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import epanechnikov_cdf, normal_quantile

__all__ = [
    "PairedSample",
    "estimate_grid",
    "rank_table",
    "rank_estimate",
    "default_bandwidth",
    "interior_grid",
]


@dataclass(frozen=True)
class PairedSample:
    """Raw bivariate sample (X_i, Y_i) on arbitrary real margins."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be one-dimensional and of equal length")
        if xs.size < 2:
            raise ValueError("need at least 2 paired observations")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)


def _check_knots(knots) -> np.ndarray:
    arr = np.asarray(knots, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("knots must be a nonempty one-dimensional array")
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("knots must lie in [0, 1]")
    if np.any(np.diff(arr) <= 0.0) and arr.size > 1:
        raise ValueError("knots must be strictly increasing")
    return arr


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each tie group given the mean of the ranks it spans."""
    order = np.argsort(x)
    xs = x[order]
    # tie groups are the runs of equal sorted values
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ranks = np.empty(xs.size)
    if starts.size == xs.size:
        ranks[order] = np.arange(1.0, xs.size + 1)
    else:
        ends = np.append(starts[1:], xs.size)
        # ranks starts+1 .. ends average to an exact half-integer
        ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def estimate_grid(sample: PairedSample, h: float, knots) -> np.ndarray:
    """Estimate of ``sample`` on the product grid knots x knots.

    Ties get mid-ranks, which keeps the estimator total on arbitrary
    numeric data; with continuous margins each pseudo-observation
    coordinate is a permutation of {k/(n+1) : k = 1..n}. The surface is
    invariant under strictly increasing maps of either margin.

    The double sum separates per axis: one (knots, n) table of kernel
    factors per coordinate, combined by a single matrix product, so the
    cost is O(n·|knots|²) flops instead of a full kernel sum per grid node.

    Parameters
    ----------
    sample : PairedSample
        Raw observations.
    h : float
        Positive finite smoothing bandwidth on the transformed scale.
    knots : array_like
        Strictly increasing evaluation coordinates in [0, 1]. Endpoints 0
        and 1 are allowed and produce exact copula boundary values.

    Returns the (|knots|, |knots|) surface, values[i, j] = Chat(knots[i], knots[j]).
    """
    knots = _check_knots(knots)
    denom = sample.n + 1.0
    ku = _factors(knots, _midranks(sample.xs) / denom, h)
    kv = _factors(knots, _midranks(sample.ys) / denom, h)
    return (ku @ kv.T) / sample.n


def _factors(knots: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """(knots, points) table of kernel factors K((q(t_g) - q(p_i)) / h).

    +/-inf quantiles of boundary knots hit the kernel's exact 0/1
    plateaus, never a nan.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth h must be positive and finite")
    return epanechnikov_cdf(
        (normal_quantile(knots)[:, None] - normal_quantile(points)[None, :]) / h
    )


def rank_table(n: int, h: float, knots) -> np.ndarray:
    """Kernel factors of every half-integer rank m/2 = 1, 1.5, ..., n.

    Column m - 2 holds the factors of the pseudo-observation
    m / (2(n + 1)), so for a sample of size n the factor tables of
    :func:`estimate_grid` are column gathers of this (knots, 2n - 1)
    table, mid-ranks of tied samples included. Build it once per
    (n, h, knots) and pass it to :func:`rank_estimate`.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    points = np.arange(2, 2 * n + 1) / (2.0 * (n + 1))
    return _factors(_check_knots(knots), points, h)


def rank_estimate(table: np.ndarray, xs, ys) -> np.ndarray:
    """Estimator surface of the raw sample (xs, ys) from a :func:`rank_table`.

    Bit-identical to ``estimate_grid(PairedSample(xs, ys), h, knots)`` for
    the table's n, h and knots: twice a mid-rank is an integer m, and
    m / (2(n + 1)) is the same double as mid-rank / (n + 1). The samples
    are trusted to be finite.
    """
    n = (table.shape[1] + 1) // 2
    if np.shape(xs) != (n,) or np.shape(ys) != (n,):
        raise ValueError(f"xs and ys must be one-dimensional of the table's size {n}")
    # np.take returns C-contiguous gathers, which keep the product's
    # summation order that of estimate_grid
    ku = np.take(table, _rank_columns(xs), axis=1)
    kv = np.take(table, _rank_columns(ys), axis=1)
    return (ku @ kv.T) / n


def _rank_columns(x) -> np.ndarray:
    return (2.0 * _midranks(np.asarray(x, dtype=float))).astype(np.intp) - 2


def default_bandwidth(n: int) -> float:
    """Default bandwidth schedule h = 1/log(n).

    The band theory asks for h inside [log n / n, n^(-1/4)]; 1/log n lands
    there from n = 5 up to roughly n = 5.5e3. At tiny n it exceeds
    n^(-1/4), and asymptotically it decays slower than n^(-1/4).
    """
    n = int(n)
    if n < 3:
        raise ValueError("n must be >= 3 (log log n is undefined or nonpositive below that)")
    return 1.0 / math.log(n)


def interior_grid(resolution: int = 33) -> np.ndarray:
    """Uniform interior evaluation grid {i/(resolution+1) : i = 1..resolution}.

    The default 33 knots per axis avoid the exact boundary, where
    pointwise normal-approximation bands degenerate to zero width.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    return np.arange(1, resolution + 1, dtype=float) / (resolution + 1.0)
