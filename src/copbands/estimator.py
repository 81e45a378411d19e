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

``estimate_grid`` ranks a sample and evaluates one surface; ``rank_table``
and ``rank_estimate`` split the same arithmetic for many samples of one
size, tabulating the kernel factors of every possible rank once. Factor
tables are observation-major, one row per observation or rank, and both
paths sum over observations in blocks of 512, so memory is O(|knots|·512)
for any n.
"""

from __future__ import annotations

import math
import operator
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

# a (G, 512) @ (512, G) product stays on one BLAS thread at G = 33, 36 and 44
# knots (tested), so the sum does not depend on the thread count; at 50 it does
_BLOCK = 512


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


def _doubled_ranks(x) -> np.ndarray:
    """Twice the ranks 1..n as integers, each tie group given twice its mean rank."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    xs = x[order]
    # tie groups are the runs of equal sorted values
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    m = np.empty(xs.size, dtype=np.intp)
    if starts.size == xs.size:
        m[order] = np.arange(2, 2 * xs.size + 1, 2)
    else:
        ends = np.append(starts[1:], xs.size)
        # ranks starts+1 .. ends have the mean (starts + 1 + ends) / 2
        m[order] = np.repeat(starts + 1 + ends, ends - starts)
    return m


def _doubled_rank_rows(x: np.ndarray) -> np.ndarray:
    """``_doubled_ranks`` of each row of the 2-D array x, one argsort for all rows.

    A row with ties is ranked again by ``_doubled_ranks`` itself.
    """
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    m = np.empty(x.shape, dtype=np.intp)
    np.put_along_axis(m, order, np.arange(2, 2 * x.shape[1] + 1, 2)[None, :], axis=1)
    for k in np.flatnonzero(np.any(xs[:, 1:] == xs[:, :-1], axis=1)):
        m[k] = _doubled_ranks(x[k])
    return m


def estimate_grid(sample: PairedSample, h: float, knots) -> np.ndarray:
    """Estimate of ``sample`` on the product grid knots x knots.

    Ties get mid-ranks, which keeps the estimator total on arbitrary
    numeric data; with continuous margins each pseudo-observation
    coordinate is a permutation of {k/(n+1) : k = 1..n}. The surface is
    invariant under strictly increasing maps of either margin. It costs
    O(n·|knots|²) flops and O(|knots|·512) memory for any n.

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
    denom = 2.0 * (sample.n + 1)
    return _mean_product(lambda m: _factors(knots, m / denom, h),
                         _doubled_ranks(sample.xs), _doubled_ranks(sample.ys))


def _check_bandwidth(h) -> None:
    """Reject a bandwidth that is not a positive finite number."""
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth h must be positive and finite")


def _factors(knots: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """(points, knots) table of kernel factors K((q(t_g) - q(p_i)) / h).

    Observation-major, so a gather of observations copies whole rows.
    +/-inf quantiles of boundary knots hit the kernel's exact 0/1
    plateaus, never a nan.
    """
    _check_bandwidth(h)
    return epanechnikov_cdf(
        (normal_quantile(knots)[None, :] - normal_quantile(points)[:, None]) / h
    )


def _mean_product(factors, mx: np.ndarray, my: np.ndarray) -> np.ndarray:
    """(1/n) sum_i factors(mx_i) factors(my_i)^T over doubled ranks mx, my of two margins.

    The estimator's double sum separates per axis. ``factors`` maps doubled
    ranks m to the (len(m), knots) factors of m / (2(n + 1)); estimate_grid
    evaluates them and _table_product gathers row m - 2 of a rank table,
    so the two agree bit for bit. Blocks of _BLOCK observations are added in
    order, so memory is O(|knots|·_BLOCK) for any n.
    """
    total = 0.0
    for b in range(0, mx.size, _BLOCK):
        total += factors(mx[b:b + _BLOCK]).T @ factors(my[b:b + _BLOCK])
    return total / mx.size


def rank_table(n: int, h: float, knots) -> np.ndarray:
    """Kernel factors of every doubled rank m = 2, 3, ..., 2n (odd m: ties).

    Row m - 2 holds the factors of the pseudo-observation
    m / (2(n + 1)), the expression :func:`estimate_grid` evaluates for a
    value of doubled rank m, so its factor tables for a sample of size n
    are row gathers of this (2n - 1, knots) table. Build it once per
    (n, h, knots) and pass it to :func:`rank_estimate`.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    points = np.arange(2, 2 * n + 1) / (2.0 * (n + 1))
    return _factors(_check_knots(knots), points, h)


def rank_estimate(table: np.ndarray, xs, ys) -> np.ndarray:
    """Estimator surface of the raw sample (xs, ys) from a :func:`rank_table`.

    Bit-identical to ``estimate_grid(PairedSample(xs, ys), h, knots)`` for
    the table's n, h and knots. The samples are trusted to be finite.
    """
    n = (table.shape[0] + 1) // 2
    if np.shape(xs) != (n,) or np.shape(ys) != (n,):
        raise ValueError(f"xs and ys must be one-dimensional of the table's size {n}")
    return _table_product(table, _doubled_ranks(xs), _doubled_ranks(ys))


def _table_product(table: np.ndarray, mx: np.ndarray, my: np.ndarray) -> np.ndarray:
    """Estimator surface of doubled ranks mx, my, gathered from a :func:`rank_table`."""
    return _mean_product(lambda m: table[m - 2], mx, my)


def default_bandwidth(n: int) -> float:
    """Default bandwidth schedule h = 1/log(n).

    The band theory asks for h inside [log n / n, n^(-1/4)]; 1/log n lands
    there from n = 5 up to roughly n = 5.5e3. At tiny n it exceeds
    n^(-1/4), and asymptotically it decays slower than n^(-1/4).
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("n must be >= 3 (log log n is undefined or nonpositive below that)")
    return 1.0 / math.log(n)


def interior_grid(resolution: int = 33) -> np.ndarray:
    """Uniform interior evaluation grid {i/(resolution+1) : i = 1..resolution}.

    The default 33 knots per axis avoid the exact boundary, where
    pointwise normal-approximation bands degenerate to zero width.
    """
    resolution = operator.index(resolution)
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    return np.arange(1, resolution + 1, dtype=float) / (resolution + 1.0)
