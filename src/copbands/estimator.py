"""Probit-transformation kernel estimator of a bivariate copula.

The estimator maps pseudo-observations and evaluation coordinates through
the standard normal quantile (the Probit transformation), then averages
products of integrated-kernel factors:

    Chat(u, v) = (1/n) * sum_i K((q(u) - q(Uhat_i)) / h) * K((q(v) - q(Vhat_i)) / h)

with q the normal quantile and K the Epanechnikov kernel CDF. Smoothing on
the transformed scale avoids boundary bias, and the extended-real conventions
(q(0) = -inf, q(1) = +inf, K(-inf) = 0, K(+inf) = 1) make the copula
boundary values exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import epanechnikov_cdf, normal_quantile

__all__ = [
    "PairedSample",
    "PseudoSample",
    "CopulaGrid",
    "make_pseudo_sample",
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


@dataclass(frozen=True)
class PseudoSample:
    """Rank-transformed pairs (Uhat_i, Vhat_i) strictly inside (0, 1)².

    The margin-free representation of a sample: each coordinate is
    rank/(n+1) in the no-ties case, so estimates depend on the data only
    through the joint ranks.
    """

    us: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        us = np.asarray(self.us, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if us.ndim != 1 or vs.ndim != 1 or us.shape != vs.shape:
            raise ValueError("us and vs must be one-dimensional and of equal length")
        if us.size < 1:
            raise ValueError("pseudo-sample must be nonempty")
        for name, arr in (("us", us), ("vs", vs)):
            if not np.all((arr > 0.0) & (arr < 1.0)):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "vs", vs)

    @property
    def n(self) -> int:
        return int(self.us.size)


def _check_knots(name: str, knots) -> np.ndarray:
    arr = np.asarray(knots, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty one-dimensional array")
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    if np.any(np.diff(arr) <= 0.0) and arr.size > 1:
        raise ValueError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True)
class CopulaGrid:
    """Surface values on a rectangular grid: values[i, j] = f(u_knots[i], v_knots[j])."""

    u_knots: np.ndarray
    v_knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        uk = _check_knots("u_knots", self.u_knots)
        vk = _check_knots("v_knots", self.v_knots)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (uk.size, vk.size):
            raise ValueError(
                f"values shape {vals.shape} does not match knots ({uk.size}, {vk.size})"
            )
        object.__setattr__(self, "u_knots", uk)
        object.__setattr__(self, "v_knots", vk)
        object.__setattr__(self, "values", vals)


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


def make_pseudo_sample(sample: PairedSample) -> PseudoSample:
    """Rank-transform a raw sample into pseudo-observations rank/(n+1).

    Ties are resolved by mid-rank averaging, which keeps the operation
    total on arbitrary numeric data; with continuous margins ties have
    probability zero and each coordinate is a permutation of
    {k/(n+1) : k = 1..n}. Invariant under strictly increasing maps of
    either margin.
    """
    denom = sample.n + 1.0
    return PseudoSample(_midranks(sample.xs) / denom, _midranks(sample.ys) / denom)


def estimate_grid(
    pseudo: PseudoSample,
    h: float,
    u_knots,
    v_knots=None,
) -> CopulaGrid:
    """Evaluate the estimator on the product grid u_knots x v_knots.

    The double sum separates per axis: one n x |knots| table of kernel
    factors per coordinate, combined by a single matrix product, so the
    cost is O(n·(|u_knots| + |v_knots|) + n·|u_knots|·|v_knots|) flops
    instead of a full kernel sum per grid node. The normal quantile is
    applied to the pseudo-observations once per call.

    Parameters
    ----------
    pseudo : PseudoSample
        Rank-transformed observations.
    h : float
        Positive finite smoothing bandwidth on the transformed scale.
    u_knots, v_knots : array_like
        Sorted evaluation coordinates in [0, 1]; ``v_knots`` defaults to
        ``u_knots``. Endpoints 0 and 1 are allowed and produce exact
        copula boundary values.
    """
    uk = _check_knots("u_knots", u_knots)
    vk = uk if v_knots is None else _check_knots("v_knots", v_knots)
    ku = _factors(uk, pseudo.us, h)
    kv = _factors(vk, pseudo.vs, h)
    values = (ku @ kv.T) / pseudo.n
    return CopulaGrid(uk, vk, values)


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
    return _factors(_check_knots("knots", knots), points, h)


def rank_estimate(table: np.ndarray, xs, ys) -> np.ndarray:
    """Estimator surface of the raw sample (xs, ys) from a :func:`rank_table`.

    Bit-identical to ``estimate_grid(make_pseudo_sample(PairedSample(xs,
    ys)), h, knots).values`` for the table's n, h and knots: twice a
    mid-rank is an integer m, and m / (2(n + 1)) is the same double as
    mid-rank / (n + 1). The samples are trusted to be finite.
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


def interior_grid(resolution: int = 33, include_boundary: bool = False) -> np.ndarray:
    """Uniform interior evaluation grid {i/(resolution+1) : i = 1..resolution}.

    The default 33 knots per axis avoid the exact boundary, where
    pointwise normal-approximation bands degenerate to zero width; pass
    ``include_boundary=True`` to append the exact 0 and 1 endpoints.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    knots = np.arange(1, resolution + 1, dtype=float) / (resolution + 1.0)
    if include_boundary:
        knots = np.concatenate(([0.0], knots, [1.0]))
    return knots
