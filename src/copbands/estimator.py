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
    "estimate_point",
    "estimate_grid",
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
            if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
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

    def same_grid(self, other: "CopulaGrid") -> bool:
        return np.array_equal(self.u_knots, other.u_knots) and np.array_equal(
            self.v_knots, other.v_knots
        )

    def sup_diff(self, other: "CopulaGrid") -> float:
        if not self.same_grid(other):
            raise ValueError("grids do not match")
        return float(np.max(np.abs(self.values - other.values)))


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each tie group given the mean of the ranks it spans."""
    _, inv, cnt = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


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
        Positive smoothing bandwidth on the transformed scale.
    u_knots, v_knots : array_like
        Sorted evaluation coordinates in [0, 1]; ``v_knots`` defaults to
        ``u_knots``. Endpoints 0 and 1 are allowed and produce exact
        copula boundary values.
    """
    if not h > 0.0:
        raise ValueError("bandwidth h must be positive")
    uk = _check_knots("u_knots", u_knots)
    vk = uk if v_knots is None else _check_knots("v_knots", v_knots)

    tu = normal_quantile(pseudo.us)
    tv = normal_quantile(pseudo.vs)
    su = normal_quantile(uk)
    sv = normal_quantile(vk)

    # (grid, n) factor tables; +/-inf grid coordinates hit the kernel's
    # exact 0/1 plateaus, never a nan
    ku = epanechnikov_cdf((su[:, None] - tu[None, :]) / h)
    kv = epanechnikov_cdf((sv[:, None] - tv[None, :]) / h)
    values = (ku @ kv.T) / pseudo.n
    return CopulaGrid(uk, vk, values)


def estimate_point(
    pseudo: PseudoSample,
    h: float,
    u: float,
    v: float,
) -> float:
    """Estimator value at a single coordinate pair.

    Defined as the 1x1 special case of :func:`estimate_grid`, so the two
    agree bit-for-bit at shared coordinates.
    """
    grid = estimate_grid(pseudo, h, np.array([float(u)]), np.array([float(v)]))
    return float(grid.values[0, 0])


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
