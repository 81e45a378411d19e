"""Correctness gates of the copbands benchmark.

An independent numpy reference of the estimator and the normal bands,
written from the formulas rather than from the package, and comparisons of
program outputs against that reference and against the golden outputs
committed for the default seed. Every function returns a list of mismatch
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

# Surfaces and deviation statistics are compared within this absolute
# tolerance, not bit for bit: the BLAS thread count moves the last bits of
# the kernel-table product.
VALUE_TOL = 1e-12


def midranks(values):
    """Ranks 1..n with ties given the average of the ranks they span."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = ((starts + 1 + ends) / 2.0)[group]
    return ranks


def _kernel_cdf(t):
    t = np.clip(t, -1.0, 1.0)
    return 0.5 + t * (0.75 - 0.25 * t * t)


def reference_estimate(xs, ys, knots):
    """Probit-scale Epanechnikov estimate with the default h = 1/log n."""
    n = xs.size
    h = 1.0 / math.log(n)
    grid = ndtri(knots)
    ku = _kernel_cdf((grid[:, None] - ndtri(midranks(xs) / (n + 1.0))[None, :]) / h)
    kv = _kernel_cdf((grid[:, None] - ndtri(midranks(ys) / (n + 1.0))[None, :]) / h)
    return ku @ kv.T / n


def reference_normal_bands(center, n, theta, knots, confidence=0.99):
    """Clamped pointwise normal bands center ± z·sqrt(sigma2/n), Frank truth."""
    u = knots[:, None]
    v = knots[None, :]
    eu = np.expm1(-theta * u)
    ev = np.expm1(-theta * v)
    d = np.expm1(-theta) + eu * ev
    c = -np.log1p(eu * ev / np.expm1(-theta)) / theta
    cu = np.exp(-theta * u) * ev / d
    cv = np.exp(-theta * v) * eu / d
    sigma2 = (
        c * (1 - c)
        - 2 * (1 - u) * c * cu
        - 2 * (1 - v) * c * cv
        + u * (1 - u) * cu * cu
        + v * (1 - v) * cv * cv
        + 2 * cu * cv * (c - u * v)
    )
    half = ndtri(0.5 * (1.0 + confidence)) * np.sqrt(np.maximum(sigma2, 0.0) / n)
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def values_mismatch(name, observed, expected, tol=VALUE_TOL):
    """Mismatch messages unless ``observed`` equals ``expected`` within ``tol``."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        return [f"{name}: shape {observed.shape} != expected {expected.shape}"]
    if not np.all(np.isfinite(observed)):
        return [f"{name}: non-finite values"]
    err = float(np.max(np.abs(observed - expected))) if observed.size else 0.0
    if not err <= tol:
        return [f"{name}: max abs error {err:.3e} > {tol:g}"]
    return []


def counts_mismatch(observed, expected):
    """Mismatch messages unless the coverage counts match exactly, cell by cell."""
    if set(observed) != set(expected):
        return [f"coverage cells {sorted(observed)} != expected {sorted(expected)}"]
    return [
        f"coverage count {cell}: {observed[cell]} != expected {expected[cell]}"
        for cell in sorted(expected)
        if observed[cell] != expected[cell]
    ]


def cli_mismatch(outputs, reference, golden=None):
    """Check the CLI surfaces against the numpy reference and, if given, golden.

    ``outputs`` and ``reference`` map ``estimate``, ``lower``, ``center`` and
    ``upper`` to grid surfaces; ``golden`` has the same keys as lists.
    """
    problems = []
    for key in ("estimate", "lower", "center", "upper"):
        problems += values_mismatch(f"cli {key} vs reference", outputs[key], reference[key])
        if golden is not None:
            problems += values_mismatch(f"cli {key} vs golden", outputs[key], golden[key])
    return problems
