"""Seeded replication engine for coverage and deviation experiments.

Three experiments over Frank-copula ground truth:

* ``run_coverage``: empirical simultaneous-coverage frequencies of the
  requested bands over B replicates per (theta, n) cell.
* ``run_lil_check``: distribution of the normalized maximal deviation
  R_n * sup |Chat - Ebar| per replicate, Ebar the cross-replicate mean
  surface standing in for the exact estimator expectation.
* ``run_bias_check``: the normalized bias proxy R_n * sup |Ebar - C|.

Each is a fold over one cell pipeline: one rank table per n (it does not
depend on theta), one task per (theta, n, chunk) in that order, and one
map over all tasks. A task is a chunk of up to ``REPLICATE_CHUNK``
replicates and runs each layer once for the whole chunk: one Philox
generator re-keyed per replicate, one Frank sampler call and one rank pass
over (replicates, n) arrays; only the rank-table gathers and the blocked
product run per replicate. Coverage workers return counts; the deviation
checks concatenate one cell's chunk stacks at a time.

Determinism contract: replicate r of cell (theta_i, n_j) draws from a
counter-based generator keyed by (master seed, i, j, r), replicates are
dispatched in fixed-size chunks, and reductions run in submission order.
Reports are therefore bit-identical for any worker count and, on grids of
33 (the default), 36 and 44 knots, for any BLAS thread count: the estimate
sums its matrix products over blocks of 512 observations, each small
enough there to stay on one BLAS thread. The BLAS build and the CPU kernel
it selects can still move the last bits. The worker count defaults to the
``COPBANDS_WORKERS`` environment variable, an integer >= 1 (1 if unset); a
single worker runs in-process with no pool, more workers share one process
pool per run, of at most one process per task.
"""

from __future__ import annotations

import numbers
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bands import BandMethod, BandSpec, covers, half_width, rn
from .copula import THETA_MAX, frank_cdf, frank_conditional_sample, frank_sigma2
from .estimator import _doubled_rank_rows, _table_product
from .estimator import default_bandwidth, interior_grid, rank_table
from .estimator import estimate_grid  # unused; bench/worker.py:hook_estimates patches it

__all__ = [
    "WORKERS_ENV",
    "REPLICATE_CHUNK",
    "ExperimentConfig",
    "CoverageRow",
    "CoverageReport",
    "DeviationRow",
    "DeviationReport",
    "run_coverage",
    "run_lil_check",
    "run_bias_check",
]

WORKERS_ENV = "COPBANDS_WORKERS"

# Replicates per task. Reports do not depend on it: a replicate's stream depends
# only on its key, counts add exactly and deviations reduce a cell's whole stack.
REPLICATE_CHUNK = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one replication experiment.

    ``bandwidth`` is None (the default schedule 1/log n) or a fixed finite
    positive number. ``seed``, ``B`` and the numbers of thetas and ns are
    bounded by the width of their field in the per-replicate stream key,
    so that no two experiments share a random stream.
    """

    thetas: tuple
    ns: tuple
    B: int
    seed: int
    grid_resolution: int = 33
    bandwidth: float | None = None
    band_specs: tuple = (BandSpec(BandMethod.LIL),)

    def __post_init__(self):
        for name in ("ns", "B", "seed", "grid_resolution"):
            value = getattr(self, name)
            try:
                value = tuple(map(operator.index, value)) if name == "ns" else operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be given as integers, not {value!r}") from None
            object.__setattr__(self, name, value)
        thetas = tuple(self.thetas) if np.iterable(self.thetas) else None
        if thetas is None or not all(isinstance(t, numbers.Real) for t in thetas):
            raise ValueError(f"thetas must be real numbers, not {self.thetas!r}")
        thetas = tuple(map(float, thetas))
        if not thetas or not all(np.isfinite(thetas)):
            raise ValueError("thetas must be a nonempty list of finite reals")
        if any(abs(t) > THETA_MAX for t in thetas):
            raise ValueError(f"|theta| must be <= {THETA_MAX:g} (exp overflow in the sampler)")
        if not self.ns or any(n < 16 for n in self.ns):
            raise ValueError("all sample sizes must be >= 16")
        for name, values in (("thetas", thetas), ("ns", self.ns)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
            if len(values) > 2**16:
                raise ValueError(f"at most 2**16 {name} (16-bit stream-key field)")
        if not 1 <= self.B <= 2**32:
            raise ValueError("B must be >= 1 and <= 2**32 (32-bit stream-key field)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64) (64-bit stream-key field)")
        interior_grid(self.grid_resolution)  # rejects a resolution below 2
        specs = tuple(self.band_specs)
        if not specs or not all(isinstance(s, BandSpec) for s in specs):
            raise ValueError("band_specs must be a nonempty list of BandSpec")
        for k, spec in enumerate(specs):  # report rows are keyed by method
            if spec.method in [s.method for s in specs[:k]]:
                raise ValueError(f"band_specs repeat the method '{spec.method.value}'")
        if self.bandwidth is not None:
            if not isinstance(self.bandwidth, numbers.Real) or not 0 < self.bandwidth < np.inf:
                raise ValueError("bandwidth must be None or a finite positive number")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "band_specs", specs)

    def bandwidth_for(self, n: int) -> float:
        if self.bandwidth is None:
            return default_bandwidth(n)
        return self.bandwidth


@dataclass(frozen=True)
class CoverageRow:
    method: str
    theta: float
    n: int
    coverage: float
    mc_stderr: float
    B: int
    seed: int


@dataclass(frozen=True)
class CoverageReport:
    """Coverage frequencies in emission order (method, then theta, then n)."""

    rows: tuple

    def cell(self, method: str, theta: float, n: int) -> CoverageRow:
        for row in self.rows:
            if row.method == method and row.theta == float(theta) and row.n == int(n):
                return row
        raise KeyError(f"no coverage cell ({method}, {theta}, {n})")


@dataclass(frozen=True)
class DeviationRow:
    """Deviation statistics for one (theta, n) cell.

    ``statistics`` holds one value per replicate for the LIL experiment
    and a single aggregated value for the bias experiment.
    """

    theta: float
    n: int
    B: int
    statistics: tuple

    @property
    def stat_max(self) -> float:
        return float(np.max(self.statistics))

    @property
    def stat_mean(self) -> float:
        return float(np.mean(self.statistics))

    @property
    def stat_p99(self) -> float:
        return float(np.percentile(self.statistics, 99.0))

    def fraction_within(self, bound: float) -> float:
        stats = np.asarray(self.statistics)
        return float(np.mean(stats <= bound))


@dataclass(frozen=True)
class DeviationReport:
    mode: str
    rows: tuple


def _stream_key(seed: int, theta_idx: int, n_idx: int, r: int) -> int:
    """128-bit Philox key: master seed (high 64) | theta | n | replicate.

    The masks alias values wider than their field onto smaller ones;
    ``ExperimentConfig`` rejects such values before any stream is keyed.
    """
    return (
        ((seed & 0xFFFFFFFFFFFFFFFF) << 64)
        | ((theta_idx & 0xFFFF) << 48)
        | ((n_idx & 0xFFFF) << 32)
        | (r & 0xFFFFFFFF)
    )


def _replicate_rng(seed: int, theta_idx: int, n_idx: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, theta_idx, n_idx, r)))


def _keyed_draws(seed: int, theta_idx: int, n_idx: int, r0: int, r1: int, n: int):
    """Draws u and w, each (r1 - r0, n), of replicates r0..r1-1 in one Philox.

    Row k holds what ``_replicate_rng(seed, theta_idx, n_idx, r0 + k)``
    draws first and second: a Philox stream is a pure function of its key
    and counter, so resetting the state to a new key, a zero counter and an
    empty buffer starts that replicate's stream without a new generator.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    u = np.empty((r1 - r0, n))
    w = np.empty((r1 - r0, n))
    for k, r in enumerate(range(r0, r1)):
        key = _stream_key(seed, theta_idx, n_idx, r)
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [key & 0xFFFFFFFFFFFFFFFF, key >> 64]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.random(out=u[k])
        rng.random(out=w[k])
    return u, w


def _grid_chunk(args):
    """Estimate surfaces of replicates r0..r1-1, looked up in the cell's rank table.

    Draws, the Frank sampler and the ranks run once over the whole chunk;
    each replicate then gathers its rank-table rows and adds its blocks
    as ``rank_estimate`` does, so its surface has the same bits.
    """
    (seed, theta, theta_idx, n, n_idx, r0, r1, table) = args
    u, w = _keyed_draws(seed, theta_idx, n_idx, r0, r1, n)
    mx = _doubled_rank_rows(u)
    my = _doubled_rank_rows(frank_conditional_sample(theta, u, w))
    out = np.empty((r1 - r0, table.shape[1], table.shape[1]))
    for k in range(r1 - r0):
        out[k] = _table_product(table, mx[k], my[k])
    return out


def _coverage_chunk(args):
    """Covered replicates of one chunk, one count per band half-width."""
    *grid_args, truth, half_widths = args
    stack = _grid_chunk(grid_args)
    return np.array([np.count_nonzero(covers(stack, hw, truth)) for hw in half_widths])


def _cells(config: ExperimentConfig, workers, chunk_fn, extras=None):
    """Yield ``(theta_idx, n_idx, chunk results)`` per cell in (theta, n) order.

    One rank table per n and one task per (theta, n, chunk), extended by the
    tuple ``extras[theta_idx][n_idx]`` if given. ``chunk_fn`` maps over all
    tasks at once: lazily in process for one worker, else through a single
    process pool of at most one worker per task.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, not {raw!r}")
        workers = int(raw)
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    knots = interior_grid(config.grid_resolution)
    tables = [rank_table(n, config.bandwidth_for(n), knots) for n in config.ns]
    chunks = [(r0, min(r0 + REPLICATE_CHUNK, config.B))
              for r0 in range(0, config.B, REPLICATE_CHUNK)]
    cells = [(i, j) for i in range(len(config.thetas)) for j in range(len(config.ns))]
    tasks = [(config.seed, config.thetas[i], i, config.ns[j], j, r0, r1, tables[j],
              *(extras[i][j] if extras else ())) for i, j in cells for r0, r1 in chunks]
    workers = min(workers, len(tasks))  # a pool forks all its workers up front
    serial = workers == 1
    with nullcontext() if serial else ProcessPoolExecutor(max_workers=workers) as pool:
        results = map(chunk_fn, tasks) if serial else pool.map(chunk_fn, tasks)
        for i, j in cells:
            yield i, j, list(islice(results, len(chunks)))


def run_coverage(config: ExperimentConfig, workers=None) -> CoverageReport:
    """Empirical simultaneous-coverage frequencies per (method, theta, n).

    Each replicate draws a Frank sample by conditional sampling and
    estimates the copula on the shared interior grid from its ranks and
    the rank table of its n. A band covers the replicate when the true
    surface lies within the estimate ± the band's half-width, computed
    once per cell, at every knot. Rows are emitted in (method, theta, n) order with Monte Carlo
    standard errors sqrt(p(1-p)/B) attached.
    """
    knots = interior_grid(config.grid_resolution)
    need_sigma2 = any(spec.method is BandMethod.NORMAL for spec in config.band_specs)
    extras = []  # per cell: the truth surface and one half-width per band
    for theta in config.thetas:
        truth = frank_cdf(theta, knots[:, None], knots[None, :])
        sigma2 = frank_sigma2(theta, knots[:, None], knots[None, :]) if need_sigma2 else None
        extras.append([(truth, [half_width(spec, n, sigma2) for spec in config.band_specs])
                       for n in config.ns])

    counts = np.zeros((len(config.thetas), len(config.ns), len(config.band_specs)), dtype=int)
    for i, j, chunk_counts in _cells(config, workers, _coverage_chunk, extras):
        counts[i, j] = np.sum(chunk_counts, axis=0)

    rows = []
    for k, spec in enumerate(config.band_specs):
        for i, theta in enumerate(config.thetas):
            for j, n in enumerate(config.ns):
                covered = int(counts[i, j, k])
                p = covered / config.B
                stderr = float(np.sqrt(p * (1.0 - p) / config.B))
                rows.append(
                    CoverageRow(
                        method=spec.method.value,
                        theta=float(theta),
                        n=int(n),
                        coverage=p,
                        mc_stderr=stderr,
                        B=config.B,
                        seed=config.seed,
                    )
                )
    return CoverageReport(tuple(rows))


def run_lil_check(config: ExperimentConfig, workers=None) -> DeviationReport:
    """Per-replicate normalized maximal deviations R_n·sup|Chat - Ebar|.

    Ebar is the cross-replicate mean surface, the Monte Carlo stand-in for
    the exact estimator expectation; B >= 100 keeps its error an order
    below the statistic.
    """
    if config.B < 100:
        raise ValueError("lil check requires B >= 100 (mean-surface proxy accuracy)")
    rows = []
    for i, j, stacks in _cells(config, workers, _grid_chunk):
        grids = np.concatenate(stacks, axis=0)
        n = config.ns[j]
        stats = rn(n) * np.max(np.abs(grids - grids.mean(axis=0)), axis=(1, 2))
        rows.append(
            DeviationRow(
                theta=config.thetas[i], n=n, B=config.B,
                statistics=tuple(float(s) for s in stats),
            )
        )
    return DeviationReport(mode="lil", rows=tuple(rows))


def run_bias_check(config: ExperimentConfig, workers=None) -> DeviationReport:
    """Normalized bias proxy R_n·sup|Ebar - C| per (theta, n) cell.

    B >= 1000 so the mean surface estimates the expectation with error
    well below the bias it is measuring.
    """
    if config.B < 1000:
        raise ValueError("bias check requires B >= 1000 (mean-surface proxy accuracy)")
    knots = interior_grid(config.grid_resolution)
    truths = [frank_cdf(theta, knots[:, None], knots[None, :]) for theta in config.thetas]
    rows = []
    for i, j, stacks in _cells(config, workers, _grid_chunk):
        mean_surface = np.concatenate(stacks, axis=0).mean(axis=0)
        stat = rn(config.ns[j]) * float(np.max(np.abs(mean_surface - truths[i])))
        rows.append(DeviationRow(theta=config.thetas[i], n=config.ns[j], B=config.B,
                                 statistics=(stat,)))
    return DeviationReport(mode="bias", rows=tuple(rows))
